"""The demos run to completion against the current API, and the benchmark's
tracer names only functions the library has."""
import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import logheat

SRC = os.path.dirname(os.path.dirname(logheat.__file__))
DEMOS = os.path.join(os.path.dirname(SRC), "demos")


@pytest.mark.parametrize("script", ["curvature_envelopes.py", "heavy_tail_certificates.py",
                                    "reverse_diffusion.py", "transport_certification.py"])
def test_demo_runs(script, tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_traced_functions_exist():
    # perfbench/tracing.py rebinds each (module, function) of TRACED in the
    # logheat modules: each must be a callable global of logheat.<module>
    path = os.path.join(os.path.dirname(SRC), "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        fn = vars(importlib.import_module(f"logheat.{module}")).get(name)
        assert callable(fn), f"logheat.{module}.{name}"

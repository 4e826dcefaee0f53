"""The demos run to completion against the current API, the benchmark's
tracer names only functions the library has, and the test oracles import
nothing from it."""
import ast
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


def test_oracles_import_no_logheat():
    # tests/oracles.py works from plain data: a library import there could hide
    # a defect in the oracle that checks it (names in strings: __import__)
    with open(os.path.join(os.path.dirname(__file__), "oracles.py")) as fh:
        nodes = list(ast.walk(ast.parse(fh.read())))
    names = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
    names += [n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.module]
    names += [n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    assert not [name for name in names if name.split(".")[0] == "logheat"]

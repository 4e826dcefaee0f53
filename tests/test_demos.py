"""The demos run to completion against the current API."""
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

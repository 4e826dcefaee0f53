"""Tests of the benchmark harness itself, at tiny size.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = parse(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
                       ("fail_frac", "ratio"), *wl.ACCURACY[workload].items()]:
        fig = report[name]
        assert fig["unit"] == unit
        assert isinstance(fig.get("value", fig.get("median")), float), name
    assert report["pass_s"]["n"] >= 1 and report["setup_s"]["n"] >= 1


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_per_layer_metrics(workload):
    report, result = parse(run_bench(workload, 1))
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert set(report["layer_self_s"]) >= {"measures", "heatflow", "transport",
                                          "counterexample", "structure", "bounds", "cli"}


def _tally(ops, p):
    t = wl.Tally()
    t.add(ops, wl.check_pass(ops, p))
    return t


def test_shifted_flow_map_counts_as_failure():
    inp = inputs.build("transport", 3, "tiny")
    ops = wl.make_ops("transport", inp)
    p = wl.run_pass(ops)
    clean = _tally(ops, p)
    assert clean.unexpected == 0
    fm = p.results["flow.mix"]
    p.results["flow.mix"] = replace(fm, images=fm.images + 1e-3)
    bad = _tally(ops, p)
    assert bad.fail_frac > clean.fail_frac
    assert bad.unexpected == 1 and "flow.mix" in bad.failing
    assert bad.errors["flow_err"] >= 1e-3


def test_perturbed_log_hessian_counts_as_failure():
    inp = inputs.build("certify", 3, "tiny")
    ops = wl.make_ops("certify", inp)
    p = wl.run_pass(ops)
    clean = _tally(ops, p)
    # the known defects fail today, but only as known defects
    assert clean.fail_frac > 0 and clean.unexpected == 0
    assert clean.errors["hess_err"] >= 0.3
    p.results["hess.kink.0"] = p.results["hess.kink.0"] * (1 + 1e-6)
    bad = _tally(ops, p)
    assert bad.unexpected == 1 and bad.fail_frac > clean.fail_frac


def test_cdf_spans_of_mix_exclude_the_2d_marginal():
    import run
    import tracing

    inp = inputs.build("sample", 3, "tiny")
    ops = wl.make_ops("sample", inp)
    tracer = tracing.Tracer()
    run._label(tracer, inp)
    tracer.install()
    try:
        wl.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    sizes = {s[4]["n"] for s in tracer.spans
             if s[0] == "measures.cdf_1d" and s[4].get("family") == "mix"}
    assert sizes == {inp["runs"]["mix"]["n"]}


def test_oracle_matches_gaussian_closed_form():
    from oracles import flow_map, log_hessian_heat

    spec = inputs.gauss_perturbed(1.5, 0.7)
    assert log_hessian_heat(spec, 0.3, 0.4) == pytest.approx(1 / 1.1, rel=1e-14)
    xs = np.linspace(-2, 2, 9)
    g = inputs.build_measure(inputs.gauss_mixture(1.5, 0.7))
    assert np.max(np.abs(flow_map(g, xs) - (1.5 + np.sqrt(0.7) * xs))) < 1e-12


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("certify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

#!/usr/bin/env python3
"""Run one logheat benchmark workload and print its result.

    python3 perfbench/run.py --workload transport --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, computes the exact oracles,
runs one warm-up pass, then repeats timed passes until they add up to
``--seconds`` seconds, checking every result.  ``wall_s`` is one pass with
every operation at its fastest: the sum over the operations of each one's
minimum time in the run.  Set-up is timed in fresh processes started between
the passes; ``setup_s`` is the fastest.  ``--trace 1`` alternates untraced
and traced passes and reports per-layer figures instead of end-to-end ones.
Metric names and units are those of BENCHMARK.json.

The second-to-last line of stdout is ``{"report": {...}}`` with every figure
the run took; the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exits 1 without a result if the harness itself breaks, and 2 if
``src/logheat`` is missing.
"""
from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# cap BLAS threads at the CPUs this process may use; must precede numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 2
BUILD_REPEATS = 50
WORKLOADS = ("transport", "sample", "certify", "cli")
# labels for the span family of the named inputs (others go by measure type)
LABELLED = ("kink", "mix", "gauss", "mix2d", "mix2d.x0")


class HarnessError(RuntimeError):
    """The benchmark itself broke; no result is printed."""


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units, bounds and run_seconds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def quartiles(xs: list[float]) -> dict:
    xs = sorted(xs)
    if len(xs) >= 2:
        q1, med, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = med = q3 = xs[0]
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def fastest(xs: list[float]) -> dict:
    """The minimum, with median and quartiles.  The host's speed switches
    between states about 1.6x apart that last seconds to minutes, so across
    runs the fastest sample is steadier than the median (README)."""
    return {"value": min(xs), **quartiles(xs)}


def probe_setup(workload: str, seed: int, size: str, env: dict) -> dict:
    """``import logheat`` plus building the inputs, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed), size],
        env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise HarnessError(f"set-up probe failed: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "nproc": NPROC,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
        "note": "shared sandbox: no control over CPU frequency, caches or neighbours",
    }


def run(args) -> tuple[dict, dict]:
    import inputs
    import layers
    import tracing
    import workloads as wl

    spec = load_spec()
    env = child_env()
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = {"workdir": str(workdir), "env": env}
        inp = inputs.build(args.workload, args.seed, args.size)
        ops = wl.make_ops(args.workload, inp, ctx)
        tally = wl.Tally()
        if args.workload != "cli":  # a CLI call is a fresh process: nothing to warm
            wl.run_pass(ops)

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            _label(tracer, inp)
        untraced, traced, op_times = [], [], {op.name: [] for op in ops}
        setup, next_probe = [], 0.0
        min_passes = 1 if args.size == "tiny" else MIN_PASSES
        while len(untraced) < min_passes or sum(untraced) < args.seconds:
            # set-up probes spread over the run, one per share of its seconds
            if sum(untraced) >= next_probe and len(setup) < SETUP_REPEATS:
                setup.append(probe_setup(args.workload, args.seed, args.size, env))
                next_probe += args.seconds / SETUP_REPEATS
            p = wl.run_pass(ops)
            tally.add(ops, wl.check_pass(ops, p))
            untraced.append(p.wall)
            for name, dt in p.times.items():
                op_times[name].append(dt)
            if tracer is not None:
                tracer.install()
                try:
                    p = wl.run_pass(ops, tracer)
                finally:
                    tracer.uninstall()
                tally.add(ops, wl.check_pass(ops, p))
                traced.append(p.wall)
        while len(setup) < SETUP_REPEATS:
            setup.append(probe_setup(args.workload, args.seed, args.size, env))

        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "environment": environment(),
            "wall_s": {"value": sum(min(v) for v in op_times.values()), "unit": "s"},
            "pass_s": {**quartiles(untraced), "values": untraced, "unit": "s"},
            "setup_s": {**fastest([s["setup_s"] for s in setup]), "unit": "s"},
            "import_s": {**fastest([s["import_s"] for s in setup]), "unit": "s"},
            "attempted": tally.attempted, "failures": tally.failures,
            "unexpected_failures": tally.unexpected,
            "fail_frac": {"value": tally.fail_frac, "unit": "ratio"},
            "errors": tally.errors,
            "failing": tally.failing,
            "known_defects_failing": sorted(set(tally.failing) & set(wl.KNOWN_DEFECTS)),
            "op_median_s": {k: statistics.median(v) for k, v in op_times.items()},
        }
        for name, unit in wl.ACCURACY[args.workload].items():
            if name == "cli_call_s":
                calls = [dt for v in op_times.values() for dt in v]
                report[name] = {**quartiles(calls), "unit": unit}
            else:
                report[name] = {"value": tally.errors.get(name), "unit": unit}

        if tracer is None:
            report["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"}
            metrics = {m["name"]: {"value": report[m["name"]]["value"], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
        else:
            overhead = min(traced) - min(untraced)
            report["traced_wall_s"] = {**quartiles(traced), "unit": "s"}
            _coverage(tracer, args, ctx, inputs, wl)
            values = layers.derive(tracer, report["import_s"]["value"], overhead)
            missing = [m["name"] for m in spec["per_layer"] if values.get(m["name"]) is None]
            if missing:
                raise HarnessError(f"no spans for per-layer metrics {missing}")
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
            report["per_layer"] = metrics
            report["layer_self_s"] = tracer.self_times()
            report["spans"] = len(tracer.spans)
        result = {"correct": tally.unexpected == 0, "attempted": tally.attempted,
                  "failed": tally.unexpected, "metrics": metrics}
        return report, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def _label(tracer, inp: dict) -> None:
    for key, measure in inp.get("measures", {}).items():
        if key in LABELLED:
            tracer.label(measure, key)


def _coverage(tracer, args, ctx, inputs, wl) -> None:
    """One traced pass of every other workload, so that each traced run yields
    every per-layer metric, plus the measure builds behind measures.build_us."""
    tracer.install()
    try:
        for other in WORKLOADS:
            if other == args.workload:
                continue
            inp = inputs.build(other, args.seed, args.size)
            ops = wl.make_ops(other, inp, ctx)
            _label(tracer, inp)
            wl.run_pass(ops, tracer)
        for _ in range(BUILD_REPEATS):
            for name, spec in (("kink", inputs.KINK), ("mix", inputs.MIX)):
                with tracer.span(f"build.{name}"):
                    inputs.build_measure(spec)
    finally:
        tracer.uninstall()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long smoke size, for the harness test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "logheat" / "__init__.py").is_file():
        print(f"perfbench: no logheat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        report, result = run(args)
    except (HarnessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: harness error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

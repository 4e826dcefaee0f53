#!/usr/bin/env python3
"""Run workloads over several seeds, print every end-to-end metric, compare files.

    python3 perfbench/summary.py run --seeds 1-10 [--workloads transport,cli]
                                     [--trace 0] [--save runs.json]
    python3 perfbench/summary.py show runs.json
    python3 perfbench/summary.py compare base.json new.json

``run`` starts ``run.py`` once per (workload, seed), in turn, for the
``run_seconds`` of BENCHMARK.json, and prints, per workload, each end-to-end
figure of the runs' reports by name with its unit, sample count (runs),
median, quartiles and spread (quartile distance over the median), beside the
bound from BENCHMARK.json.  It exits 1 if any run broke the harness (non-zero
exit or no result line); oracle failures are metrics (``fail_frac``), not
harness errors.  ``compare`` prints each metric's median in both files and
the change, and flags gated metrics that got worse by more than their bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOADS, load_spec, quartiles


def bounds() -> dict:
    return {m["name"]: m for m in load_spec()["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, trace: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(load_spec()["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"HARNESS ERROR {workload} seed {seed}: exit {proc.returncode}\n"
              f"{proc.stderr.strip()[-1000:]}", file=sys.stderr)
        return None
    try:
        return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}
    except (ValueError, KeyError) as exc:
        print(f"HARNESS ERROR {workload} seed {seed}: bad output ({exc})", file=sys.stderr)
        return None


def figures(report: dict):
    """(name, unit, value) of each figure with a unit in a run's report."""
    for name, fig in report.items():
        if isinstance(fig, dict) and "unit" in fig:
            v = fig.get("value", fig.get("median"))
            if v is not None:
                yield name, fig["unit"], v


def table(runs: list[dict]) -> dict:
    """{workload: {metric: (unit, values)}} over the runs in the file."""
    out: dict = {}
    for run in runs:
        w = run["report"]["workload"]
        for name, unit, v in figures(run["report"]):
            out.setdefault(w, {}).setdefault(name, (unit, []))[1].append(v)
        for name, fig in run["report"].get("per_layer", {}).items():
            out.setdefault(w, {}).setdefault(name, (fig["unit"], []))[1].append(fig["value"])
    return out


def show(runs: list[dict]) -> None:
    gated = bounds()
    for w, metrics in table(runs).items():
        wrong = [r["report"]["seed"] for r in runs
                 if r["report"]["workload"] == w and not r["result"]["correct"]]
        print(f"\n{w}  (correct in every run: {'yes' if not wrong else 'NO, seeds ' + str(wrong)})")
        print(f"  {'metric':34s} {'unit':6s} {'n':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, (unit, xs) in metrics.items():
            q = quartiles(xs)
            q1, med, q3 = q["q1"], q["median"], q["q3"]
            spread = (q3 - q1) / abs(med) if med else float("nan")
            b = gated.get(name, {}).get("bound")
            flag = ""
            if b is not None:
                flag = "  OK" if spread <= b / 3 else ("  within bound" if spread <= b else "  WIDE")
            print(f"  {name:34s} {unit:6s} {len(xs):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if b is None else b:>6}{flag}")


def compare(base: list[dict], new: list[dict]) -> int:
    gated = bounds()
    tb, tn = table(base), table(new)
    worse = 0
    for w in tn:
        print(f"\n{w}")
        for name, (unit, xs) in tn[w].items():
            if name not in tb.get(w, {}):
                continue
            b = statistics.median(tb[w][name][1])
            n = statistics.median(xs)
            change = (n - b) / abs(b) if b else float("nan")
            line = f"  {name:34s} {unit:6s} {b:12.6g} -> {n:12.6g}  {change:+8.2%}"
            spec = gated.get(name)
            if spec is not None:
                sign = 1 if spec["better"] == "lower" else -1
                if sign * change > spec["bound"]:
                    line += f"  WORSE than bound {spec['bound']}"
                    worse += 1
            print(line)
    return 1 if worse else 0


def load(path: str) -> list[dict]:
    return json.loads(Path(path).read_text())["runs"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", default=",".join(WORKLOADS))
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--save", default=None)
    s = sub.add_parser("show")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args(argv)

    if args.cmd == "show":
        show(load(args.file))
        return 0
    if args.cmd == "compare":
        return compare(load(args.base), load(args.new))
    runs, broken = [], 0
    for w in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            res = run_one(w, seed, args.trace)
            if res is None:
                broken += 1
            else:
                runs.append(res)
            if args.save:
                Path(args.save).write_text(json.dumps({"runs": runs}))
    show(runs)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())

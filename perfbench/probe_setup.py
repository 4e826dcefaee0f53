"""Time one workload's set-up in this fresh process.

    python3 perfbench/probe_setup.py <workload> <seed> <size>

Prints {"import_s", "build_s", "setup_s"}: ``import logheat``, then building
the workload's inputs (oracles excluded).  Needs ``src`` on PYTHONPATH.
"""
import json
import sys
import time

t0 = time.perf_counter()
import logheat  # noqa: E402,F401

t1 = time.perf_counter()
import inputs  # noqa: E402

inputs.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0}))

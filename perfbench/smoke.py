"""Smoke check of the benchmark at tiny sizes (census n <= 7, a few queries).

    python3 perfbench/smoke.py

Runs every workload untraced and traced, and fails unless each run emits
exactly the metrics BENCHMARK.json names, with their units, and every
correctness gate passes (failed_ratio 0).
"""

from __future__ import annotations

import json
import sys

import run
from workloads import SMOKE, WORKLOADS


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            line = run.run_workload(name, seed=1, seconds=1, trace=trace, sizes=SMOKE)["line"]
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {key: m["unit"] for key, m in line["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(got.items())} != {sorted(wanted.items())}")
            if line["attempted"] < 1 or line["failed"] != 0:
                problems.append(f"{name} trace={int(trace)}: failed_ratio {line['failed']}/{line['attempted']}")
            print(f"{name} trace={int(trace)}: {len(got)} metrics, {line['attempted']} gates, {line['failed']} failed")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Print every end-to-end metric of every workload, by name and unit.

    python3 perfbench/report.py [--seed 0]

Runs ``run.py --trace 0`` once per workload, each in its own process (peak
memory is per process), for ``run_seconds`` of ``BENCHMARK.json``, and
prints one table.  The gate's error fraction and changed-row count are
printed with the metrics.  Exits 1 if any run fails or any correctness
check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def _run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    seconds = _run_seconds()
    ok = True
    print(f"{'workload':<22} {'metric':<18} {'value':>16}  unit")
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"{workload:<22} run failed with exit status {done.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        gate = next((json.loads(line[5:]) for line in lines if line.startswith("gate ")), {})
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows += [("error_frac", result["failed"] / result["attempted"], "frac"),
                 ("csv_rows_changed", gate.get("csv_rows_changed", -1), "count")]
        for name, value, unit in rows:
            print(f"{workload:<22} {name:<18} {value:>16.6g}  {unit}")
        for line in gate.get("failures", []):
            print(f"{workload:<22} check failed: {line}")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

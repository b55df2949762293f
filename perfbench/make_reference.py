"""Regenerate the reference CSVs of the exact-sweep workloads.

    python3 perfbench/make_reference.py

Runs every exact sweep of ``unknown_model`` and ``sweep_scan_exact`` once
through ``advice_search.cli.main`` and overwrites ``perfbench/reference/``.
The gate compares later outputs with these files, so regenerate them only
deliberately, in a change that redefines the benchmark, and say why.
"""
from __future__ import annotations

import os
import shutil
import sys

import run
import workloads


def main() -> int:
    os.environ.update(run.ENV)
    cli = run.import_package()
    import gate
    workdir = os.path.join(run.WORK, f"reference-{os.getpid()}")
    try:
        for workload in workloads.WORKLOADS:
            sweeps = [op for op in workloads.build(workload, seed=0) if op.kind == "sweep"]
            workloads.write_configs(sweeps, workdir)
            for op in sweeps:
                if cli.main(op.argv(workdir)) != 0:
                    print(f"error: sweep {op.name} failed", file=sys.stderr)
                    return 1
                shutil.copyfile(os.path.join(workdir, op.name + ".csv"),
                                os.path.join(gate.REFERENCE_DIR, op.name + ".csv"))
                print(f"wrote {op.name}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

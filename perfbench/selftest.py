"""Self-test of the benchmark: toy-size workloads and a gate that must bite.

    python3 perfbench/selftest.py

1. Each workload runs once at toy size (the first grid points, fewer Monte
   Carlo trials) and must pass the gate with no changed rows.
2. A reference row perturbed beyond the tolerance must fail the sweep and
   count as one changed row; a change of text alone ("0" written as "0.0")
   must count as a changed row without failing.
3. A Monte Carlo mean twice the gate's limit from the exact value must fail.

Exits 0 when every check behaves, 1 otherwise.
"""
from __future__ import annotations

import os
import shutil
import sys

import run
import workloads


def _expect(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def _perturb_reference(src: str, dst: str, name: str, n: int, column: int,
                       edit) -> None:
    """Copy the reference set, editing one field of one row of one file."""
    shutil.copytree(src, dst)
    path = os.path.join(dst, name + ".csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        parts = line.split(",")
        if parts[0] == str(n):
            parts[column] = edit(parts[column])
            lines[i] = ",".join(parts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> int:
    os.environ.update(run.ENV)
    cli = run.import_package()
    import gate
    failures: list[str] = []
    workdir = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        for workload in workloads.WORKLOADS:
            ops = workloads.build(workload, seed=0, toy=True)
            workloads.write_configs(ops, workdir)
            runner = run.Runner(cli, ops, workdir)
            runner.repetition()
            _expect(runner.failed == 0 and runner.changed_rows == 0,
                    f"{workload} at toy size passes the gate "
                    f"({runner.attempted} calls, {runner.failed} failed, "
                    f"{runner.changed_rows} rows changed)", failures)
            for line in runner.failures:
                print("      " + line)

        ops = [op for op in workloads.build("unknown_model", seed=0, toy=True)
               if op.name == "unknown_k-0.75"]
        edits = (
            ("beyond tolerance", True, 4, lambda text: format(float(text) * (1 + 1e-6), ".10g")),
            ("text only", False, 12, lambda text: text + ".0"),
        )
        for label, should_fail, column, edit in edits:
            perturbed = os.path.join(workdir, "reference-" + label.replace(" ", "-"))
            _perturb_reference(gate.REFERENCE_DIR, perturbed, "unknown_k-0.75", 4096,
                               column, edit)
            runner = run.Runner(cli, ops, workdir, reference_dir=perturbed)
            runner.repetition()
            _expect(runner.changed_rows == 1 and (runner.failed > 0) == should_fail,
                    f"perturbed reference row ({label}): {runner.changed_rows} "
                    f"changed, {runner.failed} failed", failures)

        op = next(op for op in workloads.build("unknown_model", seed=0, toy=True)
              if op.kind == "run")
        workloads.write_configs([op], workdir)
        exact = gate.exact_means(op.ns[0], op.k)
        _expect(cli.main(op.argv(workdir)) == 0, f"{op.name} runs", failures)
        with open(os.path.join(workdir, op.name + ".csv"), encoding="utf-8") as fh:
            header, row = fh.read().splitlines()[:2]
        _expect(gate.check_mc(op.ns[0], op.k, header + "\n" + row, exact).ok,
                f"{op.name} mean agrees with the exact value", failures)
        parts = row.split(",")
        parts[4] = repr(exact[0] + 2.0 * gate.Z_MAX * float(parts[5]))
        verdict = gate.check_mc(op.ns[0], op.k, header + "\n" + ",".join(parts), exact)
        _expect(not verdict.ok, f"mean {2 * gate.Z_MAX:g} stderr off the exact value fails ({verdict.detail})", failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

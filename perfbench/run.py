"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload unknown_model --seed 0 --seconds 40 --trace 0

Run from the repository root.  The workload's CLI calls go through
``advice_search.cli.main`` in this process, repeated until ``--seconds``
have passed; the last repetition may run past them.
Every output is checked by the gate.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: end-to-end metrics from untraced repetitions.
* ``--trace 1``: per-layer metrics from traced repetitions, which alternate
  with untraced ones so that the tracing overhead is measured in the same
  process.

Earlier lines carry the run manifest and the gate summary.  Exit status is
0 when the run completed, even if a check failed (``correct`` is false);
it is 2 when the package cannot be found or imported.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Set-up is timed in fresh processes, one after each repetition and at
# least this many in all, so the samples spread over the run instead of
# sharing one moment of the host's load; the median is reported.
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

# One worker and single-threaded BLAS: the load stays within one core, and
# thread scheduling on a shared host does not enter the timings.
ENV = {"ADVICE_SEARCH_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def import_package():
    """Import advice_search.cli from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "advice_search", "__init__.py")):
        print(f"error: no advice_search package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import advice_search.cli as cli
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        print(f"error: advice_search imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return cli


def probe_setup(workload: str, seed: int) -> None:
    """Time importing the package and writing the workload's configs."""
    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    started = time.perf_counter()
    import_package()
    workloads.write_configs(workloads.build(workload, seed), workdir)
    elapsed = time.perf_counter() - started
    shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


def measure_setup(workload: str, seed: int) -> float:
    """Run one set-up probe in a fresh process; returns its seconds."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(done.returncode or 2)
    return float(done.stdout.strip().splitlines()[-1])


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read().strip()


def _cache_sizes() -> dict[str, str]:
    """Cache sizes of CPU 0, e.g. {"L1d": "48K", "L3u": "107520K"}."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = {}
    try:
        for entry in sorted(os.listdir(base)):
            if entry.startswith("index"):
                path = os.path.join(base, entry)
                level = _read(os.path.join(path, "level"))
                kind = _read(os.path.join(path, "type"))[0].lower()
                caches[f"L{level}{kind}"] = _read(os.path.join(path, "size"))
    except OSError:
        pass
    return caches


def manifest(args) -> dict:
    import numpy as np
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(), "affinity": affinity,
        "caches": _cache_sizes(), "machine": platform.machine(),
        "env": {key: os.environ.get(key) for key in ENV},
    }


class Runner:
    """Runs repetitions of one workload and gates every output."""

    def __init__(self, cli, ops, workdir: str, reference_dir: str | None = None):
        import gate
        self.cli_module = cli
        self.gate = gate
        self.ops = ops
        self.workdir = workdir
        self.reference_dir = reference_dir or gate.REFERENCE_DIR
        self.exact = {op.name: gate.exact_means(op.ns[0], op.k)
                      for op in ops if op.kind == "run"}
        self.elems = sum(sum(op.ns) for op in ops if op.kind == "sweep")
        self.attempted = 0
        self.failed = 0
        self.changed_rows = 0
        self.failures: list[str] = []

    def _clear_outputs(self) -> None:
        for op in self.ops:
            for ext in (".csv", ".fit"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(self.workdir, op.name + ext))

    def repetition(self) -> float:
        """Run every call once, then gate the outputs; returns the call time."""
        self._clear_outputs()
        codes = []
        wall = 0.0
        for op in self.ops:
            argv = op.argv(self.workdir)
            started = time.perf_counter()
            try:
                # looked up at call time so a traced repetition sees the wrapper
                code = self.cli_module.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
            wall += time.perf_counter() - started
            codes.append(code)
        changed = 0
        for op, code in zip(self.ops, codes):
            verdict = self.check(op) if code == 0 else None
            self.attempted += 1
            if verdict is None or not verdict.ok:
                self.failed += 1
                self.failures.append(f"{op.kind} {op.name}: exit {code}"
                                     if verdict is None else verdict.detail)
            changed += verdict.changed_rows if verdict else op.exact_rows
        self.changed_rows = max(self.changed_rows, changed)
        return wall

    def check(self, op):
        base = os.path.join(self.workdir, op.name)
        try:
            if op.kind == "fit":
                with open(base + ".fit", encoding="utf-8") as fh:
                    return self.gate.check_fit(op.model, op.k, fh.read())
            with open(base + ".csv", encoding="utf-8") as fh:
                text = fh.read()
            if op.kind == "run":
                return self.gate.check_mc(op.ns[0], op.k, text, self.exact[op.name])
            return self.gate.check_sweep(op.ns, op.name, text, self.reference_dir)
        except Exception as exc:  # unreadable or malformed output fails the call
            return self.gate.Verdict(False, op.exact_rows, f"{op.name}: {exc!r}")


def run(args) -> dict:
    cli = import_package()
    setup: list[float] = []
    if args.trace:
        import tracing

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    ops = workloads.build(args.workload, args.seed)
    workloads.write_configs(ops, workdir)
    try:
        runner = Runner(cli, ops, workdir)
        plain, traced, layers, spans = [], [], [], []
        missing: set[str] = set()
        deadline = time.perf_counter() + args.seconds
        for rep in itertools.count():
            if args.trace and rep % 2 == 1:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced.append(runner.repetition())
                finally:
                    tracer.uninstall()
                layers.append(tracer.layer_metrics())
                spans.append(tracer.dump())
                missing |= tracer.missing
            else:
                plain.append(runner.repetition())
                if not args.trace:
                    setup.append(measure_setup(args.workload, args.seed))
            # a traced run needs at least one repetition of each kind
            if time.perf_counter() >= deadline and not (args.trace and not traced):
                break
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = manifest(args)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    info.update(setup_s=setup, untraced_wall_s=plain, traced_wall_s=traced,
                user_s=usage.ru_utime, sys_s=usage.ru_stime,
                minor_faults=usage.ru_minflt)
    print("manifest " + json.dumps(info, sort_keys=True))
    gate_line = {"attempted": runner.attempted, "failed": runner.failed,
                 "error_frac": runner.failed / runner.attempted,
                 "csv_rows_changed": runner.changed_rows,
                 "failures": runner.failures[:10]}
    print("gate " + json.dumps(gate_line, sort_keys=True))
    for line in runner.failures[:10]:
        print(f"check failed: {line}", file=sys.stderr)

    if args.trace:
        metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        overhead = (statistics.median(traced) - statistics.median(plain)) / statistics.median(plain)
        metrics["trace_overhead_frac"] = (overhead, "frac")
        metrics["trace.missing_layers"] = (len(missing), "count")
        metrics["gate.csv_rows_changed"] = (runner.changed_rows, "count")
        for name in sorted(missing):
            print(f"missing layer: {name}", file=sys.stderr)
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"manifest": info, "repetitions": spans}, fh)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(plain), "s"),
            "rank_elems_per_s": (runner.elems / statistics.median(plain), "1/s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        }
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(ENV)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.seconds is None:
        parser.error("the following argument is required: --seconds")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

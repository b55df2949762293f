"""Command line front end.

Subcommands:
  run       evaluate a single (distribution, model) point and print one CSV row
  sweep     evaluate a model across a grid of domain sizes and write a CSV file
  fit       read a sweep CSV and fit log-log scaling exponents
  validate  run the cross-module consistency checks

Exit codes: 0 success, 1 validation failure, 2 malformed config,
3 parameter out of range or too large to allocate, 4 unwritable output.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import sys

from . import validation
from .distributions import _MAX_LEN, ConfigError, ParameterError, _check_int
from .sweep import (
    MODES,
    SweepSpec,
    fit_scaling,
    read_rows,
    rows_to_csv,
    run_point,
    run_sweep,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_PARAMETER = 3
EXIT_OUTPUT = 4


@functools.cache   # parsing leaves the parser as it was, so in-process callers share one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advice-search",
        description="Expected query costs of advice-guided search strategies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None,
                       help="base seed for all randomness (default 0)")
        p.add_argument("--trials", type=int, default=None,
                       help="Monte Carlo trial count")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--mode", choices=MODES, default=None,
                       help="expectation method (default from config, else exact)")
        p.add_argument("--timing", action="store_true",
                       help="record wall time in the seconds column and log "
                            "per-point timings to stderr")

    run_p = sub.add_parser("run", help="evaluate one configuration")
    run_p.add_argument("config", help="JSON config file")
    add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="evaluate a grid of domain sizes")
    sweep_p.add_argument("config", help="JSON config file with an n_grid")
    add_common(sweep_p)

    fit_p = sub.add_parser("fit", help="fit scaling exponents from a sweep CSV")
    fit_p.add_argument("csv", help="CSV file produced by sweep")
    fit_p.add_argument("--drop", type=int, default=2,
                       help="discard this many smallest sizes per group (default 2)")
    fit_p.add_argument("--out", default=None)

    val_p = sub.add_parser("validate", help="run cross-module consistency checks")
    val_p.add_argument("--seed", type=int, default=validation.DEFAULT_SEED)
    val_p.add_argument("--trials", type=int, default=validation.DEFAULT_TRIALS)
    val_p.add_argument("--out", default=None)
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:   # bad JSON, or an integer literal too long for int()
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    logger = logging.getLogger("advice_search")
    level = logger.level
    if args.timing:
        logger.setLevel(logging.INFO)
    try:
        cfg = _load_config(args.config)
        out = args.out if args.out is not None else cfg.get("out")
        sweep = args.command == "sweep"
        spec = SweepSpec.from_config(
            cfg, need_grid=sweep,
            overrides={"mode": args.mode, "trials": args.trials, "seed": args.seed})
        if sweep:
            rows = run_sweep(spec, timing=args.timing)
        else:
            rows = [run_point(spec, timing=args.timing)]
        _write_text(out, rows_to_csv(rows))
        return EXIT_OK
    finally:   # so the next call in this process logs only under its own --timing
        logger.setLevel(level)


def _cmd_fit(args: argparse.Namespace) -> int:
    _check_int(args.drop, "--drop", 0)
    rows = read_rows(args.csv)
    fits = fit_scaling(rows, drop_smallest=args.drop)
    lines = []
    for fit in fits:
        k_text = "" if fit.k_dist is None else format(fit.k_dist, "g")
        lines.append(f"model={fit.model} k_dist={k_text} "
                     f"alpha={fit.alpha:.6f} r2={fit.r_squared:.6f} "
                     f"points={fit.points}")
    _write_text(args.out, "".join(line + "\n" for line in lines))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    _check_int(args.trials, "--trials", 1, _MAX_LEN)
    _check_int(args.seed, "--seed", 0)
    results = validation.run_validation(seed=args.seed, trials=args.trials)
    lines = []
    for result in results:
        detail = f" - {result.detail}" if result.detail else ""
        lines.append(f"{result.status} {result.name}{detail}")
    total = len(results)
    bad = sum(r.failed for r in results)
    lines.append(f"{total - bad}/{total} checks passed")
    _write_text(args.out, "".join(line + "\n" for line in lines))
    return EXIT_VALIDATION if bad else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; surface as-is
        return int(exc.code or 0)
    handlers = {
        "run": _cmd_evaluate,
        "sweep": _cmd_evaluate,
        "fit": _cmd_fit,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParameterError, MemoryError) as exc:   # e.g. n too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    raise SystemExit(main())

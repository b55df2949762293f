"""Benchmark rows: one (n, model, mode) measurement per row.

Rows carry the three per-oracle expected counts with standard errors, the
applicable bound columns, and a wall-time column.  Output is deterministic
for a fixed config+seed (the seconds column is 0 unless timing is opted
in, precisely so reruns are byte-identical).
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import algorithms, bounds
from .distributions import (
    ConfigError,
    ParameterError,
    _MAX_LEN,
    _check_int,
    _check_real,
    _dist_kind,
    _check_power_law_params,
    _weights,
    dist_from_config,
)

__all__ = [
    "HEADER",
    "SweepRow",
    "SweepSpec",
    "run_point",
    "run_sweep",
    "rows_to_csv",
    "read_rows",
    "FitResult",
    "fit_slope",
    "fit_scaling",
]

log = logging.getLogger("advice_search")

MODES = ("exact", "monte_carlo")

DEFAULT_TRIALS = 10000


def _fmt(value: float | None) -> str:
    return "" if value is None else format(float(value), ".10g")


@dataclass(frozen=True)
class SweepRow:
    """One benchmark measurement in the fixed 13-column schema."""

    n: int
    k_dist: float | None
    model: str
    mode: str
    f_mean: float
    f_stderr: float
    omu_mean: float
    omu_stderr: float
    omuinv_mean: float
    omuinv_stderr: float
    lower_bound: float | None
    upper_bound: float | None
    seconds: float

    def to_csv(self) -> str:
        return ",".join(_FORMAT[name](getattr(self, name)) for name in HEADER)


HEADER = tuple(field.name for field in fields(SweepRow))

# n stays an exact integer and the ids are text; every other column is a
# float, and the three optional ones are empty when None
_OPTIONAL = ("k_dist", "lower_bound", "upper_bound")
_FORMAT = {name: _fmt for name in HEADER} | {"n": str, "model": str, "mode": str}
_PARSE = ({name: float for name in HEADER} | {"n": int, "model": str, "mode": str}
          | {name: lambda s: None if s == "" else float(s) for name in _OPTIONAL})


def rows_to_csv(rows) -> str:
    lines = [",".join(HEADER)]
    lines.extend(row.to_csv() for row in rows)
    return "\n".join(lines) + "\n"


def read_rows(path: str) -> list[SweepRow]:
    """Parse a sweep CSV back into rows (empty fields become None)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path!r} is not UTF-8 text: {exc}") from exc
    if not lines or tuple(lines[0].split(",")) != HEADER:
        raise ConfigError(f"{path}: missing or wrong header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(HEADER):
            raise ConfigError(f"{path}: bad row {line!r}")
        try:
            rows.append(SweepRow(**{name: _PARSE[name](text)
                                    for name, text in zip(HEADER, parts)}))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad row {line!r}: {exc}") from exc
    return rows


@dataclass(frozen=True)
class SweepSpec:
    """Validated benchmark request (single point when n_grid is None)."""

    dist_cfg: dict
    model: str
    mode: str = "exact"
    n_grid: tuple[int, ...] | None = None
    k_algorithm: float | None = None
    trials: int = DEFAULT_TRIALS
    seed: int = 0

    @classmethod
    def from_config(cls, cfg: dict, *, need_grid: bool, overrides: dict | None = None) -> "SweepSpec":
        if not isinstance(cfg, dict):
            raise ConfigError(f"config must be a mapping, got {type(cfg).__name__}")
        allowed = {"dist", "model", "mode", "k_algorithm", "trials", "seed", "out"}
        if need_grid:
            allowed |= {"n_grid"}
        extra = set(cfg) - allowed
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        merged = dict(cfg)
        for key, value in (overrides or {}).items():
            if value is not None:
                merged[key] = value

        if "out" in merged and not isinstance(merged["out"], str):
            raise ConfigError(f"out must be a string, got {merged['out']!r}")
        if "dist" not in merged:
            raise ConfigError("config needs a 'dist' section")
        if not isinstance(merged["dist"], dict):
            raise ConfigError("'dist' must be a mapping")
        model = merged.get("model")
        if model not in algorithms.MODELS:
            raise ConfigError(f"model must be one of {algorithms.MODELS}, got {model!r}")
        mode = merged.get("mode", "exact")
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

        grid = None
        if need_grid:
            raw = merged.get("n_grid")
            if not isinstance(raw, (list, tuple)) or not raw:
                raise ConfigError("sweep config needs a non-empty 'n_grid' list")
            grid = tuple(_check_int(v, "n_grid entry", 1, _MAX_LEN) for v in raw)
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ParameterError(f"n_grid must be strictly increasing: {raw}")
            if _dist_kind(merged["dist"]) != "powerlaw":
                raise ParameterError("sweeps need a powerlaw dist (explicit weights fix n)")

        k_alg = merged.get("k_algorithm")
        return cls(dist_cfg=dict(merged["dist"]), model=model, mode=mode, n_grid=grid,
                   k_algorithm=None if k_alg is None else _check_real(k_alg, "k_algorithm"),
                   trials=_check_int(merged.get("trials", DEFAULT_TRIALS), "trials", 1, _MAX_LEN),
                   seed=_check_int(merged.get("seed", 0), "seed", 0))


def _columns(spec: SweepSpec) -> bounds._BoundColumns | None:
    """A row's bound columns, none for the scan: the 0.206 lower bound holds for any
    zero-error quantum search; upper bounds are ratio-specific, at the default ratio only."""
    if spec.model == "classical":
        return None
    default = spec.k_algorithm is None or math.isclose(
        spec.k_algorithm, algorithms._model_ratio(spec.model, None), rel_tol=1e-12, abs_tol=0.0)
    return bounds._BoundColumns(spec.model if default else None)


def _reports(spec: SweepSpec, cfgs: list[dict], seeds: list[int]):
    """Yield (n, k_dist, report, (lower, upper)) per dist config, each exact
    row and its bounds from algorithms._exact_rows: a power law's from one
    pass over its weights to the largest n that stops at each n, explicit
    advice's as its one stop.  A Monte Carlo row walks its bound columns
    alone.  Every n of a power law is checked, as its own dist would check
    it, before any row."""
    law = _dist_kind(cfgs[0]) == "powerlaw"
    for cfg in cfgs if law else ():
        k = _check_power_law_params(cfg.get("n"), cfg.get("k"))
    columns = _columns(spec)
    if spec.mode == "exact":
        ns = [cfg["n"] for cfg in cfgs] if law else None
        dist = _weights(ns[-1], k) if law else dist_from_config(cfgs[0])
        rows = algorithms._exact_rows(spec.model, dist, algorithms._model_ratio(
            spec.model, spec.k_algorithm), ns, columns)
        for n, (report, row) in zip(ns or (dist.n,), rows):
            yield n, k if law else None, report, row
        return
    for cfg, seed in zip(cfgs, seeds):
        dist = dist_from_config(cfg)
        report = algorithms.monte_carlo(spec.model, dist, spec.trials, seed, k=spec.k_algorithm)
        _, row = next(algorithms._exact_rows(None, dist, None, columns=columns))
        yield dist.n, dist.power_law and dist.power_law.k, report, row


def _rows(spec: SweepSpec, cfgs: list[dict], seeds: list[int], timing: bool) -> list[SweepRow]:
    """The rows of _reports, each timed from the end of the previous one to
    its bounds (which a Monte Carlo row walks) under timing."""
    rows, started = [], time.perf_counter()
    for n, k_dist, report, (lower, upper) in _reports(spec, cfgs, seeds):
        elapsed = time.perf_counter() - started
        log.info("point n=%d model=%s mode=%s took %.3fs", n, spec.model, spec.mode, elapsed)
        rows.append(SweepRow(n, k_dist, spec.model, spec.mode,   # means, stderrs
                             *(getattr(report, field.name) for field in fields(report)),
                             lower, upper, elapsed if timing else 0.0))
        started = time.perf_counter()
    return rows


def run_point(spec: SweepSpec, *, timing: bool = False) -> SweepRow:
    """Measure one row."""
    return _rows(spec, [dict(spec.dist_cfg)], [spec.seed], timing)[0]


def run_sweep(spec: SweepSpec, *, timing: bool = False) -> list[SweepRow]:
    """Run every grid point in grid (n) order, with per-point seeds derived
    from the spec seed."""
    if spec.n_grid is None:
        raise ConfigError("sweep needs an n_grid")
    seeds = [int(np.random.SeedSequence(entropy=spec.seed, spawn_key=(i,)).generate_state(1)[0])
             for i in range(len(spec.n_grid))]
    return _rows(spec, [dict(spec.dist_cfg, n=n) for n in spec.n_grid], seeds, timing)


@dataclass(frozen=True)
class FitResult:
    """Log-log least-squares exponent fit over a sweep group."""

    model: str
    k_dist: float | None
    alpha: float
    r_squared: float
    points: int


def fit_slope(ns, means) -> tuple[float, float]:
    """Least-squares slope of log(mean) against log(n), with r^2."""
    ns = np.asarray(ns, dtype=np.float64)
    ys = np.asarray(means, dtype=np.float64)
    if ns.size < 3:
        raise ParameterError(f"need at least 3 points to fit, got {ns.size}")
    if np.any(ns <= 0.0) or np.any(ys <= 0.0):
        raise ParameterError("fit needs positive n and positive means")
    if not (np.all(np.isfinite(ns)) and np.all(np.isfinite(ys))):
        raise ParameterError("fit needs finite n and finite means")
    lx, ly = np.log(ns), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = ly - (slope * lx + intercept)
    ss_res = float(np.sum(residual**2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def fit_scaling(rows, drop_smallest: int = 2) -> list[FitResult]:
    """Fit each (model, k_dist, mode) group, discarding the smallest n
    points (transient-dominated) before fitting."""
    groups: dict[tuple, list[SweepRow]] = {}
    for row in rows:
        groups.setdefault((row.model, row.k_dist, row.mode), []).append(row)
    out = []
    for (model, k_dist, _mode), members in sorted(
            groups.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0.0, kv[0][2])):
        members.sort(key=lambda r: r.n)
        kept = members[drop_smallest:]
        if len(kept) < 3:
            raise ParameterError(
                f"group {model}/k={k_dist}: {len(members)} rows is too few "
                f"after dropping {drop_smallest}")
        alpha, r2 = fit_slope([r.n for r in kept], [r.f_mean for r in kept])
        out.append(FitResult(model=model, k_dist=k_dist, alpha=alpha,
                             r_squared=r2, points=len(kept)))
    return out

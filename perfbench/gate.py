"""Correctness gate: every CLI output is checked before it counts.

* An exact sweep must reproduce the committed reference CSV: each numeric
  field within 1e-9 relative, or the operation fails.  Rows whose ``%.10g``
  text differs at all are counted separately, as ``csv_rows_changed``.
* A fit slope must lie within the acceptance suite's tolerance of the
  analytic power-law exponent.
* A Monte Carlo mean must lie within five standard errors of the exact
  expectation, which is computed once per run and never timed.  The cost
  distributions are skewed, so |z| has a heavier tail than a normal one
  (at 2,500 trials one point in ~1,000 exceeds 4, against ~1 in 5,000 for
  three correlated normal tests); five keeps a correct program from
  failing by chance over many runs, while a biased estimator still misses
  by far more.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

from advice_search.algorithms import unknown_expected_mu
from advice_search.bounds import powerlaw_exponents
from advice_search.distributions import make_power_law

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REL_TOL = 1e-9
SLOPE_TOL = {"classical": 0.05, "geometric": 0.05, "unknown": 0.08}
Z_MAX = 5.0

# Column layout of a sweep CSV: text key columns, then numeric columns as
# (mean, standard error) pairs for the three oracles.
_KEY_COLS = 4
_MC_PAIRS = ((4, 5), (6, 7), (8, 9))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    changed_rows: int = 0
    detail: str = ""


def _rows(text: str) -> tuple[str, list[list[str]]]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return "", []
    return lines[0], [line.split(",") for line in lines[1:]]


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def check_sweep(ns: tuple[int, ...], name: str, csv_text: str,
                reference_dir: str = REFERENCE_DIR) -> Verdict:
    """Compare an exact sweep's rows with the reference rows of the same n."""
    with open(os.path.join(reference_dir, name + ".csv"), encoding="utf-8") as fh:
        ref_header, ref_rows = _rows(fh.read())
    header, rows = _rows(csv_text)
    wanted = [row for row in ref_rows if int(row[0]) in ns]
    if header != ref_header:
        return Verdict(False, len(wanted), f"{name}: header {header!r}")
    changed = abs(len(rows) - len(wanted))
    bad = [] if len(rows) == len(wanted) else [f"{len(rows)} rows, want {len(wanted)}"]
    for row, ref in zip(rows, wanted):
        if row != ref:
            changed += 1
        if len(row) != len(ref) or row[:_KEY_COLS] != ref[:_KEY_COLS] or not all(
                _close(a, b) for a, b in zip(row[_KEY_COLS:], ref[_KEY_COLS:])):
            bad.append(f"n={ref[0]}: {','.join(row)} vs {','.join(ref)}")
    return Verdict(not bad, changed, f"{name}: " + "; ".join(bad) if bad else "")


def check_fit(model: str, k: float, fit_text: str) -> Verdict:
    """The fitted slope of one (model, k) group against its exponent class."""
    expected = powerlaw_exponents(model, k).exponent
    want = {"model": model, "k_dist": format(k, "g")}
    for line in fit_text.splitlines():
        fields = dict(item.split("=", 1) for item in line.split() if "=" in item)
        if all(fields.get(key) == value for key, value in want.items()):
            alpha = float(fields["alpha"])
            ok = abs(alpha - expected) <= SLOPE_TOL[model]
            return Verdict(ok, 0, f"{model} k={k:g}: slope {alpha:.4f} vs {expected:.4f}")
    return Verdict(False, 0, f"{model} k={k:g}: no fit line in {fit_text!r}")


def exact_means(n: int, k: float) -> tuple[float, float, float]:
    """Exact (f, O_mu, O_mu^-1) expectations of the oracle-only search."""
    return unknown_expected_mu(make_power_law(n, k)).means()


def check_mc(n: int, k: float, csv_text: str,
             exact: tuple[float, float, float]) -> Verdict:
    """Each Monte Carlo mean within Z_MAX standard errors of the exact value."""
    _, rows = _rows(csv_text)
    if len(rows) != 1 or len(rows[0]) < 10:
        return Verdict(False, 0, f"n={n} k={k:g}: expected one row, got {csv_text!r}")
    row = rows[0]
    if row[:_KEY_COLS] != [str(n), format(k, ".10g"), "unknown", "monte_carlo"]:
        return Verdict(False, 0, f"n={n} k={k:g}: wrong key columns {row[:_KEY_COLS]}")
    worst = 0.0
    for (mean_col, err_col), want in zip(_MC_PAIRS, exact):
        mean, err = float(row[mean_col]), float(row[err_col])
        if err > 0.0:
            z = abs(mean - want) / err
        else:
            z = 0.0 if math.isclose(mean, want, rel_tol=REL_TOL) else math.inf
        worst = max(worst, z)
    return Verdict(worst <= Z_MAX, 0, f"n={n} k={k:g}: max |z| = {worst:.3f}")

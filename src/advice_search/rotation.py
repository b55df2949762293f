"""Closed-form arithmetic for amplitude-amplification rotations.

Everything here is exact trigonometry on the 2-D invariant subspace spanned
by the marked and unmarked components: a state whose marked amplitude is
sqrt(p) advances by 2*arcsin(sqrt(p)) per amplification step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _check_int

__all__ = [
    "rotation_angle",
    "success_prob",
    "exact_grover_queries",
    "uniform_iter_success",
    "RoundCost",
    "round_cost",
]

# p*(1-p) below this is treated as a degenerate angle (p at 0 or 1 up to
# float noise) and the closed-form average falls back to its series.
DEGENERATE_TOL = 1e-12

# Integer ceilings of transcendental expressions snap to a nearby integer
# first, so mathematically-integer values do not ceil up from float noise.
_CEIL_SNAP = 1e-9


def _snapped_ceil(value: float) -> int:
    nearest = round(value)
    if abs(value - nearest) < _CEIL_SNAP:
        return int(nearest)
    return int(math.ceil(value))


def _check_probability(p) -> None:
    arr = np.asarray(p, dtype=np.float64)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"probability outside [0, 1]: {p!r}")


def rotation_angle(p):
    """arcsin(sqrt(p)): the half-angle of one amplification step.

    Scalar in, float out; array in, array out.
    """
    _check_probability(p)
    out = np.arcsin(np.sqrt(p))
    return float(out) if np.ndim(p) == 0 else out


def success_prob(p, j: int):
    """Success probability sin^2((2j+1) * arcsin(sqrt(p))) after j steps."""
    _check_int(j, "iteration count", 0)
    theta = rotation_angle(p)
    out = np.clip(np.sin((2 * j + 1) * np.asarray(theta)) ** 2, 0.0, 1.0)
    return float(out) if np.ndim(p) == 0 else out


def exact_grover_queries(m: int, zero_or_one: bool = False) -> int:
    """Oracle queries for certainty search over m elements: ceil(pi/4 sqrt m).

    zero_or_one adds the one verification query needed when the subset may
    contain no marked element (the measured outcome is checked classically).
    """
    _check_int(m, "subset size", 1)
    return _snapped_ceil(0.25 * math.pi * math.sqrt(m)) + (1 if zero_or_one else 0)


def _angle_terms(p: np.ndarray):
    """theta, c = sqrt(p(1-p)) (1 where degenerate) and the masks of degenerate
    angles near p = 0 (tiny) and near p = 1 (top)."""
    c2 = p * (1.0 - p)
    tiny = p < DEGENERATE_TOL
    top = (c2 < DEGENERATE_TOL) & ~tiny
    theta = np.arcsin(np.sqrt(p))
    c = np.sqrt(np.where(c2 < DEGENERATE_TOL, 1.0, c2))
    return theta, c, tiny, top


def _iter_average(p: np.ndarray, theta: np.ndarray, c: np.ndarray,
                  tiny: np.ndarray, top: np.ndarray, m: int) -> np.ndarray:
    """(1/m) sum_{r<m} sin^2((2r+1) theta) for terms from _angle_terms.

    Closed form 1/2 - sin(4m theta)/(8m c) (BBHT, Lemma 2), which is 0/0 at
    degenerate angles.  There the leading series term stands in:
    p (4m^2-1)/3 on tiny and 1 - (1-p)(4m^2-1)/3 on top, with relative
    error of order m^2 p (or m^2 (1-p)).
    """
    if m == 1:
        return p.copy()
    out = 0.5 - np.sin((4.0 * m) * theta) / ((8.0 * m) * c)
    series = (4.0 * m * m - 1.0) / 3.0
    if np.any(tiny):
        out[tiny] = p[tiny] * series
    if np.any(top):
        out[top] = 1.0 - (1.0 - p[top]) * series
    np.clip(out, 0.0, 1.0, out=out)
    return out


def uniform_iter_success(p, m: int):
    """Average success probability over iteration counts drawn from {0..m-1}.

    Closed form (1/m) sum_r sin^2((2r+1)theta)
        = 1/2 - sin(4m theta) / (8m sqrt(p(1-p))),
    with the series fallback of _iter_average when p(1-p) < 1e-12
    (degenerate angle, where the closed form is 0/0).
    """
    _check_int(m, "iteration budget", 1)
    _check_probability(p)
    arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    out = _iter_average(arr, *_angle_terms(arr), m)
    return float(out[0]) if np.ndim(p) == 0 else out


@dataclass(frozen=True)
class RoundCost:
    """Per-oracle cost of one amplification attempt with i iterations."""

    f: int
    o_mu: int
    o_mu_inv: int


def round_cost(i: int) -> RoundCost:
    """Cost of preparing, amplifying i times, measuring and checking.

    One preparation plus one inverse/re-preparation pair per iteration and
    one classical check of each intermediate and final outcome: i+1 queries
    to f and to the preparation oracle, i to its inverse.
    """
    _check_int(i, "iteration count", 0)
    return RoundCost(f=i + 1, o_mu=i + 1, o_mu_inv=i)

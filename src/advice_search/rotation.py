"""Closed-form arithmetic for amplitude-amplification rotations.

Everything here is exact trigonometry on the 2-D invariant subspace spanned
by the marked and unmarked components: a state whose marked amplitude is
sqrt(p) advances by 2*arcsin(sqrt(p)) per amplification step.
"""
from __future__ import annotations

import math

import numpy as np

from .distributions import ParameterError, _check_int

__all__ = [
    "success_prob",
    "exact_grover_queries",
    "uniform_iter_success",
]

# p*(1-p) below this is treated as a degenerate angle (p at 0 or 1 up to
# float noise) and the closed-form average falls back to its series.
DEGENERATE_TOL = 1e-12


def _check_probability(p) -> None:
    arr = np.asarray(p, dtype=np.float64)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ParameterError(f"probability outside [0, 1]: {p!r}")


def _success_at(theta, j):
    """sin^2((2j+1) theta), unchecked: success after j steps at theta =
    arcsin(sqrt(p)).  Monte Carlo's amplification uniforms are compared
    with this one numpy expression."""
    s = np.sin((2 * j + 1) * theta)
    return s * s


def success_prob(p, j: int):
    """Success probability sin^2((2j+1) * arcsin(sqrt(p))) after j steps."""
    _check_int(j, "iteration count", 0)
    _check_probability(p)
    out = _success_at(np.arcsin(np.sqrt(p)), j)
    return float(out) if np.ndim(p) == 0 else out


def exact_grover_queries(m: int, zero_or_one: bool = False) -> int:
    """Oracle queries for certainty search over m elements: ceil(pi/4 sqrt m),
    taken as is since pi/4 sqrt m is never an integer; zero_or_one adds the
    verification query of a subset that may hold no marked element."""
    _check_int(m, "subset size", 1)
    return math.ceil(0.25 * math.pi * math.sqrt(m)) + (1 if zero_or_one else 0)


def _angle_terms(p: np.ndarray, theta: np.ndarray | None = None,
                 c: np.ndarray | None = None):
    """theta, c = sqrt(p(1-p)) (1 where degenerate) and the masks of degenerate
    angles near p = 0 (tiny) and near p = 1 (top), each None when no element
    is on its branch.  theta and c may be given as buffers the size of p.
    """
    tiny = p < DEGENERATE_TOL
    c = np.multiply(p, np.subtract(1.0, p, out=c), out=c)
    top = (c < DEGENERATE_TOL) & (p > 0.5)   # p(1-p) < tol at p = tol is tiny's, not top's
    theta = np.arcsin(np.sqrt(p, out=theta), out=theta)
    np.copyto(c, 1.0, where=tiny | top)
    np.sqrt(c, out=c)
    return theta, c, tiny if tiny.any() else None, top if top.any() else None


def _iter_average(p: np.ndarray, theta: np.ndarray, c: np.ndarray,
                  tiny: np.ndarray | None, top: np.ndarray | None, m: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """(1/m) sum_{r<m} sin^2((2r+1) theta) for terms from _angle_terms.

    Closed form 1/2 - sin(4m theta)/(8m c) (BBHT, Lemma 2), which is 0/0 at
    degenerate angles.  There the leading series term stands in:
    p (4m^2-1)/3 on tiny and 1 - (1-p)(4m^2-1)/3 on top, with relative
    error of order m^2 p (or m^2 (1-p)).  out, if given, is a buffer the
    size of p that aliases no input; the result is written there.
    """
    if out is None:
        out = np.empty_like(p)
    if m == 1:
        np.copyto(out, p)
        return out
    series = (4.0 * m * m - 1.0) / 3.0
    np.multiply(theta, 4.0 * m, out=out)
    np.sin(out, out=out)
    out /= (8.0 * m) * c
    np.subtract(0.5, out, out=out)
    if tiny is not None:
        out[tiny] = p[tiny] * series
    if top is not None:
        out[top] = 1.0 - (1.0 - p[top]) * series
    np.minimum(np.maximum(out, 0.0, out=out), 1.0, out=out)   # np.clip's bits, without its wrapper
    return out


def uniform_iter_success(p, m: int):
    """Average success probability over iteration counts drawn from {0..m-1}:
    _iter_average's closed form 1/2 - sin(4m theta) / (8m sqrt(p(1-p))), with
    its series where p(1-p) < DEGENERATE_TOL and the closed form is 0/0."""
    _check_int(m, "iteration budget", 1)
    _check_probability(p)
    arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    out = _iter_average(arr, *_angle_terms(arr), m)
    return float(out[0]) if np.ndim(p) == 0 else out


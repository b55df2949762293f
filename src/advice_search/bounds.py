"""Query-complexity bounds for advice-guided search.

Lower bounds come from the hybrid-argument bound on bounded-error search
(converted to Las Vegas algorithms by a success/abort split), upper bounds
from the cost analyses of the two quantum strategies.  The power-law
scaling tables collect the resulting growth exponents for p_x ~ x^k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import MODELS
from .distributions import (
    AdviceDistribution,
    ConfigError,
    _check_int,
    _check_real,
    _dot,
    _linear_sums,
    _power_sums,
    _prefix_length,
    _rank_weighted_sums,
)

__all__ = [
    "LAS_VEGAS_COEFF",
    "LAS_VEGAS_OFFSET",
    "HIGH_PRIOR_COEFF",
    "FALLBACK_COEFF",
    "UNKNOWN_OFFSET",
    "LasVegasBound",
    "las_vegas_report",
    "row_bounds",
    "ScalingClass",
    "powerlaw_exponents",
]

# (1-p) arcsin(sqrt p)/2 at its maximizer p ~ 0.369, and (1-p)/2 there.
# Used verbatim in the closed-form lower bounds; las_vegas_report re-derives
# the maximization numerically instead of trusting these two decimals.
LAS_VEGAS_COEFF = 0.206
LAS_VEGAS_OFFSET = 0.316

# Constants of the sample-and-amplify cost bound at budget ratio 1.162:
# 83 rounds up k/(k-1) + 4k^2/((k-1)(4-3k)) + 4k/(3(k-1)) + pi/3 = 82.646
# (high-prior branch ~ 1/sqrt(p_x)); 53 rounds up (k/(k-1))^2 + pi/4 =
# 52.235 (fallback branch ~ sqrt(n)); 4/3 is the additive offset.
HIGH_PRIOR_COEFF = 83.0
FALLBACK_COEFF = 53.0
UNKNOWN_OFFSET = 4.0 / 3.0

_GRID_STEP = 1e-4


@dataclass(frozen=True)
class LasVegasBound:
    """Grid-maximized expected-query lower bound plus its closed forms."""

    grid_max: float
    argmax_p: float
    asin_form: float   # LAS_VEGAS_COEFF / arcsin(1/sqrt n) - LAS_VEGAS_OFFSET
    sqrt_form: float   # LAS_VEGAS_COEFF * sqrt(n) - 1


def las_vegas_report(n: int) -> LasVegasBound:
    """Maximize (1-p)(arcsin(sqrt p)/(2 arcsin(1/sqrt n)) - 1/2) over a p-grid.

    A Las Vegas search aborted after its expectation-threshold point is a
    bounded-error search, so the bounded-error bound applies at every
    success level p; the maximization is re-done numerically on a 1e-4
    grid rather than trusting the rounded closed-form constants.
    """
    _check_int(n, "n", 2)
    theta_n = math.asin(1.0 / math.sqrt(n))
    grid = np.arange(_GRID_STEP, 1.0, _GRID_STEP)
    values = (1.0 - grid) * (np.arcsin(np.sqrt(grid)) / (2.0 * theta_n) - 0.5)
    best = int(np.argmax(values))
    return LasVegasBound(
        grid_max=float(values[best]),
        argmax_p=float(grid[best]),
        asin_form=LAS_VEGAS_COEFF / theta_n - LAS_VEGAS_OFFSET,
        sqrt_form=LAS_VEGAS_COEFF * math.sqrt(n) - 1.0,
    )


class _BoundColumns:
    """A row's bound columns, summed by the walk that carries them: per
    block, sum p_x sqrt(x), which scales the lower and the known-advice
    upper bound, and with upper="unknown" the two parts of the oracle-only
    ceiling, sum sqrt(p_x) over the ranks with p_x >= 1/n (a prefix) and
    sum p_x over the rest."""

    def __init__(self, dist: AdviceDistribution, upper: str | None = None):
        self.dist, self.upper = dist, upper
        self.sums: list[float] = []

    def partials(self, block: np.ndarray, ranks: np.ndarray, worker: int) -> tuple[float, ...]:
        # the walk's ranks are the worker's scratch, which the columns may
        # overwrite: rooted in place, then the roots of the high-prior
        # probabilities
        out = (_dot(block, np.sqrt(ranks, out=ranks)),)
        if self.upper == "unknown":
            head = _prefix_length(block, 1.0 / self.dist.n)
            out += (float(np.sum(np.sqrt(block[:head], out=ranks[:head]))),
                    float(np.sum(block[head:])))
        return out

    def tail(self, k: float, lo: int, hi: int) -> tuple[np.ndarray]:
        """The linear column's sum over ranks lo + 1..hi of a power law's x^k,
        sum x^(k + 1/2), for _linear_sums (without upper="unknown")."""
        return (_power_sums(k + 0.5, lo, hi),)

    def values(self) -> tuple[float, float | None]:
        """The lower bound, and the upper bound of the model named by upper;
        the columns get a walk of their own if no model's walk carried them."""
        if not self.sums and self.upper == "unknown":   # the one ceiling not linear in p
            self.sums = next(_rank_weighted_sums(self.dist, self.partials))
        elif not self.sums:
            _, *self.sums = next(_linear_sums(self.dist, self.partials, tail=self.tail))
        sqrt_ranks, upper = self.sums[0], None
        if self.upper == "geometric":
            upper = math.pi * math.e * sqrt_ranks
        elif self.upper == "unknown":
            head, tail = self.sums[1:]
            upper = (HIGH_PRIOR_COEFF * head + FALLBACK_COEFF * math.sqrt(self.dist.n) * tail
                     + UNKNOWN_OFFSET)
        return LAS_VEGAS_COEFF * sqrt_ranks - 1.0, upper


def row_bounds(dist: AdviceDistribution, model: str | None = None) -> tuple[float, float | None]:
    """(lower, upper) on a row's expected f queries from one walk: 0.206 sum p_x sqrt(x) - 1
    for any zero-error search, and at the model's default ratio pi e sum p_x sqrt(x) ("geometric"),
    83 sum_{p_x >= 1/n} sqrt(p_x) + 53 sqrt(n) sum_{p_x < 1/n} p_x + 4/3 ("unknown") or None."""
    if model not in (None, *MODELS):
        raise ConfigError(f"unknown algorithm id {model!r}")
    return _BoundColumns(dist, model).values()


@dataclass(frozen=True)
class ScalingClass:
    """Growth class n^exponent * log(n)^log_exponent."""

    exponent: float
    log_exponent: int = 0


# Per model: the exponent g(k) before clipping to [0, top], the cap top, and
# the k where g meets the cap (a 1/log n factor there) and where g reaches
# 0 (a log n factor there).
_POWERLAW_GROWTH = {
    "classical": (lambda k: k + 2.0, 1.0, -1.0, -2.0),
    "geometric": (lambda k: k + 1.5, 0.5, -1.0, -1.5),
    "unknown": (lambda k: -(0.5 + 1.0 / k), 0.5, None, -2.0),
}


def powerlaw_exponents(model: str, k: float) -> ScalingClass:
    """Expected-cost growth class for advice p_x ~ x^k (k < 0).

    model is one of 'classical' (sequential scan), 'geometric' (known-advice
    block search), 'unknown' (oracle-only sample-and-amplify).  The
    exponent is min(top, max(0, g(k))) from the model's _POWERLAW_GROWTH row.
    """
    k = _check_real(k, "power-law exponent k", hi=0.0)
    if model not in _POWERLAW_GROWTH:
        raise ConfigError(f"unknown model {model!r}")
    growth, top, at_top, at_zero = _POWERLAW_GROWTH[model]
    log_exponent = -1 if k == at_top else 1 if k == at_zero else 0
    return ScalingClass(min(top, max(0.0, growth(k))), log_exponent)

"""Search models over an advice distribution, with query accounting.

* classical: evaluate f on elements in advice order; rank x costs x.
* geometric (known advice): certainty searches, each with a zero-or-one
  verification query, over geometrically growing blocks of ranks in turn;
  a rank costs the nominal cost of every block up to its own.  f only.
* unknown (oracle-only advice): each round checks one sample, then
  amplifies with an iteration count drawn uniformly from a geometrically
  growing budget; after all rounds fail, a certainty search over the whole
  domain ends the run with zero error.  monte_carlo runs the rounds over
  the array of trials still active.

_exact_rows gives every exact advice-averaged cost, with the row's bounds,
and classical_expected, geometric_expected and unknown_expected_mu are its
rows one model at a time; monte_carlo estimates them.  Quantum steps
are simulated at the probability level (closed-form success probability,
Bernoulli draw), so runs scale to huge n while statevector.py certifies
the same closed forms at small n.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .distributions import (
    AdviceDistribution,
    ConfigError,
    ParameterError,
    PowerLawSpec,
    _BERNOULLI,
    _MAX_LEN,
    _PANEL_START,
    _check_int,
    _check_real,
    _dot,
    _head_sums,
    _last_ranks_at_least,
    _linear_sums,
    _no_columns,
    _power_sums,
    _rank_weighted_sums,
)
from .rotation import (DEGENERATE_TOL, _angle_terms, _iter_average, _success_at,
                       exact_grover_queries)

__all__ = [
    "DEFAULT_GEOMETRIC_RATIO",
    "DEFAULT_AMPLIFY_RATIO",
    "AMPLIFY_RATIO_BOUNDS",
    "ExpectationReport",
    "classical_expected",
    "classical_sampling_expected",
    "geometric_expected",
    "unknown_rounds",
    "unknown_expected_exact",
    "unknown_expected_mu",
    "monte_carlo",
]

# Block growth ratio for the known-advice search; e minimizes the constant
# in its sqrt-weighted expected-cost bound.
DEFAULT_GEOMETRIC_RATIO = math.e

# Iteration-budget growth ratio for the oracle-only search.  The analysis
# that keeps every per-round overhead summable requires 1 < k < 4/3; 1.162
# is the minimizer of the resulting constant.
DEFAULT_AMPLIFY_RATIO = 1.162
AMPLIFY_RATIO_BOUNDS = (1.0, 4.0 / 3.0)

# Model ids, in the order `run`/`sweep` configs list them.
MODELS = ("classical", "geometric", "unknown")

# Relative nudge before floor() on iterated powers, per the schedule rule:
# multiply in float, never take floating logs.
_FLOOR_EPS = 1e-12

# Longest block or round schedule built.  Default ratios need under 200
# entries even at n = 2^64, while a ratio of 1 + 1e-9 would need billions of
# Python-loop steps (and, for the oracle-only model, as many kernel rounds);
# a longer schedule is rejected up front from a log estimate of its length.
_MAX_SCHEDULE = 100_000

# Sub-block length of the oracle-only exact kernel: its 8 scratch rows of
# this length (1 MB) and the walk's block and ranks stay in a 2 MB L2 cache.
_SUB_BLOCK = 1 << 14

# Rows of the kernel's scratch, each up to _SUB_BLOCK long: the head's 8
# vectors.  A power law's head ranks up to _PANEL_START and its panels'
# nodes share one scratch, and a refused panel's ranks get scratch of their
# own.
_SCRATCH_ROWS = 8

# The tiny tail's power series stops at the least degree whose truncation
# bound, relative, is under _TAIL_TOL, far below any sum's rounding; a row
# needing more than _TAIL_MAX_DEGREE keeps its tail in the kernel.
_TAIL_TOL = 2.0 ** -64
_TAIL_MAX_DEGREE = 8

# A power law's kernel runs on its head, the ranks up to _PANEL_START
# (distributions).  Its ranks past that, up to the tail cut, are summed over
# panels, each a quarter as wide as its start rank (so at least
# _PANEL_START / 4 = 32 >= _PANEL_NODES), from the kernel's costs at
# _PANEL_NODES Chebyshev points; 128 is the least power of two that keeps
# them that wide.  A panel whose two trailing coefficients exceed _PANEL_TOL
# of its mean goes back to the kernel: they read up to 3.5e-14, the
# rounding of the kernel's costs, and the integer sum weights mode i by
# ~2/i^2 of the mean, so a panel at the threshold errs by ~2e-15 of its sum.
_PANEL_NODES = 24
_PANEL_TOL = 1e-12


@dataclass(frozen=True)
class ExpectationReport:
    """Per-oracle expected query counts, exact or Monte Carlo estimated."""

    f_mean: float
    f_stderr: float
    o_mu_mean: float
    o_mu_stderr: float
    o_mu_inv_mean: float
    o_mu_inv_stderr: float

    def means(self) -> tuple[float, float, float]:
        return (self.f_mean, self.o_mu_mean, self.o_mu_inv_mean)

    def stderrs(self) -> tuple[float, float, float]:
        return (self.f_stderr, self.o_mu_stderr, self.o_mu_inv_stderr)


def _exact_report(f: float, o_mu: float, o_mu_inv: float) -> ExpectationReport:
    return ExpectationReport(f, 0.0, o_mu, 0.0, o_mu_inv, 0.0)


def _floored_powers(k: float, what: str, estimate: float,
                    count: int) -> tuple[np.ndarray, np.ndarray]:
    """k^j by iterated multiplication and floor(k^j (1 + _FLOOR_EPS)), at most
    the largest float, for j < count, after refusing a schedule whose length
    estimate (from logs) exceeds _MAX_SCHEDULE."""
    if estimate > _MAX_SCHEDULE:
        raise ParameterError(
            f"{what} ratio {k!r} needs about {estimate:.3g} schedule entries, "
            f"more than {_MAX_SCHEDULE}; use a ratio further from 1")
    steps = np.full(count, k)
    steps[0] = 1.0
    # the powers past a schedule's last entry may overflow to inf
    with np.errstate(over="ignore"):
        powers = np.multiply.accumulate(steps)   # one product after another, as a loop takes them
        return powers, np.floor(np.minimum(powers * (1.0 + _FLOOR_EPS), sys.float_info.max))


# ---------------------------------------------------------------------------
# classical baseline


def classical_expected(dist: AdviceDistribution) -> float:
    """Expected probes of the sequential scan: sum_x p_x * x."""
    return next(_exact_rows("classical", dist, None))[0].f_mean


def classical_sampling_expected(dist: AdviceDistribution) -> float:
    """Expected total probes when elements are i.i.d. samples from the advice.

    Each element x needs a Geometric(p_x) number of draws, so the advice
    average is sum_x p_x / p_x = n exactly when every p_x > 0; any
    zero-probability element makes the search diverge (returns inf).
    """
    if dist.support_size() < dist.n:
        return math.inf
    return float(dist.n)


# ---------------------------------------------------------------------------
# known advice: geometric block search


def _geometric_schedule(n: int, k: float) -> tuple[np.ndarray, np.ndarray]:
    """The block search's schedule over {1..n}, block m of nominal size
    floor(k^m) and the last one truncated by n: each block's 1-based
    inclusive end, and the f queries spent once blocks 0..m are searched,
    each charged at its nominal size."""
    k = _check_real(k, "block growth ratio", 1.0)
    # blocks of size k^j (before the floor) cover n after log_k(1 + n(k-1)),
    # a lower bound on the block count that the floors' losses may pass: the
    # count doubles until the blocks cover n.  Sizes past 2^62 > n are cut
    # there, so the ends up to the covering block fit in an int64.
    estimate = math.log1p(min(n * (k - 1.0), 1e300)) / math.log1p(k - 1.0)
    count = int(estimate) + 2
    while True:
        _, sizes = _floored_powers(k, "block growth", estimate, count)
        ends = np.cumsum(np.minimum(sizes, 2.0 ** 62).astype(np.int64))
        last = int(np.argmax(ends >= n))   # the covering block
        if ends[last] >= n:
            break
        count *= 2
    costs = np.ceil(0.25 * math.pi * np.sqrt(sizes[:last + 1])) + 1.0   # exact_grover_queries
    return np.minimum(ends[:last + 1], n), np.cumsum(costs)


def _scan_means(model: str, dist: AdviceDistribution, k: float | None, stops, columns):
    """Yield the exact expected f queries of the scan, or of the block search
    at ratio k, up to each of stops, and the sums of columns there, linear
    bound columns (a bounds._BoundColumns without the oracle-only ceiling)
    or none, from one _linear_sums.  Each schedule block's part is its
    cumulative cost, charged at nominal block sizes whatever the stop, times
    its probability mass: per schedule block in the head (or an explicit
    walk's block) an np.sum, and past _PANEL_START on a power law a power
    sum, one for each piece of a schedule block there, all stops' pieces in
    one _power_sums call."""
    if model == "classical":
        fn = lambda block, ranks: (_dot(block, ranks),)   # noqa: E731
        tail = lambda law, lo, his: (_power_sums(law.k + 1.0, lo, his),)   # noqa: E731
    else:
        ends, cum = _geometric_schedule(stops[-1], k)

        def fn(block: np.ndarray, ranks: np.ndarray) -> tuple[float]:
            first = int(ranks[0])
            m = int(np.searchsorted(ends, first))   # the schedule block of rank first
            lo, parts = 0, []
            while lo < block.size:
                hi = min(int(ends[m]) - first + 1, block.size)
                parts.append(cum[m] * float(np.sum(block[lo:hi])))
                lo, m = hi, m + 1
            return (math.fsum(parts),)

        def tail(law: PowerLawSpec, lo: int, his: np.ndarray) -> tuple[list]:
            first, lasts = np.searchsorted(ends, lo + 1), np.searchsorted(ends, his)
            cuts = [np.concatenate(((lo,), ends[first:last], (hi,)))
                    for last, hi in zip(lasts, his)]
            sums = _power_sums(law.k, np.concatenate([c[:-1] for c in cuts]),
                               np.concatenate([c[1:] for c in cuts]))
            pieces = np.split(sums, np.cumsum([c.size - 1 for c in cuts])[:-1])
            return ([cum[first:last + 1] * piece for last, piece in zip(lasts, pieces)],)

    row, tails = fn, tail
    if columns is not None:   # last, as they overwrite the ranks
        row = lambda block, x: (*fn(block, x), *columns.partials(block, x))   # noqa: E731
        tails = lambda law, lo, his: (   # noqa: E731
            *tail(law, lo, his), *columns.tail(law.k, lo, his))
    for _, f, *sums in _linear_sums(dist, row, stops, tail=tails):
        yield f, sums


def geometric_expected(dist: AdviceDistribution,
                       k: float = DEFAULT_GEOMETRIC_RATIO) -> ExpectationReport:
    """Exact expected f queries of the block search under the advice."""
    return next(_exact_rows("geometric", dist, k))[0]


# ---------------------------------------------------------------------------
# oracle-only advice: sample, amplify with growing budgets, then fall back


def unknown_rounds(n: int, k: float = DEFAULT_AMPLIFY_RATIO) -> int:
    """Largest j with k^j <= sqrt(n); computed by iterated multiplication."""
    _check_int(n, "n", 1, 2**64)   # a 64-bit index's range; sqrt(n) must be a float
    k = _check_real(k, "iteration-budget ratio", *AMPLIFY_RATIO_BOUNDS)
    return len(_round_sizes(n, k)) - 1


@functools.lru_cache(maxsize=16)   # the rows and runs of one n share it; ~25 us uncached
def _round_sizes(n: int, k: float) -> tuple[int, ...]:
    """Iteration budgets floor(k^j) for rounds j = 0..unknown_rounds(n, k)."""
    estimate = 1.0 + 0.5 * math.log(n) / math.log1p(k - 1.0)
    powers, sizes = _floored_powers(k, "iteration-budget", estimate, int(estimate) + 2)
    return tuple(int(size) for size in sizes[powers <= math.sqrt(n) * (1.0 + _FLOOR_EPS)])


def _unknown_rounds(p: np.ndarray, sizes: tuple[int, ...], fallback: int,
                    round_rngs: Iterable[np.random.Generator],
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Query triples (f, O_mu, O_mu^-1) of zero-error runs of the
    sample-and-amplify search, for trials whose marked elements have
    probabilities p, simulated one round at a time.

    Round j, of budget m = sizes[j], first draws one sample from the advice
    and checks it (1 preparation and 1 f query, a hit with probability p);
    if that misses, it runs an amplification attempt whose iteration count
    i is uniform on {0..m-1} (i+1 preparations and f checks, i inversions, a
    hit with probability sin^2((2i+1) arcsin sqrt(p))).  Rounds restart
    fresh.  A run that every round misses ends with a certainty search over
    the whole domain, fallback f queries only.

    Round j takes the next generator of round_rngs and, over the trials
    still active in index order, draws the sample-hit uniforms, then the
    iteration counts of the trials whose sample missed, then their
    amplification uniforms; trials that succeed are retired.
    """
    theta = np.arcsin(np.sqrt(p))
    o_mu, inv = np.zeros((2, p.size))
    active = np.arange(p.size)
    for m, rng in zip(sizes, round_rngs):
        o_mu[active] += 1.0
        active = active[rng.random(active.size) >= p[active]]
        i = rng.integers(m, size=active.size)
        o_mu[active] += i + 1
        inv[active] += i
        active = active[rng.random(active.size) >= _success_at(theta[active], i)]
        if not active.size:
            break
    f = o_mu.copy()   # f and preparation counters agree but for the fallback
    f[active] += fallback
    return f, o_mu, inv


def _amplify_sub_block(sub: np.ndarray, sizes: tuple[int, ...], fallback, scratch: np.ndarray,
                       starts=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-oracle expected costs (f, shared, inv) of _unknown_rounds'
    process for each p in sub, under round budgets sizes and a fallback search of
    fallback f queries (one number, or one per element).

    Mirrors the simulated process: round j is reached with probability
    reach = prod_{i<j} (1-p)(1 - P_{m_i}), always pays the sampling step, and
    pays (m+1)/2 preparations and f checks and (m-1)/2 inversions on average
    when the sample misses, q = 1 - p.  So with A = sum reach and C = sum reach
    (m-1)/2, shared = A + q (A + C) and inv = q C: four passes a round.
    starts, if given, holds per round the first element that runs it: the
    elements of a sweep's rows, in order of their round counts, each row's
    schedule a prefix of sizes, run their rounds on a suffix, and each
    element's fallback enters after its own last round.  All rounds run in
    scratch, a (_SCRATCH_ROWS, >= sub.size) buffer, so the working set stays
    in cache; the results are views of its rows.
    """
    q, theta, c, miss, reach, a, c_sum, tmp = scratch[:, :sub.size]
    np.subtract(1.0, sub, out=q)
    terms = _angle_terms(sub, theta, c)
    reach.fill(1.0)
    a.fill(0.0)
    c_sum.fill(0.0)
    last_m, start = 0, None
    for m, first in zip(sizes, itertools.repeat(0) if starts is None else starts):
        if first != start:   # views of the elements still running
            start = first
            p, q_, miss_, reach_, a_, c_, tmp_ = (v[first:] for v in (sub, q, miss, reach, a,
                                                                        c_sum, tmp))
            terms_ = [None if v is None else v[first:] for v in terms]
        # the round's miss probability q (1 - P_m) depends on m alone, and
        # budgets repeat only in consecutive rounds
        if m != last_m:
            _iter_average(p, *terms_, m, out=miss_)
            miss_ *= q_   # 1 - (p + q P_m): fl(q) enters scaled by P_m, not once a round
            miss_ += p
            np.subtract(1.0, miss_, out=miss_)
            last_m = m
        a_ += reach_
        c_ += np.multiply(reach_, (m - 1) * 0.5, out=tmp_)
        reach_ *= miss_
    a += np.multiply(np.add(a, c_sum, out=tmp), q, out=tmp)   # shared
    c_sum *= q                                                # inv
    return np.add(np.multiply(reach, fallback, out=reach), a, out=reach), a, c_sum


def _tail_series(sizes: tuple[int, ...], fallbacks, stops=None) -> list[tuple | None]:
    """For each of stops (len(sizes) by default), a round count r, the
    Taylor coefficients in p of the costs (f, shared, inv) that
    _amplify_sub_block gives p < DEGENERATE_TOL under the budgets sizes[:r]
    and a fallback of the matching entry of fallbacks, where a round misses
    with probability (1-p)(1 - sigma p), sigma = (4m^2-1)/3: its recurrence
    on polynomials cut at the least degree D whose bound is under _TAIL_TOL,
    or None past _TAIL_MAX_DEGREE.  Coefficientwise a cost is at most its
    value at 0 times exp(x p / DEGENERATE_TOL), x = DEGENERATE_TOL (1 + sum_j
    (1 + sigma_j)), and at least that value times 1 - 2x: the cut errs by at
    most e^x x^(D+1) / ((D+1)! (1 - 2x)), relative.  The recurrence runs
    once, to the last stop at the largest D, and each stop keeps its state
    at its round, cut to its own D: no coefficient depends on a higher one."""
    stops = (len(sizes),) if stops is None else stops
    sigmas = [(4.0 * m * m - 1.0) / 3.0 for m in sizes[:max(stops)]]

    def degree(r: int) -> int | None:
        x = DEGENERATE_TOL * (1.0 + r + math.fsum(sigmas[:r]))
        return next((d for d in range(_TAIL_MAX_DEGREE + 1) if x < 0.5 and math.exp(x)
                     * x ** (d + 1) / (math.factorial(d + 1) * (1.0 - 2.0 * x)) <= _TAIL_TOL), None)

    degrees = [degree(r) for r in stops]
    top = max((d for d in degrees if d is not None), default=None)
    if top is None:
        return [None] * len(degrees)
    reach, a, c_sum = np.zeros((3, top + 1))
    reach[0] = 1.0
    kept = {}
    for r in range(max(stops) + 1):
        if r in stops:
            kept[r] = reach, a.copy(), c_sum.copy()   # reach is rebound, never written
        if r < len(sigmas):
            m, sigma = sizes[r], sigmas[r]
            a += reach
            c_sum += reach * ((m - 1) * 0.5)
            reach = np.convolve(reach, (1.0, -1.0 - sigma, sigma))[:top + 1]
    times_q = lambda v: v - np.concatenate(((0.0,), v[:-1]))   # noqa: E731   (1 - p) v, cut at D
    series = []
    for r, d, fallback in zip(stops, degrees, fallbacks):
        if d is None:
            series.append(None)
            continue
        reach, a, c_sum = (v[:d + 1] for v in kept[r])
        shared = a + times_q(a + c_sum)
        series.append((shared + reach * fallback, shared, times_q(c_sum)))
    return series


def _panels(cut: int) -> list[tuple[int, int]]:
    """(lo, hi) of the panels of ranks lo + 1..hi from _PANEL_START to cut,
    each lo // 4 ranks wide, the last one ending at cut and taking in what
    is left short of another panel (none unless cut is that far past
    _PANEL_START)."""
    panels, lo = [], _PANEL_START
    while cut - lo >= lo // 4:
        hi = lo + lo // 4
        hi = cut if cut - hi < hi // 4 else hi
        panels.append((lo, hi))
        lo = hi
    return panels


@functools.lru_cache(maxsize=1)
def _chebyshev_basis() -> tuple[np.ndarray, np.ndarray]:
    """The _PANEL_NODES Chebyshev points of the first kind t_j on [-1, 1],
    and the matrix of T_i(t_j) times the weights that turn values there
    into the interpolant's coefficients, c = matrix @ values."""
    count = _PANEL_NODES
    angles = math.pi * (np.arange(count) + 0.5) / count
    basis = np.cos(np.outer(np.arange(count), angles)) * (2.0 / count)
    basis[0] *= 0.5
    return np.cos(angles), basis


@functools.lru_cache(maxsize=512)   # rows share their panels but for the last
def _panel_weights(width: int) -> np.ndarray:
    """W_j with sum_{x=a}^{a+width} P(x) = sum_j W_j P(x_j) for every
    polynomial P of degree < _PANEL_NODES and the Chebyshev points x_j of
    [a, a + width]: W = S @ the coefficient matrix, where S_i = sum_x
    T_i(t(x)) is 0 for odd i and, by Euler-Maclaurin (exact on polynomials),
    the integral width/(1 - i^2), the end terms 1 and sum_r B_2r/(2r)! times
    2 T_i^(2r-1)(1) (2/width)^(2r-1), T_i^(s)(1) = prod_{u<s} (i^2 - u^2)/(2u+1)."""
    coefficients = [b / math.factorial(2 * r) for r, b in enumerate(_BERNOULLI, 1)]
    h = 2.0 / width
    sums = np.zeros(_PANEL_NODES)
    for i in range(0, _PANEL_NODES, 2):
        total, derivative = width / (1.0 - i * i) + 1.0, 1.0
        for s in range(1, i, 2):   # the odd orders s = 2r - 1 below i
            derivative *= (i * i - (s - 1) ** 2) / (2 * s - 1) * h
            total += 2.0 * coefficients[s // 2] * derivative
            derivative *= (i * i - s * s) / (2 * s + 1) * h
        sums[i] = total
    return sums @ _chebyshev_basis()[1]


def _panel_sums(k: float, sizes: tuple[int, ...], rows: list[tuple]) -> list[list[tuple]]:
    """Per row (alpha, rounds, fallback, panels, head) of the power law
    alpha x^k, the terms of each column (f, shared, inv) over its head's
    ranks, whose probabilities are head, and over its panels: first the
    head's dot products, then per panel its sums sum_j W_j p(x_j) cost(x_j)
    over its Chebyshev points x_j, all panels' in one batched product.  The
    kernel runs once, on every row's head and points in row order, under the
    budgets sizes, a row's rounds the first of them; rows come in order of
    rounds.  A panel whose trailing two coefficients exceed _PANEL_TOL of
    the leading one, in any column, runs the kernel on its own ranks
    instead, a _SUB_BLOCK at a time, and gives a block dot a term."""
    nodes, basis = _chebyshev_basis()
    alphas, rounds, fallbacks, row_panels, heads = zip(*rows)
    panels = [panel for own in row_panels for panel in own]
    ends = np.cumsum([0, *map(len, row_panels)])   # each row's panels
    lo, hi = np.array(panels, dtype=np.int64).reshape(-1, 2).T
    x = ((lo + 1 + hi) * 0.5)[:, None] + ((hi - lo - 1) * 0.5)[:, None] * nodes
    points = np.power(x, k) * np.repeat(alphas, np.diff(ends))[:, None]
    lengths = [head.size + _PANEL_NODES * len(own) for head, own in zip(heads, row_panels)]
    offsets = np.cumsum([0, *lengths])
    p = np.concatenate([piece for head, a, b in zip(heads, ends, ends[1:])
                        for piece in (head, points[a:b].ravel())])
    starts = offsets[np.searchsorted(rounds, np.arange(len(sizes)), "right")]
    costs = np.stack(_amplify_sub_block(p, sizes, np.repeat(fallbacks, lengths),
                                        np.empty((_SCRATCH_ROWS, p.size)), starts))
    # per panel, column and node, p_j cost(p_j), and every panel's Chebyshev coefficients
    at_nodes = np.concatenate([costs[:, off + head.size:off + length]
                               for head, off, length in zip(heads, offsets, lengths)], axis=1)
    values = (at_nodes * points.ravel()).reshape(3, -1, _PANEL_NODES).transpose(1, 0, 2)
    c = values @ basis.T
    refused = np.any(np.abs(c[..., -2:]).sum(axis=2) > _PANEL_TOL * np.abs(c[..., 0]), axis=1)
    weights = np.array([_panel_weights(b - a - 1) for a, b in panels]).reshape(-1, _PANEL_NODES)
    sums = (values @ weights[:, :, None])[..., 0]
    out = []
    for (alpha, count, fallback, _, head), off, a, b in zip(rows, offsets, ends, ends[1:]):
        terms = [[_dot(head, v[off:off + head.size]) for v in costs]]
        for j in range(a, b):
            if not refused[j]:
                terms.append(sums[j])
                continue
            scratch = np.empty((_SCRATCH_ROWS, min(hi[j] - lo[j], _SUB_BLOCK)))
            for start in range(lo[j], hi[j], _SUB_BLOCK):   # the walk's bits: x^k, then times alpha
                q = np.power(np.arange(start + 1.0, min(start + _SUB_BLOCK, hi[j]) + 1.0), k)
                q *= alpha
                terms.append([_dot(q, v) for v in _amplify_sub_block(
                    q, sizes[:count], fallback, scratch)])
        out.append(list(zip(*terms)))
    return out


def unknown_expected_exact(dist: AdviceDistribution, marked_rank: int,
                           k: float = DEFAULT_AMPLIFY_RATIO) -> ExpectationReport:
    """Exact per-oracle expected costs for one fixed marked rank: for
    p < DEGENERATE_TOL the tail series of unknown_expected_mu, if it has one."""
    _check_int(marked_rank, "marked rank", 1, dist.n)
    k = _check_real(k, "iteration-budget ratio", *AMPLIFY_RATIO_BOUNDS)
    p, sizes, fallback = dist.prob(marked_rank), _round_sizes(dist.n, k), float(
        exact_grover_queries(dist.n))
    series = _tail_series(sizes, (fallback,))[0] if p < DEGENERATE_TOL else None
    if series is not None:
        return _exact_report(*(math.fsum(a * p ** d for d, a in enumerate(c)) for c in series))
    return _exact_report(*(float(v[0]) for v in _amplify_sub_block(
        np.array([p]), sizes, fallback, np.empty((_SCRATCH_ROWS, 1)))))


def _moments(tail: np.ndarray, count: int, scratch: np.ndarray) -> list[float]:
    """sum tail^e for e = 1..count, the powers made in place in scratch."""
    power = scratch[:tail.size]
    np.copyto(power, tail)
    return [float(np.sum(power if e == 0 else np.multiply(power, tail, out=power)))
            for e in range(count)]


def _with_series(costs, series, moments) -> list[float]:
    """Each cost plus fsum_d a_d M_(d+1) over the tail's series a_d, if it
    has one, and moments M_e = sum p^e (the first of moments)."""
    return list(costs) if series is None else [
        cost + math.fsum(a * m for a, m in zip(coeffs, moments))
        for cost, coeffs in zip(costs, series)]


def _unknown_means(dist: AdviceDistribution, k: float, ns, fallbacks, columns):
    """Yield, at each n of ns, the exact ExpectationReport of the
    oracle-only search at ratio k, under the fallback of the matching entry
    of fallbacks, on the power law of dist's exponent over 1..n, and the
    sums of columns (bounds._BoundColumns, or none) there.  The rows share
    one pass:
    * one _linear_sums of x^k gives every row's alpha;
    * one _tail_series recurrence runs over the last row's schedule, of
      which every row's is a prefix;
    * one bisection finds every row's tail cut, and the last rank x0 with
      p >= 1/n of its ceiling;
    * one _panel_sums call runs the kernel on every row's head and panel
      points;
    * one _power_sums call per column sums every row's ranks past
      _PANEL_START.
    A rank takes one of three paths.  The tail, p < DEGENERATE_TOL, runs no
    rounds: it gives the moments M_e = sum p^e, e = 1..D+1, of the row's
    series (a row with no series has no tail).  The head's ranks past
    _PANEL_START are summed over Chebyshev panels, and the others run the
    kernel.  A row's ranks up to _PANEL_START, made as probs holds them,
    give their tail moments and bound columns, and each column's math.fsum
    takes in its power sum past them.  The kernel's head is those ranks, or
    the ranks up to a tail cut that falls short of a first panel (at most
    _PANEL_START + 31)."""
    law = dist.power_law
    alphas = [alpha for alpha, in _linear_sums(dist, _no_columns, ns)]
    sizes = _round_sizes(ns[-1], k)
    rounds = [len(_round_sizes(n, k)) for n in ns]
    series = _tail_series(sizes, fallbacks, rounds)
    counts = [0 if s is None else s[0].size for s in series]
    pairs = np.array(alphas * 2)
    found = _last_ranks_at_least(lambda x: np.power(x.astype(np.float64), law.k) * pairs,
                                 ns * 2, [DEGENERATE_TOL] * len(ns) + [1.0 / n for n in ns])
    cuts = [int(cut) if count else n for n, count, cut in zip(ns, counts, found)]
    rows, heads = [], []
    for n, alpha, r, fallback, cut in zip(ns, alphas, rounds, fallbacks, cuts):
        panels = _panels(cut)   # the kernel's head: up to the first panel, or the cut
        size = panels[0][0] if panels else cut
        _, ranks, probs = next(AdviceDistribution(n, power_law=PowerLawSpec(n, law.k, alpha))
                               ._streams(max(size, min(n, _PANEL_START))))
        rows.append((alpha, r, fallback, panels, probs[:size]))
        heads.append((ranks, probs[:min(n, _PANEL_START)]))
    terms = _panel_sums(law.k, sizes, rows)
    # per column, every row's sum past _PANEL_START: the tail's moments
    # alpha^e sum x^(ek) from the cut (e k may overflow to -inf, while there
    # every power below -2048 is 0 already), then the bound columns
    start, end = np.maximum(cuts, _PANEL_START), np.array(ns, dtype=np.int64)
    past = [np.array([alpha ** e for alpha in alphas]) * _power_sums(
        max(e * law.k, -2048.0), start, np.where(np.array(counts) >= e, end, 0))
        for e in range(1, max(counts) + 1)]
    if columns is not None:
        past += columns.tail(law.k, _PANEL_START, end, np.array(alphas), found[len(ns):])
    scratch = np.empty(_PANEL_START)   # the tail's powers
    for i, ((ranks, head), cut, count) in enumerate(zip(heads, cuts, counts)):
        sums = [*_moments(head[cut:], count, scratch),
                *(() if columns is None else columns.partials(head, ranks[:head.size], ns[i]))]
        sums = [math.fsum((value, column[i])) for value, column in zip(
            sums, (*past[:count], *past[max(counts):]), strict=True)]
        yield _exact_report(*_with_series(map(math.fsum, terms[i]), series[i], sums)), sums[count:]


def _sub_block_means(dist: AdviceDistribution, k: float, fallback: float, columns):
    """_unknown_means' one row on other advice than a power law, walked a
    _SUB_BLOCK at a time in one kernel scratch.  The head, p >=
    DEGENERATE_TOL, a prefix of the sorted advice, runs _amplify_sub_block,
    its costs reduced to three dot products at once, so no n-sized output
    exists.  The tail runs no rounds: it gives the power sums M_e = sum p^e,
    e = 1..D+1, of _tail_series' terms (a row with no series has no tail)."""
    sizes = _round_sizes(dist.n, k)
    series = _tail_series(sizes, (fallback,))[0]
    count = 0 if series is None else series[0].size
    cut = dist._last_rank_at_least(DEGENERATE_TOL) if count else dist.n
    scratch = np.empty((_SCRATCH_ROWS, min(dist.n, _SUB_BLOCK)))
    powers = np.empty(min(dist.n, _SUB_BLOCK))   # the tail's

    def fn(block: np.ndarray, ranks: np.ndarray) -> list[float]:
        head = block[:max(cut - int(ranks[0]) + 1, 0)]
        costs = [_dot(head, v) for v in _amplify_sub_block(head, sizes, fallback, scratch)
                 ] if head.size else [0.0, 0.0, 0.0]
        return [*costs, *_moments(block[head.size:], count, powers),
                *(() if columns is None else columns.partials(block, ranks, dist.n))]

    f, o_mu, inv, *sums = _rank_weighted_sums(dist, fn, _SUB_BLOCK)
    return _exact_report(*_with_series((f, o_mu, inv), series, sums)), sums[count:]


def unknown_expected_mu(dist: AdviceDistribution,
                        k: float = DEFAULT_AMPLIFY_RATIO) -> ExpectationReport:
    """Advice-averaged exact expected costs: sum_x p_x E[cost | marked=x]."""
    return next(_exact_rows("unknown", dist, _check_real(
        k, "iteration-budget ratio", *AMPLIFY_RATIO_BOUNDS)))[0]


# ---------------------------------------------------------------------------
# one entry point per method: exact expectation and Monte Carlo estimate


def _model_ratio(model: str, k: float | None) -> float | None:
    """A model's growth ratio: its default when k is None, else k checked."""
    if model == "classical":
        return None
    if model == "geometric":
        return DEFAULT_GEOMETRIC_RATIO if k is None else _check_real(k, "block growth ratio", 1.0)
    if model == "unknown":
        return DEFAULT_AMPLIFY_RATIO if k is None else _check_real(
            k, "iteration-budget ratio", *AMPLIFY_RATIO_BOUNDS)
    raise ConfigError(f"unknown algorithm id {model!r}")


def _exact_rows(model: str | None, dist: AdviceDistribution, ratio: float | None,
                stops=None, columns=None):
    """Yield, at each of stops (dist.n by default; only a power law's walk
    stops early), the exact ExpectationReport of model at its checked ratio
    and the row's (lower, upper) from its bound columns, a
    bounds._BoundColumns, or (None, None) without them.  Each row and its
    bounds come from one walk: _scan_means for the scan and the block
    search, _unknown_means (a power law) or _sub_block_means for the
    oracle-only model under the fallback ceil(pi/4 sqrt(n)), and with model
    None the columns of dist's one row alone, report None."""
    ns = (dist.n,) if stops is None else tuple(stops)
    if model is None and columns is None:
        rows = [(None, ())]
    elif model is None and columns.upper == "unknown":   # the one ceiling not linear in p
        rows = ((None, sums) for sums in _head_sums(
            dist, lambda block, ranks: columns.partials(block, ranks, dist.n),
            lambda law, lo, his: columns.tail(law.k, lo, his, law.alpha, dist.x0_threshold())))
    elif model is None:
        rows = ((None, sums[1:]) for sums in _linear_sums(
            dist, columns.partials, tail=lambda law, lo, his: columns.tail(law.k, lo, his)))
    elif model != "unknown":
        rows = ((_exact_report(f, 0.0, 0.0), sums)
                for f, sums in _scan_means(model, dist, ratio, ns, columns))
    else:
        fallbacks = [float(exact_grover_queries(n)) for n in ns]
        rows = (_unknown_means(dist, ratio, ns, fallbacks, columns) if dist.power_law is not None
                else [_sub_block_means(dist, ratio, *fallbacks, columns)])
    for n, (report, sums) in zip(ns, rows):
        yield report, (None, None) if columns is None else columns.values(sums, n)


def _trial_seed(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Deterministic per-task generator; fan-out safe by construction."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(stream, index)))


def _geometric_cost_by_rank(n: int, k: float, ranks: np.ndarray) -> np.ndarray:
    """f queries of the block search for each 1-based rank in ranks."""
    ends, cum = _geometric_schedule(n, k)
    return cum[np.searchsorted(ends, ranks)]


def monte_carlo(algorithm: str, dist: AdviceDistribution, trials: int, seed: int,
                k: float | None = None) -> ExpectationReport:
    """Estimate per-oracle expected costs with the marked element ~ advice.

    Deterministic for a given seed: the marked ranks come from one derived
    stream, and the oracle-only model draws round j of every trial from
    one stream derived from (seed, j), so a result depends only on the
    seed, the trial count, the advice and the ratio.
    """
    _check_int(trials, "trials", 1, _MAX_LEN)
    ratio = _model_ratio(algorithm, k)
    ranks = dist.sample(_trial_seed(seed, 0), size=trials)
    f, o_mu, inv = np.zeros((3, trials))
    if algorithm == "classical":
        f[:] = ranks
    elif algorithm == "geometric":
        f[:] = _geometric_cost_by_rank(dist.n, ratio, ranks)
    else:
        f, o_mu, inv = _unknown_rounds(
            dist._probs_at(ranks), _round_sizes(dist.n, ratio),
            exact_grover_queries(dist.n),
            (_trial_seed(seed, 1, j) for j in itertools.count()))
    stats = []   # mean and standard error of each oracle's count, in field order
    for values in (f, o_mu, inv):
        err = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        stats += [float(np.mean(values)), err]
    return ExpectationReport(*stats)

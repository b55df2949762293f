"""Search models over an advice distribution, with query accounting.

* classical: evaluate f on elements in advice order; rank x costs x.
* geometric (known advice): certainty searches, each with a zero-or-one
  verification query, over geometrically growing blocks of ranks in turn;
  a rank costs the nominal cost of every block up to its own.  f only.
* unknown (oracle-only advice): each round checks one sample, then
  amplifies with an iteration count drawn uniformly from a geometrically
  growing budget; after all rounds fail, a certainty search over the whole
  domain ends the run with zero error.  unknown_search runs one trial;
  monte_carlo runs the same rounds over the array of trials still active.

classical_expected, geometric_expected and unknown_expected_mu give the
exact advice-averaged costs and monte_carlo estimates them.  Quantum steps
are simulated at the probability level (closed-form success probability,
Bernoulli draw), so runs scale to huge n while statevector.py certifies
the same closed forms at small n.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import distributions
from .distributions import (
    AdviceDistribution,
    ConfigError,
    ParameterError,
    PowerLawSpec,
    _BERNOULLI,
    _MAX_LEN,
    _check_int,
    _check_real,
    _dot,
    _linear_sums,
    _power_sums,
    _prefix_length,
    _rank_weighted_sums,
)
from .rotation import (DEGENERATE_TOL, _angle_terms, _iter_average, _success_at,
                       exact_grover_queries)

__all__ = [
    "DEFAULT_GEOMETRIC_RATIO",
    "DEFAULT_AMPLIFY_RATIO",
    "AMPLIFY_RATIO_BOUNDS",
    "RunResult",
    "ExpectationReport",
    "classical_expected",
    "classical_sampling_expected",
    "geometric_expected",
    "unknown_rounds",
    "unknown_search",
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

# Rows of one thread's kernel scratch, each _SUB_BLOCK long: the head's 8
# vectors; the tail's powers reuse the first.
_SCRATCH_ROWS = 8

# The tiny tail's power series stops at the least degree whose truncation
# bound, relative, is under _TAIL_TOL, far below any sum's rounding; a row
# needing more than _TAIL_MAX_DEGREE keeps its tail in the kernel.
_TAIL_TOL = 2.0 ** -64
_TAIL_MAX_DEGREE = 8

# A power law's ranks past _PANEL_START, up to its tail cut, are summed over
# panels of whole sub-blocks, each about a quarter as wide as its start rank,
# from the kernel's costs at _PANEL_NODES Chebyshev points.  A panel whose two
# trailing coefficients exceed _PANEL_TOL of its mean goes back to the kernel:
# they read 6e-16 to 3.5e-14 over n = 2^18..2^28 and ratios 1.01..1.3, the
# rounding of the kernel's costs, and the integer sum weights mode i by ~2/i^2
# of the mean, so a panel at the threshold errs by ~2e-15 of its sum.
_PANEL_START = 4 * _SUB_BLOCK
_PANEL_NODES = 24
_PANEL_TOL = 1e-12


@dataclass(frozen=True)
class RunResult:
    """Outcome of one zero-error run: found element, the queries it made to
    f, O_mu and O_mu^-1, and the rounds it used."""

    found: int
    queries: tuple[int, int, int]
    rounds: int


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


def _floored_powers(k: float, what: str, estimate: float):
    """(k^j, floor(k^j (1 + _FLOOR_EPS))) for j = 0, 1, ... by iterated multiplication,
    after refusing a schedule whose length estimate (from logs) exceeds _MAX_SCHEDULE."""
    if estimate > _MAX_SCHEDULE:
        raise ParameterError(
            f"{what} ratio {k!r} needs about {estimate:.3g} schedule entries, "
            f"more than {_MAX_SCHEDULE}; use a ratio further from 1")
    power = 1.0
    while True:
        yield power, int(math.floor(power * (1.0 + _FLOOR_EPS)))
        power *= k


# ---------------------------------------------------------------------------
# classical baseline


def classical_expected(dist: AdviceDistribution) -> float:
    """Expected probes of the sequential scan: sum_x p_x * x."""
    return next(_scan_means("classical", dist))


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
    # a lower bound on the block count; a step is taken only while one is
    # needed, as the power after the covering block may be inf
    steps = _floored_powers(k, "block growth",
                            math.log1p(min(n * (k - 1.0), 1e300)) / math.log1p(k - 1.0))
    ends, costs, end = [], [], 0
    while end < n:
        _, size = next(steps)
        end = min(end + size, n)
        ends.append(end)
        costs.append(exact_grover_queries(size, zero_or_one=True))
    return np.array(ends, dtype=np.int64), np.cumsum(costs, dtype=np.float64)


def _with_columns(fn, columns):
    """fn's columns, then a row's bound columns if given (last, as they overwrite ranks)."""
    return fn if columns is None else lambda block, ranks, worker: (
        *fn(block, ranks, worker), *columns.partials(block, ranks, worker))


def _scan_means(model: str, dist: AdviceDistribution, k: float | None = None,
                columns=None, stops=None):
    """Yield the exact expected f queries of the scan, or of the block search
    at ratio k, up to each of stops (dist.n by default) from one
    _linear_sums, which sums columns too.  Each schedule block's part is its
    cumulative cost, charged at nominal block sizes whatever the stop, times
    its probability mass: per walk block an np.sum, past 2^16 on a power law
    a power sum, one for each piece of a schedule block there."""
    if model == "classical":
        fn = lambda block, ranks, _: (_dot(block, ranks),)   # noqa: E731
        tail = lambda k, lo, hi: (_power_sums(k + 1.0, lo, hi),)   # noqa: E731
    else:
        ends, cum = _geometric_schedule((stops or (dist.n,))[-1], k)

        def fn(block: np.ndarray, ranks: np.ndarray, worker: int) -> tuple[float]:
            first = int(ranks[0])
            m = int(np.searchsorted(ends, first))   # the schedule block of rank first
            lo, parts = 0, []
            while lo < block.size:
                hi = min(int(ends[m]) - first + 1, block.size)
                parts.append(cum[m] * float(np.sum(block[lo:hi])))
                lo, m = hi, m + 1
            return (math.fsum(parts),)

        def tail(k: float, lo: int, hi: int) -> tuple[np.ndarray]:
            first, last = np.searchsorted(ends, (lo + 1, hi))   # the schedule blocks of both ends
            cuts = np.concatenate(((lo,), ends[first:last], (hi,)))
            return (cum[first:last + 1] * _power_sums(k, cuts[:-1], cuts[1:]),)

    tails = tail if columns is None else lambda k, lo, hi: (*tail(k, lo, hi),
                                                            *columns.tail(k, lo, hi))
    for _, f, *sums in _linear_sums(dist, _with_columns(fn, columns), stops, tail=tails):
        if columns is not None:
            columns.sums = sums
        yield f


def geometric_expected(dist: AdviceDistribution,
                       k: float = DEFAULT_GEOMETRIC_RATIO) -> ExpectationReport:
    """Exact expected f queries of the block search under the advice."""
    return _exact_report(f=next(_scan_means("geometric", dist, k)), o_mu=0.0, o_mu_inv=0.0)


# ---------------------------------------------------------------------------
# oracle-only advice: sample, amplify with growing budgets, then fall back


def unknown_rounds(n: int, k: float = DEFAULT_AMPLIFY_RATIO) -> int:
    """Largest j with k^j <= sqrt(n); computed by iterated multiplication."""
    _check_int(n, "n", 1, 2**64)   # a 64-bit index's range; sqrt(n) must be a float
    k = _check_real(k, "iteration-budget ratio", *AMPLIFY_RATIO_BOUNDS)
    return len(_round_sizes(n, k)) - 1


@functools.lru_cache(maxsize=16)   # every Monte Carlo trial reuses one schedule
def _round_sizes(n: int, k: float) -> tuple[int, ...]:
    """Iteration budgets floor(k^j) for rounds j = 0..unknown_rounds(n, k)."""
    budgets = _floored_powers(k, "iteration-budget", 1.0 + 0.5 * math.log(n) / math.log1p(k - 1.0))
    limit = math.sqrt(n) * (1.0 + _FLOOR_EPS)
    return tuple(size for _, size in itertools.takewhile(lambda step: step[0] <= limit, budgets))


def unknown_search(dist: AdviceDistribution, marked_rank: int,
                   rng: np.random.Generator,
                   k: float = DEFAULT_AMPLIFY_RATIO) -> RunResult:
    """One zero-error run of the sample-and-amplify search.

    Per round: draw one sample from the advice and check it (1 preparation
    + 1 f query, succeeds with probability p_marked); if that misses, run
    an amplification attempt whose iteration count i is uniform on
    {0..floor(k^j)-1} (i+1 preparations and f checks, i inversions,
    succeeds with probability sin^2((2i+1) arcsin sqrt(p_marked))).
    Rounds restart fresh.  If every round fails, a certainty search over
    the whole domain (f queries only) ends the run.
    """
    _check_int(marked_rank, "marked rank", 1, dist.n)
    k = _check_real(k, "iteration-budget ratio", *AMPLIFY_RATIO_BOUNDS)
    p = dist.prob(marked_rank)
    theta = np.arcsin(np.sqrt(p))
    found = int(dist.perm[marked_rank - 1])
    f = o_mu = inv = 0
    sizes = _round_sizes(dist.n, k)
    for j, m in enumerate(sizes):
        f += 1
        o_mu += 1
        if rng.random() < p:
            return RunResult(found, (f, o_mu, inv), j + 1)
        i = int(rng.integers(m))
        # one preparation, then an inverse/re-preparation pair per iteration,
        # with a classical check of every outcome
        f += i + 1
        o_mu += i + 1
        inv += i
        if rng.random() < _success_at(theta, i):
            return RunResult(found, (f, o_mu, inv), j + 1)
    f += exact_grover_queries(dist.n, zero_or_one=False)
    return RunResult(found, (f, o_mu, inv), len(sizes))


def _unknown_rounds(p: np.ndarray, sizes: tuple[int, ...], fallback: int,
                    round_rngs: Iterable[np.random.Generator],
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Query triples (f, O_mu, O_mu^-1) of unknown_search for trials whose
    marked elements have probabilities p, simulated one round at a time.

    Round j takes the next generator of round_rngs and, over the trials
    still active in index order, draws the sample-hit uniforms, then the
    iteration counts of the trials whose sample missed, then their
    amplification uniforms; trials that succeed are retired.  Trials still
    active after the last round pay the fallback search in f queries.
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


def _amplify_sub_block(sub: np.ndarray, sizes: tuple[int, ...], fallback: float,
                       scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-oracle expected costs (f, shared, inv) of unknown_search for
    each p in sub, under round budgets sizes and a fallback search of
    fallback f queries.

    Mirrors the simulated process: round j is reached with probability
    reach = prod_{i<j} (1-p)(1 - P_{m_i}), always pays the sampling step, and
    pays (m+1)/2 preparations and f checks and (m-1)/2 inversions on average
    when the sample misses, q = 1 - p.  So with A = sum reach and C = sum reach
    (m-1)/2, shared = A + q (A + C) and inv = q C: four passes a round.  All
    rounds run in scratch, a (_SCRATCH_ROWS, >= sub.size) buffer, so the
    working set stays in cache; the results are views of its rows.
    """
    q, theta, c, miss, reach, a, c_sum, tmp = scratch[:, :sub.size]
    np.subtract(1.0, sub, out=q)
    terms = _angle_terms(sub, theta, c)
    reach.fill(1.0)
    a.fill(0.0)
    c_sum.fill(0.0)
    last_m = 0
    for m in sizes:
        # the round's miss probability q (1 - P_m) depends on m alone, and
        # budgets repeat only in consecutive rounds
        if m != last_m:
            _iter_average(sub, *terms, m, out=miss)
            miss *= q   # 1 - (p + q P_m): fl(q) enters scaled by P_m, not once a round
            miss += sub
            np.subtract(1.0, miss, out=miss)
            last_m = m
        a += reach
        c_sum += np.multiply(reach, (m - 1) * 0.5, out=tmp)
        reach *= miss
    a += np.multiply(np.add(a, c_sum, out=tmp), q, out=tmp)   # shared
    c_sum *= q                                                # inv
    return np.add(np.multiply(reach, fallback, out=reach), a, out=reach), a, c_sum


def _tail_series(sizes: tuple[int, ...], fallback: float) -> tuple[np.ndarray, ...] | None:
    """Taylor coefficients in p of the costs (f, shared, inv) that
    _amplify_sub_block gives p < DEGENERATE_TOL, where a round misses with
    probability (1-p)(1 - sigma p), sigma = (4m^2-1)/3: its recurrence on
    polynomials cut at the least degree D whose bound is under _TAIL_TOL, or
    None past _TAIL_MAX_DEGREE.  Coefficientwise a cost is at most its value
    at 0 times exp(x p / DEGENERATE_TOL), x = DEGENERATE_TOL (1 + sum_j (1 +
    sigma_j)), and at least that value times 1 - 2x: the cut errs by at most
    e^x x^(D+1) / ((D+1)! (1 - 2x)), relative."""
    sigmas = [(4.0 * m * m - 1.0) / 3.0 for m in sizes]
    x = DEGENERATE_TOL * (1.0 + len(sizes) + math.fsum(sigmas))
    degree = next((d for d in range(_TAIL_MAX_DEGREE + 1) if x < 0.5 and math.exp(x)
                   * x ** (d + 1) / (math.factorial(d + 1) * (1.0 - 2.0 * x)) <= _TAIL_TOL), None)
    if degree is None:
        return None
    reach, a, c_sum = np.zeros((3, degree + 1))
    reach[0] = 1.0
    for m, sigma in zip(sizes, sigmas):
        a += reach
        c_sum += reach * ((m - 1) * 0.5)
        reach = np.convolve(reach, (1.0, -1.0 - sigma, sigma))[:degree + 1]
    times_q = lambda v: v - np.pad(v[:-1], (1, 0))   # noqa: E731   (1 - p) v, cut at D
    shared = a + times_q(a + c_sum)
    return shared + reach * fallback, shared, times_q(c_sum)


def _panels(cut: int) -> list[tuple[int, int]]:
    """(lo, hi) of the panels of ranks lo + 1..hi from _PANEL_START to cut: a
    whole number of sub-blocks, about lo / 4, each, the last one ending at
    cut (none unless cut is a sub-block or more past _PANEL_START)."""
    panels, lo = [], _PANEL_START
    while cut - lo >= _SUB_BLOCK:
        hi = lo + max(1, lo // (4 * _SUB_BLOCK)) * _SUB_BLOCK
        hi = cut if cut - hi < _SUB_BLOCK else hi
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


def _panel_rows(law: PowerLawSpec, sizes: tuple[int, ...], fallback: float, cut: int) -> dict:
    """The walk rows of the blocks that _panels(cut) covers, by block index:
    a panel's first block carries its column sums sum_j W_j p(x_j) cost(x_j)
    over its Chebyshev points x_j, its other blocks zeros.  The kernel runs
    once on every panel's points; a panel whose trailing two coefficients
    exceed _PANEL_TOL of the leading one, in any column, gets no rows."""
    panels = _panels(cut)
    if not panels:
        return {}
    nodes, basis = _chebyshev_basis()
    x = np.concatenate([(lo + 1 + hi) * 0.5 + (hi - lo - 1) * 0.5 * nodes for lo, hi in panels])
    p = np.power(x, law.k) * law.alpha
    costs = _amplify_sub_block(p, sizes, fallback, np.empty((_SCRATCH_ROWS, p.size)))
    values = (np.stack(costs) * p).reshape(3, len(panels), _PANEL_NODES)
    rows = {}
    for (lo, hi), g in zip(panels, values.transpose(1, 0, 2)):
        c = g @ basis.T
        if np.any(np.abs(c[:, -2:]).sum(axis=1) > _PANEL_TOL * np.abs(c[:, 0])):
            continue   # its blocks run the kernel
        first = lo // _SUB_BLOCK
        rows.update(dict.fromkeys(range(first + 1, -(-hi // _SUB_BLOCK)), (0.0, 0.0, 0.0)))
        rows[first] = tuple(float(v) for v in g @ _panel_weights(hi - lo - 1))
    return rows


def unknown_expected_exact(dist: AdviceDistribution, marked_rank: int,
                           k: float = DEFAULT_AMPLIFY_RATIO) -> ExpectationReport:
    """Exact per-oracle expected costs for one fixed marked rank: for
    p < DEGENERATE_TOL the tail series of unknown_expected_mu, if it has one."""
    _check_int(marked_rank, "marked rank", 1, dist.n)
    k = _check_real(k, "iteration-budget ratio", *AMPLIFY_RATIO_BOUNDS)
    p, sizes, fallback = dist.prob(marked_rank), _round_sizes(dist.n, k), float(
        exact_grover_queries(dist.n))
    series = _tail_series(sizes, fallback) if p < DEGENERATE_TOL else None
    if series is not None:
        return _exact_report(*(math.fsum(a * p ** d for d, a in enumerate(c)) for c in series))
    return _exact_report(*(float(v[0]) for v in _amplify_sub_block(
        np.array([p]), sizes, fallback, np.empty((_SCRATCH_ROWS, 1)))))


def unknown_expected_mu(dist: AdviceDistribution, k: float = DEFAULT_AMPLIFY_RATIO,
                        *, columns=None) -> ExpectationReport:
    """Advice-averaged exact expected costs: sum_x p_x E[cost | marked=x].

    One walk over _SUB_BLOCKs; each is cut where p drops below
    DEGENERATE_TOL (a suffix, as the advice is sorted), and its ranks take
    one of three paths:
    * the tail, p < DEGENERATE_TOL, runs no rounds: it gives the power sums
      M_e = sum p^e, e = 1..D+1, and fsum_d a_d M_(d+1) with _tail_series'
      a_d is added after the walk (a row with no series has no tail);
    * on a power law, the head's ranks past _PANEL_START (2^16) are summed
      over Chebyshev panels by _panel_rows, whose sums are rows of the walk
      in place of the kernel's on the blocks they cover; a panel over its
      error threshold leaves its blocks to the kernel;
    * every other head, and all of explicit advice, runs _amplify_sub_block,
      its costs reduced to three dot products at once, so no n-sized output
      exists.
    The sub-blocks are spread over the walk's threads, each with scratch of
    its own allocated here (numpy's float ufuncs release the GIL); the means
    have the same bits for any thread count.  columns, if given, are a row's
    bound columns, summed in the walk over every rank.
    """
    k = _check_real(k, "iteration-budget ratio", *AMPLIFY_RATIO_BOUNDS)
    sizes = _round_sizes(dist.n, k)
    fallback = float(exact_grover_queries(dist.n, zero_or_one=False))
    series = _tail_series(sizes, fallback)
    count = 0 if series is None else series[0].size
    panel_rows = {} if dist.power_law is None else _panel_rows(
        dist.power_law, sizes, fallback,
        dist._last_rank_at_least(DEGENERATE_TOL) if count else dist.n)
    scratch = np.empty((distributions._walk_workers(dist.n, _SUB_BLOCK), _SCRATCH_ROWS,
                        min(dist.n, _SUB_BLOCK)))

    def fn(block: np.ndarray, ranks: np.ndarray, worker: int) -> list[float]:
        head = block[:_prefix_length(block, DEGENERATE_TOL)] if count else block
        tail, power = block[head.size:], scratch[worker, 0, :block.size - head.size]
        row = panel_rows.get((int(ranks[0]) - 1) // _SUB_BLOCK)
        if row is None:
            row = [_dot(head, v) for v in _amplify_sub_block(head, sizes, fallback, scratch[worker])
                   ] if head.size else [0.0, 0.0, 0.0]
        np.copyto(power, tail)   # then the power sums sum tail^e, e = 1..count, in place
        return [*row, *(float(np.sum(power if e == 0 else np.multiply(power, tail, out=power)))
                        for e in range(count))]

    f, o_mu, inv, *sums = next(_rank_weighted_sums(dist, _with_columns(fn, columns),
                                                   step=_SUB_BLOCK))
    if count:
        f, o_mu, inv = (head + math.fsum(a * m for a, m in zip(coeffs, sums))
                        for head, coeffs in zip((f, o_mu, inv), series))
    if columns is not None:
        columns.sums = sums[count:]
    return _exact_report(f=f, o_mu=o_mu, o_mu_inv=inv)


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


def exact_expected(model: str, dist: AdviceDistribution, k: float | None = None,
                   columns=None) -> ExpectationReport:
    """Exact per-oracle expected costs of a model with the marked element ~ advice,
    summing the row's bound columns, if given, in the model's walk."""
    ratio = _model_ratio(model, k)
    if model == "unknown":
        return unknown_expected_mu(dist, ratio, columns=columns)
    return _exact_report(f=next(_scan_means(model, dist, ratio, columns)), o_mu=0.0, o_mu_inv=0.0)


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
            exact_grover_queries(dist.n, zero_or_one=False),
            (_trial_seed(seed, 1, j) for j in itertools.count()))
    stats = []   # mean and standard error of each oracle's count, in field order
    for values in (f, o_mu, inv):
        err = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        stats += [float(np.mean(values)), err]
    return ExpectationReport(*stats)

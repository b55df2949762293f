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
import os
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .distributions import (
    AdviceDistribution,
    ConfigError,
    ParameterError,
    _MAX_LEN,
    _check_int,
    _check_real,
    _dot,
    _linear_sums,
    _rank_weighted_sums,
)
from .rotation import _angle_terms, _iter_average, _success_at, exact_grover_queries

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

# Sub-block length of the oracle-only exact kernel: the ~10 float64 vectors
# of this length that one round touches (1.3 MB) stay in a 2 MB L2 cache.
_SUB_BLOCK = 1 << 14

# Rows of one thread's kernel scratch, each _SUB_BLOCK long.
_SCRATCH_ROWS = 9


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


def _check_geometric_ratio(k: float) -> float:
    return _check_real(k, "block growth ratio", 1.0)


def _check_amplify_ratio(k: float) -> float:
    return _check_real(k, "iteration-budget ratio", *AMPLIFY_RATIO_BOUNDS)


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
    k = _check_geometric_ratio(k)
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
    at ratio k, up to each of stops (dist.n by default) from one walk, which
    sums columns too.  Per walk block, each schedule block's part is np.sum
    times its cumulative cost, charged at nominal block sizes whatever the stop."""
    if model == "classical":
        fn = lambda block, ranks, _: (_dot(block, ranks),)   # noqa: E731
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

    for _, f, *sums in _linear_sums(dist, _with_columns(fn, columns), stops):
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
    return len(_round_sizes(n, _check_amplify_ratio(k))) - 1


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
    k = _check_amplify_ratio(k)
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


def _kernel_workers() -> int:
    """Threads of the oracle-only exact kernel: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _amplify_sub_block(sub: np.ndarray, sizes: tuple[int, ...], fallback: float,
                       scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-oracle expected costs (f, shared, inv) of unknown_search for
    each p in sub, under round budgets sizes and a fallback search of
    fallback f queries.

    Mirrors the simulated process: reach round j with probability
    prod_{i<j} (1 - s_i) where s_i = p + (1-p) P_{m_i}; a reached round
    always pays the sampling step and pays the amplification step exactly
    when the sample misses.  All rounds run in scratch, a
    (_SCRATCH_ROWS, >= sub.size) buffer, so the working set stays in cache;
    the three results are views of its rows, valid until its next use.
    """
    q, theta, c, miss_round, reach, miss_weight, tmp, shared, inv = scratch[:, :sub.size]
    np.subtract(1.0, sub, out=q)
    terms = _angle_terms(sub, theta, c)
    reach.fill(1.0)
    shared.fill(0.0)   # f and preparation counters agree per round
    inv.fill(0.0)
    last_m = 0
    for m in sizes:
        # the round's miss probability 1 - s depends on m alone, and
        # budgets repeat only in consecutive rounds
        if m != last_m:
            _iter_average(sub, *terms, m, out=miss_round)   # P_m
            miss_round *= q
            miss_round += sub
            np.minimum(miss_round, 1.0, out=miss_round)     # s
            np.subtract(1.0, miss_round, out=miss_round)
            last_m = m
        np.multiply(reach, q, out=miss_weight)
        np.multiply(miss_weight, (m + 1) * 0.5, out=tmp)
        shared += np.add(reach, tmp, out=tmp)
        inv += np.multiply(miss_weight, (m - 1) * 0.5, out=tmp)
        reach *= miss_round
    f = np.add(shared, np.multiply(reach, fallback, out=tmp), out=miss_weight)
    return f, shared, inv


def unknown_expected_exact(dist: AdviceDistribution, marked_rank: int,
                           k: float = DEFAULT_AMPLIFY_RATIO) -> ExpectationReport:
    """Exact per-oracle expected costs for one fixed marked rank."""
    _check_int(marked_rank, "marked rank", 1, dist.n)
    k = _check_amplify_ratio(k)
    f, o_mu, inv = _amplify_sub_block(np.array([dist.prob(marked_rank)]), _round_sizes(dist.n, k),
                                      float(exact_grover_queries(dist.n)),
                                      np.empty((_SCRATCH_ROWS, 1)))
    return _exact_report(f=float(f[0]), o_mu=float(o_mu[0]), o_mu_inv=float(inv[0]))


def unknown_expected_mu(dist: AdviceDistribution, k: float = DEFAULT_AMPLIFY_RATIO,
                        *, columns=None) -> ExpectationReport:
    """Advice-averaged exact expected costs: sum_x p_x E[cost | marked=x].

    Each _SUB_BLOCK of ranks is reduced to its three dot products as soon
    as its costs are computed, so no n-sized output exists.  The sub-blocks
    are spread over one thread per available CPU, each with its own
    scratch (numpy's float ufuncs release the GIL); the means are the same
    bit for bit for any thread count.  columns, if given, are a row's bound
    columns, summed in the same walk.
    """
    k = _check_amplify_ratio(k)
    sizes = _round_sizes(dist.n, k)
    fallback = float(exact_grover_queries(dist.n, zero_or_one=False))
    workers = min(_kernel_workers(), -(-dist.n // _SUB_BLOCK))
    scratch = np.empty((workers, _SCRATCH_ROWS, min(dist.n, _SUB_BLOCK)))
    fn = lambda block, ranks, worker: [   # noqa: E731
        _dot(block, v) for v in _amplify_sub_block(block, sizes, fallback, scratch[worker])]
    f, o_mu, inv, *sums = next(_rank_weighted_sums(dist, _with_columns(fn, columns),
                                                   step=_SUB_BLOCK, workers=workers))
    if columns is not None:
        columns.sums = sums
    return _exact_report(f=f, o_mu=o_mu, o_mu_inv=inv)


# ---------------------------------------------------------------------------
# one entry point per method: exact expectation and Monte Carlo estimate


def _model_ratio(model: str, k: float | None) -> float | None:
    """A model's growth ratio: its default when k is None, else k checked."""
    if model == "classical":
        return None
    if model == "geometric":
        return DEFAULT_GEOMETRIC_RATIO if k is None else _check_geometric_ratio(k)
    if model == "unknown":
        return DEFAULT_AMPLIFY_RATIO if k is None else _check_amplify_ratio(k)
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

from __future__ import annotations

import math
import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from advice_search import (
    AMPLIFY_RATIO_BOUNDS,
    ConfigError,
    DEFAULT_AMPLIFY_RATIO,
    ParameterError,
    classical_expected,
    classical_sampling_expected,
    exact_grover_queries,
    geometric_expected,
    make_explicit,
    make_power_law,
    monte_carlo,
    row_bounds,
    unknown_expected_exact,
    unknown_expected_mu,
    unknown_rounds,
)
from advice_search import algorithms, distributions
from advice_search.algorithms import (
    _PANEL_NODES,
    _PANEL_START,
    _SCRATCH_ROWS,
    _SUB_BLOCK,
    _amplify_sub_block,
    _chebyshev_basis,
    _geometric_cost_by_rank,
    _geometric_schedule,
    _panel_sums,
    _panel_weights,
    _panels,
    _round_sizes,
    _tail_series,
    _trial_seed,
)
from advice_search.bounds import _BoundColumns
from advice_search.distributions import _BUILD_STEP, AdviceDistribution, PowerLawSpec
from advice_search.rotation import DEGENERATE_TOL
from advice_search.sweep import SweepSpec, run_point

from reference import (
    ref_amplify_expected_whole,
    ref_blocks,
    ref_chunked_dot_sums,
    ref_geometric_cost,
    ref_geometric_expected,
    ref_geometric_schedule,
    ref_grover_queries,
    ref_power_sum,
    ref_round_budgets,
    ref_tail_coefficients,
    ref_tail_costs,
    ref_unknown_expected,
    ref_unknown_expected_mp,
    ref_unknown_expected_mu,
    ref_unknown_search,
)


# ---------------------------------------------------------------------------
# classical scan


def test_classical_sequential_cost_is_rank():
    # each Monte Carlo trial of the scan pays its sampled rank in f queries
    d = make_explicit([5.0, 1.0, 3.0, 1.0])
    ranks = d.sample(_trial_seed(7, 0), size=50).astype(np.float64)
    mc = monte_carlo("classical", d, 50, seed=7)
    assert mc.f_mean == float(np.mean(ranks))
    assert mc.f_stderr == float(np.std(ranks, ddof=1) / math.sqrt(50))
    assert (mc.o_mu_mean, mc.o_mu_inv_mean) == (0.0, 0.0)


def test_classical_expected_uniform():
    assert classical_expected(make_explicit([1.0] * 100)) == 50.5
    assert classical_expected(make_explicit([1.0] * 1024)) == 512.5


def test_classical_expected_weighted():
    d = make_explicit([1.0, 3.0])
    # sorted probs (3/4, 1/4): expect 3/4*1 + 1/4*2
    assert math.isclose(classical_expected(d), 1.25, rel_tol=1e-15)


def test_classical_sampling_expected():
    assert classical_sampling_expected(make_explicit([2.0, 1.0, 1.0])) == 3.0
    assert math.isinf(classical_sampling_expected(make_explicit([1.0, 0.0])))


def test_classical_row_holds_no_n_vector():
    # build plus the exact classical row and its bounds make no rank past
    # the 128-rank head, whatever n is: the whole call peaks at or below 512
    # KB under tracemalloc
    tracemalloc.start()
    try:
        dist = make_power_law(2**26, -0.75)
        classical_expected(dist)
        row_bounds(dist, "classical")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**19, peak
    assert dist._probs is None


# ---------------------------------------------------------------------------
# known advice: geometric block schedule


def _schedule(n, k=math.e):
    """The block search's schedule as 1-based inclusive (start, end) blocks
    and the f queries each block costs."""
    ends, cum = _geometric_schedule(n, k)
    starts = [1] + [end + 1 for end in ends[:-1].tolist()]
    return list(zip(starts, ends.tolist())), np.diff(cum, prepend=0.0).tolist()


def _nominal_costs(sizes):
    return [exact_grover_queries(size, zero_or_one=True) for size in sizes]


def test_blocks_frozen_30():
    blocks, costs = _schedule(30)
    assert blocks == [(1, 1), (2, 3), (4, 10), (11, 30)]
    assert costs == _nominal_costs([1, 2, 7, 20])


def test_blocks_frozen_4():
    blocks, costs = _schedule(4)
    assert blocks == [(1, 1), (2, 3), (4, 4)]
    # the last block is truncated by the domain but costs its nominal size
    assert costs == _nominal_costs([1, 2, 7])


def test_blocks_frozen_ratio_2():
    blocks, costs = _schedule(5, 2.0)
    assert blocks == [(1, 1), (2, 3), (4, 5)]
    assert costs == _nominal_costs([1, 2, 4])


def test_blocks_cover_domain_without_overlap():
    for n in (1, 2, 17, 100, 12345):
        for k in (1.5, math.e, 4.0):
            blocks, _ = _schedule(n, k)
            flat = [x for start, end in blocks for x in range(start, end + 1)]
            assert flat == list(range(1, n + 1))


def test_blocks_match_reference_loop():
    for n in (1, 7, 64, 1000):
        for k in (1.3, math.e, 3.0):
            blocks, costs = _schedule(n, k)
            expected = ref_blocks(n, k)
            assert blocks == [(s, e) for s, e, _ in expected]
            assert costs == _nominal_costs([size for _, _, size in expected])


@pytest.mark.parametrize("k", (1.0001, 1.01, math.e, 2.0, 1e300))
def test_geometric_schedule_is_the_loop_bit_for_bit(k):
    # the vectorized schedule against the per-block loop: the same ends and
    # cumulative costs, bit for bit, from a one-block domain to n = 2^40
    # (at ratio 1.0001, to 2^27: past ~2^28 its ~10^5 blocks are refused)
    for n in (1, 2, 3, 30, 1000, 2**16 + 1, 2**24 + 3, 2**27, 2**40):
        if k == 1.0001 and n == 2**40:
            with pytest.raises(ParameterError, match="schedule entries"):
                _geometric_schedule(n, k)
            continue
        ends, cum = _geometric_schedule(n, k)
        want_ends, want_cum = ref_geometric_schedule(n, k)
        assert ends.tolist() == want_ends, (n, k)
        assert [c.hex() for c in cum.tolist()] == [c.hex() for c in want_cum], (n, k)


def test_geometric_search_frozen_costs():
    costs = _geometric_cost_by_rank(30, math.e, np.array([1, 5, 30]))
    assert costs.tolist() == [2.0, 9.0, 14.0]


def test_geometric_expected_frozen():
    assert geometric_expected(make_explicit([1.0] * 4)).f_mean == pytest.approx(21.0 / 4.0)
    assert geometric_expected(make_explicit([1.0, 0.0, 0.0])).f_mean == pytest.approx(2.0)


def test_geometric_expected_matches_reference():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 200))
        d = make_explicit(rng.exponential(size=n))
        for k in (1.4, math.e):
            assert math.isclose(geometric_expected(d, k).f_mean,
                                ref_geometric_expected(list(d.probs), k),
                                rel_tol=1e-12)


@pytest.mark.parametrize("k", (math.e, 1.05))
def test_geometric_expected_spans_walk_blocks(k):
    # schedule blocks that straddle the 2^16-rank blocks of the walk are
    # summed in parts, and the mean is the rank-by-rank sum to a few ulps
    d = make_power_law(3 * 2**16 + 5, -0.75)
    costs = _geometric_cost_by_rank(d.n, k, np.arange(1, d.n + 1))
    want = math.fsum((d.probs * costs).tolist())
    assert geometric_expected(d, k).f_mean == pytest.approx(want, rel=1e-14, abs=0)


def test_geometric_cost_agrees_with_reference_per_rank():
    for n, k in ((100, math.e), (1000, 1.4), (7, 3.0)):
        costs = _geometric_cost_by_rank(n, k, np.arange(1, n + 1))
        assert costs.tolist() == [ref_geometric_cost(n, k, rank) for rank in range(1, n + 1)]


@pytest.mark.parametrize("n,k", [(1, math.e), (2, math.e), (30, math.e), (1000, 1.4),
                                 (4097, 2.0), (65537, 1.05), (10**5, 3.0)])
def test_geometric_cost_lookup_equals_repeated_table(n, k):
    # the block-end lookup gives, rank by rank, the n-length table of each
    # block's cumulative cost repeated over the block
    ends, cum = _geometric_schedule(n, k)
    table = np.repeat(cum, np.diff(ends, prepend=0))
    ranks = np.arange(1, n + 1)
    assert np.array_equal(_geometric_cost_by_rank(n, k, ranks), table)
    shuffled = np.random.default_rng(n).permutation(ranks)
    assert np.array_equal(_geometric_cost_by_rank(n, k, shuffled), table[shuffled - 1])


def test_geometric_ratio_validation():
    with pytest.raises(ParameterError):
        _geometric_schedule(10, 1.0)
    with pytest.raises(ParameterError):
        _geometric_schedule(10, 0.5)
    with pytest.raises(ParameterError):
        _geometric_schedule(10, float("inf"))
    with pytest.raises(ParameterError):
        geometric_expected(make_explicit([1.0] * 4), k=float("inf"))
    # a huge finite ratio covers n in a block or two: the power after the
    # covering block overflows to inf and is never taken; at the largest
    # float, the nominal size k (1 + 1e-12) would overflow, and is the
    # largest float instead
    ends, costs = _geometric_schedule(2, 1e200)
    assert ends.tolist() == [1, 2] and np.all(np.isfinite(costs))
    assert math.isfinite(geometric_expected(make_explicit([1.0, 1.0]), k=1e200).f_mean)
    ends, costs = _geometric_schedule(2**40, sys.float_info.max)
    assert ends.tolist() == [1, 2**40]
    assert costs[1] == 2.0 + math.ceil(0.25 * math.pi * math.sqrt(sys.float_info.max)) + 1


# ---------------------------------------------------------------------------
# oracle-only advice: sample then amplify


def test_unknown_rounds_budgets():
    for n in (1, 2, 100, 4096, 10**6):
        for k in (1.05, DEFAULT_AMPLIFY_RATIO, 1.3):
            sizes = ref_round_budgets(n, k)
            assert unknown_rounds(n, k) == len(sizes) - 1


def _run_rounds(d, ranks, round_rngs=None, k=DEFAULT_AMPLIFY_RATIO, seed=0):
    """_unknown_rounds' query triples for trials marked at the 1-based ranks
    of d, as monte_carlo runs them: round j draws from round_rngs' jth
    generator, by default one derived from (seed, j)."""
    sizes = _round_sizes(d.n, k)
    if round_rngs is None:
        round_rngs = [_trial_seed(seed, 1, j) for j in range(len(sizes))]
    return algorithms._unknown_rounds(d._probs_at(np.asarray(ranks)), sizes,
                                      exact_grover_queries(d.n, zero_or_one=False), round_rngs)


def test_unknown_search_point_mass():
    f, o_mu, inv = _run_rounds(make_explicit([1.0]), [1])
    assert (f.tolist(), o_mu.tolist(), inv.tolist()) == ([1], [1], [0])


def test_unknown_search_certain_first_sample():
    # p = 1 always succeeds at the first sampling step regardless of n
    d = make_explicit([1.0] + [0.0] * 63)
    for seed in range(3):
        f, o_mu, inv = _run_rounds(d, [1] * 5, seed=seed)
        assert list(zip(f, o_mu, inv)) == [(1, 1, 0)] * 5


class _Scripted:
    """Generator stand-in whose random() and integers() replay fixed draws."""

    def __init__(self, uniforms, iterations):
        self.uniforms, self.iterations = list(uniforms), list(iterations)

    def random(self):
        return self.uniforms.pop(0)

    def integers(self, high):
        assert 0 <= self.iterations[0] < high
        return self.iterations.pop(0)


class _ScriptedRound:
    """Round generator stand-in for _unknown_rounds: replays the round's
    sample-hit uniforms, iteration counts and amplification uniforms, and
    checks that each call asks for exactly as many draws as were scripted."""

    def __init__(self, m, hits, iterations, attempts):
        self.m = m
        self.calls = [("random", hits), ("integers", iterations), ("random", attempts)]

    def _next(self, kind, size):
        name, draws = self.calls.pop(0)
        assert (name, len(draws)) == (kind, size)
        return draws

    def random(self, size):
        return self._next("random", size)

    def integers(self, high, size):
        assert high == self.m
        return self._next("integers", size)


def _expected_totals(iterations, fallback_f=0):
    """Each round's sample (1, 1, 0) plus each attempt's (i+1, i+1, i)."""
    rounds, calls = len(iterations), sum(i + 1 for i in iterations)
    return (rounds + calls + fallback_f, rounds + calls, sum(iterations))


def _one_trial_script(budgets, hits, iterations, attempts):
    """A _ScriptedRound per round of one trial, from its sample-hit uniforms,
    and the iteration counts and amplification uniforms of its attempts."""
    return [_ScriptedRound(m, np.array(hits[j:j + 1]),
                           np.array(iterations[j:j + 1], dtype=np.int64),
                           np.array(attempts[j:j + 1])) for j, m in enumerate(budgets)]


def test_unknown_search_scripted_totals():
    d = make_power_law(256, -1.0)
    budgets = ref_round_budgets(256, DEFAULT_AMPLIFY_RATIO)
    rank = 100
    assert 0.0 < d.prob(rank) < 0.01

    def run(script):
        f, o_mu, inv = _run_rounds(d, [rank], iter(script))
        assert all(not rnd.calls for rnd in script)   # every scripted round was drawn
        return (f[0], o_mu[0], inv[0])

    # the first sample hits
    assert run(_one_trial_script(budgets[:1], [0.0], [], [])) == (1, 1, 0)

    # rounds before `last` miss twice; round `last` misses its sample and its
    # attempt, at the budget's largest count m - 1, hits
    for last in (0, 3, len(budgets) - 1):
        iterations = [m - 1 for m in budgets[:last + 1]]
        script = _one_trial_script(budgets[:last + 1], [1.0] * (last + 1), iterations,
                                   [1.0] * last + [0.0])
        assert run(script) == _expected_totals(iterations)

    # every draw misses, so the certainty search over all n ends the run
    iterations = [j % m for j, m in enumerate(budgets)]
    script = _one_trial_script(budgets, [1.0] * len(budgets), iterations, [1.0] * len(budgets))
    fallback_f = 13  # ceil(pi/4 * sqrt(256)), f queries only
    assert run(script) == _expected_totals(iterations, fallback_f)


def test_unknown_search_ledger_consistency():
    d = make_power_law(256, -1.0)
    budgets = ref_round_budgets(256, DEFAULT_AMPLIFY_RATIO)
    fallback_f = 13  # ceil(pi/4 * sqrt(256))
    ranks = d.sample(np.random.default_rng(17), 200)
    for f, o_mu, inv in zip(*_run_rounds(d, ranks, seed=17)):
        # a round's sample step adds 1 to o_mu - inv, its amplification
        # attempt 1 more; only a sample-success final round skips its attempt
        assert 1 <= o_mu - inv <= 2 * len(budgets)
        # f mirrors o_mu except for the f-only certainty fallback, which
        # only a run that missed every draw of every round pays
        assert f == o_mu or (f == o_mu + fallback_f and o_mu - inv == 2 * len(budgets))
        assert inv <= sum(m - 1 for m in budgets)


def _unknown_rounds_against_search(d, ranks, k, rng):
    """Draw every trial's per-round uniforms and iteration counts up front,
    replay them through ref_unknown_search one trial at a time and through
    _unknown_rounds one round at a time, and assert equal query triples.
    Returns the marked probabilities and ref_unknown_search's (queries,
    rounds) runs."""
    sizes = algorithms._round_sizes(d.n, k)
    assert list(sizes) == ref_round_budgets(d.n, k)
    hit_u, attempt_u = rng.random((2, ranks.size, len(sizes)))
    iterations = np.stack([rng.integers(m, size=ranks.size) for m in sizes], axis=1)
    p = d.probs[ranks - 1]
    runs = [ref_unknown_search(float(p[t]), sizes, ref_grover_queries(d.n),
                               _Scripted(np.column_stack([hit_u[t], attempt_u[t]]).ravel(),
                                         iterations[t]))
            for t in range(ranks.size)]
    # the trials that reach round j, in index order, and those among them
    # whose sample misses, as ref_unknown_search consumed them
    reached = np.array([rounds for _, rounds in runs])
    script = []
    for j, m in enumerate(sizes):
        live = reached > j
        missed = live & (hit_u[:, j] >= p)
        script.append(_ScriptedRound(m, hit_u[live, j], iterations[missed, j],
                                     attempt_u[missed, j]))
    f, o_mu, inv = _run_rounds(d, ranks, iter(script), k)
    assert list(zip(f, o_mu, inv)) == [queries for queries, _ in runs]
    assert all(not rnd.calls for j, rnd in enumerate(script) if (reached > j).any())
    return p, runs


def test_unknown_rounds_replay_unknown_search():
    rng = np.random.default_rng(2024)
    cases = [   # advice, ratio and trial count; ranks 1 and n, the rest uniform
        (make_explicit([1.0] + [0.0] * 63), DEFAULT_AMPLIFY_RATIO, 300),   # p = 1 and p = 0
        (make_explicit([1.0, 1e-13, 3e-14, 1e-15] + [1e-13] * 60), DEFAULT_AMPLIFY_RATIO, 300),
        (make_power_law(256, -1.0), DEFAULT_AMPLIFY_RATIO, 300),
        (make_power_law(256, -1.0), 1.3, 300),
        (make_power_law(4096, -0.5), 1.3, 300),
        (make_explicit(np.ones(16)), DEFAULT_AMPLIFY_RATIO, 10),
    ]
    seen = set()
    for d, k, trials in cases:
        ranks = np.concatenate([[1, d.n], rng.integers(1, d.n + 1, size=trials - 2)])
        p, runs = _unknown_rounds_against_search(d, ranks, k, rng)
        f, o_mu, inv = np.array([queries for queries, _ in runs]).T
        reached = np.array([rounds for _, rounds in runs])
        seen.update(name for name, covered in (
            ("p = 1", (p == 1.0).any()),
            ("degenerate", ((0.0 < p) & (p < DEGENERATE_TOL)).any()),
            ("fallback", (f > o_mu).any()),
            ("found after amplifying", ((inv > 0) & (f == o_mu)).any()),
            ("a round for one trial", any((reached > j).sum() == 1 for j in range(1, reached.max()))),
            ("ratio 1.3", k == 1.3)) if covered)
    assert seen == {"p = 1", "degenerate", "fallback", "found after amplifying",
                    "a round for one trial", "ratio 1.3"}


def test_unknown_expected_exact_matches_reference():
    for n in (4, 64, 500):
        d = make_power_law(n, -1.5)
        for rank in (1, 2, n):
            got = unknown_expected_exact(d, rank)
            want = ref_unknown_expected(d.prob(rank), n, DEFAULT_AMPLIFY_RATIO)
            np.testing.assert_allclose(got.means(), want, rtol=1e-9)


def test_unknown_expected_exact_other_ratio():
    d = make_power_law(100, -2.0)
    for k in (1.05, 1.25, 1.33):
        got = unknown_expected_exact(d, 3, k)
        want = ref_unknown_expected(d.prob(3), 100, k)
        np.testing.assert_allclose(got.means(), want, rtol=1e-9)


def test_unknown_expected_mu_matches_reference():
    for n, k_dist in ((16, -1.0), (128, -0.5), (64, -2.5)):
        d = make_power_law(n, k_dist)
        got = unknown_expected_mu(d)
        want = ref_unknown_expected_mu(list(d.probs), DEFAULT_AMPLIFY_RATIO)
        np.testing.assert_allclose(got.means(), want, rtol=1e-9)


def test_unknown_expected_mu_matches_reference_across_sub_blocks():
    # one element past a sub-block: the kernel's second sub-block holds a
    # single rank, and the brute-force sum still covers every rank.  Ratio
    # 1.3 has 19 rounds here against 1.162's 33, which keeps the scalar
    # reference to a few seconds.
    d = make_power_law(_SUB_BLOCK + 1, -1.0)
    got = unknown_expected_mu(d, 1.3)
    want = ref_unknown_expected_mu(list(d.probs), 1.3)
    np.testing.assert_allclose(got.means(), want, rtol=1e-9)


def test_unknown_expected_mu_explicit_with_zeros():
    d = make_explicit([0.5, 0.25, 0.0, 0.25])
    got = unknown_expected_mu(d)
    want = ref_unknown_expected_mu(list(d.probs), DEFAULT_AMPLIFY_RATIO)
    np.testing.assert_allclose(got.means(), want, rtol=1e-9)


def test_unknown_search_round_success_frequency():
    # first-round success rate = p + (1-p) * p (budget 1 means i = 0, one
    # rotation step has success exactly p); frequency within 4 sigma.  A
    # round-1 success costs f <= 2, a later one at least round 2's sample too
    d = make_explicit([0.3, 0.7])
    p = d.prob(2)  # 0.3 after sorting
    assert p == 0.3
    trials = 20000
    f, _, _ = _run_rounds(d, [2] * trials, seed=77)
    hits = int(np.count_nonzero(f <= 2))
    target = p + (1 - p) * p
    sigma = math.sqrt(trials * target * (1 - target))
    assert abs(hits - trials * target) < 4 * sigma


def test_marked_rank_is_checked():
    d = make_explicit([1.0, 1.0, 2.0])
    for rank in (2.5, 1.0, True):
        with pytest.raises(ConfigError):
            unknown_expected_exact(d, rank)
    for rank in (0, 4):
        with pytest.raises(ParameterError):
            unknown_expected_exact(d, rank)
    assert unknown_expected_exact(d, np.int64(3)) == unknown_expected_exact(d, 3)


def test_amplify_ratio_validation():
    d = make_explicit([1.0, 1.0])
    lo, hi = AMPLIFY_RATIO_BOUNDS
    for bad in (lo, hi, 0.9, 2.0):
        with pytest.raises(ParameterError):
            unknown_rounds(100, bad)
        with pytest.raises(ParameterError):
            unknown_expected_mu(d, bad)


def test_schedule_ratio_near_one_exits_quickly():
    # a log estimate rejects the schedule before any loop step is taken
    started = time.perf_counter()
    with pytest.raises(ParameterError, match="schedule entries"):
        unknown_rounds(16, 1.000000001)
    with pytest.raises(ParameterError, match="schedule entries"):
        unknown_expected_mu(make_explicit([1.0] * 16), 1.000000001)
    with pytest.raises(ParameterError, match="schedule entries"):
        _geometric_schedule(10**6, 1.0 + 1e-6)
    with pytest.raises(ParameterError, match="schedule entries"):
        _geometric_schedule(2**40, 1.0 + 1e-9)
    assert time.perf_counter() - started < 1.0


def test_unknown_rounds_refuses_n_past_its_range():
    # sqrt(n) of an integer beyond the float range would overflow
    for n in (2**64 + 1, 10**400):
        with pytest.raises(ParameterError):
            unknown_rounds(n)


def test_schedule_cap_leaves_usable_ratios_alone():
    # default and golden ratios stay far below the cap even at n = 2^62
    for k in (DEFAULT_AMPLIFY_RATIO, 1.3):
        assert unknown_rounds(2**62, k) == len(ref_round_budgets(2**62, k)) - 1 < 200
    for k in (math.e, 2.0):
        assert len(_geometric_schedule(2**62, k)[0]) < 100
    # a ratio close to 1 whose schedule fits under the cap is still built
    assert unknown_rounds(16, 1.0001) == len(ref_round_budgets(16, 1.0001)) - 1
    assert len(_geometric_schedule(10**4, 1.001)[0]) == len(ref_blocks(10**4, 1.001))


# ---------------------------------------------------------------------------
# sub-blocked oracle-only kernel: bit for bit the whole-array evaluation

_TOP_P = 1.0 - 1e-13   # on the near-1 series branch
_KERNEL_SIZES = (1, _SUB_BLOCK - 1, _SUB_BLOCK, _SUB_BLOCK + 1, 3 * _SUB_BLOCK + 7)


def _sub_blocked_costs(p, n, k):
    """Per-rank (f, O_mu, O_mu^-1) costs from _amplify_sub_block run on each
    _SUB_BLOCK of p in turn, as unknown_expected_mu runs it."""
    p = np.asarray(p, dtype=np.float64)
    sizes, fallback = _round_sizes(n, k), float(exact_grover_queries(n))
    scratch = np.empty((_SCRATCH_ROWS, min(p.size, _SUB_BLOCK)))
    out = np.empty((3, p.size))
    for lo in range(0, p.size, _SUB_BLOCK):
        for row, costs in zip(out, _amplify_sub_block(p[lo:lo + _SUB_BLOCK], sizes, fallback,
                                                      scratch)):
            row[lo:lo + costs.size] = costs
    return tuple(out)


def _kernel_dot_sums(p, n, k):
    """Every rank through the kernel: per _SUB_BLOCK, p dotted with its costs,
    the dots of each cost combined with math.fsum."""
    p = np.asarray(p, dtype=np.float64)
    return tuple(math.fsum(float(np.einsum("i,i->", p[lo:lo + _SUB_BLOCK], v[lo:lo + _SUB_BLOCK]))
                           for lo in range(0, p.size, _SUB_BLOCK))
                 for v in _sub_blocked_costs(p, n, k))


def _assert_kernel_matches_whole_array(p, n, k):
    got = _sub_blocked_costs(p, n, k)
    want = ref_amplify_expected_whole(p, n, k)
    for name, a, b in zip(("f", "o_mu", "o_mu_inv"), got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b), f"{name} differs at {np.flatnonzero(a != b)[:5]}"


def _kernel_inputs(size):
    rng = np.random.default_rng(size)
    normal = rng.random(size) ** 4
    mixed = rng.choice([1.0, _TOP_P, 0.7, 0.02, 3e-9, 5e-13, 0.0], size=size)
    mixed[:3] = (_TOP_P, 0.25, 1e-13)[:size]   # top, normal and tiny all present
    rng.shuffle(mixed)
    all_tiny = rng.random(size) * 1e-12
    return [-np.sort(-normal), normal, -np.sort(-mixed), mixed,
            -np.sort(-all_tiny), np.zeros(size)]


@pytest.mark.parametrize("k", (DEFAULT_AMPLIFY_RATIO, 1.3))
@pytest.mark.parametrize("size", _KERNEL_SIZES)
def test_amplify_expected_bit_identical_to_whole_array(size, k):
    for p in _kernel_inputs(size):
        _assert_kernel_matches_whole_array(p, 1 << 16, k)


def test_amplify_expected_sorted_tiny_suffix_spans_sub_blocks():
    # sorted input whose tiny suffix starts mid sub-block and then fills
    # whole sub-blocks, the shape of a steep power law at large n
    p = make_power_law(3 * _SUB_BLOCK + 7, -3.0).probs
    first_tiny = np.count_nonzero(p >= 1e-12)
    assert first_tiny % _SUB_BLOCK and p.size - first_tiny > 2 * _SUB_BLOCK
    _assert_kernel_matches_whole_array(p, p.size, DEFAULT_AMPLIFY_RATIO)


_SPECIAL_P = st.sampled_from([0.0, 1.0, _TOP_P, 1e-13, 1e-12, 1.0 - 1e-12, 0.5])


@settings(max_examples=40, deadline=None)
@given(p=arrays(np.float64, st.integers(1, 2 * _SUB_BLOCK + 3),
                elements=st.floats(0.0, 1.0) | _SPECIAL_P,
                fill=st.floats(0.0, 1.0) | _SPECIAL_P),
       sort=st.booleans(), n=st.integers(1, 1 << 16),
       k=st.sampled_from([DEFAULT_AMPLIFY_RATIO, 1.3]))
def test_amplify_expected_bit_identical_property(p, sort, n, k):
    if sort:
        p = -np.sort(-p)
    _assert_kernel_matches_whole_array(p, n, k)


# ---------------------------------------------------------------------------
# advice-averaged kernel: sub-blocks reduced in place

# four sub-blocks, the last one short; at k = -3 the last ~40k ranks are on
# the tiny branch, while k = -2.5 and -0.75 keep every rank off it
_MU_N = 3 * _SUB_BLOCK + 7
_MU_KS = (-0.75, -2.5, -3.0)


def _head_and_tail_sums(p, n, k):
    """unknown_expected_mu's decomposition, replayed: per _SUB_BLOCK, the head
    (p >= DEGENERATE_TOL) dotted with its kernel costs and the tail's power
    sums M_e = sum p^e, e = 1..D+1, by repeated multiplication; each column
    combined over the sub-blocks with math.fsum, and the tail added after as
    fsum_d a_d M_(d+1) for _tail_series' coefficients a_d."""
    series = _tail_series(_round_sizes(n, k), (float(exact_grover_queries(n)),))[0]
    heads, moments = [[], [], []], [[] for _ in series[0]]
    for lo in range(0, p.size, _SUB_BLOCK):
        block = p[lo:lo + _SUB_BLOCK]
        cut = np.count_nonzero(block >= DEGENERATE_TOL)
        costs = _sub_blocked_costs(block[:cut], n, k) if cut else ([],) * 3
        for column, v in zip(heads, costs):
            column.append(float(np.einsum("i,i->", block[:cut], v)) if cut else 0.0)
        power = block[cut:].copy()
        for e, column in enumerate(moments):
            column.append(float(np.sum(power if e == 0 else np.multiply(power, block[cut:],
                                                                        out=power))))
    sums = [math.fsum(column) for column in moments]
    return tuple(math.fsum(column) + math.fsum(a * m for a, m in zip(coeffs, sums))
                 for column, coeffs in zip(heads, series))


@pytest.mark.parametrize("k", _MU_KS)
def test_unknown_expected_mu_is_fsum_of_sub_block_dots(k):
    # the head's sub-block dots plus the tail's series, bit for bit, on
    # advice that runs every head rank in the kernel: explicit advice, and a
    # power law of _PANEL_START ranks, whose panels start past it; at
    # k = -0.75 and -2.5 there is no tail and the series adds 0.0, and at
    # 3k = -7.5 and -9 the small law has one
    d = make_power_law(_MU_N, k)
    assert unknown_expected_mu(AdviceDistribution(d.n, probs=d.probs)).means() == (
        _head_and_tail_sums(d.probs, d.n, DEFAULT_AMPLIFY_RATIO))
    small = make_power_law(_PANEL_START, 3 * k)
    assert unknown_expected_mu(small).means() == _head_and_tail_sums(small.probs, small.n,
                                                                     DEFAULT_AMPLIFY_RATIO)


@pytest.mark.parametrize("k", _MU_KS)
def test_unknown_expected_mu_near_whole_block_dots(k):
    # the fused reduction sums in another order than np.dot over 2^22-rank
    # chunks of n-sized outputs; both sit within a few ulps of the exact sum
    d = make_power_law(_MU_N, k)
    want = ref_chunked_dot_sums(d.probs, _sub_blocked_costs(d.probs, d.n, DEFAULT_AMPLIFY_RATIO))
    np.testing.assert_allclose(unknown_expected_mu(d).means(), want, rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# the tiny tail as power series: against the kernel, and its truncation bound


def _tail_advice(kind, head, tail, zeros, seed):
    """Sorted advice with ranks below DEGENERATE_TOL: a steep power law over
    more than a sub-block, explicit weights whose tail starts after head
    ranks, or (kind "all tiny") unnormalized probabilities all below it."""
    rng = np.random.default_rng(seed)
    if kind == "power law":   # alpha x^k < 1e-12 from about x = 1e3 (k = -4) to 9.4e3 (k = -3)
        return make_power_law(_SUB_BLOCK + head + tail + zeros, -3.0 - rng.random())
    tiny = 10.0 ** rng.uniform(-40.0, -13.0, size=tail)
    if kind == "all tiny":
        return AdviceDistribution(n=tail + zeros, probs=np.concatenate(
            [-np.sort(-tiny), np.zeros(zeros)]))
    return make_explicit(np.concatenate([rng.uniform(0.5, 1.0, size=head), tiny, np.zeros(zeros)]))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["power law", "explicit", "all tiny"]),
       head=st.integers(1, 2 * _SUB_BLOCK + 5), tail=st.integers(1, 2 * _SUB_BLOCK),
       zeros=st.integers(0, 300), k=st.sampled_from([DEFAULT_AMPLIFY_RATIO, 1.3]),
       seed=st.integers(0, 2**32 - 1))
# tails that start mid sub-block and span the next, with zeros after them
@example(kind="explicit", head=_SUB_BLOCK + 777, tail=_SUB_BLOCK + 5, zeros=300, k=1.3, seed=1)
@example(kind="all tiny", head=1, tail=2 * _SUB_BLOCK, zeros=17, k=DEFAULT_AMPLIFY_RATIO, seed=2)
@example(kind="power law", head=_SUB_BLOCK, tail=3, zeros=0, k=DEFAULT_AMPLIFY_RATIO, seed=3)
def test_tail_series_matches_kernel(kind, head, tail, zeros, k, seed):
    d = _tail_advice(kind, head, tail, zeros, seed)
    assert d.probs[-1] < DEGENERATE_TOL
    np.testing.assert_allclose(unknown_expected_mu(d, k).means(), _kernel_dot_sums(d.probs, d.n, k),
                               rtol=1e-13, atol=0)


def test_tail_degree_grows_with_n():
    degrees = [_tail_series(_round_sizes(2**e, DEFAULT_AMPLIFY_RATIO), (1.0,))[0][0].size - 1
               for e in (10, 16, 20, 24, 28, 32)]
    assert degrees == sorted(degrees) and degrees[0] < degrees[-1], degrees
    # at 2^40 the sum of the budgets' series terms times 1e-12 passes 1/2
    assert _tail_series(_round_sizes(2**40, DEFAULT_AMPLIFY_RATIO), (1.0,)) == [None]


@pytest.mark.parametrize("ratio", (DEFAULT_AMPLIFY_RATIO, 1.3, 1.01))
def test_one_tail_recurrence_is_each_schedules_own(ratio):
    # every n = 2^e +- 1's schedule is a prefix of 2^40's, so one recurrence
    # over 2^40's, kept at each row's round and cut to its own degree, gives
    # each row the bits of its own schedule's series (or None with it)
    longest = _round_sizes(2**40, ratio)
    ns = [2**e + d for e in range(1, 40) for d in (-1, 1)]
    sizes = [_round_sizes(n, ratio) for n in ns]
    assert all(longest[:len(s)] == s for s in sizes)
    fallbacks = [float(exact_grover_queries(n)) for n in ns]
    shared = _tail_series(longest, fallbacks, [len(s) for s in sizes])
    assert any(series is None for series in shared) and shared[0] is not None
    for n, s, fallback, series in zip(ns, sizes, fallbacks, shared):
        (own,) = _tail_series(s, (fallback,))
        assert (series is None) == (own is None), n
        assert series is None or all(np.array_equal(a, b) for a, b in zip(series, own)), n


@pytest.mark.parametrize("n", (2**10, 2**16, 2**24, 2**30))
def test_tail_series_truncation_bound_holds(n):
    sizes, fallback = _round_sizes(n, DEFAULT_AMPLIFY_RATIO), exact_grover_queries(n)
    (series,) = _tail_series(sizes, (float(fallback),))
    exact = ref_tail_coefficients(sizes, fallback, series[0].size - 1)
    for got, want in zip(series, exact):
        np.testing.assert_allclose(got, [float(c) for c in want], rtol=1e-14, atol=0)
    # cut at D, the exact series is within _TAIL_TOL of the exact costs at
    # the branch's edge, where the cut errs most
    p = Fraction(DEGENERATE_TOL)
    for coeffs, cost in zip(exact, ref_tail_costs(p, sizes, fallback)):
        cut = sum(c * p**d for d, c in enumerate(coeffs))
        assert abs(cut - cost) <= Fraction(algorithms._TAIL_TOL) * cost


def test_failed_tail_bound_keeps_the_tail_in_the_kernel(monkeypatch):
    # D = 2 at this n: a cap of 1 leaves no series, and every rank of
    # explicit advice, the ~40k tiny ones too, runs through the kernel; the
    # power law's panels then run to n
    # (test_panels_reach_n_when_the_tail_has_no_series)
    d = make_power_law(_MU_N, -3.0)
    sizes, fallback = _round_sizes(d.n, DEFAULT_AMPLIFY_RATIO), float(exact_grover_queries(d.n))
    assert _tail_series(sizes, (fallback,))[0][0].size == 3
    monkeypatch.setattr(algorithms, "_TAIL_MAX_DEGREE", 1)
    assert _tail_series(sizes, (fallback,)) == [None]
    assert unknown_expected_mu(AdviceDistribution(d.n, probs=d.probs)).means() == (
        _kernel_dot_sums(d.probs, d.n, DEFAULT_AMPLIFY_RATIO))
    rank = d.n   # a tiny rank's exact cost is the kernel's too
    assert unknown_expected_exact(d, rank).means() == tuple(
        float(v[-1]) for v in _sub_blocked_costs(d.probs[-1:], d.n, DEFAULT_AMPLIFY_RATIO))


def test_unknown_expected_exact_tiny_rank_is_the_tail_series():
    d = make_power_law(_MU_N, -3.0)
    p = d.prob(d.n)
    assert p < DEGENERATE_TOL
    sizes, fallback = _round_sizes(d.n, DEFAULT_AMPLIFY_RATIO), exact_grover_queries(d.n)
    got = unknown_expected_exact(d, d.n).means()
    kernel = [float(v[0]) for v in _sub_blocked_costs([p], d.n, DEFAULT_AMPLIFY_RATIO)]
    np.testing.assert_allclose(got, kernel, rtol=1e-13, atol=0)
    exact = [float(v) for v in ref_tail_costs(Fraction(p), sizes, fallback)]
    np.testing.assert_allclose(got, exact, rtol=1e-15, atol=0)


def test_head_no_further_from_exact_cost_than_earlier_order():
    # 30 ranks on the head's closed-form branch at n = 2^24, against costs at
    # 50 digits: the fused order (A, C and 1 - (p + q P_m)) errs no more, at
    # worst, than the earlier order of operations; the closed form's own
    # rounding of P_m sets both, ~5e-15 here
    n, k = 2**24, DEFAULT_AMPLIFY_RATIO
    p = np.geomspace(1e-12, 1e-8, 30)
    sizes, fallback = _round_sizes(n, k), exact_grover_queries(n)
    exact = [ref_unknown_expected_mp(x, sizes, fallback) for x in p]

    def worst(costs):
        with mpmath.workdps(50):
            return max(float(abs((mpmath.mpf(float(v[i])) - want[j]) / want[j]))
                       for i, want in enumerate(exact) for j, v in enumerate(costs))

    new = worst(_sub_blocked_costs(p, n, k))
    assert new <= worst(ref_amplify_expected_whole(p, n, k, fused=False)) and new < 1e-14, new


def test_oracle_only_row_holds_no_n_vector():
    # build, kernel and both bounds of an oracle-only row make no rank past
    # its 128-rank head: one kernel scratch for the head and the panels'
    # nodes, 8 x (128 + 24 x panels) floats, and no n-sized array; the
    # whole call peaks at or below 512 KB under tracemalloc
    tracemalloc.start()
    try:
        dist = make_power_law(2**26, -0.75)
        unknown_expected_mu(dist)
        row_bounds(dist, "unknown")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**19, peak
    assert dist._probs is None


# ---------------------------------------------------------------------------
# power-law head ranks past _PANEL_START summed over Chebyshev panels; the
# tail moments and bound columns past _PANEL_START as power sums


def _exact_kernel_row(d, k):
    """Every rank of d through the kernel, each cost's products p_x cost_x
    summed by one math.fsum: the block dots of the kernel's walk (einsum)
    err by up to 1e-13 on 2^14 equal products (k = -1e-300), this sum by
    about an ulp."""
    p = d.probs
    return tuple(math.fsum(p * v) for v in _sub_blocked_costs(p, d.n, k))


def _assert_bound_columns(d, sums):
    """The oracle-only row's bound columns, sum p_x sqrt(x), sum sqrt(p_x) over
    the ranks up to x0, the last with p_x >= 1/n, and sum p_x over the rest:
    over the 128-rank head the bits of a walk of it in one block, past it
    within 1e-14 of exact power sums at d's alpha."""
    columns = _BoundColumns("unknown")
    head = distributions._rank_weighted_sums(
        AdviceDistribution(min(d.n, _PANEL_START), power_law=d.power_law),
        lambda block, ranks: columns.partials(block, ranks, d.n), step=_PANEL_START)
    if d.n <= _PANEL_START:
        assert sums == head
        return
    alpha, k, lo = d.power_law.alpha, d.power_law.k, _PANEL_START
    x0 = max(d._last_rank_at_least(1.0 / d.n), lo)
    past = [alpha * ref_power_sum(mpmath.mpf(k) + 0.5, lo, d.n),
            math.sqrt(alpha) * ref_power_sum(mpmath.mpf(k) / 2, lo, x0) if x0 > lo else 0,
            alpha * ref_power_sum(k, x0, d.n) if x0 < d.n else 0]
    for got, walked, rest in zip(sums, head, past, strict=True):
        want = walked + rest
        assert abs(got - want) <= 1e-14 * want, (got, float(want))


def _column_sums(call):
    """call's result, and the bound column sums of the one row whose bounds
    it makes, as _BoundColumns.values gets them."""
    seen, values = [], _BoundColumns.values

    def recording(columns, sums, n):
        seen.append(list(sums))
        return values(columns, sums, n)

    with mock.patch.object(_BoundColumns, "values", recording):
        result = call()
    (sums,) = seen
    return result, sums


def _panel_cut(d, k):
    sizes, fallback = _round_sizes(d.n, k), float(exact_grover_queries(d.n))
    cut = (d._last_rank_at_least(DEGENERATE_TOL) if _tail_series(sizes, (fallback,))[0] is not None
           else d.n)
    return sizes, fallback, cut


def _kernel_head(d, panels, cut):
    """The probabilities of d's ranks that its row runs in the kernel: up
    to the first panel, or to the tail cut if there is no panel."""
    return d._probs_at(np.arange(1, (panels[0][0] if panels else cut) + 1))


def _panel_terms(d, k):
    """The panels of d's row at ratio k, and per column their terms: those
    of _panel_sums after its first, the head's dot."""
    sizes, fallback, cut = _panel_cut(d, k)
    panels = _panels(cut)
    (terms,) = _panel_sums(d.power_law.k, sizes, [(d.power_law.alpha, len(sizes), fallback, panels,
                                                   _kernel_head(d, panels, cut))])
    return panels, [column[1:] for column in terms]


@pytest.mark.parametrize("lo, width", [
    pytest.param(lo, width, id=str(width)) for lo, width in (
        (_PANEL_START, _PANEL_START // 4 - 1), (4 * _SUB_BLOCK, _SUB_BLOCK - 1),
        (5 * _SUB_BLOCK, 3 * _SUB_BLOCK + 17))])
def test_panel_weights_sum_polynomials_over_integers(lo, width):
    # W_j sums any polynomial of degree < _PANEL_NODES over the panel's
    # integers: here each Chebyshev polynomial T_i of the panel, and a
    # random mix of them, against a plain sum over every rank; the
    # narrowest panel, the first, is a quarter of _PANEL_START, width 31
    x = np.arange(lo + 1, lo + width + 2, dtype=np.float64)
    nodes = (2 * lo + width + 2) * 0.5 + width * 0.5 * _chebyshev_basis()[0]
    weights = _panel_weights(width)
    assert _panel_weights(width) is weights   # cached by width
    rng = np.random.default_rng(width)
    for coef in [*np.eye(_PANEL_NODES), rng.standard_normal(_PANEL_NODES)]:
        value = lambda v: np.polynomial.chebyshev.chebval((2 * v - 2 * lo - 2 - width) / width,
                                                          coef)   # noqa: E731
        want = math.fsum(value(x))
        assert abs(weights @ value(nodes) - want) <= 1e-13 * (width + 1), coef


# n past _PANEL_START at ratios 1.162 and 1.3, and up to 2^18 at 1.01, whose
# ~600 rounds make the all-kernel row slow
_PANEL_CASES = (st.tuples(st.integers(_PANEL_START + 1, 2**20 + 7),
                          st.sampled_from([DEFAULT_AMPLIFY_RATIO, 1.3]))
                | st.tuples(st.integers(_PANEL_START + 1, 2**18), st.just(1.01)))


@settings(max_examples=30, deadline=None)
@given(case=_PANEL_CASES,
       k=st.sampled_from([-1e-300, -1e-12, -1e-9, -4.0]) | st.floats(-4.0, -1e-3))
# the tail cut falls inside a panel and inside a block; p is flat; a cut
# less than a panel past _PANEL_START; a slow ratio with many rounds; the
# tail cut near rank 1000; one rank past the head, and past 2^16
@example(case=(2**20 + 7, DEFAULT_AMPLIFY_RATIO), k=-2.0)
@example(case=(2**20 + 7, 1.3), k=-1e-300)
@example(case=(_PANEL_START + 20, DEFAULT_AMPLIFY_RATIO), k=-0.5)
@example(case=(2**18, 1.01), k=-0.75)
@example(case=(2**19 + 3, 1.3), k=-2.5)
@example(case=(2**20 + 7, 1.01), k=-4.0)
@example(case=(_PANEL_START + 1, DEFAULT_AMPLIFY_RATIO), k=-1.0)
@example(case=(2**16 + 1, DEFAULT_AMPLIFY_RATIO), k=-1.0)
def test_panel_rows_match_the_kernel(case, k):
    n, ratio = case
    d = make_power_law(n, k)
    (report, _), sums = _column_sums(lambda: next(algorithms._exact_rows(
        "unknown", d, ratio, columns=_BoundColumns("unknown"))))
    np.testing.assert_allclose(report.means(), _exact_kernel_row(d, ratio), rtol=1e-13, atol=0)
    _assert_bound_columns(d, sums)
    # the ceiling's own pass (row_bounds) takes the same head and power sums
    _, bound_sums = _column_sums(lambda: row_bounds(d, "unknown"))
    assert bound_sums == sums


def test_panel_cut_falls_inside_a_panel_and_a_block():
    # panels from _PANEL_START to the tail cut, which falls inside a panel
    # and inside a refused panel's sub-block, past 2^16
    d = make_power_law(2**20 + 7, -2.0)
    _, _, cut = _panel_cut(d, DEFAULT_AMPLIFY_RATIO)
    assert cut > 2**16 and cut % _SUB_BLOCK
    assert d.probs[cut - 1] >= DEGENERATE_TOL > d.probs[cut]
    panels, terms = _panel_terms(d, DEFAULT_AMPLIFY_RATIO)
    assert panels[0][0] == _PANEL_START and panels[-1][1] == cut
    assert all(a[1] == b[0] for a, b in zip(panels, panels[1:]))   # contiguous
    assert all(hi - lo >= max(_PANEL_NODES, lo // 4) for lo, hi in panels)
    assert all(len(column) == len(panels) for column in terms)   # no panel refused
    # a cut less than a quarter of _PANEL_START past it leaves every head
    # rank to the kernel; a quarter past it takes one panel
    for short, count in ((_PANEL_START // 4 - 1, 0), (_PANEL_START // 4, 1)):
        assert _panels(_PANEL_START + short) == [(_PANEL_START, _PANEL_START + short)][:count]


def test_panels_reach_n_when_the_tail_has_no_series(monkeypatch):
    # with no tail series every rank is head, and the panels run to n
    monkeypatch.setattr(algorithms, "_TAIL_MAX_DEGREE", 1)
    d = make_power_law(2**18 + 3, -2.0)
    panels, terms = _panel_terms(d, DEFAULT_AMPLIFY_RATIO)
    assert panels[0][0] == _PANEL_START and panels[-1][1] == d.n
    assert all(len(column) == len(panels) for column in terms)
    np.testing.assert_allclose(unknown_expected_mu(d).means(),
                               _exact_kernel_row(d, DEFAULT_AMPLIFY_RATIO), rtol=1e-13, atol=0)


@pytest.mark.parametrize("n, k, ratio", [(2**20 + 7, -2.0, DEFAULT_AMPLIFY_RATIO),
                                         (2**18 + 5, -0.75, 1.3), (5000, -1e-300, 1.3)])
def test_failed_panels_leave_the_row_to_the_kernel(monkeypatch, n, k, ratio):
    # every panel over its threshold: each runs the kernel on its own ranks,
    # a sub-block at a time from its start, so the row's block dots are laid
    # out unlike the all-kernel walk's and agree with its exact sum at 1e-14
    d = make_power_law(n, k)
    monkeypatch.setattr(algorithms, "_PANEL_TOL", -1.0)
    panels, terms = _panel_terms(d, ratio)
    assert all(len(column) == sum(-(-(hi - lo) // _SUB_BLOCK) for lo, hi in panels)
               for column in terms)
    np.testing.assert_allclose(unknown_expected_mu(d, ratio).means(), _exact_kernel_row(d, ratio),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("k", (-1e300, -1e308, -sys.float_info.max))
def test_power_law_row_with_all_mass_on_rank_one(k):
    # p_1 = 1 and every later p underflows to 0: one sample finds the rank;
    # past 2^16 the tail's moment powers e k overflow to -inf at e >= 2
    assert unknown_expected_mu(make_power_law(2**17 + 3, k)).means() == (1.0, 1.0, 0.0)


@pytest.mark.parametrize("n, k", [(n, k) for n in (2**20 + 7, 2**22 + 3, 2**24)
                                  for k in (-1e-300, -0.75, -2.5, -4.0)]
                         + [(2**28, k) for k in (-1e-300, -0.75, -4.0)])
def test_power_law_row_runs_the_kernel_on_a_small_head_and_the_nodes(monkeypatch, n, k):
    # one kernel call a row, on the ranks up to _PANEL_START and 24 nodes a
    # panel, whatever n, and no block of ranks longer than the 128-rank
    # head; no panel of these rows is refused (a refused panel's ranks would
    # take calls of their own, as in
    # test_failed_panels_leave_the_row_to_the_kernel)
    seen, blocks = [], []
    kernel, streams = algorithms._amplify_sub_block, AdviceDistribution._streams

    def counted(sub, *args):
        seen.append(sub.size)
        return kernel(sub, *args)

    def recorded(dist, *args):
        for lo, ranks, block in streams(dist, *args):
            blocks.append((lo + 1, block.size))
            yield lo, ranks, block

    monkeypatch.setattr(algorithms, "_amplify_sub_block", counted)
    monkeypatch.setattr(AdviceDistribution, "_streams", recorded)
    d = make_power_law(n, k)
    assert blocks == [(1, _PANEL_START)]   # alpha's own head
    blocks.clear()
    unknown_expected_mu(d)
    panels = _panels(_panel_cut(d, DEFAULT_AMPLIFY_RATIO)[2])
    assert panels and seen == [_PANEL_START + _PANEL_NODES * len(panels)], (seen, panels)
    # alpha's head and the row's, each ranks 1..128
    assert blocks == [(1, _PANEL_START)] * 2, blocks


def _two_call_panel_sums(law, sizes, fallback, panels, head):
    """_panel_sums replayed with the head and the nodes in kernel runs of
    their own: the head's ranks alone, dotted; every panel's nodes in one
    run, each panel tested by its own g @ basis.T; a refused panel's ranks a
    _SUB_BLOCK at a time.  Also the refused panels."""
    def kernel(p):
        return _amplify_sub_block(p, sizes, fallback, np.empty((_SCRATCH_ROWS, p.size)))

    terms, refused = [[float(np.einsum("i,i->", head, v)) for v in kernel(head)]], []
    if not panels:
        return list(zip(*terms)), refused
    nodes, basis = _chebyshev_basis()
    x = np.concatenate([(lo + 1 + hi) * 0.5 + (hi - lo - 1) * 0.5 * nodes for lo, hi in panels])
    p = np.power(x, law.k) * law.alpha
    for (lo, hi), g in zip(panels, (np.stack(kernel(p)) * p).reshape(3, len(panels), -1)
                           .transpose(1, 0, 2)):
        c = g @ basis.T
        if not np.any(np.abs(c[:, -2:]).sum(axis=1) > algorithms._PANEL_TOL * np.abs(c[:, 0])):
            terms.append(g @ _panel_weights(hi - lo - 1))
            continue
        refused.append((lo, hi))
        for start in range(lo, hi, _SUB_BLOCK):
            q = np.power(np.arange(start + 1.0, min(start + _SUB_BLOCK, hi) + 1.0), law.k)
            q *= law.alpha
            terms.append([float(np.einsum("i,i->", q, v)) for v in kernel(q)])
    return list(zip(*terms)), refused


@pytest.mark.parametrize("n, k, ratio", [
    *((n, k, DEFAULT_AMPLIFY_RATIO) for n in (129, 150, 160, 2**16, 2**20 + 7, 2**22 + 3)
      for k in (-1e-300, -0.75, -2.5, -4.0)),
    *((2**22 + 3, k, 1.3) for k in (-1e-300, -0.75, -1.0, -1.5, -2.5, -4.0))])
def test_fused_kernel_call_replays_the_two_call_row(monkeypatch, n, k, ratio):
    # the head's ranks and every panel's nodes in one kernel call give each
    # term, and so each row, the bits of separate calls: the kernel is
    # elementwise, and math.fsum is exactly rounded wherever a term enters;
    # the terms' equality also says that the batched refusal test refused
    # the panels that a test per panel refuses (at 1.3, k = -1 and -1.5
    # refuse some)
    d = make_power_law(n, k)
    sizes, fallback, cut = _panel_cut(d, ratio)
    panels = _panels(cut)
    head = _kernel_head(d, panels, cut)
    want, refused = _two_call_panel_sums(d.power_law, sizes, fallback, panels, head)
    assert _panel_sums(k, sizes, [(d.power_law.alpha, len(sizes), fallback, panels, head)]) == [
        want], refused
    assert bool(refused) == (ratio == 1.3 and k in (-1.0, -1.5)), refused
    row = unknown_expected_mu(d, ratio).means()
    monkeypatch.setattr(algorithms, "_panel_sums", lambda k, sizes, rows: [_two_call_panel_sums(
        PowerLawSpec(n, k, alpha), sizes[:rounds], fallback, panels, head)[0]
        for alpha, rounds, fallback, panels, head in rows])
    assert row == unknown_expected_mu(d, ratio).means()


def test_monte_carlo_row_holds_one_n_vector():
    # a geometric Monte Carlo row of a power law builds its cdf block by
    # block: the cdf is its only array of size n, next to a walk's base
    # range, ranks and block

    def row(n):
        return run_point(SweepSpec(dist_cfg={"kind": "powerlaw", "n": n, "k": -0.75},
                                   model="geometric", mode="monte_carlo", trials=2000))

    row(3 * _BUILD_STEP)   # the first row of a process pays for its imports (~0.8 MB)
    n = 2**22 + 3
    tracemalloc.start()
    try:
        row(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 3 * 8 * _BUILD_STEP + 2**19, peak


# ---------------------------------------------------------------------------
# Monte Carlo driver


def test_monte_carlo_matches_exact_classical():
    d = make_power_law(64, -1.0)
    mc = monte_carlo("classical", d, 40000, seed=3)
    exact = classical_expected(d)
    assert abs(mc.f_mean - exact) < 4 * mc.f_stderr + 1e-9
    assert mc.o_mu_mean == 0.0


def test_monte_carlo_matches_exact_geometric():
    d = make_power_law(256, -1.5)
    mc = monte_carlo("geometric", d, 40000, seed=4)
    exact = geometric_expected(d).f_mean
    assert abs(mc.f_mean - exact) < 4 * mc.f_stderr + 1e-9


def test_monte_carlo_matches_exact_unknown():
    d = make_power_law(64, -1.0)
    mc = monte_carlo("unknown", d, 20000, seed=5)
    exact = unknown_expected_mu(d)
    assert abs(mc.f_mean - exact.f_mean) < 4 * mc.f_stderr + 1e-9
    assert abs(mc.o_mu_mean - exact.o_mu_mean) < 4 * mc.o_mu_stderr + 1e-9
    assert abs(mc.o_mu_inv_mean - exact.o_mu_inv_mean) < 4 * mc.o_mu_inv_stderr + 1e-9


def test_monte_carlo_unknown_is_fast():
    d = make_power_law(1024, -0.25)
    started = time.perf_counter()
    monte_carlo("unknown", d, 10**5, seed=1)
    assert time.perf_counter() - started < 1.0


def test_monte_carlo_deterministic_per_seed():
    d = make_power_law(32, -1.0)
    a = monte_carlo("unknown", d, 500, seed=11)
    b = monte_carlo("unknown", d, 500, seed=11)
    assert a == b
    c = monte_carlo("unknown", d, 500, seed=12)
    assert a != c


def test_monte_carlo_rejects_unknown_algorithm():
    d = make_explicit([1.0, 1.0])
    with pytest.raises(ConfigError):
        monte_carlo("quantum-walk", d, 10, seed=0)
    with pytest.raises(ParameterError):
        monte_carlo("classical", d, 0, seed=0)


def test_monte_carlo_single_trial_has_zero_stderr():
    d = make_explicit([1.0, 1.0])
    mc = monte_carlo("classical", d, 1, seed=0)
    assert mc.f_stderr == 0.0

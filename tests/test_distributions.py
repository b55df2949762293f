from __future__ import annotations

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from advice_search import (
    AdviceDistribution,
    ConfigError,
    ParameterError,
    compensated_sum,
    dist_from_config,
    make_explicit,
    make_power_law,
    power_law_alpha,
)
from advice_search import distributions
from advice_search.distributions import (
    _BUILD_STEP,
    _check_int,
    _check_real,
    _dot,
    _rank_weighted_sums,
    _weights,
)

from reference import ref_alpha, ref_power_probs, ref_power_sum, ref_sorted_probs, ref_x0


def test_power_law_two_elements():
    d = make_power_law(2, -1.0)
    np.testing.assert_allclose(d.probs, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)
    assert d.prob(1) == d.probs[0]
    assert math.isclose(float(d.probs.sum()), 1.0, abs_tol=1e-12)


def test_power_law_matches_reference():
    for n, k in ((7, -0.5), (100, -1.0), (513, -2.3), (64, -0.1)):
        d = make_power_law(n, k)
        np.testing.assert_allclose(d.probs, ref_power_probs(n, k), rtol=1e-13)


def test_power_law_alpha_matches_reference():
    for n, k in ((10, -1.0), (1000, -1.5), (37, -0.25)):
        assert math.isclose(power_law_alpha(n, k), ref_alpha(n, k), rel_tol=1e-12)


def test_built_alpha_is_power_law_alpha():
    # at every golden and benchmark grid point, n = 1, and sizes that end one
    # short of, one past or inside a 2^16-element block: up to n = 2^16 the
    # streamed alpha has the bits of one over the compensated sum of the
    # whole x^k array; past it, where the ranks past 2^16 are one power sum,
    # it is within 1e-15 of the exact alpha.  A built power law carries the
    # bits of power_law_alpha everywhere.
    points = {(2**e, k) for e in range(10, 25, 2) for k in (-0.75, -1.75, -2.5)}
    points |= {(n, k) for n in (16, 64, 256) for k in (-0.75, -2.5)}
    points |= {(200, -1.25), (5_000_001, -2.5), (2**23 + 3, -1.25),
               (3 * 2**22 + 12_345, -1.75), (65_535, -0.75), (65_537, -1.0),
               (131_073, -1.75), (1, -0.75), (1, -2.5)}
    for n, k in sorted(points):
        alpha = power_law_alpha(n, k)
        if n <= _BUILD_STEP:
            powers = np.arange(1, n + 1, dtype=np.float64)
            assert alpha == 1.0 / compensated_sum(np.power(powers, k, out=powers)), (n, k)
        else:
            exact = 1 / ref_power_sum(k, 0, n)
            assert abs(alpha - exact) <= 1e-15 * exact, (n, k)
        assert make_power_law(n, k).power_law.alpha == alpha, (n, k)


_SUM_KS = (-1e-300, -1e-9, -0.05, -0.5, -1.0, -1.5, -2.0, -2.5, -4.0, -40.0)


@pytest.mark.parametrize("k", _SUM_KS)
def test_power_sums_match_exact_sums(k):
    # the Euler-Maclaurin power sums past 2^16 of the scan (x^(k+1)), the
    # bound column (x^(k+1/2)) and alpha (x^k), from one rank to 2^40 ranks,
    # each alone and all at once, against exact sums
    his = np.array([2**16 + 1, 2**16 + 2, 2**17 + 3, 2**24, 2**40])
    for s in (k, k + 0.5, k + 1.0):
        sums = distributions._power_sums(s, np.full(his.size, _BUILD_STEP), his)
        for hi, got in zip(his, sums):
            exact = ref_power_sum(s, _BUILD_STEP, int(hi))
            assert abs(got - exact) <= 4e-15 * exact, (s, hi)
            assert distributions._power_sums(s, _BUILD_STEP, int(hi)) == got, (s, hi)


@pytest.mark.parametrize("s", (-2.5, -1.0, -0.5, 0.5))
def test_power_sums_err_by_the_first_dropped_term(s):
    # from ranks far below 2^16, where the B_4 and B_6 terms are well above
    # rounding, the sum errs by no more than the first term it drops, the
    # B_8 term B_8/8! (f^(7)(hi) - f^(7)(lo + 1)) of f = x^s
    for lo, hi in ((16, 40), (16, 10**4), (64, 2**20), (256, 2**30)):
        a, b = lo + 1, hi
        falling = math.prod(s - u for u in range(7))
        dropped = abs(falling * (b ** (s - 7) - a ** (s - 7))) / (30 * math.factorial(8))
        exact = ref_power_sum(s, lo, hi)
        got = distributions._power_sums(s, lo, hi)
        assert abs(got - exact) <= 2 * dropped + 4e-15 * exact, (lo, hi)


def test_power_sums_underflow_to_zero():
    # where (2^16 + 1)^s underflows, as every x^k of the walk does, the sum
    # is 0, with no overflow or 0 * inf on the way
    for k in (-80.0, -1e300):
        for s in (k, k + 0.5, k + 1.0):
            sums = distributions._power_sums(s, _BUILD_STEP, np.array([2**16 + 1, 2**24, 2**40]))
            assert sums.tolist() == [0.0, 0.0, 0.0], s


def test_power_law_build_is_whole_array_power():
    # sizes that end inside a 2^16-element block
    for n, k in ((2**22 + 3, -1.25), (5_000_001, -2.5)):
        d = make_power_law(n, k)
        assert np.array_equal(d.probs, np.arange(1, n + 1) ** k * d.power_law.alpha)
        assert np.array_equal(d.perm, np.arange(1, n + 1))
        d.validate()


@pytest.mark.parametrize("step", (2**14, 2**16))
def test_streamed_blocks_are_probs_slices(step):
    # each walk block of a power law, made from its ranks, has the bits of
    # the same slice of probs, for either worker of a two-worker walk
    n = 3 * step + 12_345
    streamed, whole = make_power_law(n, -1.75), make_power_law(n, -1.75)
    seen = []
    for stream in streamed._streams(step, 2):
        for lo, ranks, block in stream:
            assert np.array_equal(ranks, np.arange(lo + 1, lo + block.size + 1))
            assert np.array_equal(block, whole.probs[lo:lo + step]), lo
            seen.append(lo)
    assert sorted(seen) == list(range(0, n, step))
    assert streamed._probs is None


def test_power_law_lookups_match_probs():
    # probabilities of gathered ranks, prob, the support count and the
    # blockwise cdf have the bits that the built probs would give
    n = 2**17 + 7
    for k in (-0.75, -2.5, -80.0):   # at -80 ranks above ~11,000 underflow to 0
        d, ref = make_power_law(n, k), make_power_law(n, k).probs
        assert (np.count_nonzero(ref) < n) == (k == -80.0)
        ranks = np.random.default_rng(1).integers(1, n + 1, size=5000)
        assert np.array_equal(d._probs_at(ranks), ref[ranks - 1])
        assert all(d.prob(int(r)) == ref[r - 1] for r in ranks[:50])
        assert np.array_equal(d.cdf, np.cumsum(ref))
        assert d.support_size() == np.count_nonzero(ref) == make_power_law(n, k).support_size()
        assert d.x0_threshold() == np.count_nonzero(ref >= 1.0 / n)
        assert d._probs is None


def test_alpha_integral_bracket():
    # with two exponents an ulp from -1, where n^(k+1) - 1 loses every
    # digit: it gave [6, 7] at n = 1000, and 1/alpha is 7.4855
    points = [(n, k) for n in (2, 10, 1000, 10**6) for k in (-0.5, -1.0, -1.5, -2.0, -3.0)]
    for n, k in points + [(1000, -0.9999999999999999), (4096, -1.0000000000000002)]:
        spec = make_power_law(n, k).power_law
        lo, hi = spec.integral_bracket()
        assert lo <= 1.0 / spec.alpha <= hi, (n, k)


def test_explicit_sorting_and_perm():
    d = make_explicit([1.0, 3.0])
    np.testing.assert_allclose(d.probs, [0.75, 0.25])
    assert list(d.perm) == [2, 1]

    d = make_explicit([0.0, 0.0, 5.0])
    np.testing.assert_allclose(d.probs, [1.0, 0.0, 0.0])
    assert list(d.perm) == [3, 1, 2]


def test_explicit_ties_are_stable():
    rng = np.random.default_rng(11)
    for _ in range(20):
        weights = rng.integers(0, 5, size=rng.integers(1, 40)).astype(float)
        if weights.sum() == 0:
            weights[0] = 1.0
        d = make_explicit(weights)
        probs, perm = ref_sorted_probs(weights)
        np.testing.assert_allclose(d.probs, probs, rtol=1e-13, atol=1e-16)
        assert list(d.perm) == perm


def test_threshold_rank():
    d = make_power_law(10**4, -2.0)
    assert d.x0_threshold() == 77
    assert d.power_law.threshold_rank_closed_form() == 77

    for n, k in ((100, -1.0), (333, -1.7), (2048, -0.5), (50, -3.0)):
        d = make_power_law(n, k)
        assert d.x0_threshold() == ref_x0(list(d.probs))
        assert d.x0_threshold() == d.power_law.threshold_rank_closed_form()

    # near k = 0, where floor((alpha n)^(-1/k)) gave 1, 36,787 and 321; at
    # k = -1e-12 an ulp of alpha moves the count by ~4 ranks (36,790 at the
    # exact alpha, 36,789 at the walk's, one ulp below this one)
    for n, k, x0 in ((4096, -1e-300, 4096), (10**5, -1e-12, 36793), (1000, -1e-15, 372)):
        d = make_power_law(n, k)
        assert d.x0_threshold() == ref_x0(list(d.probs)) == x0
        assert d.power_law.threshold_rank_closed_form() == x0


def test_last_rank_at_least_is_the_walk_count():
    # the bisection that cuts both 1/n and the oracle-only tail agrees with
    # a count over the walk's blocks at every threshold, for k down to
    # -1e-9, where the float formula for the 1e-12 cut overflowed
    thresholds = (1e-12, 1e-9, 1e-6, 0.0, 1.0, 2.0)
    dists = [make_power_law(n, k) for n, k in ((2**17 + 7, -1e-9), (2**17 + 7, -2.0),
                                               (5000, -0.75), (1, -1.0), (64, -80.0))]
    dists += [make_explicit([1.0, 1e-13, 3e-14, 0.0, 0.0]), make_explicit([2.0, 1.0, 0.0, 1.0])]
    for d in dists:
        for t in (*thresholds, 1.0 / d.n, float(d.probs[-1]), float(d.probs[0])):
            assert d._last_rank_at_least(t) == np.count_nonzero(d.probs >= t), (d.n, t)


def test_threshold_rank_explicit():
    d = make_explicit([4.0, 2.0, 1.0, 1.0])
    # probs 1/2, 1/4, 1/8, 1/8; threshold 1/4
    assert d.x0_threshold() == 2
    assert ref_x0(list(d.probs)) == 2


def test_support_size():
    assert make_explicit([1.0, 2.0, 0.0]).support_size() == 2
    assert make_explicit([5.0]).support_size() == 1
    assert make_power_law(64, -1.0).support_size() == 64


def test_threshold_searches_match_negated_search():
    def check(d):   # against the searches over -probs that the reversed view replaced
        negated = (int(np.searchsorted(-d.probs, -1.0 / d.n, side="right")),
                   int(np.searchsorted(-d.probs, 0.0, side="left")))
        assert (d.x0_threshold(), d.support_size()) == negated, d.n

    # every golden and benchmark grid point, and n = 1
    points = {(2**e, k) for e in range(10, 25, 2) for k in (-0.75, -1.75, -2.5)}
    points |= {(n, k) for n in (16, 64, 256) for k in (-0.75, -2.5)}
    points |= {(200, -1.25), (1, -0.75)}
    for n, k in sorted(points):
        check(make_power_law(n, k))
    for weights in ([1.0, 1e-13, 3e-14, 1e-15] + [1e-13] * 60,
                    [1.0] * 50 + [0.0] * 3,
                    [1.0] + [1e-15] * 100,
                    [0.0, 0.0, 5.0],
                    [5.0]):
        check(make_explicit(weights))
    tie = make_explicit([2.0, 1.0, 0.0, 1.0])   # a tie exactly at 1/n = 1/4
    check(tie)
    assert (tie.x0_threshold(), tie.support_size()) == (3, 3)


def test_sampling_never_returns_zero_prob_rank():
    d = make_explicit([1.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    ranks = d.sample(rng, size=1000)
    assert set(ranks.tolist()) == {1}


def test_sampling_chi_square():
    d = make_power_law(8, -1.0)
    rng = np.random.default_rng(123)
    draws = d.sample(rng, size=10**6)
    counts = np.bincount(draws, minlength=9)[1:]
    result = stats.chisquare(counts, f_exp=d.probs * 10**6)
    assert result.pvalue > 1e-3


def test_sampling_top_rank_frequency():
    # frequency of the most likely rank within 5 sigma of its probability
    d = make_power_law(100, -1.5)
    rng = np.random.default_rng(7)
    trials = 200000
    hits = int(np.sum(d.sample(rng, size=trials) == 1))
    p = d.prob(1)
    sigma = math.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) < 5 * sigma


def test_sample_shape_and_dtype():
    d = make_power_law(10, -1.0)
    rng = np.random.default_rng(3)
    for size in (1, 17):
        ranks = d.sample(rng, size)
        assert ranks.shape == (size,) and ranks.dtype == np.int64
        assert ranks.min() >= 1 and ranks.max() <= 10


def test_config_round_trip():
    d = dist_from_config({"kind": "powerlaw", "n": 16, "k": -1.0})
    np.testing.assert_allclose(d.probs, make_power_law(16, -1.0).probs)
    d = dist_from_config({"kind": "explicit", "weights": [1, 3]})
    assert list(d.perm) == [2, 1]


def test_config_errors():
    with pytest.raises(ConfigError):
        dist_from_config({"kind": "nonsense"})
    with pytest.raises(ConfigError):
        dist_from_config({"kind": "powerlaw", "n": 4})  # missing k
    with pytest.raises(ConfigError):
        dist_from_config({"kind": "powerlaw", "n": 4, "k": -1.0, "zzz": 1})
    with pytest.raises(ConfigError):
        dist_from_config({"kind": "explicit"})
    with pytest.raises(ConfigError):
        dist_from_config({"kind": "explicit", "weights": "abc"})
    with pytest.raises(ConfigError):
        dist_from_config([1, 2, 3])


def test_parameter_errors():
    with pytest.raises(ParameterError):
        make_power_law(0, -1.0)
    with pytest.raises(ParameterError):
        make_power_law(4, float("nan"))
    with pytest.raises(ParameterError):
        make_power_law(4, 0.5)  # advice must be non-increasing in rank
    with pytest.raises(ConfigError):
        make_explicit([])
    with pytest.raises(ParameterError):
        make_explicit([0.0, 0.0])
    with pytest.raises(ParameterError):
        make_explicit([1.0, -2.0])
    with pytest.raises(ParameterError):
        make_explicit([1.0, float("inf")])
    d = make_power_law(4, -1.0)
    with pytest.raises(ParameterError):
        d.prob(0)
    with pytest.raises(ParameterError):
        d.prob(5)
    # a float or a bool is no rank, for an explicit and a power-law advice
    for d in (make_explicit([3, 2, 1]), make_power_law(4, -1.0)):
        for rank in (1.0, True, 2.5):
            with pytest.raises(ConfigError):
                d.prob(rank)
        assert d.prob(np.int64(2)) == d.probs[1]


def test_check_int_and_check_real():
    assert _check_int(3, "x", 1, 3) == 3
    assert _check_int(np.int64(0), "x", 0) == 0
    for bad in (True, 1.0, "1", None, np.float64(2.0)):
        with pytest.raises(ConfigError):
            _check_int(bad, "x", 0)
    for bad in (0, 4, -(10**400), 10**400, 10**5000, -(10**5000)):
        with pytest.raises(ParameterError):
            _check_int(bad, "x", 1, 3)
    assert _check_real(2, "y", 1.0) == 2.0 and type(_check_real(2, "y")) is float
    assert _check_real(np.float32(-0.5), "y", hi=0.0) == -0.5
    for bad in (False, "1.5", None, [1.0]):
        with pytest.raises(ConfigError):
            _check_real(bad, "y")
    # the interval is open, and nothing non-finite or beyond the float range passes
    for bad in (1.0, 2.0, math.nan, math.inf, -math.inf, 10**400, -(10**400)):
        with pytest.raises(ParameterError):
            _check_real(bad, "y", 1.0, 2.0)


def test_explicit_huge_weights_do_not_overflow():
    # the total of two 1e308 weights overflows a double; the probabilities
    # must still come out exact, not as 0/inf
    d = make_explicit([1e308, 1e308])
    np.testing.assert_array_equal(d.probs, [0.5, 0.5])
    d.validate()
    d = make_explicit([1e-310, 3e-310])
    np.testing.assert_array_equal(d.probs, [0.75, 0.25])


def test_explicit_scaling_keeps_probabilities_bit_identical():
    rng = np.random.default_rng(17)
    for _ in range(50):
        w = rng.uniform(0.0, 1.0, 20) * 10.0 ** rng.integers(-200, 200)
        np.testing.assert_array_equal(make_explicit(w).probs,
                                      np.sort(w)[::-1] / compensated_sum(w))


def test_validate_normalization():
    d = make_power_law(1000, -2.0)
    d.validate()
    bad = AdviceDistribution(n=2, probs=np.array([0.7, 0.7]),
                             perm=np.array([1, 2]))
    with pytest.raises(ParameterError):
        bad.validate()


def test_compensated_sum_accuracy():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 1.0, 200000) * 10.0 ** rng.integers(-8, 8, 200000)
    exact = math.fsum(values.tolist())
    assert math.isclose(compensated_sum(values), exact, rel_tol=1e-13)


def _pin_workers(patch, workers):
    """Make every walk run on workers threads, whatever the CPUs and blocks."""
    patch.setattr(distributions, "_walk_workers", lambda n, step: workers)


def test_rank_weighted_sums_stops_workers_after_a_failure(monkeypatch):
    # the failure reaches the caller, and the other worker quits at its next
    # block instead of running its remaining 100 (~0.5 s)
    calls = []
    started = threading.Event()

    def fn(block, first, worker):
        if worker == 0:
            started.wait(5.0)   # fail only once the other worker is running
            raise RuntimeError("boom")
        calls.append(first)
        started.set()
        time.sleep(0.005)
        return (block,)

    _pin_workers(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="boom"):
        next(_rank_weighted_sums(make_explicit(np.ones(200 * 16)), fn, step=16))
    assert len(calls) < 50, len(calls)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 120), explicit=st.booleans(), k=st.floats(-3.0, -0.1))
def test_threaded_walk_matches_one_worker(data, n, explicit, k):
    # with stops at, inside and one past the ends of 16-rank blocks, two
    # workers give the one-worker walk's sums bit for bit; fn overwrites its
    # ranks, so a prefix that shared them with its block would differ
    if explicit:
        dist = make_explicit(data.draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n))
                             + [1.0])
    else:
        dist = make_power_law(n, k)
    near_ends = {min(dist.n, end + shift) for end in range(16, dist.n + 16, 16)
                 for shift in (-5, -1, 0, 1)}
    stops = sorted(data.draw(st.sets(st.sampled_from(sorted(near_ends)))) | {dist.n})

    def fn(block, ranks, worker):
        return _dot(block, ranks), float(np.sum(np.sqrt(ranks, out=ranks))), float(np.sum(block))

    with pytest.MonkeyPatch.context() as patch:
        _pin_workers(patch, 1)
        one = list(_rank_weighted_sums(dist, fn, stops, step=16))
        _pin_workers(patch, 2)
        assert list(_rank_weighted_sums(dist, fn, stops, step=16)) == one
    assert len(one) == len(stops)
    ranks = np.arange(1.0, dist.n + 1)
    for stop, sums in zip(stops, one):   # per 16-rank block, cut at the stop
        cuts = [(lo, min(lo + 16, stop)) for lo in range(0, stop, 16)]
        assert sums[0] == math.fsum(_dot(dist.probs[lo:hi], ranks[lo:hi]) for lo, hi in cuts)
        assert sums[2] == math.fsum(float(np.sum(dist.probs[lo:hi])) for lo, hi in cuts)


def test_threaded_walk_memory_is_its_rows(monkeypatch):
    # two workers hold one small row per block and nothing else that grows
    # with the block count: 16 times the blocks may add 400 bytes a block,
    # while a future per block (Executor.map over blocks) costs several KB
    _pin_workers(monkeypatch, 2)

    def peak(n):
        dist = _weights(n, -1.0)
        tracemalloc.start()
        try:
            next(_rank_weighted_sums(dist, lambda block, ranks, worker: (float(block[0]),),
                                     step=256))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2**18), peak(2**22)
    assert large - small < 400 * (2**22 - 2**18) // 256, (small, large)


def test_large_n_normalization():
    d = make_power_law(2**20, -1.0)
    assert math.isclose(compensated_sum(d.probs), 1.0, abs_tol=1e-11)


def test_cdf_monotone_and_ends_at_one():
    d = make_power_law(1000, -0.7)
    cdf = d.cdf
    assert np.all(np.diff(cdf) >= -1e-15)
    assert math.isclose(float(cdf[-1]), 1.0, abs_tol=1e-12)

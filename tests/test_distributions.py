from __future__ import annotations

import math
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
    PowerLawSpec,
    classical_sampling_expected,
    compensated_sum,
    dist_from_config,
    make_explicit,
    make_power_law,
    power_law_alpha,
)
from advice_search import algorithms, distributions
from advice_search.bounds import _BoundColumns
from advice_search.distributions import (
    _PANEL_START,
    _check_int,
    _check_real,
    _dot,
    _linear_sums,
    _power_sums,
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
    # at every golden and benchmark grid point, n = 1, and sizes at and
    # around the 128-rank head and a 2^16-element block: up to n = 128 the
    # streamed alpha has the bits of one over the compensated sum of the
    # whole x^k array; past it, where the ranks past 128 are one power sum,
    # it is within 1e-15 of the exact alpha.  A built power law carries the
    # bits of power_law_alpha everywhere.
    points = {(2**e, k) for e in range(10, 25, 2) for k in (-0.75, -1.75, -2.5)}
    points |= {(n, k) for n in (16, 64, 256) for k in (-0.75, -2.5)}
    points |= {(n, k) for n in (127, 128, 129, 160) for k in (-1e-9, -0.75, -1.0, -4.0)}
    points |= {(200, -1.25), (5_000_001, -2.5), (2**23 + 3, -1.25),
               (3 * 2**22 + 12_345, -1.75), (65_535, -0.75), (65_537, -1.0),
               (131_073, -1.75), (1, -0.75), (1, -2.5)}
    for n, k in sorted(points):
        alpha = power_law_alpha(n, k)
        if n <= _PANEL_START:
            powers = np.arange(1, n + 1, dtype=np.float64)
            assert alpha == 1.0 / compensated_sum(np.power(powers, k, out=powers)), (n, k)
        else:
            exact = 1 / ref_power_sum(k, 0, n)
            assert abs(alpha - exact) <= 1e-15 * exact, (n, k)
        assert make_power_law(n, k).power_law.alpha == alpha, (n, k)


_SUM_KS = (-1e-300, -1e-9, -0.05, -0.5, -1.0, -1.5, -2.0, -2.5, -4.0, -40.0)


@pytest.mark.parametrize("k", _SUM_KS)
def test_power_sums_match_exact_sums(k):
    # the Euler-Maclaurin power sums past the 128-rank head (and past 2^16)
    # of the scan (x^(k+1)), the bound column (x^(k+1/2)) and alpha (x^k),
    # from one rank to 2^40 ranks, each alone and all at once, against
    # exact sums (at 80 digits for s < -4: from rank 129, 40 digits lose
    # ~1e-11 at s = -40)
    for lo in (_PANEL_START, 2**16):
        his = np.array([lo + 1, lo + 2, 2 * lo + 3, 2**24, 2**40])
        for s in (k, k + 0.5, k + 1.0):
            sums = distributions._power_sums(s, np.full(his.size, lo), his)
            for hi, got in zip(his, sums):
                exact = ref_power_sum(s, lo, int(hi), dps=80 if s < -4.0 else 40)
                assert abs(got - exact) <= 4e-15 * exact, (s, lo, hi)
                assert distributions._power_sums(s, lo, int(hi)) == got, (s, lo, hi)


@pytest.mark.parametrize("s", (-2.5, -1.0, -0.5, 0.5))
def test_power_sums_err_by_the_first_dropped_term(s):
    # from ranks far below 128, where the B_14 and B_16 terms are well above
    # rounding, the sum errs by no more than the first term it drops, the
    # B_18 term B_18/18! (f^(17)(hi) - f^(17)(lo + 1)) of f = x^s; from
    # ranks 17 to 257 that term is below rounding
    for lo, hi in ((1, 40), (2, 10**4), (4, 2**20), (8, 2**30),
                   (16, 40), (16, 10**4), (64, 2**20), (256, 2**30)):
        a, b = lo + 1, hi
        falling = math.prod(s - u for u in range(17))
        bernoulli = 43867 / 798   # B_18
        dropped = abs(falling * (b ** (s - 17) - a ** (s - 17))) * bernoulli / math.factorial(18)
        exact = ref_power_sum(s, lo, hi)
        got = distributions._power_sums(s, lo, hi)
        assert abs(got - exact) <= 2 * dropped + 4e-15 * exact, (lo, hi)


def test_power_sums_underflow_to_zero():
    # where (lo + 1)^s underflows, as every x^k of the walk does, the sum is
    # 0, with no overflow or 0 * inf on the way: from the 128-rank head,
    # where 129^s underflows for s < -153.6, and from 2^16
    for lo, k in ((_PANEL_START, -160.0), (_PANEL_START, -1e300),
                  (2**16, -80.0), (2**16, -1e300)):
        for s in (k, k + 0.5, k + 1.0):
            sums = distributions._power_sums(s, lo, np.array([lo + 1, 2**24, 2**40]))
            assert sums.tolist() == [0.0, 0.0, 0.0], (lo, s)


def test_power_sums_of_empty_ranges_are_zero():
    # a range with hi <= lo sums no rank, alone or beside ranges that do
    for s in (-0.75, -2.5, 0.5):
        sums = distributions._power_sums(s, np.array([128, 128, 128, 200]),
                                         np.array([0, 128, 129, 150]))
        assert sums.tolist() == [0.0, 0.0, 129.0 ** s, 0.0], s


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from((-1e-300, -1e-9, -0.5, -1.0, -2.0, -40.0)) | st.floats(-40.0, -1e-300),
       n=st.sampled_from((1, 127, 128, 129, 160, 2**16 + 1, 2**24, 2**40)) | st.integers(1, 2**40))
def test_row_power_sums_match_mpmath(k, n):
    # sum_{x<=n} x^s as a row forms it, the math.fsum of its 128-rank head
    # and a _power_sums call past it, within 1e-15 of mpmath for the
    # exponents of the columns, s = k, k + 1/2, k + 1 and k/2; where s > 0,
    # n stops at 2^24.  The head's powers are summed exactly here: a row's
    # np.sum of 128 of them adds up to ~4 ulps of its own
    exponents = (k, k + 0.5, k + 1.0, k / 2)

    def head(block, ranks):
        return tuple(math.fsum(np.power(ranks, s)) for s in exponents)

    def tail(law, lo, his):
        return tuple(_power_sums(s, lo, his) for s in exponents)

    sums = next(distributions._head_sums(_weights(n, k), head, tail))
    for s, got in zip(exponents, sums, strict=True):
        if s > 0 and n > 2**24:
            continue
        exact = ref_power_sum(s, 0, n)
        assert abs(got - exact) <= 1e-15 * exact, (s, n, got, float(exact))


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
    # the same slice of probs
    n = 3 * step + 12_345
    streamed, whole = make_power_law(n, -1.75), make_power_law(n, -1.75)
    seen = []
    for lo, ranks, block in streamed._streams(step):
        assert np.array_equal(ranks, np.arange(lo + 1, lo + block.size + 1))
        assert np.array_equal(block, whole.probs[lo:lo + step]), lo
        seen.append(lo)
    assert seen == list(range(0, n, step))
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
    assert make_power_law(10**4, -2.0).x0_threshold() == 77

    for n, k in ((100, -1.0), (333, -1.7), (2048, -0.5), (50, -3.0)):
        d = make_power_law(n, k)
        assert d.x0_threshold() == ref_x0(list(d.probs))

    # near k = 0, where floor((alpha n)^(-1/k)) gave 1, 36,787 and 321; at
    # k = -1e-12 an ulp of alpha moves the count by ~4 ranks: 36,789 at the
    # walk's alpha, the float nearest the exact one, and 36,793 one ulp above
    for n, k, x0 in ((4096, -1e-300, 4096), (10**5, -1e-12, 36789), (1000, -1e-15, 372)):
        d = make_power_law(n, k)
        assert d.x0_threshold() == ref_x0(list(d.probs)) == x0


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


_WEIGHTS = st.lists(st.one_of(st.sampled_from((0.0, 0.25, 1.0, 2.0)), st.floats(0.0, 1e3),
                              st.floats(0.0, 1e-300)), min_size=1, max_size=300)


@settings(max_examples=60, deadline=None)
@given(power_law=st.tuples(st.integers(1, 2**18),
                           st.one_of(st.floats(-4.0, -1e-12), st.floats(-150.0, -90.0))),
       weights=_WEIGHTS.filter(lambda w: max(w) > 0.0))
def test_threshold_bisections_match_brute_counts(power_law, weights):
    # x0 and the support, each one bisection, against counts over probs: on
    # power laws whose tail underflows to 0 (k <= -90) and on explicit advice
    # with zero weights, ties and weights whose probabilities underflow
    for d in (make_power_law(*power_law), make_explicit(weights)):
        assert d.x0_threshold() == np.count_nonzero(d.probs >= 1.0 / d.n), d.n
        assert d.support_size() == np.count_nonzero(d.probs > 0.0), d.n


@settings(max_examples=40, deadline=None)
@given(laws=st.lists(st.tuples(st.integers(1, 2**40), st.floats(-4.0, -1e-300)),
                     min_size=1, max_size=6),
       thresholds=st.lists(st.sampled_from((1e-12, 5e-324, 0.5, 1.0, 2.0)) | st.floats(0.0, 1.0),
                           min_size=1, max_size=3))
def test_batched_threshold_search_is_each_pairs_own(laws, thresholds):
    # one bisection over every (n, threshold) pair of power laws with their
    # own alpha (past the memory check, which only a build makes), as an
    # oracle-only sweep cuts its rows, against each pair's own
    # _last_rank_at_least, and against a count over probs at small n
    pairs = [(n, k, t) for n, k in laws for t in thresholds]
    alphas = {(n, k): next(_linear_sums(_weights(n, k), lambda block, ranks: ()))[0]
              for n, k in laws}
    ks = np.array([k for _, k, _ in pairs])
    scales = np.array([alphas[n, k] for n, k, _ in pairs])
    found = distributions._last_ranks_at_least(
        lambda x: np.power(x.astype(np.float64), ks) * scales,
        [n for n, _, _ in pairs], [t for _, _, t in pairs])
    for (n, k, t), rank in zip(pairs, found):
        d = AdviceDistribution(n, power_law=PowerLawSpec(n=n, k=k, alpha=alphas[n, k]))
        assert rank == d._last_rank_at_least(t), (n, k, t)
        if n <= 2**16:
            assert rank == np.count_nonzero(d.probs >= t), (n, k, t)


def test_threshold_counts_allocate_nothing_n_sized():
    # the bisections read a rank at a time: no n-sized array, nor a walk's
    # scratch of 2^16-rank blocks (1.5 MB)
    d = make_power_law(2**26, -0.5)
    tracemalloc.start()
    try:
        assert d.x0_threshold() > 0 and d.support_size() == d.n
        assert classical_sampling_expected(d) == d.n
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024, peak
    assert d._probs is None


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
    def check(d):   # against searches over -probs, a whole array at a time
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


def _sqrt_rank_sums(block, ranks):
    """Two columns, the second of which overwrites the ranks: a prefix row that
    shared them with the block's row made before it would differ."""
    return _dot(block, ranks), _dot(block, np.sqrt(ranks, out=ranks))


# stops at small n, at and around the 128-rank head and its first panel's
# end, and around a 2^16-rank block
_STOPS = (1, 2, 17, 127, 128, 129, 160, 1000, 2**16 - 5, 2**16 - 1, 2**16, 2**16 + 1,
          2 * 2**16 + 3)


@settings(max_examples=40, deadline=None)
@given(stops=st.sets(st.sampled_from(_STOPS) | st.integers(1, 3 * 2**16), min_size=1,
                     max_size=5).map(sorted),
       k=st.floats(-3.0, -1e-300), model=st.sampled_from(("classical", "geometric")),
       ratio=st.sampled_from((None, 2.0, 1.5)))
def test_power_law_stops_match_one_stop_walks(stops, k, model, ratio):
    # each stop of a power law's walk gets, bit for bit, the sums of a walk of
    # the law cut there: _linear_sums' alpha and columns, and a sweep's scan
    # or block-search mean with its bound columns
    def tail(law, lo, hi):
        return _power_sums(law.k + 1.0, lo, hi), _power_sums(law.k + 0.5, lo, hi)

    walk = list(_linear_sums(_weights(stops[-1], k), _sqrt_rank_sums, stops, tail))
    assert walk == [next(_linear_sums(_weights(stop, k), _sqrt_rank_sums, tail=tail))
                    for stop in stops]
    ratio = algorithms._model_ratio(model, ratio)

    def means(n, stops=None):
        return [(f, *sums) for f, sums in algorithms._scan_means(
            model, _weights(n, k), ratio, stops or (n,), _BoundColumns(model))]

    assert means(stops[-1], stops) == [means(stop)[0] for stop in stops]


@pytest.mark.parametrize("explicit", (True, False))
def test_rank_weighted_sums_fsums_block_rows(explicit):
    # the walk sums each column's block partials with math.fsum, in blocks of
    # step, however fn treats its ranks; only a power law's walk stops early
    n = 16 * 7 + 5
    dist = make_explicit(np.arange(n, 0.0, -1.0)) if explicit else make_power_law(n, -1.5)
    ranks = np.arange(1.0, n + 1)
    blocks = [(lo, min(lo + 16, n)) for lo in range(0, n, 16)]
    assert _rank_weighted_sums(dist, _sqrt_rank_sums, step=16) == [
        math.fsum(_dot(dist.probs[lo:hi], v[lo:hi]) for lo, hi in blocks)
        for v in (ranks, np.sqrt(ranks))]
    if explicit:
        with pytest.raises(ValueError, match="power law"):
            next(_linear_sums(dist, _sqrt_rank_sums, stops=(16, n)))


def test_large_n_normalization():
    d = make_power_law(2**20, -1.0)
    assert math.isclose(compensated_sum(d.probs), 1.0, abs_tol=1e-11)


def test_cdf_monotone_and_ends_at_one():
    d = make_power_law(1000, -0.7)
    cdf = d.cdf
    assert np.all(np.diff(cdf) >= -1e-15)
    assert math.isclose(float(cdf[-1]), 1.0, abs_tol=1e-12)

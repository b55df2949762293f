from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from advice_search import (
    ConfigError,
    ParameterError,
    make_explicit,
    make_power_law,
    success_prob,
)
from advice_search.statevector import (
    CapExceeded,
    DIM_CAP,
    _certainty_reflections,
    aa_success_curve,
    exact_search_profile,
)

from reference import (
    ref_certainty_reflections,
    ref_oracle_matrix,
    ref_reflection_matrix,
)


def test_prepare_mu_amplitudes():
    # before any step the curve measures the advice state |mu> itself
    d = make_explicit([1.0, 3.0])
    start = [aa_success_curve(d, rank, 0)[0] for rank in (1, 2)]
    assert start == pytest.approx([0.75, 0.25], abs=1e-15)
    assert math.isclose(sum(start), 1.0, abs_tol=1e-15)


def test_prepare_mu_probabilities_round_trip():
    d = make_power_law(50, -1.3)
    for rank in (1, 7, 50):
        assert math.isclose(aa_success_curve(d, rank, 0)[0], d.prob(rank), abs_tol=1e-15)


def test_aa_iteration_matches_dense_matrices():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(2, 40))
        weights = rng.exponential(size=n) + 1e-3
        d = make_explicit(weights)
        marked = int(rng.integers(1, n + 1))
        mu = np.sqrt(d.probs).astype(np.complex128)
        op = ref_reflection_matrix(mu) @ ref_oracle_matrix(n, marked)
        curve = aa_success_curve(d, marked, 6)
        expected = mu.copy()
        for j in range(7):
            assert math.isclose(curve[j], abs(expected[marked - 1]) ** 2, abs_tol=1e-12)
            expected = op @ expected


def test_aa_success_curve_matches_closed_form():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(2, 64))
        d = make_explicit(rng.exponential(size=n))
        marked = int(rng.integers(1, n + 1))
        p = d.prob(marked)
        curve = aa_success_curve(d, marked, 12)
        for j, value in enumerate(curve):
            assert math.isclose(value, success_prob(p, j), abs_tol=1e-9)


def test_grover_success_uniform():
    for n in (2, 4, 10, 100):
        curve = aa_success_curve(make_explicit(np.ones(n)), 1, 3)
        for j in (0, 1, 3):
            assert math.isclose(curve[j], success_prob(1.0 / n, j), abs_tol=1e-12)


def test_exact_search_reaches_certainty():
    for n in range(1, 65):
        prob, reflections = exact_search_profile(n)
        assert prob == pytest.approx(1.0, abs=1e-9)
        assert reflections == ref_certainty_reflections(n)
    # the closed-form count over every n the cap admits
    for n in range(1, DIM_CAP // 2 + 1):
        assert _certainty_reflections(n) == ref_certainty_reflections(n), n


def test_exact_search_reflection_budget():
    # never more reflections than the plain ceiling count
    for n in range(1, 200):
        _, reflections = exact_search_profile(n)
        assert reflections <= math.ceil(math.pi / 4 * math.sqrt(n))


def test_exact_search_small_cases():
    _, reflections = exact_search_profile(1)
    assert reflections == 0
    prob, reflections = exact_search_profile(4)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert reflections == 1


def test_exact_search_run_result():
    # measuring finds the marked element, wherever it is, for the same
    # reflection count
    for n in (1, 2, 7, 30):
        _, reflections = exact_search_profile(n)
        for marked in (1, n):
            prob, used = exact_search_profile(n, marked_rank=marked)
            assert prob == pytest.approx(1.0, abs=1e-9)
            assert used == reflections


def test_dimension_cap_enforced():
    with pytest.raises(CapExceeded):
        aa_success_curve(make_power_law(DIM_CAP + 1, -1.0), 1, 0)
    with pytest.raises(CapExceeded):
        # ancilla doubles the dimension, so the cap binds at n > cap/2
        exact_search_profile(DIM_CAP // 2 + 1)
    # at the boundary everything still runs
    assert aa_success_curve(make_explicit(np.ones(DIM_CAP)), 1, 1)[1] == pytest.approx(
        success_prob(1.0 / DIM_CAP, 1))
    assert exact_search_profile(DIM_CAP // 2, DIM_CAP // 2)[0] == pytest.approx(1.0, abs=1e-9)


def test_marked_rank_is_checked():
    # rank 0 would index the last amplitude and report its curve
    for rank in (0, 5):
        with pytest.raises(ParameterError):
            aa_success_curve(make_explicit(np.ones(4)), rank, 1)
        with pytest.raises(ParameterError):
            exact_search_profile(4, rank)
    with pytest.raises(ConfigError):
        aa_success_curve(make_explicit(np.ones(4)), 1.0, 1)
    # so is the step count
    with pytest.raises(ParameterError):
        aa_success_curve(make_explicit(np.ones(4)), 1, -1)
    with pytest.raises(ConfigError):
        aa_success_curve(make_explicit(np.ones(4)), 1, 2.5)


def test_max_iters_is_bounded():
    # a step count past the cap is refused before anything is allocated
    d = make_explicit(np.ones(4))
    tracemalloc.start()
    try:
        for max_iters in (10**9, 10**30):
            with pytest.raises(ParameterError):
                aa_success_curve(d, 1, max_iters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert aa_success_curve(d, 1, 16 * DIM_CAP).size == 16 * DIM_CAP + 1

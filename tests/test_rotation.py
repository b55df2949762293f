from __future__ import annotations

import math

import numpy as np
import pytest

from advice_search import (
    ConfigError,
    ParameterError,
    exact_grover_queries,
    success_prob,
    uniform_iter_success,
)

from reference import (
    ref_grover_queries,
    ref_iteration_average,
    ref_min_queries_for_prob,
    ref_success_prob,
)


def test_success_prob_frozen_values():
    # a quarter overlap is driven to certainty by one iteration
    assert math.isclose(success_prob(0.25, 1), 1.0, abs_tol=1e-15)
    assert success_prob(0.25, 0) == 0.25
    assert success_prob(1.0, 0) == 1.0
    assert success_prob(0.0, 7) == 0.0


def test_success_prob_matches_reference():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = float(rng.random())
        j = int(rng.integers(0, 40))
        assert math.isclose(success_prob(p, j), ref_success_prob(p, j),
                            rel_tol=0, abs_tol=1e-12)


def test_success_prob_clipped_to_unit_interval():
    ps = np.linspace(0.0, 1.0, 257)
    for j in range(8):
        vals = success_prob(ps, j)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        # a scalar p gets its array element bit for bit: one s*s for both
        assert [success_prob(float(p), j) for p in ps] == vals.tolist()


def test_exact_grover_queries_frozen():
    assert exact_grover_queries(1) == 1
    assert exact_grover_queries(2) == 2
    assert exact_grover_queries(4) == 2
    assert exact_grover_queries(7) == 3
    assert exact_grover_queries(100) == 8
    assert exact_grover_queries(256) == 13
    # the verification query under the zero-or-one promise
    assert exact_grover_queries(4, zero_or_one=True) == 3
    assert exact_grover_queries(1, zero_or_one=True) == 2
    # below 2^31 these are the m where the float pi/4 sqrt(m) lies within
    # 1e-9 of an integer; its ceiling is still the one taken at 50 digits
    for m, queries in ((963184502, 24376), (1105436435, 26114), (1275879979, 28055),
                       (1694251630, 32329), (1918390974, 34401), (1967554029, 34838),
                       (1994642750, 35078)):
        assert exact_grover_queries(m) == queries


def test_exact_grover_queries_matches_reference():
    for m in range(1, 2000):
        assert exact_grover_queries(m) == ref_grover_queries(m)


def test_exact_grover_reaches_stated_probability():
    # the ceiling count overshoots the pi/2 rotation target, so measured
    # success after that many iterations of an n-element uniform search is
    # high; the scan oracle pins the minimal count achieving certainty-ish
    for n in (4, 16, 100, 1024):
        t = exact_grover_queries(n)
        assert t >= ref_min_queries_for_prob(n, 0.9)


def test_uniform_iter_success_frozen():
    assert uniform_iter_success(0.25, 2) == pytest.approx(5.0 / 8.0, abs=1e-15)
    assert uniform_iter_success(0.3, 1) == pytest.approx(0.3, abs=1e-15)
    assert uniform_iter_success(1.0, 3) == pytest.approx(1.0, abs=1e-15)
    assert uniform_iter_success(0.0, 5) == 0.0


def test_uniform_iter_success_matches_reference():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = float(rng.uniform(0.001, 0.999))
        m = int(rng.integers(1, 60))
        assert math.isclose(uniform_iter_success(p, m),
                            ref_iteration_average(p, m), abs_tol=1e-12)


def test_uniform_iter_success_degenerate_angles():
    # closed form divides by sqrt(p(1-p)); the endpoints take the explicit
    # average branch and must still agree with the brute mean
    for p in (0.0, 1.0, 1e-14, 1.0 - 1e-14):
        for m in (1, 2, 9):
            assert math.isclose(uniform_iter_success(p, m),
                                ref_iteration_average(p, m), abs_tol=1e-12)


def test_uniform_iter_success_quarter_floor():
    # once the budget passes 1/(2 sqrt(p(1-p))), the average is >= 1/4
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = float(rng.uniform(1e-4, 1.0 - 1e-4))
        m = math.ceil(1.0 / (2.0 * math.sqrt(p * (1.0 - p))))
        assert uniform_iter_success(p, m) >= 0.25


def test_uniform_iter_success_vectorized():
    ps = np.linspace(0.0, 1.0, 101)
    vals = uniform_iter_success(ps, 7)
    brute = [ref_iteration_average(float(p), 7) for p in ps]
    np.testing.assert_allclose(vals, brute, atol=1e-12)


def test_uniform_iter_success_degenerate_series_high_precision():
    # the degenerate-angle series against a 50-digit mean of the same
    # (float) p, near both ends and up to large budgets
    mpmath = pytest.importorskip("mpmath")
    for p in (1e-13, 1.0 - 1e-13, 1.0 - 1e-14):
        for m in (9, 37, 4096):
            with mpmath.workdps(50):
                theta = mpmath.asin(mpmath.sqrt(mpmath.mpf(p)))
                exact = mpmath.fsum(mpmath.sin((2 * r + 1) * theta) ** 2
                                    for r in range(m)) / m
            value = uniform_iter_success(p, m)
            assert abs(value - float(exact)) <= 1e-11, (p, m)
            if p < 0.5:  # a value near 0 must also be right to relative accuracy
                assert abs(value / float(exact) - 1.0) <= 1e-5, (p, m)


def test_argument_validation():
    with pytest.raises(ValueError):
        success_prob(-0.1, 1)
    with pytest.raises(ValueError):
        success_prob(1.1, 1)
    with pytest.raises(ValueError):
        success_prob(0.5, -1)
    with pytest.raises(ValueError):
        success_prob(0.5, "three")
    with pytest.raises(ValueError):
        exact_grover_queries(0)
    with pytest.raises(ValueError):
        uniform_iter_success(0.5, 0)
    # integer arguments share one check: a wrong type is the CLI's config
    # error, a value out of range its range error
    for call in (lambda: success_prob(0.5, True), lambda: uniform_iter_success(0.5, 2.0)):
        with pytest.raises(ConfigError):
            call()
    with pytest.raises(ParameterError):
        exact_grover_queries(np.int64(0))

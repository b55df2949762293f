"""Acceptance gate: one test per advertised guarantee, at its stated
tolerance.  Each test prints a single [acceptance] line so a log scrape
shows the per-criterion outcome."""
from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

from advice_search import (
    classical_expected,
    classical_sampling_expected,
    fit_scaling,
    geometric_expected,
    geometric_upper,
    las_vegas_report,
    make_explicit,
    make_power_law,
    monte_carlo,
    powerlaw_exponents,
    q_mu_lower,
    run_sweep,
    success_prob,
    SweepSpec,
    uniform_iter_success,
    unknown_expected_exact,
    unknown_expected_mu,
    unknown_upper_per_rank,
)
from advice_search.statevector import aa_success_curve, exact_search_profile

from reference import ref_iteration_average


@contextmanager
def _criterion(name: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_criterion_1_closed_form_certification():
    with _criterion("closed-form certification"):
        started = time.perf_counter()
        for n in range(2, 257):
            uniform = make_explicit([1.0] * n)
            curve = aa_success_curve(uniform, 1, 50)
            p = 1.0 / n
            for j, measured in enumerate(curve):
                assert abs(measured - success_prob(p, j)) <= 1e-9
        rng = np.random.default_rng(20250816)
        for _ in range(50):
            n = int(rng.integers(2, 1025))
            dist = make_explicit(rng.exponential(size=n) + 1e-9)
            marked = int(rng.integers(1, n + 1))
            j = int(rng.integers(0, 51))
            measured = aa_success_curve(dist, marked, j)[j]
            assert abs(measured - success_prob(dist.prob(marked), j)) <= 1e-9
        assert time.perf_counter() - started < 60.0


def test_criterion_2_exact_search_certainty():
    with _criterion("exact search certainty"):
        for n in range(1, 257):
            prob, reflections = exact_search_profile(n)
            assert prob >= 1.0 - 1e-9
            assert reflections <= math.ceil(math.pi / 4.0 * math.sqrt(n)) + 1


def test_criterion_3_iteration_average_identity():
    with _criterion("iteration-average identity"):
        ps = np.linspace(0.02, 0.98, 20)
        ms = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
        count = 0
        for p in ps:
            for m in ms:
                closed = uniform_iter_success(float(p), m)
                brute = ref_iteration_average(float(p), m)
                assert abs(closed - brute) <= 1e-12
                if m >= 1.0 / (2.0 * math.sqrt(p * (1.0 - p))):
                    assert closed >= 0.25
                count += 1
        assert count == 200


def test_criterion_4_geometric_bound_sandwich():
    with _criterion("known-advice bound sandwich"):
        started = time.perf_counter()
        dists = [make_explicit([1.0] * (2**16)),
                 make_explicit([1.0] + [0.0] * (2**16 - 1))]
        for k in np.linspace(-2.5, -0.25, 10):
            for n in (2**12, 2**20):
                dists.append(make_power_law(n, float(k)))
        rng = np.random.default_rng(404)
        for _ in range(8):
            dists.append(make_explicit(rng.exponential(size=rng.integers(2, 2049))))
        assert len(dists) == 30
        for dist in dists:
            measured = geometric_expected(dist).f_mean
            assert q_mu_lower(dist) <= measured <= geometric_upper(dist)
        assert time.perf_counter() - started < 120.0


def test_criterion_5_unknown_bound_ceiling():
    with _criterion("oracle-only bound ceiling"):
        for n in (2**8, 2**12, 2**16):
            for k in (-0.5, -1.0, -2.0):
                dist = make_power_law(n, k)
                ceiling = unknown_upper_per_rank(dist)
                ranks = np.unique(np.geomspace(1, n, 50).astype(int))
                for rank in ranks:
                    report = unknown_expected_exact(dist, int(rank))
                    assert max(report.means()) <= ceiling[rank - 1] + 1e-9
        # high-prior regime: a first sample heavier than 3/4
        cases = [make_explicit([p1] + [(1.0 - p1) / 255.0] * 255)
                 for p1 in (0.75, 0.9, 0.99)]
        cases.append(make_power_law(256, -3.0))
        for dist in cases:
            assert dist.prob(1) >= 0.75
            report = unknown_expected_exact(dist, 1)
            assert max(report.means()) <= 17.0


def test_criterion_6_exact_vs_monte_carlo():
    with _criterion("exact vs Monte Carlo agreement"):
        started = time.perf_counter()
        trials = 10**5
        seed = 0
        configs = []
        for i, (n, k) in enumerate([(64, -0.5), (128, -1.0), (256, -1.5),
                                    (512, -2.0), (1024, -0.25), (2048, -1.25),
                                    (4096, -2.5), (100, -0.75), (333, -1.0),
                                    (1000, -3.0)]):
            configs.append((make_power_law(n, k), i))
        for algorithm in ("classical", "geometric", "unknown"):
            for dist, i in configs:
                if algorithm == "classical":
                    exact = (classical_expected(dist), 0.0, 0.0)
                elif algorithm == "geometric":
                    exact = geometric_expected(dist).means()
                else:
                    exact = unknown_expected_mu(dist).means()
                mc = monte_carlo(algorithm, dist, trials, seed + i)
                for target, estimate, stderr in zip(exact, mc.means(),
                                                    mc.stderrs()):
                    assert abs(estimate - target) <= 4.0 * stderr + 1e-9
        assert time.perf_counter() - started < 300.0


def test_criterion_7_classical_facts():
    with _criterion("classical exact identities"):
        for n in (4, 100, 1024, 2**16, 2**20):
            uniform = make_explicit([1.0] * n)
            assert classical_expected(uniform) == (n + 1) / 2.0
            assert classical_sampling_expected(uniform) == float(n)
        assert classical_sampling_expected(make_power_law(4096, -2.0)) == 4096.0
        assert math.isinf(
            classical_sampling_expected(make_explicit([1.0, 0.0])))


def test_criterion_8_powerlaw_scaling_exponents():
    with _criterion("power-law scaling exponents"):
        started = time.perf_counter()
        n_grid = [2**j for j in range(10, 25, 2)]
        k_grid = (-0.25, -0.5, -0.75, -1.25, -1.75, -2.5)
        tolerance = {"classical": 0.05, "geometric": 0.05, "unknown": 0.08}
        rows = []
        for model in ("classical", "geometric", "unknown"):
            for k in k_grid:
                spec = SweepSpec.from_config(
                    {"dist": {"kind": "powerlaw", "k": k}, "model": model,
                     "n_grid": n_grid}, need_grid=True)
                rows.extend(run_sweep(spec))
        fits = {(fit.model, fit.k_dist): fit for fit in fit_scaling(rows)}
        for model in ("classical", "geometric", "unknown"):
            for k in k_grid:
                measured = fits[(model, k)].alpha
                expected = powerlaw_exponents(model, k).exponent
                assert abs(measured - expected) <= tolerance[model], (
                    f"{model} k={k}: slope {measured:.4f} vs {expected:.4f}")
        # separation instance: flat quantum cost, polynomial classical cost
        assert abs(fits[("geometric", -1.75)].alpha) <= 0.05
        assert abs(fits[("classical", -1.75)].alpha - 0.25) <= 0.05
        assert time.perf_counter() - started < 1800.0


def test_criterion_9_lower_bound_maximizer():
    with _criterion("lower-bound grid maximizer"):
        for n in (10**4, 10**5, 10**6):
            assert abs(las_vegas_report(n).argmax_p - 0.369) <= 0.01

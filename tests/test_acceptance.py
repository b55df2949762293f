"""Acceptance gate: one test per advertised guarantee, at its stated
tolerance.  Criteria 1-7 and 9 run validate's checks on full-scale inputs;
criterion 8 fits sweep exponents.  Each test prints a single [acceptance]
line so a log scrape shows the per-criterion outcome."""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from advice_search import (
    fit_scaling,
    make_explicit,
    make_power_law,
    powerlaw_exponents,
    run_sweep,
    SweepSpec,
    validation,
)


@contextmanager
def _criterion(name: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def _passes(result: validation.CheckResult) -> None:
    assert result.status == "PASS", f"{result.name}: {result.detail}"


def test_criterion_1_closed_form_certification():
    with _criterion("closed-form certification"):
        started = time.perf_counter()
        cases = [(make_explicit([1.0] * n), 1, 50) for n in range(2, 257)]
        rng = np.random.default_rng(20250816)
        for _ in range(50):
            n = int(rng.integers(2, 1025))
            dist = make_explicit(rng.exponential(size=n) + 1e-9)
            cases.append((dist, int(rng.integers(1, n + 1)), int(rng.integers(0, 51))))
        _passes(validation.statevector_amplification_closed_form(cases))
        assert time.perf_counter() - started < 60.0


def test_criterion_2_exact_search_certainty():
    with _criterion("exact search certainty"):
        _passes(validation.exact_search_certainty(
            (n, rank) for n in range(1, 257) for rank in {1, 1 + n // 3}))


def test_criterion_3_iteration_average_identity():
    with _criterion("iteration-average identity"):
        _passes(validation.iteration_average_identity(
            np.linspace(0.02, 0.98, 20), (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)))


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
        _passes(validation.geometric_bound_sandwich(dists))
        assert time.perf_counter() - started < 120.0


def test_criterion_5_unknown_bound_ceiling():
    with _criterion("oracle-only bound ceiling"):
        # high-prior regime: a first sample heavier than 3/4
        high_prior = [make_explicit([p1] + [(1.0 - p1) / 255.0] * 255)
                      for p1 in (0.75, 0.9, 0.99)]
        high_prior.append(make_power_law(256, -3.0))
        _passes(validation.fallback_bound_ceiling(
            (2**8, 2**12, 2**16), (-0.5, -1.0, -2.0), 50, high_prior))


def test_criterion_6_exact_vs_monte_carlo():
    with _criterion("exact vs Monte Carlo agreement"):
        started = time.perf_counter()
        points = [(64, -0.5), (128, -1.0), (256, -1.5), (512, -2.0), (1024, -0.25),
                  (2048, -1.25), (4096, -2.5), (100, -0.75), (333, -1.0), (1000, -3.0)]
        cases = [(model, make_power_law(n, k), seed)
                 for model in ("classical", "geometric", "unknown")
                 for seed, (n, k) in enumerate(points)]
        _passes(validation.exact_vs_monte_carlo(cases, 10**5))
        assert time.perf_counter() - started < 30.0


def test_criterion_7_classical_facts():
    with _criterion("classical exact identities"):
        dists = [make_explicit([1.0] * n) for n in (4, 100, 1024, 2**16, 2**20)]
        dists += [make_power_law(4096, -2.0), make_explicit([1.0, 0.0])]
        _passes(validation.classical_identities(dists))


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
        assert time.perf_counter() - started < 120.0


def test_criterion_9_lower_bound_maximizer():
    with _criterion("lower-bound grid maximizer"):
        _passes(validation.las_vegas_chain((10**4, 10**5, 10**6)))

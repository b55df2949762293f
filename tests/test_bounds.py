from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from advice_search import (
    ConfigError,
    ParameterError,
    geometric_expected,
    las_vegas_report,
    make_explicit,
    make_power_law,
    powerlaw_exponents,
    row_bounds,
    unknown_expected_mu,
)
from advice_search.algorithms import _SUB_BLOCK, _model_ratio
from advice_search.bounds import _BoundColumns
from advice_search.distributions import _PANEL_START, AdviceDistribution, _rank_weighted_sums
from advice_search.sweep import SweepSpec, run_point
from advice_search.validation import _rank_ceilings, fallback_bound_ceiling

from reference import (
    ref_las_vegas_max,
    ref_powerlaw_exponents,
    ref_sqrt_rank_mean,
)


def test_las_vegas_grid_matches_fine_reference():
    for n in (16, 1024, 10**4):
        report = las_vegas_report(n)
        fine = ref_las_vegas_max(n)
        # the package grid is coarser; agreement to the grid resolution
        assert abs(report.grid_max - fine) < 1e-4 * max(1.0, fine)


def test_las_vegas_dominates_sqrt_form():
    for n in (4, 10, 100, 4096, 10**6):
        report = las_vegas_report(n)
        assert report.grid_max >= report.sqrt_form
        assert report.asin_form >= report.sqrt_form


def test_las_vegas_maximizer_settles():
    for n in (10**4, 10**5, 10**6):
        assert abs(las_vegas_report(n).argmax_p - 0.369) < 0.01


def test_las_vegas_lower_scales_like_sqrt():
    ratio = las_vegas_report(4 * 10**6).grid_max / las_vegas_report(10**6).grid_max
    assert ratio == pytest.approx(2.0, rel=5e-3)


def test_q_mu_lower_formula():
    d = make_power_law(1000, -1.0)
    expected = 0.206 * ref_sqrt_rank_mean(list(d.probs)) - 1.0
    assert math.isclose(row_bounds(d)[0], expected, rel_tol=1e-12)


def test_q_mu_lower_uniform_vs_plain_bound():
    # uniform advice recovers the plain sqrt(n) lower bound shape
    n = 4096
    d = make_explicit([1.0] * n)
    mean_sqrt = ref_sqrt_rank_mean(list(d.probs))
    lower, upper = row_bounds(d)
    assert math.isclose(lower, 0.206 * mean_sqrt - 1.0, rel_tol=1e-12)
    assert 0.206 * (2.0 / 3.0) * math.sqrt(n) - 2 <= lower
    assert upper is None
    assert row_bounds(d, "classical") == (lower, None)
    # an unknown model id is refused, not read as a model without an upper bound
    with pytest.raises(ConfigError):
        row_bounds(d, "Geometric")


def test_geometric_upper_formula():
    d = make_power_law(512, -1.5)
    expected = math.pi * math.e * ref_sqrt_rank_mean(list(d.probs))
    assert math.isclose(row_bounds(d, "geometric")[1], expected, rel_tol=1e-12)


def test_geometric_row_holds_no_n_vector():
    # build plus the exact geometric row and its bounds make no rank past
    # the 128-rank head, whatever n is, and the bound columns root the
    # head's ranks in place: the whole call peaks at or below 512 KB under
    # tracemalloc
    tracemalloc.start()
    try:
        dist = make_power_law(2**26, -0.75)
        geometric_expected(dist)
        row_bounds(dist, "geometric")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**19, peak
    assert dist._probs is None


def test_geometric_sandwich():
    for n, k in ((64, -0.5), (256, -1.0), (1024, -2.0), (4096, -1.25)):
        d = make_power_law(n, k)
        measured = geometric_expected(d).f_mean
        lower, upper = row_bounds(d, "geometric")
        assert lower <= measured <= upper


def test_unknown_upper_per_rank_branches():
    d = make_explicit([0.9, 0.1] + [0.0] * 9998)
    first, last = _rank_ceilings(d, [1, d.n])
    assert first == pytest.approx(83.0 / math.sqrt(0.9) + 4.0 / 3.0)
    # zero-probability ranks fall back to the sqrt(n) branch
    assert last == pytest.approx(53.0 * math.sqrt(d.n))


def test_unknown_upper_mu_dominates_weighted_per_rank():
    for n, k in ((100, -1.0), (1000, -2.0), (4096, -0.5)):
        d = make_power_law(n, k)
        weighted = float(np.dot(d.probs, _rank_ceilings(d, np.arange(1, n + 1))))
        assert row_bounds(d, "unknown")[1] >= weighted - 1e-9


def test_unknown_upper_mu_dominates_measured_cost():
    for n, k in ((64, -1.0), (256, -1.5), (1024, -0.5)):
        d = make_power_law(n, k)
        measured = unknown_expected_mu(d)
        assert max(measured.means()) <= row_bounds(d, "unknown")[1]


def test_unknown_measured_cost_below_per_rank_ceiling():
    from advice_search import unknown_expected_exact

    d = make_power_law(256, -2.0)
    ranks = (1, 2, 16, 128, 256)
    for rank, ceiling in zip(ranks, _rank_ceilings(d, ranks)):
        report = unknown_expected_exact(d, rank)
        assert max(report.means()) <= ceiling + 1e-9
    # the check that reads these ceilings passes on the same power law
    assert not fallback_bound_ceiling((256,), (-2.0,), 5, []).failed


def test_high_prior_short_circuit():
    from advice_search import unknown_expected_exact

    # a prior of at least 3/4 keeps every expected count at 17 or below
    for p1 in (0.75, 0.9, 0.99):
        rest = (1.0 - p1) / 63.0
        d = make_explicit([p1] + [rest] * 63)
        report = unknown_expected_exact(d, 1)
        assert max(report.means()) <= 17.0


def test_powerlaw_exponent_table_classical():
    cls = powerlaw_exponents("classical", -0.5)
    assert (cls.exponent, cls.log_exponent) == (1.0, 0)
    cls = powerlaw_exponents("classical", -1.0)
    assert (cls.exponent, cls.log_exponent) == (1.0, -1)
    cls = powerlaw_exponents("classical", -1.5)
    assert cls.exponent == pytest.approx(0.5)
    cls = powerlaw_exponents("classical", -2.0)
    assert (cls.exponent, cls.log_exponent) == (0.0, 1)
    cls = powerlaw_exponents("classical", -3.0)
    assert (cls.exponent, cls.log_exponent) == (0.0, 0)


def test_powerlaw_exponent_table_geometric():
    g = powerlaw_exponents("geometric", -0.25)
    assert (g.exponent, g.log_exponent) == (0.5, 0)
    g = powerlaw_exponents("geometric", -1.0)
    assert (g.exponent, g.log_exponent) == (0.5, -1)
    g = powerlaw_exponents("geometric", -1.25)
    assert g.exponent == pytest.approx(0.25)
    g = powerlaw_exponents("geometric", -1.5)
    assert (g.exponent, g.log_exponent) == (0.0, 1)
    g = powerlaw_exponents("geometric", -2.0)
    assert (g.exponent, g.log_exponent) == (0.0, 0)


def test_powerlaw_exponent_table_unknown():
    u = powerlaw_exponents("unknown", -0.75)
    assert (u.exponent, u.log_exponent) == (0.5, 0)
    u = powerlaw_exponents("unknown", -1.25)
    assert u.exponent == pytest.approx(0.3)
    u = powerlaw_exponents("unknown", -1.75)
    assert u.exponent == pytest.approx(-(0.5 + 1.0 / -1.75))
    u = powerlaw_exponents("unknown", -2.0)
    assert (u.exponent, u.log_exponent) == (0.0, 1)
    u = powerlaw_exponents("unknown", -2.5)
    assert (u.exponent, u.log_exponent) == (0.0, 0)


def test_powerlaw_exponents_continuity():
    # the piecewise exponents meet at the regime boundaries
    eps = 1e-9
    for model in ("classical", "geometric", "unknown"):
        for k in (-1.0, -1.5, -2.0):
            above = powerlaw_exponents(model, k + eps).exponent
            below = powerlaw_exponents(model, k - eps).exponent
            assert abs(above - below) < 1e-6


def test_powerlaw_exponents_match_regime_ladder():
    # the one clipped rule gives the regime-by-regime table bit for bit, at
    # the regime edges, the floats next to them and in between
    ks = [-5e-324, -1e-300, -0.25, -3.0, -1e300]
    for edge in (-1.0, -1.5, -2.0):
        ks += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, -math.inf)]
    ks += list(np.linspace(-2.5, -0.05, 491))
    for model in ("classical", "geometric", "unknown"):
        for k in ks:
            cls = powerlaw_exponents(model, k)
            exponent, log_exponent = ref_powerlaw_exponents(model, float(k))
            assert (cls.exponent.hex(), cls.log_exponent) == (exponent.hex(), log_exponent), (model, k)


def test_powerlaw_exponents_validation():
    with pytest.raises(ParameterError):
        powerlaw_exponents("classical", 0.5)
    # a misspelt model id is a malformed input, as for every entry point
    # that takes one
    for call in (lambda model: powerlaw_exponents(model, -1.0),
                 lambda model: row_bounds(make_power_law(8, -1.0), model),
                 lambda model: _model_ratio(model, None)):
        for model in ("telepathic", "Geometric"):
            with pytest.raises(ConfigError):
                call(model)


def test_las_vegas_report_takes_integer_n():
    with pytest.raises(ConfigError):
        las_vegas_report(2.5)
    with pytest.raises(ParameterError):
        las_vegas_report(1)


def _oracle_only_bounds(d):
    """The oracle-only row's bounds from its columns: on explicit advice
    summed in the kernel's _SUB_BLOCK steps, on a power law over its
    128-rank head in one block and past it by the columns' tail."""
    columns = _BoundColumns("unknown")
    fn = lambda block, ranks: columns.partials(block, ranks, d.n)   # noqa: E731
    law = d.power_law
    if law is None:
        return columns.values(_rank_weighted_sums(d, fn, step=_SUB_BLOCK), d.n)
    head = _rank_weighted_sums(AdviceDistribution(min(d.n, _PANEL_START), power_law=law), fn,
                               step=_PANEL_START)
    tail = columns.tail(law.k, _PANEL_START, np.array([d.n]), law.alpha, d.x0_threshold())
    return columns.values([math.fsum((h, *t)) for h, t in zip(head, tail, strict=True)], d.n)


def _bound_weights(kind, n):
    rng = np.random.default_rng(n)
    if kind == "pareto":
        return rng.pareto(1.5, n) + 1e-3
    if kind == "zeros":   # flat, then zeros
        return np.repeat([1.0, 0.0], [n - n // 3, n // 3])
    return rng.integers(1, 4, n).astype(np.float64)   # ties


def test_compute_bounds_report():
    # a row's bound columns are summed in the model's walk: on explicit
    # advice 2^16-rank blocks for the scans, as row_bounds' own walk uses,
    # and the oracle-only kernel's 2^14-rank blocks, whose sums may differ
    # in the last bits from row_bounds' ones; on a power law the 128-rank
    # head and power sums past it, for every model and row_bounds alike
    for kind in ("powerlaw", "pareto", "zeros", "ties"):
        for n in (1, _PANEL_START, _PANEL_START + 1, _SUB_BLOCK, _SUB_BLOCK + 1,
                  3 * _SUB_BLOCK + 5, 2**16 + 1):
            if kind == "powerlaw":
                cfg, d = {"kind": "powerlaw", "n": n, "k": -1.0}, make_power_law(n, -1.0)
            else:
                weights = _bound_weights(kind, n)
                cfg, d = {"kind": "explicit", "weights": weights.tolist()}, make_explicit(weights)
            rows = [run_point(SweepSpec(dist_cfg=cfg, model=model))
                    for model in ("classical", "geometric", "unknown")]
            classical, geometric, unknown = ((row.lower_bound, row.upper_bound) for row in rows)
            assert classical == (None, None), (kind, n)
            assert geometric == row_bounds(d, "geometric"), (kind, n)
            assert unknown == _oracle_only_bounds(d), (kind, n)
            assert unknown == pytest.approx(row_bounds(d, "unknown"), rel=1e-14, abs=0), (kind, n)
            if kind == "powerlaw":
                assert unknown == row_bounds(d, "unknown"), n

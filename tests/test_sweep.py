from __future__ import annotations

import dataclasses
import math
import os
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advice_search import algorithms, bounds, distributions, sweep
from advice_search import (
    ConfigError,
    HEADER,
    ParameterError,
    SweepRow,
    SweepSpec,
    classical_expected,
    fit_scaling,
    fit_slope,
    geometric_expected,
    make_power_law,
    power_law_alpha,
    read_rows,
    rows_to_csv,
    run_point,
    run_sweep,
    unknown_expected_mu,
)

from reference import ref_blocks, ref_grover_queries, ref_power_sum, ref_scan_row


def _spec(**overrides):
    cfg = {"dist": {"kind": "powerlaw", "n": 64, "k": -1.0}, "model": "geometric"}
    cfg.update(overrides)
    return SweepSpec.from_config(cfg, need_grid=False)


def test_header_is_exact():
    assert ",".join(HEADER) == (
        "n,k_dist,model,mode,f_mean,f_stderr,omu_mean,omu_stderr,"
        "omuinv_mean,omuinv_stderr,lower_bound,upper_bound,seconds")


def test_run_point_exact_geometric():
    row = run_point(_spec())
    d = make_power_law(64, -1.0)
    assert row.n == 64
    assert row.k_dist == -1.0
    assert row.model == "geometric"
    assert row.mode == "exact"
    assert row.f_mean == pytest.approx(geometric_expected(d).f_mean)
    assert row.f_stderr == 0.0
    assert row.omu_mean == 0.0
    assert row.lower_bound is not None and row.upper_bound is not None
    assert row.seconds == 0.0


def test_run_point_exact_classical_has_no_bounds():
    row = run_point(_spec(model="classical"))
    assert row.f_mean == pytest.approx(classical_expected(make_power_law(64, -1.0)))
    assert row.lower_bound is None
    assert row.upper_bound is None


def test_run_point_exact_unknown():
    row = run_point(_spec(model="unknown"))
    want = unknown_expected_mu(make_power_law(64, -1.0))
    assert row.f_mean == pytest.approx(want.f_mean)
    assert row.omu_mean == pytest.approx(want.o_mu_mean)
    assert row.omuinv_mean == pytest.approx(want.o_mu_inv_mean)
    assert row.upper_bound is not None


def test_emitted_rows_respect_bounds():
    # every emitted row must sandwich its measurement between its bound columns
    for model in ("geometric", "unknown"):
        for k in (-0.5, -1.0, -2.0):
            spec = SweepSpec.from_config(
                {"dist": {"kind": "powerlaw", "k": k}, "model": model,
                 "n_grid": [16, 64, 256, 1024]}, need_grid=True)
            for row in run_sweep(spec):
                assert row.lower_bound <= row.f_mean <= row.upper_bound


def test_run_point_nondefault_ratio_drops_upper_bound():
    row = run_point(_spec(model="geometric", k_algorithm=2.0))
    assert row.lower_bound is not None
    assert row.upper_bound is None
    row = run_point(_spec(model="unknown", k_algorithm=1.2))
    assert row.upper_bound is None


# ---------------------------------------------------------------------------
# one walk over the advice per row

_WALK_N = 3 * 2**16 + 5


def _record_walks(monkeypatch):
    """Make every walk that the models and the bounds take (_rank_weighted_sums
    or _linear_sums, not the dist build's alpha) record its block length and
    the first rank of each block it visits."""
    walks = []

    def recorder(walk):
        def recording(dist, fn, stops=None, **options):
            firsts = []

            def visit(block, ranks, worker):
                firsts.append(int(ranks[0]))
                return fn(block, ranks, worker)

            walks.append((options.get("step", distributions._BUILD_STEP), firsts))
            return walk(dist, visit, stops, **options)
        return recording

    for module in (algorithms, bounds):
        for name in ("_rank_weighted_sums", "_linear_sums"):
            monkeypatch.setattr(module, name, recorder(getattr(module, name)))
    return walks


@pytest.mark.parametrize("model,ratio,step", [
    ("classical", None, 2**16), ("classical", 1.5, 2**16),
    ("geometric", None, 2**16), ("geometric", 2.0, 2**16),
    ("unknown", None, algorithms._SUB_BLOCK), ("unknown", 1.3, algorithms._SUB_BLOCK)])
def test_exact_row_is_one_walk(monkeypatch, model, ratio, step):
    # the model's means and the row's bound columns come from one pass over
    # the advice that visits each of its blocks once: all ceil(n / step) for
    # the oracle-only model, and for the scan and the block search only the
    # first 2^16 ranks, as a power law's ranks past them are power sums
    walks = _record_walks(monkeypatch)
    spec = SweepSpec(dist_cfg={"kind": "powerlaw", "n": _WALK_N, "k": -0.75},
                     model=model, k_algorithm=ratio)
    row = run_point(spec)
    last = _WALK_N if model == "unknown" else distributions._BUILD_STEP
    assert [(size, sorted(firsts)) for size, firsts in walks] == [
        (step, list(range(1, last + 1, step)))]
    assert len(walks[0][1]) == -(-last // step)
    assert (row.lower_bound is None) == (model == "classical")
    assert (row.upper_bound is None) == (model == "classical" or ratio is not None)


@pytest.mark.parametrize("model,count", [("classical", 0), ("geometric", 1), ("unknown", 1)])
def test_monte_carlo_row_walks_only_its_bounds(monkeypatch, model, count):
    # the oracle-only ceiling walks every rank; the linear bound column
    # only the first 2^16, its power law's ranks past them being a power sum
    walks = _record_walks(monkeypatch)
    spec = SweepSpec(dist_cfg={"kind": "powerlaw", "n": _WALK_N, "k": -0.75},
                     model=model, mode="monte_carlo", trials=200)
    run_point(spec)
    last = _WALK_N if model == "unknown" else 2**16
    assert [(size, sorted(firsts)) for size, firsts in walks] == [
        (2**16, list(range(1, last + 1, 2**16)))] * count


# grid points at and around the walk's 2^16-rank blocks: inside the first
# block, at its end, one rank into the next, inside later blocks, at later ends
_SCAN_NS = (1, 2, 1000, 2**16 - 1, 2**16, 2**16 + 1, 100_003, 2**17, 3 * 2**16 + 5)


@settings(max_examples=25, deadline=None)
@given(model=st.sampled_from(("classical", "geometric")),
       k=st.floats(-3.0, -1e-300),
       ratio=st.sampled_from((None, 2.0, 1.5, 1.01)),
       grid=st.lists(st.sampled_from(_SCAN_NS) | st.integers(1, 3 * 2**16 + 5),
                     min_size=1, max_size=4, unique=True).map(sorted),
       large=st.booleans(),
       workers=st.sampled_from((1, 2)))
def test_one_walk_sweep_matches_per_element_rows(model, k, ratio, grid, large, workers):
    # a classical or geometric sweep takes one walk over the first 2^16
    # ranks' x^k that stops at each n, and power sums past them, on one or
    # two threads: alpha keeps the bits of power_law_alpha at every stop,
    # and each row agrees at rtol 1e-14 with alpha * x^k made per element
    # and dotted row by row; a row has the same bits for either thread count
    grid = grid + [2**22 + 3] * large
    spec = SweepSpec(dist_cfg={"kind": "powerlaw", "k": k}, model=model,
                     n_grid=tuple(grid), k_algorithm=ratio)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributions, "_walk_workers", lambda n, step: workers)
        rows = run_sweep(spec)
        alphas = list(distributions._linear_sums(
            distributions._weights(grid[-1], k), lambda block, ranks, worker: (), stops=grid))
        patch.setattr(distributions, "_walk_workers", lambda n, step: 3 - workers)
        assert run_sweep(spec) == rows
    assert [row.n for row in rows] == grid
    for n, row, (alpha,) in zip(grid, rows, alphas):
        assert alpha == power_law_alpha(n, k), (n, k)
        f, sqrt_ranks = ref_scan_row(model, n, k, alpha, ratio or algorithms.DEFAULT_GEOMETRIC_RATIO)
        assert row.f_mean == pytest.approx(f, rel=1e-14, abs=0), n
        if model == "classical":
            assert row.lower_bound is None and row.upper_bound is None
            continue
        # the lower bound 0.206 S - 1 may sit near 0: within 1e-14 of its scale
        lower = bounds.LAS_VEGAS_COEFF * sqrt_ranks
        assert abs(row.lower_bound - (lower - 1.0)) <= 1e-14 * lower, n
        if ratio is None:
            assert row.upper_bound == pytest.approx(math.pi * math.e * sqrt_ranks, rel=1e-14, abs=0)
        else:
            assert row.upper_bound is None


@pytest.mark.parametrize("model", ("classical", "geometric"))
def test_one_walk_sweep_timing_column(model):
    # under timing a row's seconds are the walk's since the previous row:
    # each positive, together within the sweep's wall time
    spec = SweepSpec.from_config(
        {"dist": {"kind": "powerlaw", "k": -1.0}, "model": model,
         "n_grid": [1000, 2**16, 2**17 + 3, 2**18]}, need_grid=True)
    started = time.perf_counter()
    rows = run_sweep(spec, timing=True)
    wall = time.perf_counter() - started
    assert all(row.seconds > 0.0 for row in rows), rows
    assert math.fsum(row.seconds for row in rows) <= wall
    assert all(row.seconds == 0.0 for row in run_sweep(spec))


@pytest.mark.parametrize("model", ("classical", "geometric"))
def test_exact_rows_past_memory(monkeypatch, model):
    # at n = 2^40, past the memory check (patched here), a classical or
    # geometric row and its bounds take under a second, as every rank past
    # 2^16 is in a power sum, and agree within 1e-13 with exact sums
    monkeypatch.setattr(distributions, "_physical_memory", lambda: 2**62)
    n, k = 2**40, -0.75
    started = time.perf_counter()
    row = run_point(SweepSpec(dist_cfg={"kind": "powerlaw", "n": n, "k": k}, model=model))
    lower, upper = bounds.row_bounds(make_power_law(n, k), model)
    assert time.perf_counter() - started < 1.0
    weight = ref_power_sum(k, 0, n)
    if model == "classical":
        f = ref_power_sum(mpmath.mpf(k) + 1, 0, n) / weight
    else:
        cost, f = 0, 0
        for start, end, size in ref_blocks(n, algorithms.DEFAULT_GEOMETRIC_RATIO):
            cost += ref_grover_queries(size, zero_or_one=True)
            f += cost * ref_power_sum(k, start - 1, end) / weight
    sqrt_ranks = ref_power_sum(mpmath.mpf(k) + 0.5, 0, n) / weight
    assert abs(row.f_mean - f) <= 1e-13 * f
    scale = bounds.LAS_VEGAS_COEFF * sqrt_ranks
    assert abs(lower - (scale - 1)) <= 1e-13 * scale
    if model == "geometric":
        assert (row.lower_bound, row.upper_bound) == (lower, upper)
        assert abs(upper - math.pi * math.e * sqrt_ranks) <= 1e-13 * math.pi * math.e * sqrt_ranks


def test_slow_ratio_sweep_takes_no_longer_than_the_walk():
    # a block-search sweep to 2^24 at ratio 1.0001 sums ~74,000 schedule
    # pieces past 2^16 per row in one vectorized call: best of two runs
    # under 0.86 s (the walk over every rank took 0.53-0.86 s on 2 vCPUs)
    spec = SweepSpec.from_config(
        {"dist": {"kind": "powerlaw", "k": -1.0}, "model": "geometric", "k_algorithm": 1.0001,
         "n_grid": [2**e for e in range(10, 25, 2)]}, need_grid=True)
    times = []
    for _ in range(2):
        started = time.perf_counter()
        run_sweep(spec)
        times.append(time.perf_counter() - started)
    assert min(times) < 0.86, times


@pytest.mark.parametrize("model,mode,grid", [
    ("unknown", "exact", [2**10, 2**12, 2**45]),
    ("classical", "monte_carlo", [2**10, 2**12, 2**45]),
    ("unknown", "monte_carlo", [2**10, 2**45])])
def test_sweep_refuses_a_bad_grid_point_before_any_row(monkeypatch, model, mode, grid):
    # every grid n is checked before the first row is built, not when the
    # rows before it are done
    def no_row(*args, **kwargs):
        raise AssertionError("a row was built before the grid was checked")

    for name in ("unknown_expected_mu", "monte_carlo", "exact_expected"):
        monkeypatch.setattr(algorithms, name, no_row)
    monkeypatch.setattr(sweep, "dist_from_config", no_row)
    spec = SweepSpec.from_config({"dist": {"kind": "powerlaw", "k": -0.75}, "model": model,
                                  "mode": mode, "n_grid": grid}, need_grid=True)
    with pytest.raises(ParameterError, match="bytes for its probabilities"):
        run_sweep(spec)


def test_run_point_monte_carlo_has_stderr():
    row = run_point(_spec(model="unknown", mode="monte_carlo", trials=2000, seed=9))
    assert row.mode == "monte_carlo"
    assert row.f_stderr > 0.0
    assert row.omu_stderr > 0.0


def test_run_point_timing_column():
    row = run_point(_spec(), timing=True)
    assert row.seconds > 0.0
    row = run_point(_spec(), timing=False)
    assert row.seconds == 0.0


def test_csv_round_trip(tmp_path):
    spec = SweepSpec.from_config(
        {"dist": {"kind": "powerlaw", "k": -1.0}, "model": "unknown",
         "n_grid": [16, 64, 256], "mode": "monte_carlo", "trials": 300,
         "seed": 5}, need_grid=True)
    rows = run_sweep(spec)
    text = rows_to_csv(rows)
    path = tmp_path / "out.csv"
    path.write_text(text, encoding="utf-8")
    back = read_rows(str(path))
    # 10 significant digits per field: parse-and-rewrite is a fixed point
    assert rows_to_csv(back) == text
    assert [r.n for r in back] == [r.n for r in rows]
    for parsed, original in zip(back, rows):
        assert parsed.f_mean == pytest.approx(original.f_mean, rel=1e-9)


def test_csv_writes_n_as_exact_integer(tmp_path):
    # n is an integer column, never %.10g text; the optional columns are
    # empty when None and read back as None
    row = SweepRow(n=2**40, k_dist=None, model="unknown", mode="exact",
                   f_mean=1.5, f_stderr=0.0, omu_mean=2.5, omu_stderr=0.0,
                   omuinv_mean=0.5, omuinv_stderr=0.0, lower_bound=None,
                   upper_bound=None, seconds=0.0)
    text = rows_to_csv([row])
    assert text.splitlines()[1] == "1099511627776,,unknown,exact,1.5,0,2.5,0,0.5,0,,,0"
    path = tmp_path / "wide.csv"
    path.write_text(text, encoding="utf-8")
    (back,) = read_rows(str(path))
    assert back.n == 2**40 and type(back.n) is int
    assert back == row


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_rows(str(path))
    path.write_text(",".join(HEADER) + "\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_rows(str(path))


def test_sweep_rows_follow_grid_order():
    spec = SweepSpec.from_config(
        {"dist": {"kind": "powerlaw", "k": -0.5}, "model": "classical",
         "n_grid": [8, 32, 128]}, need_grid=True)
    rows = run_sweep(spec)
    assert [row.n for row in rows] == [8, 32, 128]


def test_sweep_per_point_seeds_differ():
    spec = SweepSpec.from_config(
        {"dist": {"kind": "powerlaw", "n": 64, "k": -1.0}, "model": "unknown",
         "mode": "monte_carlo", "trials": 500, "seed": 3}, need_grid=False)
    row_a = run_point(dataclasses.replace(spec, seed=101))
    row_b = run_point(dataclasses.replace(spec, seed=202))
    assert row_a.f_mean != row_b.f_mean


def test_spec_validation_errors():
    base = {"dist": {"kind": "powerlaw", "k": -1.0}, "model": "unknown"}
    with pytest.raises(ConfigError):
        SweepSpec.from_config({**base, "model": "alien"}, need_grid=False)
    with pytest.raises(ConfigError):
        SweepSpec.from_config({**base, "mode": "psychic"}, need_grid=False)
    with pytest.raises(ConfigError):
        SweepSpec.from_config({**base, "bogus_key": 1}, need_grid=False)
    with pytest.raises(ConfigError):
        SweepSpec.from_config({**base}, need_grid=True)  # missing n_grid
    with pytest.raises(ConfigError):
        SweepSpec.from_config({**base, "n_grid": [4.5]}, need_grid=True)
    with pytest.raises(ParameterError):
        SweepSpec.from_config({**base, "n_grid": [0, 4]}, need_grid=True)
    with pytest.raises(ParameterError):
        SweepSpec.from_config({**base, "n_grid": [64, 16]}, need_grid=True)
    with pytest.raises(ParameterError):
        SweepSpec.from_config({**base, "trials": 0}, need_grid=False)
    with pytest.raises(ConfigError):
        SweepSpec.from_config({**base, "trials": "many"}, need_grid=False)
    with pytest.raises(ParameterError):
        SweepSpec.from_config(
            {"dist": {"kind": "explicit", "weights": [1, 2]},
             "model": "unknown", "n_grid": [4, 8]}, need_grid=True)


def test_spec_overrides_replace_config_values():
    cfg = {"dist": {"kind": "powerlaw", "n": 32, "k": -1.0},
           "model": "unknown", "mode": "exact", "trials": 10, "seed": 1}
    spec = SweepSpec.from_config(cfg, need_grid=False,
                                 overrides={"mode": "monte_carlo",
                                            "trials": 99, "seed": None})
    assert spec.mode == "monte_carlo"
    assert spec.trials == 99
    assert spec.seed == 1  # None override leaves the config value


def test_fmt_precision_round_trips():
    row = SweepRow(n=7, k_dist=-1.0, model="unknown", mode="exact",
                   f_mean=math.pi * 100, f_stderr=0.0, omu_mean=1e-7,
                   omu_stderr=0.0, omuinv_mean=0.0, omuinv_stderr=0.0,
                   lower_bound=None, upper_bound=None, seconds=0.0)
    text = row.to_csv()
    parts = text.split(",")
    assert float(parts[4]) == pytest.approx(math.pi * 100, rel=1e-9)
    assert parts[10] == "" and parts[11] == ""


def test_fit_slope_recovers_synthetic_exponent():
    ns = np.array([2**j for j in range(8, 20)])
    means = 3.7 * ns.astype(float) ** 0.5
    slope, r2 = fit_slope(ns, means)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_validation():
    with pytest.raises(ParameterError):
        fit_slope([10, 20], [1.0, 2.0])
    with pytest.raises(ParameterError):
        fit_slope([10, 20, 30], [1.0, -2.0, 3.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            fit_slope([10, 20, 30], [1.0, bad, 3.0])
        with pytest.raises(ParameterError, match="finite"):
            fit_slope([10, 20, bad], [1.0, 2.0, 3.0])


def test_fit_scaling_drops_smallest_and_groups():
    rows = []
    for model, scale in (("classical", 1.0), ("geometric", 0.5)):
        for j in range(2, 10):
            n = 2**j
            # transient constant spoils the smallest sizes
            mean = (50.0 if j < 4 else 0.0) + 2.0 * n**scale
            rows.append(SweepRow(n=n, k_dist=-1.0, model=model, mode="exact",
                                 f_mean=mean, f_stderr=0.0, omu_mean=0.0,
                                 omu_stderr=0.0, omuinv_mean=0.0,
                                 omuinv_stderr=0.0, lower_bound=None,
                                 upper_bound=None, seconds=0.0))
    fits = fit_scaling(rows, drop_smallest=2)
    assert len(fits) == 2
    by_model = {fit.model: fit for fit in fits}
    assert by_model["classical"].alpha == pytest.approx(1.0, abs=1e-9)
    assert by_model["geometric"].alpha == pytest.approx(0.5, abs=1e-9)
    assert by_model["classical"].points == 6


def test_fit_scaling_needs_enough_points():
    rows = [SweepRow(n=2**j, k_dist=-1.0, model="unknown", mode="exact",
                     f_mean=float(2**j), f_stderr=0.0, omu_mean=0.0,
                     omu_stderr=0.0, omuinv_mean=0.0, omuinv_stderr=0.0,
                     lower_bound=None, upper_bound=None, seconds=0.0)
            for j in range(4)]
    with pytest.raises(ParameterError):
        fit_scaling(rows, drop_smallest=2)

"""Golden outputs: CLI results that refactors must leave byte-identical.

The files under tests/golden/ hold the output of the calls below; this test
only reads them and never rewrites them.  Monte Carlo configs use seed 7
and 300 trials for ``run``, seed 5 and 200 trials for ``sweep``.

* ``run <cfg> --out run_<dist>_<model>_<mode>[_k<ratio>].csv`` for every
  model x mode on four distributions: ``pl`` = powerlaw n=200 k=-1.25;
  ``deg`` = explicit [1.0, 1e-13, 3e-14, 1e-15] + [1e-13]*60, whose small
  ranks have p below the degenerate-angle cutoff; ``flat`` = explicit
  [1]*50 + [0]*3; ``top`` = explicit [1.0] + [1e-15]*100, whose first rank
  has 1-p below it.  Classical runs once per mode; geometric and unknown run
  at their default ratio and at 2.0 and 1.3 respectively.
* ``sweep <cfg> --out sweep_<model>_<mode>_k<k>.csv`` for every model x
  mode at powerlaw k in {-0.75, -2.5} on n_grid [16, 64, 256, 1024, 4096,
  65536].
* ``fit sweep_<...>.csv --out fit_<...>.txt`` on each golden sweep file.
* ``validate --trials 500 --out validate.txt``, keeping the status and
  name of each line and the summary line.  The deviation figures after
  " - " are left out: they measure the float error of the checks' own
  brute-force references, not the program's output.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from advice_search import algorithms, dist_from_config, read_rows
from advice_search.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

DISTS = {
    "pl": {"kind": "powerlaw", "n": 200, "k": -1.25},
    "deg": {"kind": "explicit", "weights": [1.0, 1e-13, 3e-14, 1e-15] + [1e-13] * 60},
    "flat": {"kind": "explicit", "weights": [1] * 50 + [0] * 3},
    "top": {"kind": "explicit", "weights": [1.0] + [1e-15] * 100},
}
RATIOS = {"classical": (None,), "geometric": (None, 2.0), "unknown": (None, 1.3)}
MODES = ("exact", "monte_carlo")
GRID = [16, 64, 256, 1024, 4096, 65536]


def _run_cases():
    for dist_name, dist in DISTS.items():
        for model, ratios in RATIOS.items():
            for mode in MODES:
                for ratio in ratios:
                    cfg = {"dist": dist, "model": model, "mode": mode,
                           "trials": 300, "seed": 7}
                    name = f"run_{dist_name}_{model}_{mode}"
                    if ratio is not None:
                        cfg["k_algorithm"] = ratio
                        name += f"_k{ratio:g}"
                    yield pytest.param("run", cfg, name + ".csv", id=name)


SWEEPS = [(model, mode, k) for model in RATIOS for mode in MODES for k in (-0.75, -2.5)]


def _sweep_name(model: str, mode: str, k: float) -> str:
    return f"{model}_{mode}_k{k:g}"


def _sweep_cases():
    for model, mode, k in SWEEPS:
        cfg = {"dist": {"kind": "powerlaw", "k": k}, "model": model, "mode": mode,
               "n_grid": GRID, "trials": 200, "seed": 5}
        name = "sweep_" + _sweep_name(model, mode, k)
        yield pytest.param("sweep", cfg, name + ".csv", id=name)


CASES = [*_run_cases(), *_sweep_cases()]


@pytest.mark.parametrize("command,cfg,name", [
    case for case in CASES if "unknown_monte_carlo" in case.id])
def test_golden_unknown_monte_carlo_near_exact(command, cfg, name):
    # each pinned oracle-only estimate is within 4 stderr of the exact mean
    for row in read_rows(str(GOLDEN / name)):
        dist = dist_from_config({**cfg["dist"], "n": row.n} if command == "sweep"
                                else cfg["dist"])
        exact = algorithms.unknown_expected_mu(
            dist, cfg.get("k_algorithm", algorithms.DEFAULT_AMPLIFY_RATIO))
        estimates = ((row.f_mean, row.f_stderr), (row.omu_mean, row.omu_stderr),
                     (row.omuinv_mean, row.omuinv_stderr))
        for target, (estimate, err) in zip(exact.means(), estimates):
            assert abs(estimate - target) <= 4.0 * err + 1e-9, (row.n, target, estimate)


def _validate_lines(text: str) -> str:
    return "".join(line.split(" - ", 1)[0] + "\n" for line in text.splitlines())


@pytest.mark.parametrize("command,cfg,name", CASES)
def test_golden_run_and_sweep(command, cfg, name, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / name
    assert main([command, str(cfg_path), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", [_sweep_name(*sweep) for sweep in SWEEPS])
def test_golden_fit(name, tmp_path):
    out = tmp_path / "fit.txt"
    assert main(["fit", str(GOLDEN / f"sweep_{name}.csv"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"fit_{name}.txt").read_bytes()


def test_golden_validate(tmp_path):
    out = tmp_path / "validate.txt"
    assert main(["validate", "--trials", "500", "--out", str(out)]) == 0
    expected = (GOLDEN / "validate.txt").read_text(encoding="utf-8")
    assert _validate_lines(out.read_text(encoding="utf-8")) == expected

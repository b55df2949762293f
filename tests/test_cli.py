from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import advice_search.bounds
from advice_search import HEADER, cli
from advice_search.cli import main


def _write_cfg(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def run_cfg(tmp_path):
    return _write_cfg(tmp_path / "run.json",
                      {"dist": {"kind": "powerlaw", "n": 64, "k": -1.0},
                       "model": "geometric"})


@pytest.fixture
def sweep_cfg(tmp_path):
    return _write_cfg(tmp_path / "sweep.json",
                      {"dist": {"kind": "powerlaw", "k": -1.0},
                       "model": "unknown", "mode": "monte_carlo",
                       "n_grid": [16, 64, 256], "trials": 300, "seed": 11})


def test_run_prints_header_and_row(run_cfg, capsys):
    assert main(["run", run_cfg]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(HEADER)
    assert len(lines) == 2
    assert lines[1].startswith("64,-1,geometric,exact,")


def test_run_writes_file(run_cfg, tmp_path, capsys):
    out_path = tmp_path / "row.csv"
    assert main(["run", run_cfg, "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith(",".join(HEADER) + "\n")


def test_run_mode_override(run_cfg, capsys):
    assert main(["run", run_cfg, "--mode", "monte_carlo", "--trials", "200",
                 "--seed", "4"]) == 0
    line = capsys.readouterr().out.strip().split("\n")[1]
    assert ",monte_carlo," in line


def test_sweep_writes_rows_in_grid_order(sweep_cfg, tmp_path):
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", sweep_cfg, "--out", str(out_path)]) == 0
    lines = out_path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == ",".join(HEADER)
    assert [line.split(",")[0] for line in lines[1:]] == ["16", "64", "256"]


def test_sweep_rerun_is_byte_identical(sweep_cfg, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", sweep_cfg, "--out", str(a)]) == 0
    assert main(["sweep", sweep_cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _main_in_fresh_process(argv):
    """Exit code, stdout and stderr of main(argv) run first in a new process."""
    package_root = os.path.dirname(os.path.dirname(advice_search.bounds.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from advice_search.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, timeout=120, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_calls_in_one_process_share_the_parser_and_no_options(run_cfg, sweep_cfg, tmp_path,
                                                              capsys, caplog):
    # main builds its parser once a process; each call's output is the same
    # call's made first in a new process, so no option leaks into the next
    # call: after a timed run (its log line and seconds differ run to run),
    # a Monte Carlo run, then a plain (exact) one, a sweep, a fit of that
    # sweep and a usage error, none of which logs
    sweep_csv = tmp_path / "sweep.csv"
    assert _main_in_fresh_process(["sweep", sweep_cfg, "--out", str(sweep_csv)])[0] == 0
    assert main(["run", run_cfg, "--timing"]) == 0
    capsys.readouterr()
    assert [record.name for record in caplog.records] == ["advice_search"]
    caplog.clear()
    calls = [["run", run_cfg, "--mode", "monte_carlo", "--trials", "50"], ["run", run_cfg],
             ["sweep", sweep_cfg], ["fit", str(sweep_csv)], ["sweep", sweep_cfg, "--mode", "x"]]
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        got = (code, captured.out.encode(), captured.err.encode())
        assert got == _main_in_fresh_process(argv), argv
    assert code == 2
    assert not caplog.records
    assert cli._build_parser.cache_info().misses == 1   # built once in this process


def test_fit_reports_slope(sweep_cfg, tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    main(["sweep", sweep_cfg, "--out", str(out_path)])
    assert main(["fit", str(out_path), "--drop", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("model=unknown k_dist=-1 alpha=")
    assert "r2=" in out and "points=3" in out


def test_fit_synthetic_square_root(tmp_path, capsys):
    rows = [",".join(HEADER)]
    for j in range(4, 14):
        n = 2**j
        rows.append(f"{n},-1,geometric,exact,{2.5 * n**0.5!r},0,0,0,0,0,,,0")
    csv = tmp_path / "synth.csv"
    csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["fit", str(csv)]) == 0
    line = capsys.readouterr().out.strip()
    alpha = float(line.split("alpha=")[1].split()[0])
    r2 = float(line.split("r2=")[1].split()[0])
    assert alpha == pytest.approx(0.5, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-9)


def test_exit_code_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    missing_model = _write_cfg(tmp_path / "m.json",
                               {"dist": {"kind": "powerlaw", "n": 4, "k": -1.0}})
    assert main(["run", missing_model]) == 2

    unknown_key = _write_cfg(tmp_path / "u.json",
                             {"dist": {"kind": "powerlaw", "n": 4, "k": -1.0},
                              "model": "classical", "frobnicate": 1})
    assert main(["run", unknown_key]) == 2

    assert main(["run", str(tmp_path / "does-not-exist.json")]) == 2

    # a dist with an unknown or missing kind is malformed in a sweep as in a
    # run (an explicit dist in a sweep is a parameter error, exit 3)
    for dist in ({"kind": "gaussian", "k": -1.0}, {"k": -1.0}, {"kind": ["powerlaw"], "k": -1.0}):
        cfg = {"dist": dist, "model": "unknown"}
        assert main(["run", _write_cfg(tmp_path / "r.json", cfg)]) == 2
        cfg["n_grid"] = [4, 8, 16]
        assert main(["sweep", _write_cfg(tmp_path / "s.json", cfg)]) == 2

    # a weight that is not a JSON number is malformed, not a numpy traceback
    # and not parsed: "1" is not 1, true is not 1, null is not NaN
    for weights in (["a", 1], [[1, 2], [3]], [{"w": 1}, 1], ["1", 2], [True, 1],
                    [None, 1]):
        cfg = _write_cfg(tmp_path / "w.json",
                         {"dist": {"kind": "explicit", "weights": weights},
                          "model": "classical"})
        assert main(["run", cfg]) == 2
    assert "error:" in capsys.readouterr().err

    # an integer literal longer than int() parses is malformed, not a traceback
    long_int = tmp_path / "long.json"
    long_int.write_text('{"dist": {"kind": "powerlaw", "n": ' + "1" * 5000 + ', "k": -1.0}, '
                        '"model": "classical"}', encoding="utf-8")
    assert main(["run", str(long_int)]) == 2

    # bytes that are not UTF-8 are a malformed input, not a decode traceback
    binary = tmp_path / "bad.bin"
    binary.write_bytes(b"\xff\xfe")
    assert main(["run", str(binary)]) == 2
    assert main(["fit", str(binary)]) == 2
    assert "UTF-8" in capsys.readouterr().err

    # "out" names a file: true, 5 or null would reach open() as a file
    # descriptor or as stdout, a list or mapping would raise TypeError
    for out in (["a"], {}, True, 5, None):
        cfg = _write_cfg(tmp_path / "o.json",
                         {"dist": {"kind": "powerlaw", "n": 4, "k": -1.0},
                          "model": "classical", "out": out})
        assert main(["run", cfg]) == 2
        assert "out must be a string" in capsys.readouterr().err


_JSON_WEIGHT = st.one_of(
    st.integers(),
    st.sampled_from([0, 10**400, -(10**400), 1e308, 5e-324, -1.0]),
    st.floats(),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)


@given(weights=st.lists(_JSON_WEIGHT, max_size=8),
       model=st.sampled_from(["classical", "geometric", "unknown"]))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_explicit_weights_end_in_row_or_clean_exit(tmp_path, weights, model):
    cfg = _write_cfg(tmp_path / "p.json",
                     {"dist": {"kind": "explicit", "weights": weights}, "model": model})
    assert main(["run", cfg]) in (0, 2, 3)


def test_exit_code_parameter_range(tmp_path):
    bad_k = _write_cfg(tmp_path / "k.json",
                       {"dist": {"kind": "powerlaw", "n": 4, "k": 1.0},
                        "model": "classical"})
    assert main(["run", bad_k]) == 3

    bad_grid = _write_cfg(tmp_path / "g.json",
                          {"dist": {"kind": "powerlaw", "k": -1.0},
                           "model": "unknown", "n_grid": [64, 16]})
    assert main(["sweep", bad_grid]) == 3

    bad_ratio = _write_cfg(tmp_path / "r.json",
                           {"dist": {"kind": "powerlaw", "n": 16, "k": -1.0},
                            "model": "unknown", "k_algorithm": 2.0})
    assert main(["run", bad_ratio]) == 3

    # an integer k or k_algorithm beyond the float range, and a NaN ratio
    # even where the model takes none, are out of range, not a traceback
    # or a row
    for name, dist_k, model, ratio in (("k400", -(10**400), "classical", None),
                                       ("r400", -1.0, "geometric", 10**400),
                                       ("nan", -1.0, "classical", math.nan)):
        cfg = {"dist": {"kind": "powerlaw", "n": 16, "k": dist_k}, "model": model}
        if ratio is not None:
            cfg["k_algorithm"] = ratio
        assert main(["run", _write_cfg(tmp_path / f"{name}.json", cfg)]) == 3

    # an integer weight beyond the float range is out of range, not a traceback
    huge = _write_cfg(tmp_path / "h.json",
                      {"dist": {"kind": "explicit", "weights": [10**400, 1]},
                       "model": "classical"})
    assert main(["run", huge]) == 3

    explicit_sweep = _write_cfg(tmp_path / "e.json",
                                {"dist": {"kind": "explicit", "weights": [1, 2]},
                                 "model": "unknown", "n_grid": [4, 8]})
    assert main(["sweep", explicit_sweep]) == 3

    # a negative seed is a range problem, never numpy's traceback or a
    # failed validation
    mc = {"dist": {"kind": "powerlaw", "n": 16, "k": -1.0}, "model": "unknown",
          "mode": "monte_carlo", "trials": 10}
    assert main(["run", _write_cfg(tmp_path / "s.json", {**mc, "seed": -1})]) == 3
    assert main(["run", _write_cfg(tmp_path / "s0.json", mc), "--seed", "-1"]) == 3
    sweep = {**mc, "dist": {"kind": "powerlaw", "k": -1.0}, "n_grid": [4, 8]}
    assert main(["sweep", _write_cfg(tmp_path / "sw.json", sweep), "--seed", "-1"]) == 3
    assert main(["validate", "--seed", "-1"]) == 3

    # a power-law n too large to allocate fails in malloc at once
    started = time.perf_counter()
    huge_n = _write_cfg(tmp_path / "n.json",
                        {"dist": {"kind": "powerlaw", "n": 2**50, "k": -1.0},
                         "model": "classical"})
    assert main(["run", huge_n]) == 3
    assert time.perf_counter() - started < 5.0

    # sizes beyond the address space are refused before numpy sees them
    for name, n in (("n62", 2**62), ("n30", 10**30)):
        cfg = _write_cfg(tmp_path / f"{name}.json",
                         {"dist": {"kind": "powerlaw", "n": n, "k": -1.0},
                          "model": "classical"})
        assert main(["run", cfg]) == 3
    huge_trials = _write_cfg(tmp_path / "t.json", {**mc, "trials": 2**62})
    assert main(["run", huge_trials]) == 3


@pytest.mark.parametrize("model", ("classical", "geometric", "unknown"))
def test_sweep_checks_every_grid_point(tmp_path, model):
    # each grid n is checked as its own row's dist would check it, whether
    # the rows take one walk (classical, geometric) or one walk each
    cases = (({"kind": "powerlaw", "k": -1.0}, [16, 2**50], None, 3),   # too large to hold
             ({"kind": "powerlaw", "k": 1.0}, [16, 64], None, 3),
             ({"kind": "powerlaw", "k": "x"}, [16, 64], None, 2),
             ({"kind": "powerlaw"}, [16, 64], None, 2),
             ({"kind": "powerlaw", "k": -1.0, "scale": 2}, [16, 64], None, 2),
             ({"kind": "powerlaw", "k": -1.0}, [16, 10**6], 1.0 + 1e-9, 3))
    started = time.perf_counter()
    for i, (dist, grid, ratio, code) in enumerate(cases):
        cfg = {"dist": dist, "model": model, "n_grid": grid}
        if ratio is not None and model != "classical":
            cfg["k_algorithm"] = ratio
        elif ratio is not None:
            code = 0
        assert main(["sweep", _write_cfg(tmp_path / f"{i}.json", cfg),
                     "--out", str(tmp_path / f"{i}.csv")]) == code, (dist, grid)
    assert time.perf_counter() - started < 10.0


def test_exit_code_schedule_ratio_near_one(tmp_path, capsys):
    # ~1e9-step schedules are refused up front instead of looping
    started = time.perf_counter()
    for model, n, k in (("unknown", 16, 1.000000001), ("geometric", 10**6, 1.0 + 1e-9)):
        cfg = _write_cfg(tmp_path / f"{model}.json",
                         {"dist": {"kind": "powerlaw", "n": n, "k": -1.0},
                          "model": model, "k_algorithm": k})
        assert main(["run", cfg]) == 3
        assert "schedule entries" in capsys.readouterr().err
    assert time.perf_counter() - started < 5.0
    # a huge finite ratio is a one- or two-block schedule: a row, exact or
    # Monte Carlo, never a traceback
    for mode in ("exact", "monte_carlo"):
        cfg = _write_cfg(tmp_path / f"huge_{mode}.json",
                         {"dist": {"kind": "powerlaw", "n": 16, "k": -1.0},
                          "model": "geometric", "k_algorithm": 1e200,
                          "mode": mode, "trials": 50})
        assert main(["run", cfg]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("16,-1,geometric,")


def test_fit_rejects_non_finite_means(tmp_path, capsys):
    for bad in ("nan", "inf"):
        rows = [",".join(HEADER)]
        for j, mean in enumerate(("2", "4", bad, "16")):
            rows.append(f"{2**(j + 4)},-1,unknown,exact,{mean},0,1,0,0,0,,,0")
        csv = tmp_path / "bad.csv"
        csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["fit", str(csv), "--drop", "0"]) == 3
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert "alpha=" not in captured.out


def test_exit_code_unwritable_output(run_cfg):
    assert main(["run", run_cfg, "--out", "/nonexistent-dir/x.csv"]) == 4


def test_exit_code_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_no_subcommand_takes_cap(run_cfg, capsys):
    # run and sweep build no statevector, and validate's statevector inputs
    # stay far below the library cap, so no subcommand takes --cap
    for command in ("run", "sweep", "validate"):
        assert main([command, "--help"]) == 0
        assert "--cap" not in capsys.readouterr().out
    assert main(["run", run_cfg, "--cap", "8"]) == 2
    assert main(["validate", "--cap", "8"]) == 2
    capsys.readouterr()


def test_huge_explicit_weights_match_unit_weights(tmp_path, capsys):
    rows = []
    for weights in ([1e308, 1e308], [1, 1]):
        cfg = _write_cfg(tmp_path / "w.json",
                         {"dist": {"kind": "explicit", "weights": weights},
                          "model": "unknown"})
        assert main(["run", cfg]) == 0
        rows.append(capsys.readouterr().out)
    assert rows[0] == rows[1]


def test_validate_passes(capsys):
    assert main(["validate", "--trials", "2000"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_validate_out_file(tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert main(["validate", "--trials", "2000", "--out", str(report)]) == 0
    assert capsys.readouterr().out == ""
    assert "checks passed" in report.read_text(encoding="utf-8")


def test_validate_catches_corrupted_constant(monkeypatch, capsys):
    # sharpen the advertised lower-bound coefficient past what the grid
    # maximization supports and the chain check must fail
    monkeypatch.setattr(advice_search.bounds, "LAS_VEGAS_COEFF", 0.306)
    assert main(["validate", "--trials", "200"]) == 1
    out = capsys.readouterr().out
    assert "FAIL las-vegas-chain" in out


@pytest.mark.usefixtures("advice_search_launcher")
def test_console_script_entry_point(run_cfg):
    proc = subprocess.run(["advice-search", "run", run_cfg],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(HEADER))


def test_python_dash_m_entry_point(run_cfg):
    package_root = os.path.dirname(os.path.dirname(advice_search.bounds.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "advice_search", "run", run_cfg],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(",".join(HEADER))


def test_import_leaves_thread_pools_unloaded():
    # every walk runs in the calling thread: an exact oracle-only row of
    # explicit advice, four 2^14-rank sub-blocks, starts no thread and
    # imports no thread pool
    package_root = os.path.dirname(os.path.dirname(advice_search.bounds.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    script = ("import sys, threading, numpy as np\n"
              "from advice_search import make_explicit, unknown_expected_mu\n"
              "from advice_search.bounds import row_bounds\n"
              "d = make_explicit(np.ones(2**16))\n"
              "unknown_expected_mu(d), row_bounds(d, 'unknown')\n"
              "print('concurrent.futures' in sys.modules, threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1"]


# VmHWM is the peak of this process alone; ru_maxrss would not do, since a
# child started by vfork carries its parent's peak across exec
_RSS_SCRIPT = """
import sys
from advice_search.cli import main
for command, cfg in zip(sys.argv[1::2], sys.argv[2::2]):
    if main([command, cfg]) != 0:
        raise SystemExit(1)
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is in Linux's /proc")
def test_exact_runs_at_2_26_and_2_28_fit_in_64_mb(tmp_path):
    # a fresh process runs an exact classical and geometric row at n = 2^26,
    # a sweep of each to 2^26 in one walk, and an oracle-only row at 2^26 and
    # at 2^28: a power law's rows make their 128-rank head and take the rest
    # from power sums and panels, so the process holds no array of size n
    # (probs alone would be 512 MB at 2^26) and its peak stays near the
    # interpreter's own
    configs = []
    for model in ("classical", "geometric"):
        configs += ["run", _write_cfg(tmp_path / f"{model}.json",
                                      {"dist": {"kind": "powerlaw", "n": 2**26, "k": -0.75},
                                       "model": model})]
        configs += ["sweep", _write_cfg(tmp_path / f"{model}_sweep.json",
                                        {"dist": {"kind": "powerlaw", "k": -0.75}, "model": model,
                                         "n_grid": [2**20, 2**24 + 3, 2**26]})]
    for n in (2**26, 2**28):
        configs += ["run", _write_cfg(tmp_path / f"unknown_{n}.json",
                                      {"dist": {"kind": "powerlaw", "n": n, "k": -0.75},
                                       "model": "unknown"})]
    package_root = os.path.dirname(os.path.dirname(advice_search.bounds.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RSS_SCRIPT, *configs],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("67108864,") for line in lines) == 5, lines
    assert "67108864,-0.75,unknown,exact," in "\n".join(lines)
    assert "268435456,-0.75,unknown,exact," in "\n".join(lines)
    peak_mb = int(lines[-1]) / 1024   # VmHWM is in kB
    assert peak_mb < 64, peak_mb


def test_invalid_param_exit_code_matches_cli_contract(tmp_path):
    # trials of zero is a range problem, not a structural one
    cfg = _write_cfg(tmp_path / "t.json",
                     {"dist": {"kind": "powerlaw", "n": 8, "k": -1.0},
                      "model": "classical", "trials": 0})
    assert main(["run", cfg]) == 3

from __future__ import annotations

import ast
import importlib
import pathlib

import numpy as np
import pytest

import advice_search
from advice_search import algorithms, bounds, distributions, rotation, sweep, validation

MODULES = ["advice_search"] + [f"advice_search.{name}" for name in (
    "algorithms", "bounds", "cli", "distributions", "rotation", "statevector",
    "sweep", "validation")]

# Second copies of jobs that the CLI, validate and the benchmark do through
# other names (the single-trial oracle-only simulator, now the tests'
# reference), the worker counts of the removed sweep process pool and walk
# threads, the per-oracle counters of that simulator's old ledger, and
# helpers that only one caller or tests used; keeping one implementation per
# job means they stay gone.
REMOVED = (
    "classical_sequential", "geometric_search", "compute_bounds", "BoundReport",
    "zalka_bound", "las_vegas_lower", "StateVector", "prepare_mu", "aa_iteration",
    "grover_success", "exact_search", "worker_count", "QueryLedger", "RoundCost",
    "round_cost", "GeometricBlocks", "geometric_blocks", "unknown_upper_per_rank",
    "rotation_angle", "DEFAULT_DIM_CAP", "_check_length", "_check_rank",
    "q_mu_lower", "geometric_upper", "unknown_upper_mu", "_CEIL_SNAP", "_attempt_success",
    "_powers", "_floored_power", "_check_schedule_length", "_sums_at", "_kernel_workers",
    "_walk_workers", "unknown_search", "RunResult", "exact_expected", "_with_columns",
    "rooted", "_scaled_power_sums",
)

SOURCES = sorted(pathlib.Path(advice_search.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve_once(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ lists missing {name}"


def test_package_all_is_the_submodule_lists():
    # the package re-exports its submodules' public names; it never retypes them
    expected = ["statevector", "sweep"]
    for module in (algorithms, bounds, distributions, rotation, sweep, validation):
        expected += module.__all__
    assert advice_search.__all__ == expected


@pytest.mark.parametrize("module", MODULES)
def test_removed_names_are_gone(module):
    # neither a module nor a class it defines has the name
    mod = importlib.import_module(module)
    classes = [value for value in vars(mod).values()
               if isinstance(value, type) and value.__module__ == mod.__name__]
    for name in REMOVED:
        assert not hasattr(mod, name), f"{module}.{name}"
        for cls in classes:
            assert not hasattr(cls, name), f"{module}.{cls.__name__}.{name}"


def _bisections(path: pathlib.Path):
    """Names of the functions of a module that halve a range in a loop: a
    while loop that floor-divides by 2."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(loop, ast.While) and any(
                    isinstance(op, ast.BinOp) and isinstance(op.op, ast.FloorDiv)
                    and isinstance(op.right, ast.Constant) and op.right.value == 2
                    for op in ast.walk(loop))
                for loop in ast.walk(node)):
            yield node.name


def test_one_threshold_search(monkeypatch):
    # every "last rank with p >= t" is distributions._last_ranks_at_least:
    # no closed form beside it, no support count cached by the cdf pass, no
    # other bisection in src; a dist's own threshold ranks and a sweep's
    # cuts and ceilings go through it
    assert not hasattr(distributions.PowerLawSpec, "threshold_rank_closed_form")
    assert not hasattr(distributions.AdviceDistribution(1, np.ones(1)), "_support")
    package = pathlib.Path(advice_search.__file__).parent
    assert [name for path in sorted(package.glob("*.py")) for name in _bisections(path)] == [
        "_last_ranks_at_least"]
    calls = []
    search = distributions._last_ranks_at_least

    def counted(probs_at, ns, thresholds):
        calls.append(len(ns))
        return search(probs_at, ns, thresholds)

    for module in (distributions, algorithms):
        monkeypatch.setattr(module, "_last_ranks_at_least", counted)
    dist = distributions.make_power_law(1000, -1.0)
    assert dist.x0_threshold() > 0 and dist.support_size() == 1000
    grid = (2**10, 2**16, 2**20)
    sweep.run_sweep(sweep.SweepSpec(dist_cfg={"kind": "powerlaw", "k": -2.5}, model="unknown",
                                    n_grid=grid))
    assert calls == [1, 1, 2 * len(grid)]


def test_build_step_only_in_distributions():
    # _BUILD_STEP is the block length of explicit advice's walk, of a power
    # law's probs and cdf builds and of compensated_sum, all in
    # distributions.py: every power-law row makes only its 128-rank head
    def names(path):   # every name read, assigned or imported, and every attribute
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
                node, "name", None)

    users = [path.name for path in SOURCES if "_BUILD_STEP" in set(names(path))]
    assert users == ["distributions.py"], users


def _imported_names(tree: ast.Module):
    """Names that the import statements of a module bind, anywhere in it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names if alias.name != "*")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    # no linter runs on the package, so an import left behind by a refactor
    # is caught here: each imported name is read in its module or exported
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = "advice_search" if path.stem == "__init__" else f"advice_search.{path.stem}"
    exported = set(getattr(importlib.import_module(module), "__all__", ()))
    unused = sorted(set(_imported_names(tree)) - used - exported)
    assert not unused, f"{path.name} imports {unused} without using them"


def _trees():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]


def test_no_attribute_named_sums_or_dist_is_assigned():
    # a row's bound column sums and its dist travel as values through
    # algorithms._exact_rows, never as attributes that a walk overwrites
    def targets(node):
        if isinstance(node, ast.Assign):
            return node.targets
        return [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []

    assigned = [(node.lineno, target.attr) for tree in _trees() for node in ast.walk(tree)
                for top in targets(node) for target in ast.walk(top)
                if isinstance(target, ast.Attribute) and target.attr in ("sums", "dist")]
    assert not assigned, assigned


def test_every_private_helper_is_used():
    # no linter runs on the package, so a helper left behind by a refactor
    # is caught here: every _-prefixed top-level function and method of src
    # is read somewhere in src, by name or as an attribute
    trees = _trees()
    used = {node.id if isinstance(node, ast.Name) else node.attr for tree in trees
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    unused = []
    for tree in trees:
        for top in tree.body:
            for node in top.body if isinstance(top, ast.ClassDef) else [top]:
                if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                        and not node.name.startswith("__") and node.name not in used):
                    unused.append(node.name)
    assert not unused, unused


def test_every_row_path_enters_the_row_generator_once(monkeypatch):
    # every exact row and every row's bounds come from one call of
    # algorithms._exact_rows: a run of a power law or of explicit advice, a
    # whole sweep, row_bounds, and a Monte Carlo run's bounds
    calls = []
    rows = algorithms._exact_rows

    def counted(*args, **kwargs):
        calls.append(args[0])
        return rows(*args, **kwargs)

    monkeypatch.setattr(algorithms, "_exact_rows", counted)
    power_law = {"kind": "powerlaw", "n": 1000, "k": -1.5}
    explicit = {"kind": "explicit", "weights": [3.0, 1.0, 1.0, 0.0]}
    for model in algorithms.MODELS:
        for cfg in (power_law, explicit):
            for mode in sweep.MODES:
                calls.clear()
                sweep.run_point(sweep.SweepSpec(dist_cfg=cfg, model=model, mode=mode, trials=10))
                assert calls == [model if mode == "exact" else None], (model, cfg, mode)
        calls.clear()
        sweep.run_sweep(sweep.SweepSpec(dist_cfg={"kind": "powerlaw", "k": -1.5}, model=model,
                                        n_grid=(10, 1000, 2**17)))
        assert calls == [model]
        calls.clear()
        bounds.row_bounds(distributions.make_power_law(1000, -1.5), model)
        assert calls == [None]

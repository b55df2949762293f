from __future__ import annotations

import importlib

import pytest

import advice_search
from advice_search import algorithms, bounds, distributions, rotation, sweep, validation

MODULES = ["advice_search"] + [f"advice_search.{name}" for name in (
    "algorithms", "bounds", "cli", "distributions", "rotation", "statevector",
    "sweep", "validation")]

# Second copies of jobs that the CLI, validate and the benchmark do through
# other names, the worker count of the removed sweep process pool, and the
# per-oracle counters that RunResult.queries replaced; keeping one
# implementation per job means they stay gone.
REMOVED = (
    "classical_sequential", "geometric_search", "compute_bounds", "BoundReport",
    "zalka_bound", "las_vegas_lower", "StateVector", "prepare_mu", "aa_iteration",
    "grover_success", "exact_search", "worker_count", "QueryLedger", "RoundCost",
    "round_cost",
)


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
    mod = importlib.import_module(module)
    for name in REMOVED:
        assert not hasattr(mod, name), f"{module}.{name}"
    assert not hasattr(getattr(mod, "GeometricBlocks", None), "block_of")

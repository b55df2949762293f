from __future__ import annotations

import pytest

import advice_search.bounds as bounds
import advice_search.validation as validation


def test_all_checks_pass_at_defaults():
    results = validation.run_validation(trials=2000)
    assert results, "no checks ran"
    assert all(r.status == "PASS" for r in results)
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_result_fields():
    results = validation.run_validation(trials=500)
    for r in results:
        assert r.name and r.status in ("PASS", "FAIL")
        assert r.failed == (r.status == "FAIL")


def test_statevector_checks_fail_without_cases():
    # there is no SKIP: a statevector check handed no cases fails
    for check in (validation.statevector_amplification_closed_form,
                  validation.exact_search_certainty):
        result = check(iter(()))
        assert result.failed and result.detail == "no cases"


# the arguments of each check that can be given an input with no cases
_EMPTY_INPUTS = {
    "geometric_bound_sandwich": ([],),
    "classical_identities": ([],),
    "las_vegas_chain": ([],),
    "exact_vs_monte_carlo": ([], 10),
    "threshold_rank_closed_form": ([],),
    "alpha_integral_bracket": ([], []),
    "fallback_bound_ceiling": ([], [], 5, []),
    "iteration_average_identity": ([], []),
}


@pytest.mark.parametrize("name", _EMPTY_INPUTS)
def test_checks_fail_on_empty_inputs(name):
    # an input that yields no case certifies nothing, so it must not PASS
    result = getattr(validation, name)(*_EMPTY_INPUTS[name])
    assert result.failed and result.detail == "no cases"


def test_crashed_check_counts_as_failure(monkeypatch):
    def boom(n):
        raise RuntimeError("boom")

    monkeypatch.setattr(bounds, "las_vegas_report", boom)
    results = validation.run_validation(trials=200)
    by_name = {r.name: r for r in results}
    assert len(results) == 10
    assert by_name["las-vegas-chain"].failed
    assert "boom" in by_name["las-vegas-chain"].detail
    # the crash stays inside its own check
    assert sum(r.failed for r in results) == 1


def test_overstated_lower_bound_is_caught(monkeypatch):
    monkeypatch.setattr(bounds, "LAS_VEGAS_COEFF", 0.306)
    results = validation.run_validation(trials=200)
    by_name = {r.name: r for r in results}
    assert by_name["las-vegas-chain"].failed


def test_understated_fallback_ceiling_is_caught(monkeypatch):
    monkeypatch.setattr(bounds, "FALLBACK_COEFF", 0.53)
    results = validation.run_validation(trials=200)
    by_name = {r.name: r for r in results}
    assert by_name["fallback-bound-ceiling"].failed


def test_failed_build_fails_only_its_checks(monkeypatch):
    def boom(n, k):
        raise MemoryError("no room")

    monkeypatch.setattr(validation, "make_power_law", boom)
    by_name = {r.name: r for r in validation.run_validation(trials=200)}
    assert len(by_name) == 10
    assert by_name["geometric-bound-sandwich"].failed
    assert "no room" in by_name["geometric-bound-sandwich"].detail
    assert by_name["classical-identities"].status == "PASS"

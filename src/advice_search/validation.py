"""Cross-module consistency checks behind the `validate` subcommand.

Each check exercises one structural invariant that ties at least two
modules together (closed forms vs. statevector, exact calculators vs.
Monte Carlo, measured costs vs. bounds).  Checks that would need a
statevector larger than the dimension cap are skipped with a warning
rather than failed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algorithms, bounds, rotation, statevector
from .distributions import make_explicit, make_power_law

__all__ = ["CheckResult", "run_validation"]

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == FAIL


def _result(name: str, worst: float, tol: float, detail: str = "") -> CheckResult:
    status = PASS if worst <= tol else FAIL
    text = f"max deviation {worst:.3g} (tol {tol:.3g})"
    if detail:
        text += f"; {detail}"
    return CheckResult(name, status, text)


def _random_dists(rng: np.random.Generator, count: int, max_n: int):
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        weights = rng.exponential(size=n)
        if rng.random() < 0.3:
            weights[rng.integers(n)] = 0.0
        yield make_explicit(weights)


def _check_statevector_amplification(seed: int, trials: int, cap: int) -> CheckResult:
    if cap < 2:
        return CheckResult("statevector-amplification-closed-form", SKIP,
                           f"cap {cap} below smallest statevector")
    rng = np.random.default_rng(seed)
    cases = [(dist, int(rng.integers(1, dist.n + 1)), 20)
             for dist in _random_dists(rng, 12, min(cap, 512))]
    # uniform advice is Grover search over n elements
    cases += [(make_explicit(np.ones(n)), 1, 25)
              for n in (2, 3, 4, 5, 8, 13, 16, 32, 64, 101, 128, 256) if n <= cap]
    worst = 0.0
    pairs = 0
    for dist, marked, max_iters in cases:
        curve = statevector.aa_success_curve(dist, marked, max_iters, cap=cap)
        p = dist.prob(marked)
        for j, measured in enumerate(curve):
            worst = max(worst, abs(measured - rotation.success_prob(p, j)))
            pairs += 1
    return _result("statevector-amplification-closed-form", worst, 1e-9,
                   f"{pairs} (dist, j) pairs")


def _check_exact_search(seed: int, trials: int, cap: int) -> CheckResult:
    limit = min(64, cap // 2)
    if limit < 1:
        return CheckResult("exact-search-certainty", SKIP,
                           f"cap {cap} below smallest doubled statevector")
    worst = 0.0
    for n in range(1, limit + 1):
        prob, reflections = statevector.exact_search_profile(n, marked_rank=1 + n // 3,
                                                             cap=cap)
        worst = max(worst, 1.0 - prob)
        budget = rotation.exact_grover_queries(n, zero_or_one=False) + 1
        if reflections > budget:
            return CheckResult("exact-search-certainty", FAIL,
                               f"n={n}: {reflections} reflections > budget {budget}")
    return _result("exact-search-certainty", worst, 1e-9, f"n up to {limit}")


def _check_iteration_average(seed: int, trials: int, cap: int) -> CheckResult:
    ps = np.concatenate([np.linspace(0.005, 0.995, 60), [0.0, 1.0, 1e-13, 1 - 1e-13]])
    worst = 0.0
    for m in (1, 2, 3, 5, 8, 16, 37):
        closed = rotation.uniform_iter_success(ps, m)
        brute = np.array([np.mean([rotation.success_prob(float(p), r) for r in range(m)])
                          for p in ps])
        worst = max(worst, float(np.max(np.abs(closed - brute))))
        for p, value in zip(ps, closed):
            c2 = p * (1.0 - p)
            if c2 > 0 and m >= 1.0 / (2.0 * math.sqrt(c2)) and value < 0.25:
                return CheckResult("iteration-average-identity", FAIL,
                                   f"P_m={value:.4f} < 1/4 at p={p}, m={m}")
    return _result("iteration-average-identity", worst, 1e-12,
                   f"{ps.size} probabilities x 7 budgets")


def _check_geometric_sandwich(seed: int, trials: int, cap: int) -> CheckResult:
    rng = np.random.default_rng(seed + 1)
    dists = [make_explicit(np.ones(64)), make_explicit([1.0] + [0.0] * 127)]
    dists += [make_power_law(n, k) for n in (256, 1024, 4096)
              for k in (-0.5, -1.0, -1.75, -2.5)]
    dists += list(_random_dists(rng, 6, 400))
    for dist in dists:
        measured = algorithms.geometric_expected(dist).f_mean
        lower = bounds.q_mu_lower(dist)
        upper = bounds.geometric_upper(dist)
        if not lower <= measured <= upper:
            return CheckResult("geometric-bound-sandwich", FAIL,
                               f"n={dist.n}: {lower:.4g} <= {measured:.4g} "
                               f"<= {upper:.4g} is false")
    return CheckResult("geometric-bound-sandwich", PASS,
                       f"{len(dists)} distributions")


def _check_las_vegas_chain(seed: int, trials: int, cap: int) -> CheckResult:
    # The grid maximum dominates the sqrt closed form at every n.  The
    # arcsin form uses a rounded coefficient, so it only agrees with the
    # grid maximum to ~1% and only once n is large enough that the
    # maximizer has settled near 0.369.
    for n in (4, 64, 1024, 10**4, 10**6):
        report = bounds.las_vegas_report(n)
        if report.grid_max < report.sqrt_form:
            return CheckResult("las-vegas-chain", FAIL,
                               f"n={n}: grid max {report.grid_max:.4f} below "
                               f"sqrt form {report.sqrt_form:.4f}")
        if report.asin_form < report.sqrt_form:
            return CheckResult("las-vegas-chain", FAIL,
                               f"n={n}: arcsin form below sqrt form")
        if n >= 10**4:
            gap = abs(report.grid_max - report.asin_form)
            if gap > 0.01 * max(1.0, report.grid_max):
                return CheckResult("las-vegas-chain", FAIL,
                                   f"n={n}: grid max and arcsin form differ "
                                   f"by {gap:.4g}")
            if abs(report.argmax_p - 0.369) > 0.01:
                return CheckResult("las-vegas-chain", FAIL,
                                   f"n={n}: maximizer {report.argmax_p} far "
                                   f"from 0.369")
    return CheckResult("las-vegas-chain", PASS, "5 domain sizes")


def _check_fallback_ceiling(seed: int, trials: int, cap: int) -> CheckResult:
    for n in (256, 1024):
        dist = make_power_law(n, -1.0)
        ceiling = bounds.unknown_upper_per_rank(dist)
        ranks = np.unique(np.geomspace(1, n, 25).astype(int))
        for rank in ranks:
            report = algorithms.unknown_expected_exact(dist, int(rank))
            if max(report.means()) > ceiling[rank - 1] + 1e-9:
                return CheckResult("fallback-bound-ceiling", FAIL,
                                   f"n={n} rank={rank}: {max(report.means()):.2f} "
                                   f"> {ceiling[rank - 1]:.2f}")
    peaked = make_explicit([0.8] + [0.2 / 127] * 127)
    report = algorithms.unknown_expected_exact(peaked, 1)
    if max(report.means()) > 17.0:
        return CheckResult("fallback-bound-ceiling", FAIL,
                           f"high-prior case used {max(report.means()):.2f} > 17")
    return CheckResult("fallback-bound-ceiling", PASS,
                       "2 power laws + high-prior case")


def _check_exact_vs_monte_carlo(seed: int, trials: int, cap: int) -> CheckResult:
    cases = [
        ("classical", make_explicit(np.ones(512))),
        ("geometric", make_power_law(1024, -1.0)),
        ("unknown", make_power_law(256, -1.5)),
        ("unknown", make_explicit([0.7, 0.2, 0.05, 0.05])),
    ]
    for algorithm, dist in cases:
        if algorithm == "classical":
            exact = (algorithms.classical_expected(dist), 0.0, 0.0)
        elif algorithm == "geometric":
            exact = algorithms.geometric_expected(dist).means()
        else:
            exact = algorithms.unknown_expected_mu(dist).means()
        mc = algorithms.monte_carlo(algorithm, dist, trials, seed)
        for target, estimate, err in zip(exact, mc.means(), mc.stderrs()):
            if abs(estimate - target) > 4.0 * err + 1e-9:
                return CheckResult("exact-vs-monte-carlo", FAIL,
                                   f"{algorithm} n={dist.n}: |{estimate:.4g} - "
                                   f"{target:.4g}| > 4 stderr ({err:.3g})")
    return CheckResult("exact-vs-monte-carlo", PASS,
                       f"{len(cases)} configs x {trials} trials")


def _check_threshold_rank(seed: int, trials: int, cap: int) -> CheckResult:
    for n, k in ((10**4, -2.0), (4096, -1.2), (10**5, -3.0), (512, -0.5)):
        dist = make_power_law(n, k)
        measured = dist.x0_threshold()
        closed = dist.power_law.threshold_rank_closed_form()
        if measured != closed:
            return CheckResult("threshold-rank-closed-form", FAIL,
                               f"n={n} k={k}: {measured} != closed form {closed}")
        if n <= 4096:
            brute = int(np.sum(dist.probs >= 1.0 / n))
            if measured != brute:
                return CheckResult("threshold-rank-closed-form", FAIL,
                                   f"n={n} k={k}: {measured} != brute scan {brute}")
    return CheckResult("threshold-rank-closed-form", PASS, "4 power laws")


def _check_alpha_bracket(seed: int, trials: int, cap: int) -> CheckResult:
    for n in (2, 64, 4096, 10**5):
        for k in (-0.25, -0.5, -1.0, -1.5, -2.0, -2.5):
            spec = make_power_law(n, k).power_law
            lo, hi = spec.integral_bracket()
            if not lo <= 1.0 / spec.alpha <= hi:
                return CheckResult("alpha-integral-bracket", FAIL,
                                   f"n={n} k={k}: 1/alpha outside [{lo:.4g}, {hi:.4g}]")
    return CheckResult("alpha-integral-bracket", PASS, "24 (n, k) pairs")


def _check_classical_identities(seed: int, trials: int, cap: int) -> CheckResult:
    uniform = make_explicit(np.ones(1024))
    expected = algorithms.classical_expected(uniform)
    if expected != 512.5:
        return CheckResult("classical-identities", FAIL,
                           f"uniform scan expectation {expected!r} != 512.5")
    if algorithms.classical_sampling_expected(uniform) != 1024.0:
        return CheckResult("classical-identities", FAIL,
                           "full-support sampling expectation is not n")
    gappy = make_explicit([1.0, 1.0, 0.0])
    if not math.isinf(algorithms.classical_sampling_expected(gappy)):
        return CheckResult("classical-identities", FAIL,
                           "zero-probability element did not flag divergence")
    return CheckResult("classical-identities", PASS)


_CHECKS = (
    _check_statevector_amplification,
    _check_exact_search,
    _check_iteration_average,
    _check_geometric_sandwich,
    _check_las_vegas_chain,
    _check_fallback_ceiling,
    _check_exact_vs_monte_carlo,
    _check_threshold_rank,
    _check_alpha_bracket,
    _check_classical_identities,
)


def run_validation(seed: int = 20250816, trials: int = 20000,
                   cap: int = statevector.DEFAULT_DIM_CAP) -> list[CheckResult]:
    """Run every cross-module check; exceptions count as failures."""
    results = []
    for check in _CHECKS:
        name = check.__name__.removeprefix("_check_").replace("_", "-")
        try:
            results.append(check(seed, trials, cap))
        except Exception as exc:  # noqa: BLE001 - a crashed check is a failed check
            results.append(CheckResult(name, FAIL, f"raised {exc!r}"))
    return results

"""Cross-module consistency checks, one function of its inputs per guarantee.

run_validation runs each on quick inputs for `validate`; the acceptance
tests run the same checks at full scale.  Iterables of cases or
distributions are consumed once, as the check runs, so a distribution that
fails to build fails its check like any other exception.
"""
from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import algorithms, bounds, rotation, statevector
from .distributions import _power_integral, make_explicit, make_power_law

__all__ = ["CheckResult", "run_validation"]

PASS, FAIL = "PASS", "FAIL"

DEFAULT_SEED = 20250816
DEFAULT_TRIALS = 20000


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == FAIL


class _Stop(Exception):
    """Fails a check; its one arg is the detail."""


def _require(ok: bool, detail: str) -> None:
    if not ok:
        raise _Stop(detail)


def _within(worst: float, tol: float, detail: str) -> str:
    text = f"max deviation {worst:.3g} (tol {tol:.3g}); {detail}"
    _require(worst <= tol, text)
    return text


def _check(fn):
    """Make fn, which returns its PASS detail, a check named after it."""
    name = fn.__name__.replace("_", "-")

    @functools.wraps(fn)
    def run(*args, **kwargs) -> CheckResult:
        try:
            return CheckResult(name, PASS, fn(*args, **kwargs))
        except _Stop as stop:
            return CheckResult(name, FAIL, *stop.args)
        except Exception as exc:  # noqa: BLE001 - a crashed check is a failed check
            logging.getLogger("advice_search").warning("%s raised", name, exc_info=True)
            return CheckResult(name, FAIL, f"raised {exc!r}")
    return run


@_check
def statevector_amplification_closed_form(cases):
    """Statevector success after j = 0..last steps of (dist, marked rank,
    last) cases vs sin^2((2j+1) theta) (BBHT Lemma 2)."""
    worst, pairs = 0.0, 0
    for dist, marked, max_iters in cases:
        curve = statevector.aa_success_curve(dist, marked, max_iters)
        p = dist.prob(marked)
        for j, measured in enumerate(curve):
            worst = max(worst, abs(measured - rotation.success_prob(p, j)))
            pairs += 1
    _require(pairs > 0, "no cases")
    return _within(worst, 1e-9, f"{pairs} (dist, j) pairs")


@_check
def exact_search_certainty(cases):
    """Certainty search on (n, marked rank) cases, within ceil(pi/4 sqrt n) + 1."""
    worst, count = 0.0, 0
    for count, (n, marked) in enumerate(cases, 1):
        prob, reflections = statevector.exact_search_profile(n, marked)
        worst = max(worst, 1.0 - prob)
        budget = rotation.exact_grover_queries(n, zero_or_one=True)
        _require(reflections <= budget,
                 f"n={n}: {reflections} reflections > budget {budget}")
    _require(count > 0, "no cases")
    return _within(worst, 1e-9, f"{count} (n, rank) cases")


@_check
def iteration_average_identity(ps, budgets):
    """Closed-form mean of sin^2((2r+1) theta) over r < m (BBHT Lemma 2) vs an
    fsum of math.sin terms, and its 1/4 floor once m >= 1/(2 sqrt(p(1-p)))."""
    ps = [float(p) for p in ps]
    worst = 0.0
    for m in budgets:
        for p in ps:
            closed = rotation.uniform_iter_success(p, m)
            # asin(sqrt p), without asin's ill-conditioning near p = 1
            theta = math.atan2(math.sqrt(p), math.sqrt(1.0 - p))
            brute = math.fsum(math.sin((2 * r + 1) * theta) ** 2 for r in range(m)) / m
            worst = max(worst, abs(closed - brute))
            c2 = p * (1.0 - p)
            if c2 > 0 and m >= 1.0 / (2.0 * math.sqrt(c2)):
                _require(closed >= 0.25, f"P_m={closed:.4f} < 1/4 at p={p}, m={m}")
    _require(len(ps) * len(budgets) > 0, "no cases")
    return _within(worst, 1e-12, f"{len(ps)} probabilities x {len(budgets)} budgets")


@_check
def geometric_bound_sandwich(dists):
    """Lower bound <= exact known-advice cost <= geometric upper bound."""
    count = 0
    for count, dist in enumerate(dists, 1):
        measured = algorithms.geometric_expected(dist).f_mean
        lower, upper = bounds.row_bounds(dist, "geometric")
        _require(lower <= measured <= upper,
                 f"n={dist.n}: {lower:.4g} <= {measured:.4g} <= {upper:.4g} is false")
    _require(count > 0, "no cases")
    return f"{count} distributions"


@_check
def las_vegas_chain(ns):
    """Lower-bound forms: grid max and arcsin form >= sqrt form.  The arcsin
    form's coefficient is rounded, so it matches the grid max to ~1% only from
    n = 10^4, where the maximizer has settled near 0.369."""
    for n in ns:
        report = bounds.las_vegas_report(n)
        _require(report.grid_max >= report.sqrt_form,
                 f"n={n}: grid max {report.grid_max:.4f} below "
                 f"sqrt form {report.sqrt_form:.4f}")
        _require(report.asin_form >= report.sqrt_form,
                 f"n={n}: arcsin form below sqrt form")
        if n >= 10**4:
            gap = abs(report.grid_max - report.asin_form)
            _require(gap <= 0.01 * max(1.0, report.grid_max),
                     f"n={n}: grid max and arcsin form differ by {gap:.4g}")
            _require(abs(report.argmax_p - 0.369) <= 0.01,
                     f"n={n}: maximizer {report.argmax_p} far from 0.369")
    _require(len(ns) > 0, "no cases")
    return f"{len(ns)} domain sizes"


def _rank_ceilings(dist, ranks) -> np.ndarray:
    """Ceiling min(83/sqrt(p_x) + 4/3, 53 sqrt(n)) on each oracle's expected
    count in the sample-and-amplify search (default ratio) at each rank x."""
    with np.errstate(divide="ignore"):
        high = bounds.HIGH_PRIOR_COEFF / np.sqrt(dist._probs_at(np.asarray(ranks)))
    return np.minimum(high + bounds.UNKNOWN_OFFSET, bounds.FALLBACK_COEFF * math.sqrt(dist.n))


@_check
def fallback_bound_ceiling(ns, ks, rank_points: int, high_prior):
    """Oracle-only costs at rank_points log-spaced ranks of each (n, k) power
    law stay under the per-rank ceiling, and under 17 at a prior >= 3/4."""
    count = 0
    for dist in (make_power_law(n, k) for n in ns for k in ks):
        ranks = np.unique(np.geomspace(1, dist.n, rank_points).astype(int))
        for rank, ceiling in zip(ranks, _rank_ceilings(dist, ranks)):
            count += 1
            cost = max(algorithms.unknown_expected_exact(dist, int(rank)).means())
            _require(cost <= ceiling + 1e-9,
                     f"n={dist.n} rank={rank}: {cost:.2f} > {ceiling:.2f}")
    for dist in high_prior:
        count += 1
        _require(dist.prob(1) >= 0.75, f"n={dist.n}: prior {dist.prob(1):.4g} < 3/4")
        cost = max(algorithms.unknown_expected_exact(dist, 1).means())
        _require(cost <= 17.0, f"high-prior case used {cost:.2f} > 17")
    _require(count > 0, "no cases")
    return f"{len(ns) * len(ks)} power laws x {rank_points} ranks + high-prior cases"


@_check
def exact_vs_monte_carlo(cases, trials: int):
    """Monte Carlo means of each (model, dist, seed) within 4 stderr of exact."""
    count = 0
    for count, (model, dist, seed) in enumerate(cases, 1):
        exact, _ = next(algorithms._exact_rows(model, dist, algorithms._model_ratio(model, None)))
        mc = algorithms.monte_carlo(model, dist, trials, seed)
        for target, estimate, err in zip(exact.means(), mc.means(), mc.stderrs()):
            _require(abs(estimate - target) <= 4.0 * err + 1e-9,
                     f"{model} n={dist.n}: |{estimate:.4g} - {target:.4g}| "
                     f"> 4 stderr ({err:.3g})")
    _require(count > 0, "no cases")
    return f"{count} configs x {trials} trials"


@_check
def threshold_rank_bisection(points):
    """Power-law threshold ranks, by bisection, vs a brute scan of probs."""
    for n, k in points:
        dist = make_power_law(n, k)
        measured, brute = dist.x0_threshold(), int(np.sum(dist.probs >= 1.0 / n))
        _require(measured == brute, f"n={n} k={k}: {measured} != brute scan {brute}")
    _require(len(points) > 0, "no cases")
    return f"{len(points)} power laws"


@_check
def alpha_integral_bracket(ns, ks):
    """1/alpha of each power law lies in its integral-test bracket [lo, lo +
    1]: lo the integral of x^k over [1, n], which does not cancel near k = -1."""
    for n in ns:
        for k in ks:
            alpha, lo = make_power_law(n, k).power_law.alpha, float(_power_integral(k, 1.0, n))
            _require(lo <= 1.0 / alpha <= lo + 1.0,
                     f"n={n} k={k}: 1/alpha outside [{lo:.4g}, {lo + 1.0:.4g}]")
    _require(len(ns) * len(ks) > 0, "no cases")
    return f"{len(ns) * len(ks)} (n, k) pairs"


@_check
def classical_identities(dists):
    """The scan costs (n+1)/2 on uniform advice; sampling costs n with full
    support and diverges without it."""
    count = 0
    for count, dist in enumerate(dists, 1):
        if np.all(dist.probs == dist.probs[0]):
            scan = algorithms.classical_expected(dist)
            _require(scan == (dist.n + 1) / 2.0, f"n={dist.n}: uniform scan expectation {scan!r}")
        sampling = algorithms.classical_sampling_expected(dist)
        expected = float(dist.n) if np.all(dist.probs > 0.0) else math.inf
        _require(sampling == expected,
                 f"n={dist.n}: sampling expectation {sampling!r} != {expected!r}")
    _require(count > 0, "no cases")
    return f"{count} distributions"


def _random_dists(rng: np.random.Generator, count: int, max_n: int):
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        weights = rng.exponential(size=n)
        if rng.random() < 0.3:
            weights[rng.integers(n)] = 0.0
        yield make_explicit(weights)


def _amplification_cases(seed: int):
    rng = np.random.default_rng(seed)
    for dist in _random_dists(rng, 12, 512):
        yield dist, int(rng.integers(1, dist.n + 1)), 20
    # uniform advice is Grover search over n elements
    for n in (2, 3, 4, 5, 8, 13, 16, 32, 64, 101, 128, 256):
        yield make_explicit(np.ones(n)), 1, 25


def _monte_carlo_cases(seed: int):
    yield "classical", make_explicit(np.ones(512)), seed
    yield "geometric", make_power_law(1024, -1.0), seed
    yield "unknown", make_power_law(256, -1.5), seed
    yield "unknown", make_explicit([0.7, 0.2, 0.05, 0.05]), seed


def run_validation(seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS) -> list[CheckResult]:
    """Run every check on its quick inputs."""
    ps = np.concatenate([np.linspace(0.005, 0.995, 60), [0.0, 1.0, 1e-13, 1 - 1e-13]])
    return [
        statevector_amplification_closed_form(_amplification_cases(seed)),
        exact_search_certainty((n, 1 + n // 3) for n in range(1, 65)),
        iteration_average_identity(ps, (1, 2, 3, 5, 8, 16, 37)),
        geometric_bound_sandwich(itertools.chain(
            (make_explicit(w) for w in (np.ones(64), [1.0] + [0.0] * 127)),
            (make_power_law(n, k) for n in (256, 1024, 4096)
             for k in (-0.5, -1.0, -1.75, -2.5)),
            _random_dists(np.random.default_rng(seed + 1), 6, 400))),
        las_vegas_chain((4, 64, 1024, 10**4, 10**6)),
        fallback_bound_ceiling((256, 1024), (-1.0,), 25,
                               (make_explicit(w) for w in ([0.8] + [0.2 / 127] * 127,))),
        exact_vs_monte_carlo(_monte_carlo_cases(seed), trials),
        threshold_rank_bisection(((10**4, -2.0), (4096, -1.2), (10**5, -3.0), (512, -0.5))),
        alpha_integral_bracket((2, 64, 4096, 10**5), (-0.25, -0.5, -1.0, -1.5, -2.0, -2.5)),
        classical_identities(make_explicit(w) for w in (np.ones(1024), [1.0, 1.0, 0.0])),
    ]

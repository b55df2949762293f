"""Outside-in tracing: spans around calls into each layer of advice_search.

Nothing under ``src/`` changes.  ``Tracer.install`` rebinds the module
attributes that callers look up (``cli.run_sweep``,
``algorithms.unknown_search``, ...) to wrappers that record a span, and
``Tracer.uninstall`` puts the originals back, so untraced repetitions run
the unmodified program.  A name that no longer exists is reported as a
missing layer instead of failing the run.

Spans hold name, start, end and parent index, are kept in memory and are
written out by the caller when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import bisect
import functools
import importlib
import operator
import time
from collections import Counter, defaultdict

# (module, attribute the callers look up, span name).  The same function is
# wrapped under every name its callers use: cli imports the sweep helpers by
# name, while sweep looks up run_point in its own globals.
WRAP_POINTS = (
    ("advice_search.cli", "main", "cli.main"),
    ("advice_search.cli", "run_sweep", "sweep.run_sweep"),
    ("advice_search.cli", "run_point", "sweep.run_point"),
    ("advice_search.sweep", "run_point", "sweep.run_point"),
    ("advice_search.cli", "rows_to_csv", "sweep.rows_to_csv"),
    ("advice_search.cli", "read_rows", "sweep.read_rows"),
    ("advice_search.cli", "fit_scaling", "sweep.fit_scaling"),
    ("advice_search.sweep", "dist_from_config", "distributions.build"),
    ("advice_search.distributions", "power_law_alpha", "distributions.power_law_alpha"),
    ("advice_search.algorithms", "unknown_expected_mu", "algorithms.unknown_expected_mu"),
    ("advice_search.algorithms", "classical_expected", "algorithms.classical_expected"),
    ("advice_search.algorithms", "geometric_expected", "algorithms.geometric_expected"),
    ("advice_search.algorithms", "monte_carlo", "algorithms.monte_carlo"),
    ("advice_search.algorithms", "unknown_search", "algorithms.unknown_search"),
    ("advice_search.bounds", "q_mu_lower", "bounds.q_mu_lower"),
    ("advice_search.bounds", "geometric_upper", "bounds.geometric_upper"),
    ("advice_search.bounds", "unknown_upper_mu", "bounds.unknown_upper_mu"),
)

LAYERS = ("cli", "sweep", "distributions", "algorithms", "bounds")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans and counters while installed; one per traced repetition."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._hooks = {
            "distributions.build": self._count_build,
            "algorithms.unknown_expected_mu": self._count_unknown_kernel,
            "algorithms.monte_carlo": self._count_trials,
        }

    # -- counters taken at the boundary, outside the span they describe

    def _count_build(self, args, kwargs, result) -> None:
        self.counts["distributions.build_elems"] += int(result.n)

    def _count_unknown_kernel(self, args, kwargs, result) -> None:
        from advice_search import algorithms, rotation
        dist = _arg(args, kwargs, 0, "dist")
        k = _arg(args, kwargs, 1, "k", algorithms.DEFAULT_AMPLIFY_RATIO)
        rounds = algorithms.unknown_rounds(dist.n, k) + 1
        self.counts["algorithms.unknown_elems"] += int(dist.n)
        self.counts["algorithms.unknown_elem_rounds"] += int(dist.n) * rounds
        # probs is sorted non-increasing: a binary search, not an n-element
        # temporary, so the count costs microseconds inside run_point's span
        at_least_tol = bisect.bisect_right(dist.probs, -rotation.DEGENERATE_TOL,
                                           key=operator.neg)
        self.counts["algorithms.tiny_elems"] += int(dist.n) - at_least_tol

    def _count_trials(self, args, kwargs, result) -> None:
        self.counts["algorithms.mc_trials"] += int(_arg(args, kwargs, 2, "trials"))

    # -- wrapping

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hook = self._hooks.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except Exception:  # a refactored signature: report, don't fail
                    self.missing.add(name + ":counter")
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    # -- reduction to per-layer metrics

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[index]
        return total, own

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), of what this tracer recorded."""
        total, own = self.totals()
        c = self.counts

        def per(numerator: float, base: float, scale: float) -> float:
            return numerator / base * scale if base else 0.0

        build_s = total["distributions.build"]
        unknown_s = total["algorithms.unknown_expected_mu"]
        metrics = {
            "distributions.build_s": (build_s, "s"),
            "distributions.power_law_alpha_s": (total["distributions.power_law_alpha"], "s"),
            "distributions.build_ns_per_elem": (
                per(build_s, c["distributions.build_elems"], 1e9), "ns"),
            "algorithms.unknown_expected_mu_s": (unknown_s, "s"),
            "algorithms.unknown_elem_rounds": (c["algorithms.unknown_elem_rounds"], "count"),
            "algorithms.unknown_ns_per_elem_round": (
                per(unknown_s, c["algorithms.unknown_elem_rounds"], 1e9), "ns"),
            "algorithms.tiny_elem_frac": (
                per(c["algorithms.tiny_elems"], c["algorithms.unknown_elems"], 1.0), "frac"),
            "algorithms.classical_expected_s": (total["algorithms.classical_expected"], "s"),
            "algorithms.geometric_expected_s": (total["algorithms.geometric_expected"], "s"),
            "algorithms.monte_carlo_self_s": (own["algorithms.monte_carlo"], "s"),
            "algorithms.unknown_search_s": (total["algorithms.unknown_search"], "s"),
            "algorithms.unknown_search_calls": (sum(
                1 for span in self.spans if span[0] == "algorithms.unknown_search"), "count"),
            "algorithms.mc_us_per_trial": (
                per(total["algorithms.monte_carlo"], c["algorithms.mc_trials"], 1e6), "us"),
            "bounds.q_mu_lower_s": (total["bounds.q_mu_lower"], "s"),
            "bounds.geometric_upper_s": (total["bounds.geometric_upper"], "s"),
            "bounds.unknown_upper_mu_s": (total["bounds.unknown_upper_mu"], "s"),
            "sweep.run_sweep_self_s": (own["sweep.run_sweep"], "s"),
            "sweep.run_point_self_s": (own["sweep.run_point"], "s"),
            "sweep.csv_io_s": (total["sweep.rows_to_csv"] + total["sweep.read_rows"], "s"),
            "sweep.fit_scaling_s": (total["sweep.fit_scaling"], "s"),
            "cli.main_self_s": (own["cli.main"], "s"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = (self.errors[layer], "count")
        return metrics

    def dump(self) -> list[list]:
        """Spans as [name, start, end, parent index] lists, for writing out."""
        return [list(span) for span in self.spans]

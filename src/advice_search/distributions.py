"""Advice distributions over the search domain {1, ..., n}.

An advice distribution assigns every domain element a prior probability of
being the marked one.  Probabilities are stored sorted in non-increasing
order; ``perm`` remembers where each sorted rank lived in the caller's
original ordering (the identity for power laws, which are built in rank
order).  Ranks and original positions are 1-based throughout, matching the
{1, ..., n} domain convention.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdviceDistribution",
    "PowerLawSpec",
    "ConfigError",
    "ParameterError",
    "make_power_law",
    "make_explicit",
    "dist_from_config",
    "power_law_alpha",
    "compensated_sum",
]

# Normalization slack allowed on sum(probs); everything downstream assumes
# the probabilities are a distribution up to this tolerance.
PROB_SUM_TOL = 1e-12

# Block length of compensated_sum; block partials are combined exactly with
# math.fsum.  Power-law alpha is such a sum, so its bits depend on this length.
_CHUNK = 1 << 22

# Block length of make_power_law's x^k pass and of the rank-weighted sums:
# the per-block rank temporary (512 KB) stays in cache, which builds 2^24
# ranks ~25% faster than _CHUNK and holds no n-sized rank vector.
_BUILD_STEP = 1 << 16

# Longest float64 array numpy can address: its byte size must fit in intp.
_MAX_LEN = np.iinfo(np.intp).max // 8


class ConfigError(ValueError):
    """Structurally malformed configuration (missing key, wrong type)."""


class ParameterError(ValueError):
    """Well-formed configuration with an out-of-range parameter value."""


def _check_int(value, what: str, minimum: int):
    """Return value if it is an integer (not a bool) >= minimum, else raise."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ParameterError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def _check_length(value, what: str):
    """Return value if it is an integer from 1 to _MAX_LEN, else raise."""
    if _check_int(value, what, 1) > _MAX_LEN:
        raise ParameterError(f"{what} = {value} is beyond the address space "
                             f"(at most {_MAX_LEN} float64 elements)")
    return value


def _blocks(size: int, step: int = _CHUNK):
    """Bounds [lo, hi) of consecutive index blocks of at most step."""
    for lo in range(0, size, step):
        yield lo, min(lo + step, size)


def _dot(block: np.ndarray, v: np.ndarray) -> float:
    """sum_i block_i v_i by einsum: a BLAS dot this long starts threads that spin."""
    return float(np.einsum("i,i->", block, v))


def _rank_weighted_sums(probs: np.ndarray, fn, step: int = _BUILD_STEP,
                        workers: int = 1, extra=None) -> list[float]:
    """Column sums of the per-block partial sums that fn returns.

    fn(block, first, worker) gets one block of at most step probs, the
    1-based rank of its first element and the index of its thread, and
    returns one partial sum per column.  If extra is given,
    extra.partials(block, first) appends more columns, whose sums go to
    extra.sums.  Worker w takes every workers-th block from block w.  Each
    column is combined with math.fsum, which is correctly rounded in any
    order, so the sums do not depend on workers.
    """
    starts = range(0, probs.size, step)
    stop = threading.Event()

    def reduce(worker: int) -> list[tuple[float, ...]]:
        rows = []
        for lo in starts[worker::workers]:
            if stop.is_set():
                break
            block = probs[lo:lo + step]
            row = tuple(fn(block, lo + 1, worker))
            rows.append(row if extra is None else row + extra.partials(block, lo + 1))
        return rows

    if workers == 1:
        partials = reduce(0)
    else:
        # imported here, so that importing the package does not pay for it
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            try:
                partials = [row for rows in pool.map(reduce, range(workers)) for row in rows]
            finally:
                # after an interrupt or a failed worker, the others quit at
                # their next block instead of finishing the whole reduction
                stop.set()
    sums = [math.fsum(column) for column in zip(*partials)]
    if extra is not None:
        sums, extra.sums = sums[:-extra.width], sums[-extra.width:]
    return sums


def compensated_sum(values) -> float:
    """Sum floats with an error-free top-level accumulation.

    Chunks are reduced pairwise by numpy; chunk partials are then combined
    exactly with math.fsum, so long inputs (n up to 2**30) do not drift.
    Accepts an array or an iterable of arrays (streamed, constant memory).
    """
    if isinstance(values, np.ndarray):
        values = (values,)
    partials = []
    for block in values:
        flat = np.asarray(block, dtype=np.float64).ravel()
        partials.extend(float(np.sum(flat[lo:hi])) for lo, hi in _blocks(flat.size))
    return math.fsum(partials)


def power_law_alpha(n: int, k: float) -> float:
    """Normalizing constant alpha with sum_{x=1..n} alpha*x^k = 1.

    Direct summation of x^k streamed in blocks; no closed-form/integral
    shortcut, so the value is the one make_power_law's probabilities use.
    """
    _check_power_law_params(n, k)
    return 1.0 / compensated_sum(np.arange(lo + 1, hi + 1, dtype=np.float64) ** k
                                 for lo, hi in _blocks(n))


@dataclass(frozen=True)
class PowerLawSpec:
    """Parameters of a truncated power law p_x = alpha * x^k on {1..n}."""

    n: int
    k: float
    alpha: float

    def integral_bracket(self) -> tuple[float, float]:
        """Bounds (lo, hi) with lo <= 1/alpha <= hi from the integral test."""
        if self.k == -1.0:
            lo = math.log(self.n)
        else:
            lo = (self.n ** (self.k + 1) - 1.0) / (self.k + 1)
        return lo, lo + 1.0

    def threshold_rank_closed_form(self) -> int:
        """floor((alpha*n)^(-1/k)): largest x with alpha*x^k >= 1/n."""
        return min(self.n, int(math.floor((self.alpha * self.n) ** (-1.0 / self.k))))


class AdviceDistribution:
    """A prior over {1..n}, sorted non-increasing, with sampling support.

    perm=None means the advice is already in rank order: the identity
    permutation is then built only when read (exact rows and Monte Carlo
    never read it).
    """

    def __init__(self, n: int, probs: np.ndarray, perm: np.ndarray | None = None,
                 power_law: PowerLawSpec | None = None):
        self.n = n
        self.probs = probs
        self.power_law = power_law
        self._perm = perm
        self._cdf: np.ndarray | None = None

    @property
    def perm(self) -> np.ndarray:
        """Original 1-based position of each sorted rank."""
        if self._perm is None:
            self._perm = np.arange(1, self.n + 1,
                                   dtype=np.int32 if self.n < 2**31 else np.int64)
        return self._perm

    @property
    def cdf(self) -> np.ndarray:
        """Prefix sums of probs, built lazily (exact-mode runs never need it)."""
        if self._cdf is None:
            self._cdf = np.cumsum(self.probs)
        return self._cdf

    def prob(self, rank: int) -> float:
        """Probability of the element at sorted rank (1-based)."""
        if not 1 <= rank <= self.n:
            raise ParameterError(f"rank {rank} outside 1..{self.n}")
        return float(self.probs[rank - 1])

    # probs is sorted non-increasing, so both counts below are prefixes; they
    # search the ascending reversed view, which copies nothing.

    def support_size(self) -> int:
        """Number of ranks with positive probability."""
        return self.n - int(np.searchsorted(self.probs[::-1], 0.0, side="right"))

    def x0_threshold(self) -> int:
        """Largest sorted rank with p_x >= 1/n, or 0 if none."""
        return self.n - int(np.searchsorted(self.probs[::-1], 1.0 / self.n, side="left"))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw sorted-rank indices ~ probs (never a zero-probability rank)."""
        u = rng.random(size)
        idx = np.searchsorted(self.cdf, u, side="right")
        idx = np.minimum(idx, self.support_size() - 1)
        if size is None:
            return int(idx) + 1
        return idx.astype(np.int64) + 1

    def validate(self) -> None:
        """Raise if the structural invariants are violated."""
        if self.probs.shape != (self.n,) or self.perm.shape != (self.n,):
            raise ParameterError("probs/perm length must equal n")
        total = compensated_sum(self.probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ParameterError(f"probabilities sum to {total!r}, not 1")
        if np.any(self.probs < 0.0):
            raise ParameterError("negative probability")
        if np.any(np.diff(self.probs) > 0.0):
            raise ParameterError("probs not sorted non-increasing")
        if not np.array_equal(np.sort(self.perm), np.arange(1, self.n + 1)):
            raise ParameterError("perm is not a permutation of 1..n")


def _check_power_law_params(n, k) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ConfigError(f"n must be an integer, got {n!r}")
    _check_length(n, "n")
    if not isinstance(k, (int, float, np.floating)) or isinstance(k, bool):
        raise ConfigError(f"k must be a number, got {k!r}")
    k = float(k)
    if math.isnan(k) or math.isinf(k) or k >= 0.0:
        raise ParameterError(f"power-law exponent must be finite and < 0, got {k}")


def make_power_law(n: int, k: float) -> AdviceDistribution:
    """Power-law advice p_x = alpha * x^k on {1..n}, k < 0 (already sorted)."""
    _check_power_law_params(n, k)
    k = float(k)
    # x^k written in place block by block: bit-identical to the whole-array
    # power, with no n-sized rank temporary
    probs = np.empty(n, dtype=np.float64)
    for lo, hi in _blocks(n, _BUILD_STEP):
        np.power(np.arange(lo + 1, hi + 1, dtype=np.float64), k, out=probs[lo:hi])
    # the blocks and sums of power_law_alpha, on the array already built
    alpha = 1.0 / compensated_sum(probs)
    probs *= alpha
    return AdviceDistribution(n=n, probs=probs,
                              power_law=PowerLawSpec(n=n, k=k, alpha=alpha))


def make_explicit(weights) -> AdviceDistribution:
    """Normalize non-negative weights into an advice distribution.

    Sorting is stable and descending, so equal weights keep their original
    relative order in perm (perm[i] = original 1-based position of rank i+1).
    """
    try:
        w = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError) as exc:   # non-numeric or ragged
        raise ConfigError(f"weights must be a flat list of numbers: {exc}") from exc
    except OverflowError as exc:   # an integer beyond the float range
        raise ParameterError(f"weights must be finite: {exc}") from exc
    if w.ndim != 1 or w.size == 0:
        raise ConfigError("weights must be a non-empty 1-D sequence")
    if np.any(~np.isfinite(w)) or np.any(w < 0.0):
        raise ParameterError("weights must be finite and non-negative")
    # scaling by a power of two is exact and keeps the total finite
    w = np.ldexp(w, -np.frexp(np.max(w))[1])
    total = compensated_sum(w)
    if total <= 0.0:
        raise ParameterError("weights must have positive total mass")
    order = np.argsort(-w, kind="stable")
    probs = w[order] / total
    perm = (order + 1).astype(np.int64)
    return AdviceDistribution(n=int(w.size), probs=probs, perm=perm)


def dist_from_config(cfg: dict) -> AdviceDistribution:
    """Build a distribution from the config mapping.

    Schemas: {"kind": "powerlaw", "n": int, "k": float<0}
             {"kind": "explicit", "weights": [w1, w2, ...]}
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"dist config must be a mapping, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind == "powerlaw":
        extra = set(cfg) - {"kind", "n", "k"}
        if extra:
            raise ConfigError(f"unknown powerlaw keys: {sorted(extra)}")
        if "n" not in cfg or "k" not in cfg:
            raise ConfigError("powerlaw dist needs 'n' and 'k'")
        return make_power_law(cfg["n"], cfg["k"])
    if kind == "explicit":
        extra = set(cfg) - {"kind", "weights"}
        if extra:
            raise ConfigError(f"unknown explicit keys: {sorted(extra)}")
        if "weights" not in cfg or not isinstance(cfg["weights"], (list, tuple)):
            raise ConfigError("explicit dist needs a 'weights' list")
        for w in cfg["weights"]:
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise ConfigError(f"weights must be numbers, got {w!r}")
        return make_explicit(cfg["weights"])
    raise ConfigError(f"unknown dist kind {kind!r}")

"""Advice distributions over the search domain {1, ..., n}.

An advice distribution assigns every domain element a prior probability of
being the marked one.  Probabilities are stored sorted in non-increasing
order; ``perm`` remembers where each sorted rank lived in the caller's
original ordering (the identity for power laws, which are built in rank
order).  Ranks and original positions are 1-based throughout, matching the
{1, ..., n} domain convention.  A power law is streamed: an exact row
makes only its first 128 probabilities and takes the rest from power sums,
the builds make them block by block, and the n-sized ``probs`` exists only
once something reads it.
"""
from __future__ import annotations

import math
import os
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

# The block length of compensated_sum (np.sum of each block, the block sums
# combined exactly with math.fsum) and of the walks of explicit advice and of
# a power law's probs and cdf builds.  A walk's reused ranks and block (512
# KB each) stay in cache, so a walk costs less than one pass over an n-sized
# array.
_BUILD_STEP = 1 << 16

# Longest float64 array numpy can address: its byte size must fit in intp.
_MAX_LEN = np.iinfo(np.intp).max // 8

# The Bernoulli numbers B_2, B_4, ..., B_22 of the Euler-Maclaurin sums:
# _power_sums takes the first eight, the oracle-only panels' weights all.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
              43867 / 798, -174611 / 330, 854513 / 138)

# The head of every power-law row: its ranks up to _PANEL_START are made and
# summed directly, with the bits probs holds, and each column past them is a
# power sum (_power_sums).  The oracle-only kernel runs on these ranks, and
# its Chebyshev panels start here.
_PANEL_START = 128


def _physical_memory() -> int:
    """Bytes of physical memory, or the address space where that is unknown."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):   # no sysconf on this platform
        return 8 * _MAX_LEN


class ConfigError(ValueError):
    """Structurally malformed configuration (missing key, wrong type)."""


class ParameterError(ValueError):
    """Well-formed configuration with an out-of-range parameter value."""


def _shown(value) -> str:
    """value as an error message prints it: an integer past 100 digits by its
    size, as str() refuses integers past 4,300 digits."""
    if isinstance(value, int) and value.bit_length() > 332:
        return f"an integer of about {int(value.bit_length() * math.log10(2)) + 1} digits"
    return str(value)


def _check_int(value, what: str, minimum: int, maximum: int | None = None):
    """Return value if it is an integer (not a bool) from minimum to maximum:
    ConfigError for another type, ParameterError for a value out of range."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < minimum or (maximum is not None and value > maximum):
        span = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise ParameterError(f"{what} must be {span}, got {_shown(value)}")
    return value


def _check_real(value, what: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Return value as a float if it is a number (not a bool) that is finite
    and inside the open interval (lo, hi): ConfigError for another type,
    ParameterError for a value out of range or beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise ParameterError(f"{what} is an integer beyond the float range") from None
    if not (math.isfinite(real) and lo < real < hi):
        raise ParameterError(f"{what} must be finite and inside ({lo:.4g}, {hi:.4g}), "
                             f"got {_shown(value)}")
    return real


def _prefix_length(block: np.ndarray, threshold: float, side: str = "left") -> int:
    """Length of the prefix of a non-increasing block whose values are at
    least threshold (side "left") or above it (side "right"); it searches
    the ascending reversed view, which copies nothing."""
    return block.size - int(np.searchsorted(block[::-1], threshold, side=side))


def _dot(block: np.ndarray, v: np.ndarray) -> float:
    """sum_i block_i v_i by einsum: a BLAS dot this long starts threads that spin."""
    return float(np.einsum("i,i->", block, v))


def _rank_weighted_sums(dist: AdviceDistribution, fn, step: int = _BUILD_STEP) -> list[float]:
    """The math.fsum of each column of fn over the blocks of dist._streams(step):
    fn(block, ranks) gets the probabilities of one block of at most step
    ranks and those 1-based ranks as floats (which it may overwrite), and
    returns one partial sum per column."""
    return [math.fsum(column) for column in zip(*(fn(block, ranks)
                                                 for _, ranks, block in dist._streams(step)))]


def _power_integral(s: float, a, b) -> np.ndarray:
    """The integral of x^s from a to b, elementwise over arrays 0 < a <= b:
    a^(s+1) expm1(t)/(s + 1), t = (s + 1) ln(b/a), where |t| < 1/2 and the
    difference (b^(s+1) - a^(s+1))/(s + 1) would cancel; ln(b/a) at s = -1.
    x^(s+1) is taken as x^s x: the rounding of s + 1 would cost ln(x) ulps."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    log_ratio = np.log1p((b - a) / a)
    if s == -1.0:
        return log_ratio
    with np.errstate(over="ignore"):   # a t past the float range takes the difference
        t = (s + 1.0) * log_ratio
    return np.where(np.abs(t) < 0.5, np.power(a, s) * a * np.expm1(t),
                    np.power(b, s) * b - np.power(a, s) * a) / (s + 1.0)


def _power_sums(s: float, lo, hi) -> np.ndarray:
    """sum_{x=lo+1}^{hi} x^s, elementwise over arrays of ranks 0 <= lo, and 0
    where hi <= lo: the Euler-Maclaurin sum, the integral, the end terms and
    the B_2, ..., B_16 terms.  It errs by about the first term it drops,
    B_18/18! s(s-1)...(s-16) x^(s-17) between the ends: from lo =
    _PANEL_START, where x^-17 <= 129^-17 < 2^-119, below 1e-32 of the sum
    (at least x^s) for |s| <= 4 and 1e-21 for |s| <= 40.  The derivatives
    take one factor (s - u)/x at a time, so where (lo + 1)^s underflows
    every term is 0, as in the walk."""
    a = np.asarray(lo, dtype=np.float64) + 1.0
    b = np.maximum(np.asarray(hi, dtype=np.float64), a)   # an empty range is summed as one rank
    da, db = np.power(a, s), np.power(b, s)   # x^s and its derivatives, order by order, at a and b
    total = _power_integral(s, a, b) + 0.5 * (da + db)
    for r, bernoulli in enumerate(_BERNOULLI[:8], 1):
        for u in range(max(0, 2 * r - 3), 2 * r - 1):   # on to the order 2r - 1
            da, db = da * ((s - u) / a), db * ((s - u) / b)
        total += bernoulli / math.factorial(2 * r) * (db - da)
    return np.where(np.asarray(hi) > np.asarray(lo), total, 0.0)


def _last_ranks_at_least(probs_at, ns, thresholds) -> np.ndarray:
    """For each pair of ns and thresholds, the largest rank in 1..n whose
    probability is at least the threshold, or 0 if none: one bisection over
    the sorted ranks of every pair at once, where probs_at(ranks) gives the
    probability of each pair's rank (as a walk block makes it, so a walk's
    cut agrees on every rank; a power law's float formula
    floor((threshold/alpha)^(1/k)) misses it as k -> 0)."""
    lo = np.zeros(len(ns), dtype=np.int64)   # each answer lies in lo..hi
    hi = np.array(ns, dtype=np.int64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    while (active := lo < hi).any():
        mid = (lo + hi + 1) // 2   # at least 1 where active
        at_least = probs_at(np.maximum(mid, 1)) >= thresholds
        lo = np.where(active & at_least, mid, lo)
        hi = np.where(active & ~at_least, mid - 1, hi)
    return lo


def _no_columns(*_) -> tuple:
    """No columns: the fn and the tail of a _linear_sums that yields alpha alone."""
    return ()


def _head_sums(dist: AdviceDistribution, fn, tail, stops=None):
    """Yield, at each of stops (dist.n by default), the math.fsum of each of
    fn's columns over the ranks up to it.  Other advice than a power law is
    _rank_weighted_sums, and stops only at dist.n.  A power law makes each
    head, its ranks up to min(stop, _PANEL_START), as one block of its own
    (fn may overwrite its ranks) with the bits probs holds, and gets fn's
    row of it.  Past the head each column's math.fsum takes in the terms (a
    number or an array per stop) of its sum over ranks _PANEL_START + 1..stop,
    from one tail(law, _PANEL_START, his) call over the stops past the head:
    tail is elementwise in his, so no stop's sums depend on the other stops."""
    law = dist.power_law
    stops = (dist.n,) if stops is None else stops
    if law is None:
        if list(stops) != [dist.n]:   # sweeps, the walks that stop early, take power laws
            raise ValueError(f"only a power law's walk stops before n = {dist.n}")
        yield _rank_weighted_sums(dist, fn)
        return
    heads = {}
    for cut in {min(stop, _PANEL_START) for stop in stops}:
        _, ranks, block = next(AdviceDistribution(cut, power_law=law)._streams(cut))
        heads[cut] = fn(block, ranks)
    far = [stop for stop in stops if stop > _PANEL_START]
    tails = zip(*tail(law, _PANEL_START, np.array(far, dtype=np.int64))) if far else iter(())
    for stop in stops:
        row = heads[min(stop, _PANEL_START)]
        terms = next(tails) if stop > _PANEL_START else ((),) * len(row)
        yield [math.fsum((head, *np.ravel(t).tolist())) for head, t in zip(row, terms, strict=True)]


def _linear_sums(dist: AdviceDistribution, fn, stops=None, tail=_no_columns):
    """Yield, at each of stops (dist.n by default), alpha and alpha times fn's
    column sums, for columns linear in p; other advice than a power law is
    walked whole, with alpha 1.

    A power law is _head_sums of its weights x^k (alpha 1), with a weight
    column added: the head's ranks up to _PANEL_START, and past them each
    column's sum of x^k times the column's cost by _power_sums, the weight
    column's sum x^k and fn's columns' from tail(law, lo, his).  A stop's
    alpha = 1 / the weight column is its own, so it has the bits of
    power_law_alpha."""
    law = dist.power_law
    if law is None:
        for sums in _head_sums(dist, fn, tail, stops):
            yield [1.0, *sums]
        return
    for weight, *sums in _head_sums(
            _weights(dist.n, law.k),
            lambda block, ranks: (float(np.sum(block)), *fn(block, ranks)),
            lambda law, lo, his: (_power_sums(law.k, lo, his), *tail(law, lo, his)), stops):
        alpha = 1.0 / weight
        yield [alpha, *(alpha * value for value in sums)]


def compensated_sum(values) -> float:
    """Sum an array: np.sum of each _BUILD_STEP block, the block sums combined
    exactly with math.fsum, so long inputs (n up to 2**30) do not drift."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    return math.fsum(float(np.sum(flat[lo:lo + _BUILD_STEP]))
                     for lo in range(0, flat.size, _BUILD_STEP))


def power_law_alpha(n: int, k: float) -> float:
    """Normalizing constant alpha with sum_{x=1..n} alpha*x^k = 1: the alpha
    of a one-stop _linear_sums.  The ranks up to _PANEL_START (128) are
    summed directly, so for n <= 128 it is bit for bit 1 /
    compensated_sum(x^k for x = 1..n); the ranks past 128 are one
    Euler-Maclaurin power sum, within about an ulp of the exact alpha.
    """
    k = _check_power_law_params(n, k)
    return next(_linear_sums(_weights(n, k), _no_columns))[0]   # [alpha]


@dataclass(frozen=True)
class PowerLawSpec:
    """Parameters of a truncated power law p_x = alpha * x^k on {1..n}."""

    n: int
    k: float
    alpha: float

    def integral_bracket(self) -> tuple[float, float]:
        """Bounds (lo, hi) with lo <= 1/alpha <= hi from the integral test:
        lo the integral of x^k over [1, n], which does not cancel near k = -1."""
        lo = float(_power_integral(self.k, 1.0, self.n))
        return lo, lo + 1.0


class AdviceDistribution:
    """A prior over {1..n}, sorted non-increasing, with sampling support.

    A power law (power_law given, probs None) is streamed: each walk makes
    its blocks alpha * x^k from their ranks as probs would hold them (x^k
    alone for sums linear in p), so exact rows allocate nothing of size n.  probs
    is built, with the same bits, only when read (statevector checks,
    validate() and tests); Monte Carlo builds only the cdf.  perm=None means
    the advice is already in rank order: the identity permutation is then
    built only when read (exact rows and Monte Carlo never read it).
    """

    def __init__(self, n: int, probs: np.ndarray | None = None,
                 perm: np.ndarray | None = None, power_law: PowerLawSpec | None = None):
        self.n = n
        self.power_law = power_law
        self._probs = probs
        self._perm = perm
        self._cdf: np.ndarray | None = None

    @property
    def probs(self) -> np.ndarray:
        """Probability of each sorted rank."""
        if self._probs is None:
            probs = np.empty(self.n)
            for lo, _, block in self._streams():
                probs[lo:lo + block.size] = block
            self._probs = probs
        return self._probs

    @property
    def perm(self) -> np.ndarray:
        """Original 1-based position of each sorted rank."""
        if self._perm is None:
            self._perm = np.arange(1, self.n + 1,
                                   dtype=np.int32 if self.n < 2**31 else np.int64)
        return self._perm

    def _streams(self, step: int = _BUILD_STEP):
        """Yield (lo, ranks, block) over the blocks of step ranks (the last may
        be shorter): the 1-based ranks lo + 1, ... as floats, and their
        probabilities, for a power law made in scratch as np.power(ranks, k)
        * alpha (x^k alone at alpha 1), otherwise a slice of probs.  The
        scratch, a base range and the ranks and block it rewrites per block,
        is allocated once per walk."""
        base = np.arange(min(step, self.n), dtype=np.float64)
        scratch = np.empty((1 if self.power_law is None else 2, base.size))
        for lo in range(0, self.n, step):
            size = min(step, self.n - lo)
            ranks = np.add(base[:size], lo + 1, out=scratch[0, :size])
            if self.power_law is None:
                block = self._probs[lo:lo + size]
            else:
                block = np.power(ranks, self.power_law.k, out=scratch[1, :size])
                if self.power_law.alpha != 1.0:   # x^k alone, for sums linear in p
                    block *= self.power_law.alpha
            yield lo, ranks, block

    def _probs_at(self, ranks: np.ndarray) -> np.ndarray:
        """Probabilities of the 1-based integer ranks, the same bits as
        probs[ranks - 1], without building a power law's probs."""
        if self.power_law is None:
            return self._probs[ranks - 1]
        return np.power(ranks.astype(np.float64), self.power_law.k) * self.power_law.alpha

    def _last_rank_at_least(self, threshold: float) -> int:
        """Largest rank whose probability is at least threshold, or 0 if
        none: _last_ranks_at_least on the bits of _probs_at."""
        return int(_last_ranks_at_least(self._probs_at, [self.n], [threshold])[0])

    @property
    def cdf(self) -> np.ndarray:
        """Prefix sums of probs, the bits of np.cumsum(probs), built lazily
        block by block (exact-mode runs never need it)."""
        if self._cdf is None:
            cdf, carry = np.empty(self.n), 0.0
            for lo, _, block in self._streams():
                out = cdf[lo:lo + block.size]
                out[...] = block
                out[0] += carry   # the running sum enters each block's first term
                carry = np.cumsum(out, out=out)[-1]
            self._cdf = cdf
        return self._cdf

    def prob(self, rank: int) -> float:
        """Probability of the element at sorted rank (1-based)."""
        _check_int(rank, "rank", 1, self.n)
        return float(self._probs_at(np.array([rank]))[0])

    def support_size(self) -> int:
        """Number of ranks with positive probability: p > 0 is p >= 5e-324."""
        return self._last_rank_at_least(math.ulp(0.0))

    def x0_threshold(self) -> int:
        """Largest sorted rank with p_x >= 1/n, or 0 if none."""
        return self._last_rank_at_least(1.0 / self.n)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw size sorted ranks ~ probs (never a zero-probability rank)."""
        idx = np.searchsorted(self.cdf, rng.random(size), side="right")
        return np.minimum(idx, self.support_size() - 1).astype(np.int64) + 1

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


def _check_power_law_params(n, k) -> float:
    """Check a power law's n and k; return k as a float."""
    _check_int(n, "n", 1, _MAX_LEN)
    k = _check_real(k, "power-law exponent k", hi=0.0)
    # exact rows stream the probabilities and visit no rank past 128 (power
    # sums, and the oracle-only panels), but Monte Carlo's cdf and validate()
    # hold n of them, and past ~2^30 an oracle-only tail, whose rounds take
    # only the leading term p (4m^2 - 1)/3 of each budget's success series,
    # is off by ~7e-7 relative at the tail cut, more past it: such an n is
    # refused at once
    if 8 * n > _physical_memory():
        raise ParameterError(f"n = {n} needs {8 * n} bytes for its probabilities, "
                             f"more than this machine's {_physical_memory()}")
    return k


def _weights(n: int, k: float) -> AdviceDistribution:
    """The weights x^k on {1..n}, unnormalized: a streamed power law of alpha 1."""
    return AdviceDistribution(n=n, power_law=PowerLawSpec(n=n, k=k, alpha=1.0))


def make_power_law(n: int, k: float) -> AdviceDistribution:
    """Power-law advice p_x = alpha * x^k on {1..n}, k < 0 (already sorted),
    streamed: it holds alpha, not probs."""
    alpha = power_law_alpha(n, k)   # which checks n and k
    return AdviceDistribution(n=n, power_law=PowerLawSpec(n=n, k=float(k), alpha=alpha))


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


def _dist_kind(cfg: dict) -> str:
    """cfg["kind"] if dist_from_config builds that kind and cfg holds no key
    that the kind does not take, else ConfigError."""
    if cfg.get("kind") not in ("powerlaw", "explicit"):   # compared, not hashed: any value
        raise ConfigError(f"unknown dist kind {cfg.get('kind')!r}")
    extra = set(cfg) - {"kind", *{"powerlaw": ("n", "k"), "explicit": ("weights",)}[cfg["kind"]]}
    if extra:
        raise ConfigError(f"unknown {cfg['kind']} keys: {sorted(extra)}")
    return cfg["kind"]


def dist_from_config(cfg: dict) -> AdviceDistribution:
    """Build a distribution from the config mapping.

    Schemas: {"kind": "powerlaw", "n": int, "k": float<0}
             {"kind": "explicit", "weights": [w1, w2, ...]}
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"dist config must be a mapping, got {type(cfg).__name__}")
    if _dist_kind(cfg) == "powerlaw":
        return make_power_law(cfg.get("n"), cfg.get("k"))   # a missing one fails as None
    if "weights" not in cfg or not isinstance(cfg["weights"], (list, tuple)):
        raise ConfigError("explicit dist needs a 'weights' list")
    for w in cfg["weights"]:
        _check_real(w, "weight")
    return make_explicit(cfg["weights"])

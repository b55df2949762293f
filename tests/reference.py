"""Independent brute-force re-derivations used as test oracles.

Everything here is written naively (scalar loops, explicit sums, dense
matrices) and imports nothing from the package, so agreement between
these functions and the package is meaningful evidence.  Keep it slow
and obvious.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np


def ref_sorted_probs(weights) -> tuple[list[float], list[int]]:
    """Normalize and sort non-increasing; ties keep input order.

    Returns (probs, perm) with perm[i] = 1-based original index of the
    weight occupying sorted position i.
    """
    weights = [float(w) for w in weights]
    total = math.fsum(weights)
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    probs = [weights[i] / total for i in order]
    perm = [i + 1 for i in order]
    return probs, perm


def ref_power_probs(n: int, k: float) -> list[float]:
    raw = [float(x) ** k for x in range(1, n + 1)]
    total = math.fsum(raw)
    return [r / total for r in raw]


def ref_classical_expected(probs) -> float:
    return math.fsum(p * (i + 1) for i, p in enumerate(probs))


def ref_sqrt_rank_mean(probs) -> float:
    return math.fsum(p * math.sqrt(i + 1) for i, p in enumerate(probs))


def ref_x0(probs) -> int:
    """Largest rank whose probability is >= 1/n, by linear scan."""
    n = len(probs)
    best = 0
    for i, p in enumerate(probs):
        if p >= 1.0 / n:
            best = i + 1
    return best


def ref_grover_queries(m: int, zero_or_one: bool = False) -> int:
    return math.ceil(math.pi / 4.0 * math.sqrt(m)) + (1 if zero_or_one else 0)


def ref_blocks(n: int, k: float) -> list[tuple[int, int, int]]:
    """Schedule loop, replayed literally: (start, end, nominal_size) rows."""
    rows = []
    start, end, step = 1, 1, 0
    while start <= n:
        size = int((k**step) * (1.0 + 1e-12))
        rows.append((start, min(end, n), size))
        step += 1
        start = end + 1
        end = min(start + int((k**step) * (1.0 + 1e-12)) - 1, n)
    return rows


def ref_geometric_schedule(n: int, k: float) -> tuple[list[int], list[float]]:
    """The block search's schedule as the per-block loop builds it: sizes
    floor(k^j (1 + 1e-12)) from powers by iterated multiplication, each
    block's end min(end + size, n) and its cost ceil(pi/4 sqrt(size)) + 1
    at its nominal size, the costs summed in turn (np.cumsum's order)."""
    ends, costs, end, power = [], [], 0, 1.0
    while end < n:
        size = int(math.floor(power * (1.0 + 1e-12)))
        end = min(end + size, n)
        ends.append(end)
        costs.append(math.ceil(0.25 * math.pi * math.sqrt(size)) + 1)
        power *= k
    return ends, np.cumsum(costs, dtype=np.float64).tolist()


def ref_geometric_cost(n: int, k: float, rank: int) -> int:
    """f queries to find a given rank: certainty sweeps block by block,
    each charged at its nominal size."""
    total = 0
    for start, end, size in ref_blocks(n, k):
        total += ref_grover_queries(size, zero_or_one=True)
        if start <= rank <= end:
            return total
    raise AssertionError(f"rank {rank} not covered by schedule")


def ref_scan_row(model: str, n: int, k: float, alpha: float, ratio: float) -> tuple[float, float]:
    """(f, sum p_x sqrt(x)) of a classical or geometric row on the power law
    p_x = alpha * x^k: each p_x made per element, then dotted with its
    rank's cost (the geometric one from ref_blocks' schedule), 2^16 ranks at
    a time: math.fsum of each chunk, and of the chunk sums."""
    ends = cum = None
    if model == "geometric":
        blocks = ref_blocks(n, ratio)
        ends = np.array([end for _, end, _ in blocks])
        cum = np.cumsum([ref_grover_queries(size, zero_or_one=True) for _, _, size in blocks])
    f, roots = [], []
    for lo in range(0, n, 1 << 16):
        x = np.arange(lo + 1, min(lo + (1 << 16), n) + 1, dtype=np.float64)
        p = alpha * np.power(x, k)
        cost = x if ends is None else cum[np.searchsorted(ends, x)].astype(np.float64)
        f.append(math.fsum(p * cost))
        roots.append(math.fsum(p * np.sqrt(x)))
    return math.fsum(f), math.fsum(roots)


def ref_geometric_expected(probs, k: float) -> float:
    n = len(probs)
    return math.fsum(p * ref_geometric_cost(n, k, i + 1)
                     for i, p in enumerate(probs))


def ref_success_prob(p: float, j: int) -> float:
    return math.sin((2 * j + 1) * math.asin(math.sqrt(p))) ** 2


def ref_iteration_average(p: float, m: int) -> float:
    return math.fsum(ref_success_prob(p, r) for r in range(m)) / m


def ref_round_budgets(n: int, k: float) -> list[int]:
    """floor(k^j) for j = 0, 1, ... while k^j <= sqrt(n)."""
    budgets = []
    power = 1.0
    limit = math.sqrt(n) * (1.0 + 1e-12)
    while power <= limit:
        budgets.append(int(power * (1.0 + 1e-12)))
        power *= k
    return budgets


def ref_unknown_expected(p: float, n: int, k: float) -> tuple[float, float, float]:
    """Expected (f, preparation, inversion) counts of the sample-then-
    amplify search for one marked element of probability p, accumulated
    round by round with explicit iteration averages."""
    theta = math.asin(math.sqrt(p))
    e_f = e_prep = e_inv = 0.0
    reach = 1.0
    for m in ref_round_budgets(n, k):
        e_f += reach          # check the drawn sample
        e_prep += reach       # prepare it
        miss = reach * (1.0 - p)
        mean_i = (m - 1) / 2.0
        e_f += miss * (mean_i + 1.0)
        e_prep += miss * (mean_i + 1.0)
        e_inv += miss * mean_i
        amp = math.fsum(math.sin((2 * i + 1) * theta) ** 2 for i in range(m)) / m
        reach *= (1.0 - p) * (1.0 - amp)
    e_f += reach * ref_grover_queries(n)
    return e_f, e_prep, e_inv


def ref_unknown_expected_mu(probs, k: float) -> tuple[float, float, float]:
    n = len(probs)
    totals = [0.0, 0.0, 0.0]
    for i, p in enumerate(probs):
        if p == 0.0:
            continue
        costs = ref_unknown_expected(p, n, k)
        for slot in range(3):
            totals[slot] += p * costs[slot]
    return tuple(totals)


def ref_unknown_search(p: float, budgets, fallback: int, rng) -> tuple[tuple[int, int, int], int]:
    """One zero-error run of the sample-and-amplify search for a marked
    element of probability p, one draw at a time: the queries it made to
    f, O_mu and O_mu^-1, and the rounds it used.

    Per round of budget m: draw one sample from the advice and check it (1
    preparation + 1 f query, succeeds with probability p); if that misses,
    run an amplification attempt whose iteration count i is uniform on
    {0..m-1} (i+1 preparations and f checks, i inversions, succeeds with
    probability sin^2((2i+1) arcsin sqrt(p))).  Rounds restart fresh.  If
    every round fails, a certainty search of fallback f queries ends the
    run.  The success probability is the package's numpy expression, so a
    uniform is compared with the same float as in the array simulation.
    """
    theta = np.arcsin(np.sqrt(p))
    f = o_mu = inv = 0
    for j, m in enumerate(budgets):
        f += 1
        o_mu += 1
        if rng.random() < p:
            return (f, o_mu, inv), j + 1
        i = int(rng.integers(m))
        # one preparation, then an inverse/re-preparation pair per iteration,
        # with a classical check of every outcome
        f += i + 1
        o_mu += i + 1
        inv += i
        s = np.sin((2 * i + 1) * theta)
        if rng.random() < s * s:
            return (f, o_mu, inv), j + 1
    return (f + fallback, o_mu, inv), len(budgets)


def ref_min_queries_for_prob(n: int, p: float) -> int:
    """Fewest uniform-search iterations whose accumulated rotation angle
    reaches asin(sqrt p), scanning up from zero.  (Scanning the success
    probability itself would never terminate: past the quarter turn the
    success value falls again, so targets above the best reachable value
    have no crossing.)"""
    a = math.asin(1.0 / math.sqrt(n))
    target = math.asin(math.sqrt(p))
    t = 0
    while (2 * t + 1) * a < target * (1.0 - 1e-12):
        t += 1
    return t


def ref_certainty_reflections(n: int) -> int:
    """Smallest m whose (2m+1)-step rotation can overshoot to certainty
    after damping the initial overlap to sin(pi / (2(2m+1)))."""
    m = 0
    while math.sin(math.pi / (2.0 * (2 * m + 1))) > 1.0 / math.sqrt(n) * (1 + 1e-12):
        m += 1
    return m


def ref_las_vegas_max(n: int, step: float = 2e-5) -> float:
    """Fine-grid maximization of (1-p)(asin(sqrt p)/(2 asin(1/sqrt n)) - 1/2)."""
    a = math.asin(1.0 / math.sqrt(n))
    best = 0.0
    p = step
    while p < 1.0:
        val = (1.0 - p) * (math.asin(math.sqrt(p)) / (2.0 * a) - 0.5)
        best = max(best, val)
        p += step
    return best


def ref_reflection_matrix(amps: np.ndarray) -> np.ndarray:
    amps = np.asarray(amps, dtype=np.complex128)
    return 2.0 * np.outer(amps, amps.conj()) - np.eye(amps.size)


def ref_oracle_matrix(n: int, marked_rank: int) -> np.ndarray:
    signs = np.ones(n)
    signs[marked_rank - 1] = -1.0
    return np.diag(signs)


def ref_alpha(n: int, k: float) -> float:
    return 1.0 / math.fsum(float(x) ** k for x in range(1, n + 1))


def ref_power_sum(s, lo: int, hi: int, dps: int = 40):
    """sum_{x=lo+1}^{hi} x^s as an mpmath number at dps digits, s a float or
    an mpmath number: a difference of Hurwitz zeta values for s < 0 (of
    digammas at s = -1), the count at s = 0, and for s > 0, where the Hurwitz
    zeta takes seconds a call, the ranks up to 1024 term by term and the
    rest by mpmath's Euler-Maclaurin summation (which errs by ~1e-9 from 1)."""
    with mpmath.workdps(dps):
        s, a, b = mpmath.mpf(s), mpmath.mpf(lo) + 1, mpmath.mpf(hi)
        if s == -1:
            return mpmath.digamma(b + 1) - mpmath.digamma(a)
        if s == 0:
            return b - a + 1
        if s < 0:
            return mpmath.zeta(-s, a) - mpmath.zeta(-s, b + 1)
        head = mpmath.fsum(mpmath.mpf(x) ** s for x in range(lo + 1, min(hi, 1024) + 1))
        a = max(a, 1025)
        return head + (mpmath.sumem(lambda x: x ** s, [a, b]) if a <= b else 0)


def ref_amplify_expected_whole(p, n: int, k: float, fused: bool = True):
    """Whole-array oracle-only kernel: (f, preparation, inversion) expected
    counts for every p, each operation one numpy expression over the whole
    vector.  fused=True gives the exact floating-point operations, in the
    same order, that the package's sub-blocked kernel must reproduce bit for
    bit: per round, A += reach, C += reach (m-1)/2 and reach *= 1 - (p + q avg),
    then shared = A + q (A + C) and inv = q C.  fused=False replays the
    earlier order, which added each round's preparations and inversions to
    shared and inv and took the round's miss as 1 - min(p + q avg, 1)."""
    tol = 1e-12
    p = np.asarray(p, dtype=np.float64)
    q = 1.0 - p
    c2 = p * (1.0 - p)
    tiny = p < tol
    top = (c2 < tol) & (p > 0.5)
    theta = np.arcsin(np.sqrt(p))
    c = np.sqrt(np.where(tiny | top, 1.0, c2))
    reach = np.ones_like(p)
    shared = np.zeros_like(p)   # A while fused
    inv = np.zeros_like(p)      # C while fused
    for m in ref_round_budgets(n, k):
        if m == 1:
            avg = p.copy()
        else:
            avg = 0.5 - np.sin((4.0 * m) * theta) / ((8.0 * m) * c)
            series = (4.0 * m * m - 1.0) / 3.0
            avg[tiny] = p[tiny] * series
            avg[top] = 1.0 - (1.0 - p[top]) * series
            np.clip(avg, 0.0, 1.0, out=avg)
        if fused:
            shared += reach
            inv += reach * ((m - 1) * 0.5)
            reach = reach * (1.0 - (p + q * avg))
        else:
            miss_weight = reach * q
            shared += reach + miss_weight * ((m + 1) * 0.5)
            inv += miss_weight * ((m - 1) * 0.5)
            reach = reach * (1.0 - np.minimum(p + q * avg, 1.0))
    if fused:
        shared, inv = shared + q * (shared + inv), q * inv
    f = shared + reach * float(ref_grover_queries(n))
    return f, shared, inv


def ref_unknown_expected_mp(p: float, budgets, fallback: int, dps: int = 50):
    """Per-rank (f, preparation, inversion) expected counts as mpmath numbers
    at dps digits: BBHT's closed-form iteration average 1/2 - sin(4m theta) /
    (4m sin(2 theta)) at that precision, where no float rounding enters."""
    with mpmath.workdps(dps):
        p = mpmath.mpf(p)
        theta, q = mpmath.asin(mpmath.sqrt(p)), 1 - p
        reach, shared, inv = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
        for m in budgets:
            avg = p if m == 1 else 0.5 - mpmath.sin(4 * m * theta) / (4 * m * mpmath.sin(2 * theta))
            shared += reach + reach * q * mpmath.mpf(m + 1) / 2
            inv += reach * q * mpmath.mpf(m - 1) / 2
            reach *= q * (1 - avg)
        return shared + reach * fallback, shared, inv


def ref_tail_costs(p: Fraction, budgets, fallback: int):
    """(f, preparation, inversion) exactly, in rationals, on the near-0 branch
    where a round of budget m misses with probability (1-p)(1 - p(4m^2-1)/3)."""
    reach, a, c = Fraction(1), Fraction(0), Fraction(0)
    for m in budgets:
        a += reach
        c += reach * Fraction(m - 1, 2)
        reach *= (1 - p) * (1 - p * Fraction(4 * m * m - 1, 3))
    shared = a + (1 - p) * (a + c)
    return shared + reach * fallback, shared, (1 - p) * c


def ref_tail_coefficients(budgets, fallback: int, degree: int):
    """The Taylor coefficients in p of ref_tail_costs to degree, exactly: the
    same recurrence on lists of rational coefficients, products cut at degree."""
    def times(u, v):
        return [sum((u[i] * v[d - i] for i in range(d + 1) if i < len(u) and d - i < len(v)),
                    Fraction(0)) for d in range(degree + 1)]

    def plus(u, v):
        return [x + y for x, y in zip(u, v)]

    q = [Fraction(1), Fraction(-1)]
    reach = [Fraction(1)] + [Fraction(0)] * degree
    a, c = [Fraction(0)] * (degree + 1), [Fraction(0)] * (degree + 1)
    for m in budgets:
        a = plus(a, reach)
        c = plus(c, [x * Fraction(m - 1, 2) for x in reach])
        reach = times(reach, times(q, [Fraction(1), -Fraction(4 * m * m - 1, 3)]))
    shared = plus(a, times(q, plus(a, c)))
    return plus(shared, [x * fallback for x in reach]), shared, times(q, c)


def ref_chunked_dot_sums(probs, vectors, chunk: int = 1 << 22) -> list[float]:
    """sum_x p_x v_x for each vector v: np.dot over consecutive chunks of
    2^22 ranks, chunk partials combined with math.fsum.  The advice-weighted
    reduction the oracle-only kernel used while it returned n-sized outputs."""
    probs = np.asarray(probs, dtype=np.float64)
    return [math.fsum(float(np.dot(probs[lo:lo + chunk], v[lo:lo + chunk]))
                      for lo in range(0, probs.size, chunk))
            for v in vectors]


def ref_powerlaw_exponents(model: str, k: float) -> tuple[float, int]:
    """(exponent, log exponent) of the expected cost under p_x ~ x^k, one
    regime at a time."""
    if model == "classical":
        if k > -1.0:
            return 1.0, 0
        if k == -1.0:
            return 1.0, -1
        if k > -2.0:
            return k + 2.0, 0
        return 0.0, 1 if k == -2.0 else 0
    if model == "geometric":
        if k > -1.0:
            return 0.5, 0
        if k == -1.0:
            return 0.5, -1
        if k > -1.5:
            return k + 1.5, 0
        return 0.0, 1 if k == -1.5 else 0
    if k >= -1.0:
        return 0.5, 0
    if k > -2.0:
        return -(0.5 + 1.0 / k), 0
    return 0.0, 1 if k == -2.0 else 0

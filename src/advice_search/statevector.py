"""Dense statevector reference for the amplification primitives.

Small-dimension simulator used to certify the closed forms in rotation.py
and the reflection count of the certainty search.  Every operator applied
here is a reflection (sign flip on an oracle-selected component, or
reflection about a fixed preparation state), so norms are preserved
exactly up to float roundoff.

The amplification step implements -P R0 P^-1 Rx where P maps |0> to the
advice state |mu>, R0/Rx flip the sign of |0> / the marked component: the
composition -P R0 P^-1 equals the rank-one reflection 2|mu><mu| - I, which
is how it is applied to the amplitude vector.
"""
from __future__ import annotations

import math

import numpy as np

from .distributions import AdviceDistribution, _check_int

__all__ = [
    "DIM_CAP",
    "CapExceeded",
    "aa_success_curve",
    "exact_search_profile",
]

# Largest simulated dimension; statevectors are a certification tool, not
# the scaling path, so keep memory/time firmly bounded.
DIM_CAP = 4096


class CapExceeded(ValueError):
    """Requested simulation exceeds the statevector dimension cap."""


def _check_cap(dim: int) -> None:
    if dim > DIM_CAP:
        raise CapExceeded(f"statevector dimension {dim} exceeds cap {DIM_CAP}")


def _reflect_about(reference: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """(2|ref><ref| - I) amps, for a unit-norm reference."""
    inner = np.vdot(reference, amps)
    return 2.0 * inner * reference - amps


def aa_success_curve(dist: AdviceDistribution, marked_rank: int,
                     max_iters: int) -> np.ndarray:
    """Success probabilities after j = 0..max_iters amplification steps."""
    _check_int(marked_rank, "marked rank", 1, dist.n)
    _check_int(max_iters, "max_iters", 0, 16 * DIM_CAP)
    _check_cap(dist.n)
    mu = np.sqrt(dist.probs).astype(np.complex128)
    amps = mu.copy()
    out = np.empty(max_iters + 1, dtype=np.float64)
    out[0] = float(np.abs(amps[marked_rank - 1]) ** 2)
    for j in range(1, max_iters + 1):
        amps[marked_rank - 1] *= -1.0
        amps = _reflect_about(mu, amps)
        out[j] = float(np.abs(amps[marked_rank - 1]) ** 2)
    return out


def _certainty_reflections(n: int) -> int:
    """Smallest m with (2m+1) asin(1/sqrt n) >= pi/2, i.e. sin(pi/(2(2m+1))) <= 1/sqrt n."""
    return max(0, math.ceil((math.pi / (2.0 * math.asin(1.0 / math.sqrt(n))) - 1.0) / 2.0))


def exact_search_profile(n: int, marked_rank: int = 1) -> tuple[float, int]:
    """(success probability, oracle reflections used) of the certainty search.

    An ancilla rotation damps the marked amplitude from 1/sqrt(n) to
    a = sin(pi/(2(2m+1))) so that m amplification steps land the good
    component (marked element, ancilla on) at angle exactly pi/2.
    """
    _check_int(marked_rank, "marked rank", 1, n)
    _check_cap(2 * n)
    m = _certainty_reflections(n)
    a = math.sin(math.pi / (2.0 * (2.0 * m + 1.0)))
    sin_beta = min(1.0, a * math.sqrt(n))
    cos_beta = math.sqrt(max(0.0, 1.0 - sin_beta * sin_beta))
    psi0 = np.empty((n, 2), dtype=np.complex128)
    psi0[:, 0] = cos_beta / math.sqrt(n)
    psi0[:, 1] = sin_beta / math.sqrt(n)
    amps = psi0.copy()
    flat0 = psi0.ravel()
    for _ in range(m):
        amps[marked_rank - 1, 1] *= -1.0
        amps = _reflect_about(flat0, amps.ravel()).reshape(n, 2)
    return float(np.abs(amps[marked_rank - 1, 1]) ** 2), m

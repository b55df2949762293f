"""Expected query costs of search guided by an advice distribution.

The package models a searcher looking for a marked element of {1..n}
with help from a prior (the advice distribution): closed-form and
Monte Carlo expected query counts for a classical scan, for quantum
search over geometrically growing prefixes when the advice is known,
and for sample-then-amplify search when the advice is available only
as a state-preparation oracle, together with the matching lower and
upper bounds and small-instance statevector checks.
"""
from __future__ import annotations

from . import algorithms, bounds, distributions, rotation, statevector, sweep, validation
from .algorithms import *  # noqa: F401,F403 - each module's __all__ is its public list
from .bounds import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .rotation import *  # noqa: F401,F403
from .sweep import *  # noqa: F401,F403
from .validation import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["statevector", "sweep"] + [
    name for module in (algorithms, bounds, distributions, rotation, sweep, validation)
    for name in module.__all__]

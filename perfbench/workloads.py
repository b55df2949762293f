"""Workload definitions: the CLI calls each workload makes, built from a seed.

This module imports nothing heavy, so the set-up probe can time the import
of ``advice_search`` on its own.  A workload is a list of operations; an
operation is one ``advice_search.cli.main`` call plus the check the gate
runs on its output.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# Exact sweeps: (model, power-law exponent k, exponents e of the n = 2**e grid).
_UNKNOWN_SWEEPS = (("unknown", -0.75, range(10, 23, 2)),
                   ("unknown", -2.5, range(10, 21, 2)))
_SCAN_SWEEPS = tuple((model, k, range(10, 25, 2))
                     for model in ("classical", "geometric")
                     for k in (-0.75, -1.75))
# Monte Carlo runs of the oracle-only model: (n, k) points and trials each.
# They ride in the unknown_model workload rather than in one of their own:
# alone, their pure-Python loop swung by up to 30% from run to run with the
# host's load, while inside the ~20 s exact-sweep repetition the swing is a
# few per cent of the total.  At 2,500 trials per point they are ~7% of it.
_MC_POINTS = tuple((n, k) for n in (1024, 65536) for k in (-0.75, -1.75))
_MC_TRIALS = 2_500

# Toy scale for the self-test: the same calls on the first grid points only
# (the fit keeps three points after dropping the two smallest) and fewer
# Monte Carlo trials.
_TOY_MAX_EXP = 18
_TOY_MC_TRIALS = 1_000

WORKLOADS = ("unknown_model", "sweep_scan_exact")


@dataclass(frozen=True)
class Op:
    """One CLI call: ``kind`` is "sweep", "fit" or "run".

    ``name`` is the file stem of the call's config, output and reference
    CSV; ``ns`` are the domain sizes of the rows it emits (none for fit).
    """

    kind: str
    name: str
    model: str
    k: float
    ns: tuple[int, ...] = ()
    trials: int = 0
    seed: int = 0

    @property
    def exact_rows(self) -> int:
        """Rows compared with the reference CSV (exact sweeps only)."""
        return len(self.ns) if self.kind == "sweep" else 0

    def config(self) -> dict:
        dist = {"kind": "powerlaw", "k": self.k}
        if self.kind == "sweep":
            return {"dist": dist, "model": self.model, "mode": "exact",
                    "n_grid": list(self.ns), "seed": self.seed}
        dist["n"] = self.ns[0]
        return {"dist": dist, "model": self.model, "mode": "monte_carlo",
                "trials": self.trials, "seed": self.seed}

    def argv(self, workdir: str) -> list[str]:
        base = os.path.join(workdir, self.name)
        if self.kind == "fit":
            return ["fit", base + ".csv", "--out", base + ".fit"]
        return [self.kind, base + ".json", "--out", base + ".csv"]


def build(workload: str, seed: int, toy: bool = False) -> list[Op]:
    """The operations of one repetition, in a seed-dependent order.

    Each sweep is followed by its fit, and the Monte Carlo runs come last.
    The seed shuffles the order of the sweeps and of the runs (exact rows
    do not depend on it) and draws the sweep and Monte Carlo seeds, so the
    same seed gives the same inputs.
    """
    rng = random.Random(seed)
    if workload == "unknown_model":
        sweeps, points = list(_UNKNOWN_SWEEPS), list(_MC_POINTS)
    elif workload == "sweep_scan_exact":
        sweeps, points = list(_SCAN_SWEEPS), []
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(sweeps)
    ops = []
    for model, k, exps in sweeps:
        ns = tuple(2**e for e in exps if not toy or e <= _TOY_MAX_EXP)
        name = f"{model}_k{k:g}"
        ops.append(Op("sweep", name, model, k, ns=ns, seed=rng.randrange(2**31)))
        ops.append(Op("fit", name, model, k))
    rng.shuffle(points)
    trials = _TOY_MC_TRIALS if toy else _MC_TRIALS
    ops += [Op("run", f"run_n{n}_k{k:g}", "unknown", k, ns=(n,), trials=trials,
               seed=rng.randrange(2**31)) for n, k in points]
    return ops


def write_configs(ops: list[Op], workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for op in ops:
        if op.kind != "fit":
            with open(os.path.join(workdir, op.name + ".json"), "w",
                      encoding="utf-8") as fh:
                json.dump(op.config(), fh)

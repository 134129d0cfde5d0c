"""Seeded workload plans: the experiment runs that make up one round.

Grid sizes are fixed. The seed draws only parameters that leave the amount
of work unchanged (state kind's shape parameters, separations, widths,
times, optimizer seeds), and only from ranges where every run succeeds and
every output check holds. A plan is a list of {"experiment", "overrides"}
with override values as the strings passed to `--set`; the same plan is run
in every round of a benchmark run.
"""

from __future__ import annotations

import random

# the narrow grid the minkowski-shear regime needs (the negativity-decay
# defaults fit only the euclidean regime)
SHEAR_GRID = {"x_min": "-12", "x_max": "11.90625", "n_points": "256", "n_samples": "6"}


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    return repr(round(rng.uniform(lo, hi), 4))


def _wigner_state(rng: random.Random, kind: str) -> dict:
    if kind == "gaussian":
        return {
            "state": kind,
            "center": _draw(rng, -1.0, 1.0),
            "width": _draw(rng, 0.8, 1.2),
            "momentum": _draw(rng, -1.0, 1.0),
        }
    return {"state": kind, "separation": _draw(rng, 2.5, 3.5), "width": _draw(rng, 0.8, 1.2)}


def epr_pair(rng: random.Random) -> list[dict]:
    return [
        {
            "experiment": "epr",
            "overrides": {
                "s": _draw(rng, 0.045, 0.055),
                "time": _draw(rng, 0.06, 0.065),
                "condition_momentum": _draw(rng, 1.5, 2.5),
            },
        }
    ]


def damping_trajectory(rng: random.Random) -> list[dict]:
    return [
        {
            "experiment": "negativity-decay",
            "overrides": {
                "regime": "euclidean",
                "state": "cat-even",
                "separation": _draw(rng, 2.8, 3.2),
                "width": _draw(rng, 0.95, 1.05),
            },
        }
    ]


def catalog_sweep(rng: random.Random) -> list[dict]:
    plan = []
    for n_points in ("256", "512"):
        for kind in ("gaussian", "cat-odd", "cat-even"):
            plan.append(
                {
                    "experiment": "wigner",
                    "overrides": {"n_points": n_points, **_wigner_state(rng, kind)},
                }
            )
    plan.append(
        {
            "experiment": "negativity-decay",
            "overrides": {
                "regime": "minkowski-shear",
                **SHEAR_GRID,
                "state": rng.choice(("cat-odd", "cat-even")),
                "separation": _draw(rng, 2.5, 3.5),
                "width": _draw(rng, 0.9, 1.1),
            },
        }
    )
    plan.append({"experiment": "kernel-check", "overrides": {"total_time": _draw(rng, 0.8, 1.2)}})
    plan.append(
        {
            "experiment": "commutator",
            "overrides": {
                "total_time": _draw(rng, 0.5, 2.0),
                "boundary_width": _draw(rng, 0.8, 1.2),
            },
        }
    )
    plan.append({"experiment": "spin-phase", "overrides": {"latitude_theta": _draw(rng, 0.6, 1.4)}})
    plan.append({"experiment": "chsh", "overrides": {"seed": str(rng.randrange(64))}})
    low = round(rng.uniform(0.0, 1.0), 4)
    gap = round(rng.uniform(0.8, 1.2), 4)
    energies = (0.0, low, round(low + gap, 4), 3.0)
    plan.append(
        {
            "experiment": "chsh-decay",
            "overrides": {
                "seed": str(rng.randrange(64)),
                "energies": ",".join(repr(e) for e in energies),
            },
        }
    )
    return plan


WORKLOADS = {
    "epr-pair": epr_pair,
    "damping-trajectory": damping_trajectory,
    "catalog-sweep": catalog_sweep,
}


def plan_for(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(seed))

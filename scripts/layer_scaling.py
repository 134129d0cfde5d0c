#!/usr/bin/env python3
"""Time the heavy layers at a few grid sizes and fit one exponent per layer.

    PYTHONPATH=src python scripts/layer_scaling.py

Each layer runs at n = 256, 512 and 1536 on inputs built outside the timed
region, with one BLAS thread, and its time is the best of three calls; a
second table gives the minor page faults of that call (first touches of
freshly mapped memory, from getrusage). The exponent is the least-squares
slope of log(time) against log(n): about 2 for the O(n^2) and O(n^2 log n)
transforms, 3 for a dense eigendecomposition or matrix power. An exponent
near 3 on a layer meant to be a transform shows an O(n^3) path left in it.
The largest size holds a few hundred MiB in `wigner_of_density`.

`wigner_to_csv` writes an n x n file (about 145 MB at n = 1536) into a
temporary directory; from 2^15 cells on, with two CPUs, a forked child
formats half its rows. The `fork + waitpid` row is the bare cost of one such
fork at each size, for a child that exits at once.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import resource
import tempfile
import time

import numpy as np

from wickbell import EUCLIDEAN, MINKOWSKI, Grid1D, PhysParams
from wickbell.epr import (
    CorrelationWidth,
    PairWaveFunction,
    epr_initial_pair,
    evolve_pair,
    joint_momentum_distribution,
)
from wickbell.evolution import hamiltonian
from wickbell.grids import gaussian_wavepacket
from wickbell.kernels import SlicingPlan, free_potential, harmonic_potential, sliced_kernel
from wickbell.phase_space import wigner_of_density, wigner_to_csv, wigner_transform

PHYS = PhysParams()
SIZES = (256, 512, 1536)
REPEATS = 3


def fork_and_wait() -> None:
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)


def layers(n: int, directory: str) -> dict:
    """Zero-argument calls of each layer at n points, inputs prebuilt;
    files go into `directory`."""
    # 1/16 slices of T = 1 keep hbar eps / (m dx^2) >= 1 from n = 256 on
    wide = Grid1D(-16.0, 16.0, n)
    psi = gaussian_wavepacket(wide, PHYS)
    wig = wigner_transform(psi)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    # T = 0.4 keeps the real-time alias shift 2 pi hbar T/(m dx) past the
    # 23-wide box from n = 256 on. The symmetric box makes every pair
    # centrosymmetric (half the rows per pass); the skewed one does not
    box = Grid1D(-11.5, 11.5, n)
    pair = epr_initial_pair(box, CorrelationWidth(0.3), 1.0, PHYS)  # float64
    complex_pair = PairWaveFunction(box, pair.amplitudes.astype(np.complex128), PHYS)
    evolved = evolve_pair(pair, 0.4, MINKOWSKI)
    general = epr_initial_pair(Grid1D(-11.5, 11.75, n), CorrelationWidth(0.3), 1.0, PHYS)
    trap = harmonic_potential(1.0, PHYS)
    return {
        "wigner_transform": lambda: wigner_transform(psi),
        "wigner_of_density": lambda: wigner_of_density(rho, wide, PHYS),
        "hamiltonian+eigh": lambda: np.linalg.eigh(hamiltonian(wide, PHYS, trap).entries),
        "epr_initial_pair": lambda: epr_initial_pair(box, CorrelationWidth(0.3), 1.0, PHYS),
        # a real pair's first real-time pass mirrors a real-input FFT; the
        # same values stored as complex take the complex FFT in both passes
        "evolve_pair minkowski real": lambda: evolve_pair(pair, 0.4, MINKOWSKI),
        "evolve_pair minkowski cplx": lambda: evolve_pair(complex_pair, 0.4, MINKOWSKI),
        "evolve_pair euclidean": lambda: evolve_pair(pair, 0.4, EUCLIDEAN),
        "joint_momentum real": lambda: joint_momentum_distribution(pair),
        "joint_momentum complex": lambda: joint_momentum_distribution(evolved),
        # the density of the evolved pair, evolved block by block inside it
        "evolved density minkowski": lambda: joint_momentum_distribution(pair, 0.4, MINKOWSKI),
        "evolved density euclidean": lambda: joint_momentum_distribution(pair, 0.4, EUCLIDEAN),
        # the same calls on the general path, all n rows per pass
        "evolve_pair minkowski general": lambda: evolve_pair(general, 0.4, MINKOWSKI),
        "joint_momentum real general": lambda: joint_momentum_distribution(general),
        "evolved density mink general": lambda: joint_momentum_distribution(general, 0.4, MINKOWSKI),
        "evolved density eucl general": lambda: joint_momentum_distribution(general, 0.4, EUCLIDEAN),
        "sliced_kernel": lambda: sliced_kernel(
            wide, free_potential(), SlicingPlan(16, 1.0, EUCLIDEAN), PHYS
        ),
        "wigner_to_csv": lambda: wigner_to_csv(wig, os.path.join(directory, "wigner.csv")),
        "fork + waitpid": fork_and_wait,
    }


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def best_of(call) -> tuple[float, int]:
    """Seconds of the fastest of REPEATS calls, and the minor page faults
    that call took."""
    best = (float("inf"), 0)
    for _ in range(REPEATS):
        faults = minor_faults()
        started = time.perf_counter()
        call()
        best = min(best, (time.perf_counter() - started, minor_faults() - faults))
    return best


def main() -> int:
    times: dict[str, list[float]] = {}
    faults: dict[str, list[int]] = {}
    with tempfile.TemporaryDirectory() as directory:
        for n in SIZES:
            for name, call in layers(n, directory).items():
                call()  # first call: lazy imports and FFT plans
                secs, count = best_of(call)
                times.setdefault(name, []).append(secs)
                faults.setdefault(name, []).append(count)

    print(f"{'layer':28s}" + "".join(f"{f'n={n} (s)':>14s}" for n in SIZES) + f"{'exponent':>10s}")
    for name, secs in times.items():
        slope = np.polyfit(np.log(SIZES), np.log(secs), 1)[0]
        print(f"{name:28s}" + "".join(f"{s:14.4f}" for s in secs) + f"{slope:10.2f}")
    print()
    print(f"{'minor page faults':28s}" + "".join(f"{f'n={n}':>14s}" for n in SIZES))
    for name, counts in faults.items():
        print(f"{name:28s}" + "".join(f"{c:14d}" for c in counts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

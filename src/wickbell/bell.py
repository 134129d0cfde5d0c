"""Two-qubit correlations, the CHSH maximum, and kernel-filtering experiments.

Basis order everywhere: (up-up, up-down, down-up, down-down), first label is
qubit 1. The CHSH combination used is

    S = E(a, b) - E(a, b') + E(a', b) + E(a', b')

with E(a, b) the expectation of (sigma.a) x (sigma.b). Any product state
obeys |S| <= 2; quantum states reach at most 2 sqrt(2).

The decay experiment applies the entrywise non-negative diagonal kernel
exp(-H tau) (units with hbar = 1) to the state and re-maximizes over the
settings at each step: a real positive kernel can only concentrate weight on
one basis state, and a single basis state is a product state, so the maximum
is driven from 2 sqrt(2) down to the classical boundary 2. The real-time
control applies exp(-i H t), which for diagonal H is a pair of local phase
rotations and leaves the maximum pinned at 2 sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import _check_schedule
from .spin_geometry import PAULI, UnitVector


@dataclass(frozen=True)
class TwoQubitState:
    amplitudes: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape != (4,):
            raise ValueError(f"need 4 amplitudes, got shape {np.shape(self.amplitudes)}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm^2 is {norm!r}, expected 1")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def of(cls, uu: complex, ud: complex, du: complex, dd: complex) -> "TwoQubitState":
        amps = np.array([uu, ud, du, dd], dtype=np.complex128)
        norm = np.sqrt(float(np.sum(np.abs(amps) ** 2)))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return cls(amps / norm)

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def singlet() -> TwoQubitState:
    return TwoQubitState(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))


# row 3 i + j is (sigma_i x sigma_j)^T flattened: its dot with rho flattened is the trace
_PAULI_PRODUCTS = np.array([np.kron(a, b).T.reshape(16) for a in PAULI for b in PAULI])


def correlation_matrix(state: TwoQubitState) -> np.ndarray:
    """T[i, j] = <(sigma_i x sigma_j)>, the full 3x3 correlation tensor."""
    return (_PAULI_PRODUCTS @ state.density().reshape(16)).real.reshape(3, 3)


def chsh_maximize(state: TwoQubitState) -> tuple[tuple[UnitVector, ...], float]:
    """Best CHSH value in closed form, with its directions (a, a', b, b').

    Take the SVD T = U diag(s1, s2, s3) V^T of the correlation tensor. The
    settings a = u2, a' = u1 and b, b' = cos(phi) v1 +- sin(phi) v2 with
    tan(phi) = s2 / s1 give S = a.T(b - b') + a'.T(b + b') =
    2 sqrt(s1^2 + s2^2), the maximum over all settings (R., P. & M.
    Horodecki, Phys. Lett. A 200, 340 (1995)).
    """
    u, sigma, vt = np.linalg.svd(correlation_matrix(state))
    phi = np.arctan2(sigma[1], sigma[0])
    along, across = np.cos(phi) * vt[0], np.sin(phi) * vt[1]
    directions = (u[:, 1], u[:, 0], along + across, along - across)
    return tuple(UnitVector.of(*v) for v in directions), float(2.0 * np.hypot(sigma[0], sigma[1]))


_CNOT = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def cnot(state: TwoQubitState) -> TwoQubitState:
    """Flip qubit 2 when qubit 1 is up. Involution on the basis."""
    return TwoQubitState(_CNOT @ state.amplitudes)


@dataclass(frozen=True)
class DecayPoint:
    tau: float
    chsh_max: float
    fidelity_to_initial: float


def _diagonal_energies(h) -> np.ndarray:
    arr = np.asarray(h, dtype=np.float64)
    if arr.shape != (4,):
        raise ValueError(f"expected 4 level energies, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("level energies must be finite")
    return arr


def _decay_curve(state0: TwoQubitState, h, tau_samples, damped: bool) -> list[DecayPoint]:
    """Apply the diagonal kernel at each sample, then re-maximize CHSH."""
    energies = _diagonal_energies(h)
    taus = _check_schedule(tau_samples, nonnegative=True)
    amps0 = state0.amplitudes
    support = np.abs(amps0) > 0.0
    floor = float(energies[support].min())
    points: list[DecayPoint] = []
    for tau in taus:
        if damped:
            # only the support is damped: a level below the floor would grow
            # past the float range, and its amplitude is 0 anyway
            amps = np.zeros_like(amps0)
            amps[support] = amps0[support] * np.exp(-(energies[support] - floor) * tau)
            state = TwoQubitState(amps / float(np.linalg.norm(amps)))
        else:
            state = TwoQubitState(amps0 * np.exp(-1j * energies * tau))
        _, s = chsh_maximize(state)
        fidelity = float(np.abs(np.vdot(amps0, state.amplitudes)) ** 2)
        points.append(DecayPoint(float(tau), s, fidelity))
    return points


def euclidean_chsh_decay(state0: TwoQubitState, h, tau_samples) -> list[DecayPoint]:
    """Damp with the non-negative kernel exp(-H tau), renormalize, re-maximize.

    Energies are shifted by the minimum on the state's support before
    exponentiating, so arbitrarily late times stay representable; the shift
    cancels in the renormalization. A state supported only on degenerate
    levels is simply constant along the trajectory.
    """
    return _decay_curve(state0, h, tau_samples, damped=True)


def minkowski_chsh_control(state0: TwoQubitState, h, t_samples) -> list[DecayPoint]:
    """Same schedule under the unitary exp(-iHt): pure phases, no decay."""
    return _decay_curve(state0, h, t_samples, damped=False)


def decay_to_csv(points, path) -> None:
    from .csvio import write_csv

    rows = ((p.tau, p.chsh_max, p.fidelity_to_initial) for p in points)
    write_csv(path, ("tau", "chsh_max", "fidelity_to_initial"), rows)

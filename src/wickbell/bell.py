"""Two-qubit correlations, CHSH optimization, and kernel-filtering experiments.

Basis order everywhere: (up-up, up-down, down-up, down-down), first label is
qubit 1. The CHSH combination used is

    S = E(a, b) - E(a, b') + E(a', b) + E(a', b')

with E(a, b) the expectation of (sigma.a) x (sigma.b). Any product state
obeys |S| <= 2; quantum states reach at most 2 sqrt(2).

The decay experiment applies the entrywise non-negative diagonal kernel
exp(-H tau / hbar) to the state and re-optimizes the settings at each step:
a real positive kernel can only concentrate weight on one basis state, and
a single basis state is a product state, so the optimized value is driven
from 2 sqrt(2) down to the classical boundary 2. The real-time control
applies exp(-i H t / hbar), which for diagonal H is a pair of local phase
rotations and leaves the optimized value pinned at 2 sqrt(2).
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


@dataclass(frozen=True)
class MeasurementSetting:
    direction: UnitVector

    @classmethod
    def of(cls, x: float, y: float, z: float) -> "MeasurementSetting":
        return cls(UnitVector.of(x, y, z))

    @property
    def angles(self) -> tuple[float, float]:
        """(theta, phi) of the analyzer direction."""
        d = self.direction
        return (
            float(np.arccos(np.clip(d.n_z, -1.0, 1.0))),
            float(np.arctan2(d.n_y, d.n_x)),
        )


def singlet() -> TwoQubitState:
    return TwoQubitState(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))


def _as_density(state) -> np.ndarray:
    if isinstance(state, TwoQubitState):
        return state.density()
    rho = np.asarray(state, dtype=np.complex128)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a TwoQubitState or 4x4 density matrix, got {rho.shape}")
    if float(np.max(np.abs(rho - rho.conj().T))) > 1e-10:
        raise ValueError("density matrix must be Hermitian")
    tr = complex(np.trace(rho)).real
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density trace {tr!r} is not 1")
    return rho


def correlation_matrix(state) -> np.ndarray:
    """T[i, j] = <(sigma_i x sigma_j)>, the full 3x3 correlation tensor."""
    rho = _as_density(state)
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            t[i, j] = float(np.real(np.trace(rho @ np.kron(PAULI[i], PAULI[j]))))
    return t


def correlation(state, a: MeasurementSetting, b: MeasurementSetting) -> float:
    """E(a, b), real in [-1, 1]."""
    t = correlation_matrix(state)
    val = float(a.direction.array @ t @ b.direction.array)
    return float(np.clip(val, -1.0, 1.0))


def chsh_value(
    state,
    a: MeasurementSetting,
    a_alt: MeasurementSetting,
    b: MeasurementSetting,
    b_alt: MeasurementSetting,
) -> float:
    t = correlation_matrix(state)

    def e(u: MeasurementSetting, v: MeasurementSetting) -> float:
        return float(u.direction.array @ t @ v.direction.array)

    return e(a, b) - e(a, b_alt) + e(a_alt, b) + e(a_alt, b_alt)


def _unit_or(fallback: np.ndarray, vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm < 1e-300:
        return fallback
    return vec / norm


def chsh_maximize(
    state, restarts: int = 16, seed: int = 0
) -> tuple[tuple[MeasurementSetting, ...], float]:
    """Best CHSH value by coordinate ascent over the four analyzer directions.

    Each half-step has a closed-form optimum: for fixed (b, b') the best a
    and a' are the normalized images T(b -+ b'), and symmetrically for fixed
    (a, a'). The ascent never decreases S, so it converges; restarts guard
    the rare start in a flat direction. Deterministic for a fixed seed.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    t = correlation_matrix(state)
    rng = np.random.default_rng(seed)
    best_s = -np.inf
    best = None
    for _ in range(restarts):
        b = _unit_or(np.array([0.0, 0.0, 1.0]), rng.standard_normal(3))
        b_alt = _unit_or(np.array([1.0, 0.0, 0.0]), rng.standard_normal(3))
        s_prev = -np.inf
        for _ in range(256):
            a = _unit_or(b, t @ (b - b_alt))
            a_alt = _unit_or(b_alt, t @ (b + b_alt))
            b = _unit_or(b, t.T @ (a + a_alt))
            b_alt = _unit_or(b_alt, t.T @ (a_alt - a))
            s = float(a @ t @ b - a @ t @ b_alt + a_alt @ t @ b + a_alt @ t @ b_alt)
            if s - s_prev < 1e-14:
                break
            s_prev = s
        if s > best_s:
            best_s = s
            best = (a, a_alt, b, b_alt)
    settings = tuple(MeasurementSetting(UnitVector.of(*v)) for v in best)
    return settings, float(best_s)


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
    if arr.shape == (4, 4):
        if float(np.max(np.abs(arr - np.diag(np.diag(arr))))) > 0.0:
            raise ValueError("decay Hamiltonian must be diagonal in the computational basis")
        arr = np.diag(arr)
    if arr.shape != (4,):
        raise ValueError(f"expected 4 level energies or a diagonal 4x4 matrix, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("level energies must be finite")
    return arr


def _decay_curve(
    state0: TwoQubitState, h, tau_samples, hbar: float, restarts: int, seed: int, damped: bool
) -> list[DecayPoint]:
    """Apply the diagonal kernel at each sample, then re-optimize CHSH."""
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
            amps[support] = amps0[support] * np.exp(-(energies[support] - floor) * tau / hbar)
            state = TwoQubitState(amps / float(np.linalg.norm(amps)))
        else:
            state = TwoQubitState(amps0 * np.exp(-1j * energies * tau / hbar))
        _, s = chsh_maximize(state, restarts=restarts, seed=seed)
        fidelity = float(np.abs(np.vdot(amps0, state.amplitudes)) ** 2)
        points.append(DecayPoint(float(tau), abs(s), fidelity))
    return points


def euclidean_chsh_decay(
    state0: TwoQubitState,
    h,
    tau_samples,
    hbar: float = 1.0,
    restarts: int = 16,
    seed: int = 0,
) -> list[DecayPoint]:
    """Damp with the non-negative kernel exp(-H tau/hbar), renormalize, re-optimize.

    Energies are shifted by the minimum on the state's support before
    exponentiating, so arbitrarily late times stay representable; the shift
    cancels in the renormalization. A state supported only on degenerate
    levels is simply constant along the trajectory.
    """
    return _decay_curve(state0, h, tau_samples, hbar, restarts, seed, damped=True)


def minkowski_chsh_control(
    state0: TwoQubitState,
    h,
    t_samples,
    hbar: float = 1.0,
    restarts: int = 16,
    seed: int = 0,
) -> list[DecayPoint]:
    """Same schedule under the unitary exp(-iHt/hbar): pure phases, no decay."""
    return _decay_curve(state0, h, t_samples, hbar, restarts, seed, damped=False)


def decay_to_csv(points, path) -> None:
    from .csvio import write_csv

    rows = ((p.tau, p.chsh_max, p.fidelity_to_initial) for p in points)
    write_csv(path, ("tau", "chsh_max", "fidelity_to_initial"), rows)

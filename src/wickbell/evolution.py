"""Density-matrix evolution in real and imaginary time, and the free shear.

Real time conjugates by the unitary exp(-i H t / hbar); spectrum, trace and
purity are preserved. Imaginary time comes in two conventions:

* "symmetric": exp(-H tau/hbar) rho exp(-H tau/hbar), renormalized. This is
  the damping semigroup that projects onto the ground state and drives the
  negativity ratio down; all experiments use it.
* "similarity": exp(-H tau/hbar) rho exp(+H tau/hbar). Trace-preserving and
  stationary on anything commuting with H, but not Hermiticity-preserving,
  so its output skips the density-matrix validity checks (flagged strict=False).

All exponentials go through one spectral step on one Hermitian
eigendecomposition of H per call or per trajectory; grids in this package
are small enough (<= 512) that dense eigh is the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridEscapeError, NumericalGuardError, TraceCollapseError
from .grids import (
    EUCLIDEAN,
    MINKOWSKI,
    Grid1D,
    PhysParams,
    WaveFunction,
    _check_schedule,
    _toeplitz,
    dual_grid,
)
from .kernels import Potential
from .phase_space import WignerGrid, wigner_of_density, negativity_ratio

SIMILARITY = "similarity"
SYMMETRIC = "symmetric"
CONVENTIONS = (SIMILARITY, SYMMETRIC)

@dataclass(frozen=True)
class DensityMatrix:
    """rho(x, x') on a grid; physical trace is sum(diag) * dx.

    strict=False marks outputs of the similarity convention, which are
    legitimate intermediate objects but not valid states; only finiteness
    is enforced for them.
    """

    grid: Grid1D
    entries: np.ndarray = field(repr=False, compare=False)
    params: PhysParams = PhysParams()
    strict: bool = True

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=np.complex128)
        n = self.grid.n_points
        if ent.shape != (n, n):
            raise ValueError(f"density shape {ent.shape} does not match grid ({n}, {n})")
        if not np.all(np.isfinite(ent)):
            raise ValueError("density entries must be finite")
        if self.strict:
            scale = max(float(np.max(np.abs(ent))), 1e-300)
            herm = float(np.max(np.abs(ent - ent.conj().T)))
            if herm > 1e-10 * scale:
                raise ValueError(f"density matrix not Hermitian (residue {herm:.3g})")
            tr = self.trace_of(ent)
            if abs(tr - 1.0) > 1e-10:
                raise ValueError(f"density trace {tr!r} is not 1")
            lam = np.linalg.eigvalsh(0.5 * (ent + ent.conj().T))
            if float(lam.min()) * self.grid.dx < -1e-8:
                raise ValueError(
                    f"density matrix not positive semidefinite (min eigenvalue "
                    f"{float(lam.min()) * self.grid.dx:.3g})"
                )
        object.__setattr__(self, "entries", ent)

    def trace_of(self, ent: np.ndarray) -> float:
        return float(np.real(np.trace(ent)) * self.grid.dx)

    def trace(self) -> float:
        return self.trace_of(self.entries)

    def purity(self) -> float:
        return float(np.sum(np.abs(self.entries) ** 2) * self.grid.dx**2)


def density_from_wavefunction(psi: WaveFunction) -> DensityMatrix:
    amps = psi.normalized().amplitudes
    return DensityMatrix(psi.grid, np.outer(amps, amps.conj()), psi.params)


@dataclass(frozen=True)
class Hamiltonian:
    grid: Grid1D
    entries: np.ndarray = field(repr=False, compare=False)
    params: PhysParams = PhysParams()

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=np.complex128)
        n = self.grid.n_points
        if ent.shape != (n, n):
            raise ValueError(f"Hamiltonian shape {ent.shape} does not match grid")
        if not np.all(np.isfinite(ent)):
            raise ValueError("Hamiltonian entries must be finite")
        scale = max(float(np.max(np.abs(ent))), 1e-300)
        herm = float(np.max(np.abs(ent - ent.conj().T)))
        if herm > 1e-12 * scale:
            raise ValueError(f"Hamiltonian not Hermitian (relative residue {herm / scale:.3g})")
        object.__setattr__(self, "entries", ent)


def hamiltonian(grid: Grid1D, params: PhysParams, potential: Potential | None = None) -> Hamiltonian:
    """p^2/2m built spectrally on the dual grid, plus an optional diagonal V.

    The kinetic operator is the circulant whose lag row is the inverse FFT of
    p_k^2/2m taken in FFT order, ifft(ifftshift(p^2/2m)). That row is real
    and even (row[d] = row[n - d]), so the circulant is the exactly symmetric
    Toeplitz matrix row[|f - i|]. The spectral kinetic term keeps eigenvalue
    errors at rounding level instead of the O(dx^2) of finite differences.
    """
    kin = np.fft.ifftshift(dual_grid(grid, params).x ** 2 / (2.0 * params.mass))
    ent = _toeplitz(np.fft.ifft(kin).real)
    if potential is not None:
        ent = ent + np.diag(potential(grid.x))
    return Hamiltonian(grid, ent, params)


def _check_operands(rho: DensityMatrix, h: Hamiltonian, convention: str) -> None:
    if rho.grid != h.grid:
        raise ValueError("density and Hamiltonian live on different grids")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def _spectral_step(w, v, rho_eig, t, regime, convention, hbar, dx) -> tuple[np.ndarray, float]:
    """Evolve rho_eig = V^H rho V, where H = V diag(w) V^H, by the time t.

    Returns the grid entries and the log raw trace (0 unless damped). The
    damping is shifted by w.min(), so the normalized state stays exact at
    late times even where the reported raw trace underflows.
    """
    if regime == MINKOWSKI:
        phase = np.exp(-1j * w * t / hbar)
        ent = v @ (phase[:, None] * rho_eig * phase.conj()[None, :]) @ v.conj().T
        return 0.5 * (ent + ent.conj().T), 0.0
    if convention == SIMILARITY:
        # exponent differences can overflow long before trace issues
        spread = float(w.max() - w.min()) * t / hbar
        if spread > 700.0:
            raise NumericalGuardError(
                f"similarity factors reach exp({spread:.1f}); exceeds float range"
            )
        factor = np.exp(-(w[:, None] - w[None, :]) * t / hbar)
        return v @ (rho_eig * factor) @ v.conj().T, 0.0
    decay = np.exp(-(w - w.min()) * t / hbar)
    damped = decay[:, None] * rho_eig * decay[None, :]
    shifted_trace = float(np.real(np.trace(damped)) * dx)
    if shifted_trace <= 0.0:
        raise TraceCollapseError("imaginary-time damping left no representable trace")
    ent = v @ (damped / shifted_trace) @ v.conj().T
    log_raw = np.log(shifted_trace) - 2.0 * w.min() * t / hbar
    return 0.5 * (ent + ent.conj().T), float(log_raw)


def _evolve(rho, h, t, regime, convention, strict) -> DensityMatrix:
    """One evolution to time t: operand checks, one eigh of H, one spectral step."""
    _check_operands(rho, h, convention)
    if t == 0.0:
        return rho
    w, v = np.linalg.eigh(h.entries)
    ent, _ = _spectral_step(
        w, v, v.conj().T @ rho.entries @ v, t, regime, convention, rho.params.hbar, rho.grid.dx
    )
    return DensityMatrix(rho.grid, ent, rho.params, strict=strict)


def evolve_density_minkowski(rho: DensityMatrix, h: Hamiltonian, t: float) -> DensityMatrix:
    """rho(t) = exp(-iHt/hbar) rho exp(+iHt/hbar). Reversible, spectrum-preserving."""
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    return _evolve(rho, h, t, MINKOWSKI, SYMMETRIC, rho.strict)


def evolve_density_euclidean(
    rho: DensityMatrix, h: Hamiltonian, tau: float, convention: str = SYMMETRIC
) -> DensityMatrix:
    if not (tau >= 0.0) or not np.isfinite(tau):
        raise ValueError(f"imaginary time must be >= 0, got {tau}")
    return _evolve(rho, h, tau, EUCLIDEAN, convention, convention == SYMMETRIC)


def free_wigner_shear(w: WignerGrid, t: float, params: PhysParams) -> WignerGrid:
    """Free evolution in phase space: W(x, p; t) = W(x - p t / m, p; 0).

    Linear interpolation along x, zero beyond the rectangle. Rejected when a
    populated momentum row (one holding more than 1e-12 of the peak |W|)
    would be displaced past the whole grid; rows that are numerically empty
    may slide off freely.
    """
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if t == 0.0:
        return w
    x = w.x_axis.x
    shifts = w.p_axis.x * t / params.mass
    row_peak = np.max(np.abs(w.values), axis=0)
    populated = row_peak > 1e-12 * row_peak.max()
    max_shift = float(np.max(np.abs(shifts[populated]), initial=0.0))
    if max_shift > w.x_axis.extent:
        raise GridEscapeError(
            f"shear displacement {max_shift:.3g} of a populated momentum row "
            f"exceeds grid extent {w.x_axis.extent:.3g}"
        )
    out = np.empty_like(w.values)
    for k in range(w.p_axis.n_points):
        out[:, k] = np.interp(x - shifts[k], x, w.values[:, k], left=0.0, right=0.0)
    return WignerGrid(w.x_axis, w.p_axis, out, w.params)


@dataclass(frozen=True)
class TrajectoryPoint:
    tau: float
    negativity: float
    purity: float
    trace_raw: float


def negativity_trajectory(
    rho0: DensityMatrix,
    h: Hamiltonian,
    tau_samples,
    regime: str = EUCLIDEAN,
    convention: str = SYMMETRIC,
) -> list[TrajectoryPoint]:
    """Evolve, Wigner-transform and score the negativity ratio at each sample."""
    if regime not in (MINKOWSKI, EUCLIDEAN):
        raise ValueError(f"unknown regime {regime!r}")
    _check_operands(rho0, h, convention)
    taus = _check_schedule(tau_samples, nonnegative=regime == EUCLIDEAN)
    hbar = rho0.params.hbar
    dx = rho0.grid.dx
    w, v = np.linalg.eigh(h.entries)
    rho_eig = v.conj().T @ rho0.entries @ v
    points: list[TrajectoryPoint] = []
    for tau in taus:
        if tau == 0.0:
            ent, log_raw = rho0.entries, 0.0
        else:
            ent, log_raw = _spectral_step(w, v, rho_eig, float(tau), regime, convention, hbar, dx)
        # similarity output may be non-Hermitian; wigner_of_density rejects it
        wig = wigner_of_density(ent, rho0.grid, rho0.params)
        points.append(
            TrajectoryPoint(
                tau=float(tau),
                negativity=negativity_ratio(wig),
                purity=float(np.sum(np.abs(ent) ** 2) * dx**2),
                trace_raw=float(np.exp(log_raw)),
            )
        )
    return points


def shear_negativity_trajectory(
    w0: WignerGrid, t_samples, params: PhysParams
) -> list[TrajectoryPoint]:
    """Free-particle control: shear the initial Wigner function to each time.

    Each sample shears the original rectangle (not the previous sample), so
    interpolation error does not accumulate. Purity is read off the Wigner
    function itself, tr rho^2 = 2 pi hbar int int W^2.
    """
    taus = _check_schedule(t_samples)
    points: list[TrajectoryPoint] = []
    for t in taus:
        wt = free_wigner_shear(w0, float(t), params)
        area = wt.cell_area
        points.append(
            TrajectoryPoint(
                tau=float(t),
                negativity=negativity_ratio(wt),
                purity=float(
                    2.0 * np.pi * params.hbar * np.sum(wt.values**2) * area
                ),
                trace_raw=float(np.sum(wt.values) * area),
            )
        )
    return points


def trajectory_to_csv(points, path) -> None:
    from .csvio import write_csv

    rows = ((p.tau, p.negativity, p.purity, p.trace_raw) for p in points)
    write_csv(path, ("tau", "f", "purity", "trace_raw"), rows)

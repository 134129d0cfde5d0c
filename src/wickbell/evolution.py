"""Wavefunction evolution in real and imaginary time, and the free shear.

Real time applies the unitary exp(-i H t / hbar); norm and purity are
preserved. Imaginary time applies exp(-H tau/hbar) and renormalizes: the
damping that projects onto the ground state and drives the negativity ratio
down. The damped state's projector is the symmetric damping
exp(-H tau/hbar) rho exp(-H tau/hbar) of the initial density, renormalized.

One eigendecomposition of H per trajectory feeds one spectral step per
sample, which turns the eigenvalues into per-level factors. Grids here are
small enough (<= 512) that dense eigh is the fast path, and a real H (the
spectral trap) takes the real symmetric solver. Free real-time motion is
also applied in phase space, as the exact shear of a Wigner function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridEscapeError, TraceCollapseError
from .grids import (
    EUCLIDEAN,
    MINKOWSKI,
    Grid1D,
    PhysParams,
    WaveFunction,
    _check_schedule,
    _hermitian_residue,
    _set_checked,
    _toeplitz,
    dual_grid,
)
from .kernels import Potential
from .phase_space import WignerGrid, negativity_ratio, wigner_transform


def density_from_wavefunction(psi: WaveFunction) -> np.ndarray:
    """Projector |psi><psi| of the normalized state as n x n grid samples,
    the rho(x, x') that `wigner_of_density` takes.

    Kept for the benchmark trace, which wraps it by name; no experiment calls it.
    """
    amps = psi.normalized().amplitudes
    return np.outer(amps, amps.conj())


@dataclass(frozen=True)
class Hamiltonian:
    grid: Grid1D
    entries: np.ndarray = field(repr=False, compare=False)
    params: PhysParams = PhysParams()

    def __post_init__(self):
        n = self.grid.n_points
        dtype = np.result_type(np.asarray(self.entries), np.float64)
        herm = _hermitian_residue(_set_checked(self, "entries", (n, n), dtype))
        if herm > 1e-12:
            raise ValueError(f"Hamiltonian not Hermitian (relative residue {herm:.3g})")


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


def _check_operands(state, h: Hamiltonian) -> None:
    if state.grid != h.grid:
        raise ValueError("state and Hamiltonian live on different grids")


def _spectral_step(w, populations, t, regime, hbar, dx) -> tuple[np.ndarray, float, float]:
    """Per-level factors f of exp(-iHt/hbar) or exp(-Ht/hbar), H = V diag(w) V^H.

    Returns f, the trace the factors leave from the eigenbasis populations
    (1 in real time) and the log raw trace (0 in real time). The damping is
    shifted by w.min(), so the normalized state stays exact at late times
    even where the reported raw trace underflows.
    """
    if regime == MINKOWSKI:
        # the largest phase, as Python floats: a product past the float range
        # rounds to inf here instead of warning inside np.exp
        if not np.isfinite(float(np.max(np.abs(w))) * abs(float(t)) / hbar):
            raise ValueError(f"time {t} leaves a non-finite phase max|E| t / hbar")
        return np.exp(-1j * w * t / hbar), 1.0, 0.0
    # capping each gap at 1500 hbar / t changes no factor (exp(-1500) is
    # already 0) and keeps the product finite at any t; as Python floats,
    # 1500 hbar / t and w_min t round to inf instead of warning
    t, w_min = float(t), float(w.min())
    f = np.exp(-np.minimum(w - w_min, 1500.0 * hbar / t) * t / hbar)
    shifted_trace = float(np.sum(f**2 * populations) * dx)
    if shifted_trace <= 0.0:
        raise TraceCollapseError("imaginary-time damping left no representable trace")
    return f, shifted_trace, float(np.log(shifted_trace) - 2.0 * w_min * t / hbar)


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
    psi0: WaveFunction, h: Hamiltonian, tau_samples, regime: str = EUCLIDEAN
) -> list[TrajectoryPoint]:
    """Evolve psi0, Wigner-transform and score the negativity ratio at each sample.

    One eigh of H; per sample psi(tau) = V (f * c) / sqrt(trace) with
    c = V^H psi0: the pure state whose projector is the damped density.
    """
    if regime not in (MINKOWSKI, EUCLIDEAN):
        raise ValueError(f"unknown regime {regime!r}")
    _check_operands(psi0, h)
    taus = _check_schedule(tau_samples, nonnegative=regime == EUCLIDEAN)
    psi0 = psi0.normalized()
    w, v = np.linalg.eigh(h.entries)
    c = v.conj().T @ psi0.amplitudes
    populations = np.abs(c) ** 2
    points: list[TrajectoryPoint] = []
    for tau in taus:
        psi, log_raw = psi0, 0.0
        if tau != 0.0:
            f, trace, log_raw = _spectral_step(
                w, populations, float(tau), regime, psi0.params.hbar, psi0.grid.dx
            )
            y = v @ (f * c).view(np.float64).reshape(-1, 2)  # Re and Im: a real V stays real
            psi = WaveFunction(psi0.grid, (y[:, 0] + 1j * y[:, 1]) / np.sqrt(trace), psi0.params)
        points.append(
            TrajectoryPoint(
                tau=float(tau),
                negativity=negativity_ratio(wigner_transform(psi)),
                purity=psi.norm_squared() ** 2,
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

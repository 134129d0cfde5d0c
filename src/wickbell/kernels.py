"""Free-particle and time-sliced transition kernels in both time regimes.

The two analytic free kernels are

    real-time:      sqrt(m / 2 pi i hbar T) exp(+i m (x_f - x_i)^2 / 2 hbar T)
    imaginary-time: sqrt(m / 2 pi hbar T)   exp(-  m (x_f - x_i)^2 / 2 hbar T)

with the principal branch sqrt(i) = exp(i pi/4), so the real-time prefactor
carries the constant phase exp(-i pi/4).

Sliced kernels multiply N short-time factors with the midpoint rule for the
potential. The imaginary-time slice weight is exp(-(kinetic + eps V)/hbar),
the standard positive Euclidean weight; with that sign the harmonic transfer
matrix is bounded and its top eigenvalue encodes the ground-state energy.

A sampled real-time slice is a chirp, and the grid undersamples it at large
|x_f - x_i|. Each application therefore adds aliased copies of the state
displaced by multiples of 2 pi hbar eps / (m dx): harmless when that shift
carries them past the state's support (long slices, fine grids), ruinous for
many short slices on a coarse grid. Keep the shift per slice larger than the
support of whatever the sliced kernel is applied to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalGuardError
from .grids import (
    EUCLIDEAN,
    MINKOWSKI,
    REGIMES,
    Grid1D,
    Kernel,
    PhysParams,
    _check_kernel_values,
    _toeplitz,
)


@dataclass(frozen=True)
class Potential:
    """Potential energy V(x) evaluated vectorized on grid samples."""

    func: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        v = np.broadcast_to(np.asarray(self.func(x), dtype=np.float64), np.shape(x))
        if not np.all(np.isfinite(v)):
            raise ValueError(f"potential {self.label!r} is not finite on the grid")
        return v


def free_potential() -> Potential:
    return Potential(lambda x: np.zeros_like(x), "free")


def harmonic_potential(omega: float, params: PhysParams) -> Potential:
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    try:
        stiffness = 0.5 * params.mass * omega**2
    except OverflowError:
        stiffness = np.inf
    if not np.isfinite(stiffness):
        raise ValueError(f"omega = {omega} overflows the stiffness m omega^2 / 2")
    return Potential(lambda x: stiffness * x**2, f"harmonic(omega={omega})")


@dataclass(frozen=True)
class SlicingPlan:
    """Time discretization: N slices of duration eps = total_time / N."""

    n_slices: int
    total_time: float
    regime: str = MINKOWSKI

    def __post_init__(self):
        if self.n_slices < 2:
            raise ValueError(f"n_slices must be >= 2, got {self.n_slices}")
        if not (self.total_time > 0.0) or not np.isfinite(self.total_time):
            raise ValueError(f"total_time must be positive, got {self.total_time}")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")

    @property
    def epsilon(self) -> float:
        return self.total_time / self.n_slices


def free_kernel_row(grid: Grid1D, time_extent: float, params: PhysParams, regime: str) -> np.ndarray:
    """Free kernel at the lags k dx, k = 0 .. n-1: the dense kernel is the
    symmetric Toeplitz matrix K[f, i] = row[|f - i|], and the row passes the
    same entry checks as a dense Kernel of that regime."""
    if not (time_extent > 0.0):
        raise ValueError(f"time_extent must be positive, got {time_extent}")
    m, hbar = params.mass, params.hbar
    lag = grid.dx * np.arange(grid.n_points)
    pref = np.sqrt(m / (2.0 * np.pi * hbar * time_extent))
    if regime == MINKOWSKI:
        row = pref * np.exp(-0.25j * np.pi) * np.exp(0.5j * m * lag**2 / (hbar * time_extent))
    else:
        row = pref * np.exp(-0.5 * m * lag**2 / (hbar * time_extent))
    if not np.all(np.isfinite(row)):
        raise ValueError("kernel entries must be finite")
    _check_kernel_values(row, regime)
    return row


def free_kernel_minkowski(grid: Grid1D, time_extent: float, params: PhysParams) -> Kernel:
    """Analytic real-time free kernel on the grid."""
    entries = _toeplitz(free_kernel_row(grid, time_extent, params, MINKOWSKI))
    return Kernel(grid, entries, time_extent, MINKOWSKI)


def free_kernel_euclidean(grid: Grid1D, time_extent: float, params: PhysParams) -> Kernel:
    """Analytic imaginary-time free kernel (the heat kernel) on the grid."""
    entries = _toeplitz(free_kernel_row(grid, time_extent, params, EUCLIDEAN))
    return Kernel(grid, entries, time_extent, EUCLIDEAN)


def _slice_matrix(
    grid: Grid1D, potential: Potential, eps: float, regime: str, params: PhysParams
) -> np.ndarray:
    # free slice times the midpoint potential factor exp(-i eps V / hbar),
    # or exp(-eps V / hbar) in imaginary time
    v = potential(0.5 * (grid.x[:, None] + grid.x[None, :]))
    unit = -1j if regime == MINKOWSKI else -1.0
    free = _toeplitz(free_kernel_row(grid, eps, params, regime))
    return free * np.exp(unit * eps * v / params.hbar)


def _check_slice_resolution(grid: Grid1D, eps: float, params: PhysParams) -> None:
    # hbar eps / (m dx^2) is (slice diffusion length / dx)^2; below 1 the
    # slice factor varies faster than the grid can represent and the chained
    # quadrature silently loses mass.
    ratio = params.hbar * eps / (params.mass * grid.dx * grid.dx)
    if ratio < 1.0:
        raise NumericalGuardError(
            f"slice duration too short for this grid: hbar*eps/(m*dx^2) = "
            f"{ratio:.3g} < 1; use fewer slices or a finer grid"
        )


def sliced_kernel(
    grid: Grid1D, potential: Potential, plan: SlicingPlan, params: PhysParams
) -> Kernel:
    """Product of N short-time kernels with midpoint-rule potential.

    Converges to the analytic kernel as N grows for V = 0; for smooth bounded
    potentials the slice error is first order in eps (Trotter).
    """
    eps = plan.epsilon
    _check_slice_resolution(grid, eps, params)
    a = _slice_matrix(grid, potential, eps, plan.regime, params) * grid.dx
    if plan.regime == EUCLIDEAN:
        # stays in float64; the product of positive matrices is positive
        entries = np.linalg.matrix_power(a.real, plan.n_slices) / grid.dx
        entries = np.maximum(entries, 0.0)
    else:
        entries = np.linalg.matrix_power(a, plan.n_slices) / grid.dx
    return Kernel(grid, entries, plan.total_time, plan.regime)


def commutator_expectation(
    plan: SlicingPlan,
    grid: Grid1D,
    params: PhysParams,
    j: int,
    boundary_width: float = 1.0,
    boundary_center: float = 0.0,
) -> complex:
    """Expectation of the sliced position-momentum twist at interior slice j.

    The inserted observable is

        O_j = x_j * m (x_j - x_{j-1})/eps  -  m (x_{j+1} - x_j)/eps * x_j
            = (m/eps) x_j (2 x_j - x_{j-1} - x_{j+1}),

    averaged over free sliced paths with Gaussian wavepackets pinned at both
    ends, normalized by the same integral without the insertion. The path
    weight is Gaussian in (x_0, ..., x_N), so the moments are evaluated in
    closed form from the tridiagonal quadratic form of the sliced action;
    real-time slicing gives i*hbar and imaginary-time +hbar, exactly, for any
    N and any interior j.

    The grid declares the integration domain that closed form assumes is
    effectively unbounded, so the boundary packets must sit well inside it.
    (A sampled-kernel route is not used here: for small eps the real-time
    chirp aliases into spurious displaced copies; see the module note on
    sliced real-time kernels.)
    """
    n = plan.n_slices
    if not (1 <= j <= n - 1):
        raise ValueError(f"slice index j must satisfy 1 <= j <= {n - 1}, got {j}")
    if boundary_width <= 0.0:
        raise ValueError(f"boundary_width must be positive, got {boundary_width}")
    reach = 5.0 * boundary_width
    if boundary_center - reach < grid.x_min or boundary_center + reach > grid.x_max:
        raise ValueError(
            f"boundary_width {boundary_width}: boundary packet does not fit the "
            f"declared grid: need center +- 5 width inside [{grid.x_min}, {grid.x_max}]"
        )
    eps = plan.epsilon
    m, hbar = params.mass, params.hbar
    sigma2 = boundary_width**2
    # near the float floor these couplings overflow, or divide by zero
    if not (hbar * eps > 0.0 and m / (hbar * eps) < np.inf):
        raise ValueError(f"total_time / n_slices = {eps:.3g} is too short: m/(hbar eps) overflows")
    if not (sigma2 > 0.0 and 1.0 / sigma2 < np.inf):
        raise ValueError(f"boundary_width {boundary_width} is too small: 1/width^2 overflows")
    kin = m / (hbar * eps)

    # exponent -(1/2) x^T A x + b.x over path points x_0..x_N
    size = n + 1
    if plan.regime == MINKOWSKI:
        diag_mid, offdiag = -2.0j * kin, 1.0j * kin
    else:
        diag_mid, offdiag = 2.0 * kin, -1.0 * kin
    a = np.zeros((size, size), dtype=np.complex128)
    idx = np.arange(size)
    a[idx, idx] = diag_mid
    a[idx[:-1], idx[:-1] + 1] = offdiag
    a[idx[:-1] + 1, idx[:-1]] = offdiag
    a[0, 0] = 1.0 / sigma2 + 0.5 * diag_mid
    a[-1, -1] = 1.0 / sigma2 + 0.5 * diag_mid

    cols = np.linalg.solve(a, np.eye(size, dtype=np.complex128)[:, (j - 1, j, j + 1)])
    second = 2.0 * cols[j, 1] - cols[j, 0] - cols[j, 2]
    if boundary_center != 0.0:
        b = np.zeros(size, dtype=np.complex128)
        b[0] = b[-1] = boundary_center / sigma2
        mu = np.linalg.solve(a, b)
        second += mu[j] * (2.0 * mu[j] - mu[j - 1] - mu[j + 1])
    return complex(m / eps * second)

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

The imaginary-time power zeroes entries below sqrt(tiny) = 2^-511 in the
slice and after every product, so its heat-kernel tails never reach the
slow subnormal range; its entries are exactly non-negative.

The sliced-path twist expectation takes no grid: it integrates the free
paths over the whole real line in closed form.
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
    # the prefactor and the exponent at the longest lag as Python floats: past
    # the float range they round to inf here instead of warning inside numpy
    ht, reach = hbar * time_extent, grid.dx * (grid.n_points - 1)
    if not (ht > 0.0 and np.isfinite(m / (2.0 * np.pi * hbar * time_extent))):
        raise ValueError(f"the prefactor m / (2 pi hbar t) overflows at t = {time_extent}")
    if not np.isfinite(0.5 * m * (reach * reach) / ht):
        raise ValueError(f"the exponent m d^2 / (2 hbar t) overflows at the lag d = {reach:.3g}")
    lag = grid.dx * np.arange(grid.n_points)
    pref = np.sqrt(m / (2.0 * np.pi * hbar * time_extent))
    if regime == MINKOWSKI:
        row = pref * np.exp(-0.25j * np.pi) * np.exp(0.5j * m * lag**2 / (hbar * time_extent))
    else:
        row = pref * np.exp(-0.5 * m * lag**2 / (hbar * time_extent))
    _check_kernel_values(row, regime)
    return row


def free_kernel_minkowski(grid: Grid1D, time_extent: float, params: PhysParams) -> Kernel:
    """Analytic real-time free kernel on the grid."""
    entries = _toeplitz(free_kernel_row(grid, time_extent, params, MINKOWSKI))
    return Kernel(grid, entries, MINKOWSKI)


def free_kernel_euclidean(grid: Grid1D, time_extent: float, params: PhysParams) -> Kernel:
    """Analytic imaginary-time free kernel (the heat kernel) on the grid."""
    entries = _toeplitz(free_kernel_row(grid, time_extent, params, EUCLIDEAN))
    return Kernel(grid, entries, EUCLIDEAN)


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


def _nonnegative_power(a: np.ndarray, n: int) -> np.ndarray:
    """a^n (n >= 2) by matrix_power's repeated squaring, zeroing entries below 2^-511."""
    floor = np.sqrt(np.finfo(np.float64).tiny)
    z = result = None
    while n > 0:
        z = a if z is None else z @ z
        z[z < floor] = 0.0
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else result @ z
            result[result < floor] = 0.0
    return result


def sliced_kernel(
    grid: Grid1D, potential: Potential, plan: SlicingPlan, params: PhysParams
) -> Kernel:
    """Product of N short-time kernels with midpoint-rule potential.

    Converges to the analytic kernel as N grows for V = 0; for smooth bounded
    potentials the slice error is first order in eps (Trotter). In imaginary
    time, entries below 2^-511 are zeroed after every product so that none is
    subnormal (module note); every entry is exactly non-negative.
    """
    eps = plan.epsilon
    _check_slice_resolution(grid, eps, params)
    a = _slice_matrix(grid, potential, eps, plan.regime, params) * grid.dx
    power = _nonnegative_power if plan.regime == EUCLIDEAN else np.linalg.matrix_power
    entries = power(a, plan.n_slices) / grid.dx
    return Kernel(grid, entries, plan.regime)


def commutator_expectation(
    plan: SlicingPlan, params: PhysParams, j: int, boundary_width: float = 1.0
) -> complex:
    """Expectation of the sliced position-momentum twist at interior slice j.

    The inserted observable is

        O_j = x_j * m (x_j - x_{j-1})/eps  -  m (x_{j+1} - x_j)/eps * x_j
            = (m/eps) x_j (2 x_j - x_{j-1} - x_{j+1}),

    averaged over free sliced paths on the whole real line with Gaussian
    wavepackets of width boundary_width pinned at both ends, normalized by
    the same integral without the insertion. The path weight is
    exp(-x^T A x / 2 + b.x) over (x_0, ..., x_N), with A = u kin (L + c' B):
    u = 1 (imaginary time) or -i (real time), kin = m/(hbar eps), L the
    free-end path Laplacian, B = e_0 e_0^T + e_N e_N^T, c' = c/u and
    c = hbar eps/(m width^2). The twist is hbar y_j / u, where
    (L + c' B) y = d = 2 e_j - e_{j-1} - e_{j+1}; the mean path is the
    packets' common center (A center 1 = b), which the value does not
    depend on.

    The solve is O(N) and exact: the flux y_{i+1} - y_i is q - D_i, with D
    the running sum of d and q = c' y_0, and the sum of all rows gives
    y_0 (2 + N c') = sum_{i<N} D_i. Every D_i is a small integer, so real
    time gives i*hbar and imaginary time +hbar exactly for any N, interior j,
    slice length and width, c = 0 and c = inf (a pinned end) included.
    (A sampled-kernel route is not used here: for small eps the real-time
    chirp aliases into spurious displaced copies; see the module note on
    sliced real-time kernels.)
    """
    n = plan.n_slices
    if not (1 <= j <= n - 1):
        raise ValueError(f"slice index j must satisfy 1 <= j <= {n - 1}, got {j}")
    if boundary_width <= 0.0:
        raise ValueError(f"boundary_width must be positive, got {boundary_width}")
    # 0 and inf are valid end couplings: a free end and a pinned one
    with np.errstate(over="ignore", under="ignore"):
        c = float(params.hbar * plan.epsilon / params.mass / boundary_width / boundary_width)
    euclidean = plan.regime == EUCLIDEAN
    coupling = c if euclidean else complex(0.0, c)  # c / u

    d = np.zeros(n + 1)
    d[j - 1 : j + 2] = (-1.0, 2.0, -1.0)
    running = np.cumsum(d)  # D_i
    total = running[:-1].sum()
    if abs(coupling) > 1.0:  # the last row divided by c', finite at c' = inf
        q = total / (2.0 / coupling + n)
        y0 = q / coupling
    else:
        y0 = total / (2.0 + n * coupling)
        q = coupling * y0
    y_j = y0 + j * q - running[:j].sum()
    return complex(params.hbar * y_j * (1.0 if euclidean else 1j))  # hbar y_j / u

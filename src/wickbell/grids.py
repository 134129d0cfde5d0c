"""Uniform 1-D position grids, wavefunctions, and dense propagation kernels.

Conventions used throughout the package:

* quadrature is the plain uniform-weight sum, integral ~ sum(f) * dx
  (identical to the trapezoid rule for states that vanish at the edges,
  which every test configuration guarantees by keeping packets >= 5 sigma
  inside the box);
* a "width" sigma always means the Gaussian exp(-x^2 / (2 sigma^2)) in the
  amplitude, so the position variance of |psi|^2 is sigma^2 / 2;
* the momentum dual grid spans [-pi hbar/dx, pi hbar/dx) with the same
  number of samples, dp = 2 pi hbar / (n dx).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

MINKOWSKI = "minkowski"
EUCLIDEAN = "euclidean"
REGIMES = (MINKOWSKI, EUCLIDEAN)


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of a run. Defaults are natural units."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0) or not np.isfinite(self.hbar):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not (self.mass > 0.0) or not np.isfinite(self.mass):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")


@dataclass(frozen=True)
class Grid1D:
    """n_points uniformly spaced samples from x_min to x_max inclusive."""

    x_min: float
    x_max: float
    n_points: int
    x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_points < 8:
            raise ValueError(f"n_points must be >= 8, got {self.n_points}")
        for name in ("x_min", "x_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.x_max > self.x_min):
            raise ValueError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        if not np.isfinite(self.extent):
            raise ValueError(f"x_max - x_min overflows, got [{self.x_min}, {self.x_max}]")
        object.__setattr__(
            self, "x", self.x_min + np.arange(self.n_points) * self.dx
        )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def extent(self) -> float:
        return self.x_max - self.x_min


def dual_grid(grid: Grid1D, params: PhysParams) -> Grid1D:
    """Momentum grid conjugate to `grid` under the package DFT convention.

    Nyquist-complete: n samples spaced dp = 2 pi hbar / (n dx), centered so
    that index n//2 sits at p = 0.
    """
    n = grid.n_points
    dp = 2.0 * np.pi * params.hbar / (n * grid.dx)
    m = n // 2
    return Grid1D(-m * dp, (n - 1 - m) * dp, n)


def _set_checked(obj, name: str, shape: tuple, dtype=None) -> np.ndarray:
    """Store obj.<name> on the frozen obj as a finite `dtype` array of `shape`
    (default: float64 if real, else complex128), and return it."""
    values = np.asarray(getattr(obj, name))
    values = values.astype(dtype or np.result_type(values, np.float64), copy=False)
    label = f"{type(obj).__name__} {name}"
    if values.shape != shape:
        raise ValueError(f"{label} shape {values.shape} does not match {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{label} must be finite")
    object.__setattr__(obj, name, values)
    return values


def _hermitian_residue(values: np.ndarray) -> float:
    """max |A - A^H| relative to max |A|."""
    scale = max(float(np.max(np.abs(values))), 1e-300)
    return float(np.max(np.abs(values - values.conj().T))) / scale


@dataclass(frozen=True)
class _Amplitudes:
    """Amplitudes on `rank` copies of one grid (float64 when real), normed by the plain sum."""

    grid: Grid1D
    amplitudes: np.ndarray = field(repr=False, compare=False)
    params: PhysParams = PhysParams()
    rank: ClassVar[int] = 1

    def __post_init__(self):
        _set_checked(self, "amplitudes", (self.grid.n_points,) * self.rank)

    def norm_squared(self) -> float:
        a = self.amplitudes  # for float64, a * a has the bits of |a|^2 without its temporary
        squares = a * a if a.dtype == np.float64 else np.abs(a) ** 2
        return float(np.sum(squares) * self.grid.dx**self.rank)

    def normalized(self):
        n2 = self.norm_squared()
        if n2 <= 0.0:
            raise ValueError(f"cannot normalize a zero {type(self).__name__}")
        return type(self)(self.grid, self.amplitudes / np.sqrt(n2), self.params)


@dataclass(frozen=True)
class WaveFunction(_Amplitudes):
    """Amplitudes sampled on a Grid1D. Treat instances as immutable."""


@dataclass(frozen=True)
class Kernel:
    """Dense propagation kernel K(x_f, x_i) on a shared grid.

    entries[f, i] multiplies psi(x_i); application is entries @ psi * dx.
    Euclidean kernels must be real (float64) and non-negative entrywise.
    """

    grid: Grid1D
    entries: np.ndarray = field(repr=False, compare=False)
    regime: str = MINKOWSKI

    def __post_init__(self):
        n = self.grid.n_points
        _check_kernel_values(_set_checked(self, "entries", (n, n)), self.regime)


def _check_kernel_values(values: np.ndarray, regime: str) -> None:
    """Regime checks shared by dense kernels and free-kernel lag rows."""
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    if regime == EUCLIDEAN:
        if np.iscomplexobj(values):
            raise ValueError("euclidean kernel entries must be real")
        if np.any(values < 0.0):
            raise ValueError("euclidean kernel entries must be non-negative")


def _toeplitz(row: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix T[f, i] = row[|f - i|] from its lag row."""
    idx = np.arange(len(row))
    return row[np.abs(idx[:, None] - idx[None, :])]


def _check_schedule(samples, nonnegative: bool = False) -> np.ndarray:
    """Time samples: non-empty, finite, strictly increasing, optionally >= 0."""
    taus = np.asarray(samples, dtype=np.float64)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("tau_samples must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(taus)):
        raise ValueError("tau_samples must be finite")
    if nonnegative and np.any(taus < 0.0):
        raise ValueError("tau_samples must be >= 0")
    if np.any(np.diff(taus) <= 0.0):
        raise ValueError("tau_samples must be strictly increasing")
    return taus


def gaussian_wavepacket(
    grid: Grid1D,
    params: PhysParams,
    center: float = 0.0,
    width: float = 1.0,
    momentum: float = 0.0,
) -> WaveFunction:
    """Normalized Gaussian packet exp(-(x-c)^2/(2 w^2) + i p0 (x-c)/hbar).

    Normalization is done on the grid so norm_squared() == 1 to rounding.
    """
    if width <= 0.0:
        raise ValueError(f"width must be positive, got {width}")
    x = grid.x
    amps = np.exp(
        -((x - center) ** 2) / (2.0 * width**2)
        + 1j * momentum * (x - center) / params.hbar
    )
    return WaveFunction(grid, amps, params).normalized()


def cat_state(
    grid: Grid1D,
    params: PhysParams,
    separation: float,
    width: float = 1.0,
    parity: str = "odd",
) -> WaveFunction:
    """Superposition of two Gaussians at +-separation.

    parity "odd" subtracts the mirrored branch (zero overlap with any even
    state, vanishes at x = 0), "even" adds it (retains vacuum overlap, which
    imaginary-time evolution needs to reach the Gaussian fixed point).
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    x = grid.x
    right = np.exp(-((x - separation) ** 2) / (2.0 * width**2))
    left = np.exp(-((x + separation) ** 2) / (2.0 * width**2))
    amps = right - left if parity == "odd" else right + left
    return WaveFunction(grid, amps, params).normalized()


def apply_kernel(kernel: Kernel, psi: WaveFunction) -> WaveFunction:
    """psi'(x_f) = sum_i K(x_f, x_i) psi(x_i) dx."""
    if kernel.grid != psi.grid:
        raise ValueError("kernel and wavefunction live on different grids")
    out = kernel.entries @ psi.amplitudes * psi.grid.dx
    return WaveFunction(psi.grid, out, psi.params)


def dft_matrix(grid: Grid1D, params: PhysParams) -> tuple[Grid1D, np.ndarray]:
    """Dense position-to-momentum map M with phi = M @ psi.

    M[k, j] = dx / sqrt(2 pi hbar) * exp(-i p_k x_j / hbar). Preserves the
    physical norm: sum |phi|^2 dp == sum |psi|^2 dx exactly.

    Reference only: the package applies this map by FFT (`_momentum_fft`).
    Kept as the dense oracle of the tests; the benchmark trace wraps it by name.
    """
    pgrid = dual_grid(grid, params)
    phase = np.exp(-1j * np.outer(pgrid.x, grid.x) / params.hbar)
    return pgrid, grid.dx / np.sqrt(2.0 * np.pi * params.hbar) * phase


def momentum_representation(psi: WaveFunction) -> WaveFunction:
    """Fourier transform to the dual grid, phi(p) = int psi e^{-ipx/hbar} dx / sqrt(2 pi hbar).

    Requires a normalized input; Parseval then holds to rounding.
    Implemented with an FFT plus the phase corrections for the grid offsets.
    """
    if abs(psi.norm_squared() - 1.0) > 1e-8:
        raise ValueError("momentum_representation expects a normalized wavefunction")
    pgrid = dual_grid(psi.grid, psi.params)
    return WaveFunction(pgrid, _momentum_fft(psi.amplitudes, psi.grid, psi.params), psi.params)


def _momentum_fft(amps: np.ndarray, grid: Grid1D, params: PhysParams) -> np.ndarray:
    """The dft_matrix map applied along the last axis of `amps`, in O(n log n).

    The grid-offset phase is multiplied in FFT order, in place, so the call
    holds two arrays the size of `amps`: the FFT and its shifted copy.
    """
    phase = grid.dx / np.sqrt(2.0 * np.pi * params.hbar) * np.exp(
        -1j * dual_grid(grid, params).x * grid.x_min / params.hbar
    )
    raw = np.fft.fft(amps, axis=-1)
    raw *= np.fft.ifftshift(phase)
    return np.fft.fftshift(raw, axes=-1)

"""Wigner quasi-probability transform and phase-space functionals.

The transform evaluated here is

    W(x, p) = (2 pi hbar)^-1 int dy conj(psi)(x + y/2) exp(i p y / hbar) psi(x - y/2)

with the prefactor fixed so that the double integral of W is exactly the
squared norm of the state. The y integral needs psi at half-grid points,
from an exact factor-2 FFT interpolation (zero padding, the Nyquist bin split
symmetrically for even n) that keeps the original samples at even indices:
the p-marginal of W equals |psi(x_j)|^2 to rounding, not to quadrature.

On the Nyquist-complete dual grid exp(i p y / hbar) repeats every n lags, so
lags m and m - n fold onto one column. A pure state's folded correlation is
Hermitian in the lag term by term: half of it and a real inverse FFT give W.
A density's takes a complex inverse FFT and a guard on the imaginary part.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvio import _write_grid
from .grids import Grid1D, PhysParams, WaveFunction, _hermitian_residue, _set_checked, dual_grid


@dataclass(frozen=True)
class WignerGrid:
    """Real phase-space density sampled on a rectangle, values[j, k] = W(x_j, p_k)."""

    x_axis: Grid1D
    p_axis: Grid1D
    values: np.ndarray = field(repr=False, compare=False)
    params: PhysParams = PhysParams()

    def __post_init__(self):
        _set_checked(self, "values", (self.x_axis.n_points, self.p_axis.n_points), np.float64)

    @property
    def cell_area(self) -> float:
        return self.x_axis.dx * self.p_axis.dx

def _upsample2(amps: np.ndarray) -> np.ndarray:
    """Exact FFT interpolation onto the half-spacing grid (length doubles).

    Splitting the Nyquist coefficient (even n only) across +-n/2 keeps real
    inputs real; the even-index samples equal the originals to rounding.
    """
    n = amps.shape[-1]
    spec = np.fft.fft(amps, axis=-1)
    out = np.zeros(amps.shape[:-1] + (2 * n,), dtype=np.complex128)
    h = n // 2
    out[..., : h + 1] = spec[..., : h + 1]
    out[..., h + 1 - n :] = spec[..., h + 1 :]
    if n % 2 == 0:
        out[..., h] *= 0.5
        out[..., -h] = out[..., h]
    return np.fft.ifft(out, axis=-1) * 2.0


def _folded_lags(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-grid indices of x_j + y/2 and x_j - y/2 for the lags y = m dx and
    (m - n) dx, shape (2, n, n). A lag longer than the half-cell distance from
    x_j to the nearer edge leaves the box: both indices then point at -1,
    where the caller appends a zero sample."""
    centre = 2 * np.arange(n)[:, None]
    lags = np.arange(n) - np.array([0, n])[:, None, None]
    outside = np.abs(lags) > np.minimum(centre, 2 * n - 1 - centre)
    return np.where(outside, -1, centre + lags), np.where(outside, -1, centre - lags)


def _wigner_from_folded(corr: np.ndarray, grid: Grid1D, params: PhysParams) -> "WignerGrid":
    """Finish the transform given the lag-folded corr[j, m] of
    conj(psi)(x_j + y/2) psi(x_j - y/2)."""
    n = grid.n_points
    w = (grid.dx * n / (2.0 * np.pi * params.hbar)) * np.fft.fftshift(
        np.fft.ifft(corr, axis=1), axes=1
    )
    residue = float(np.max(np.abs(w.imag)))
    scale = float(np.max(np.abs(w.real))) or 1.0
    if residue > 1e-10 * max(scale, 1.0):
        raise ValueError(
            f"Wigner transform produced imaginary residue {residue:.3g}; "
            "input is not a valid state or density"
        )
    return WignerGrid(grid, dual_grid(grid, params), np.ascontiguousarray(w.real), params)


def wigner_transform(psi: WaveFunction) -> WignerGrid:
    """Wigner function of a normalized pure state."""
    if abs(psi.norm_squared() - 1.0) > 1e-8:
        raise ValueError("wigner_transform expects a normalized wavefunction")
    grid, n, h = psi.grid, psi.grid.n_points, psi.grid.n_points // 2 + 1
    pad = np.pad(_upsample2(psi.amplitudes), (n, n + 1))
    # rows[j, n + l] is the half-grid sample at x_j + l dx / 2, zero outside the box
    rows = np.lib.stride_tricks.sliding_window_view(pad, 2 * n + 1)[: 2 * n : 2]
    corr = np.conj(rows[:, n : n + h]) * rows[:, n : n - h : -1]
    corr += np.conj(rows[:, :h]) * rows[:, 2 * n : 2 * n - h : -1]
    w = np.fft.irfft(corr, n, axis=1)
    w *= grid.dx * n / (2.0 * np.pi * psi.params.hbar)
    return WignerGrid(grid, dual_grid(grid, psi.params), np.fft.fftshift(w, axes=1), psi.params)


def wigner_of_density(rho_entries: np.ndarray, grid: Grid1D, params: PhysParams) -> WignerGrid:
    """Wigner function of a density matrix given as rho(x, x') grid samples.

    W(x, p) = (2 pi hbar)^-1 int dy exp(i p y / hbar) rho(x - y/2, x + y/2).

    Kept as the mixed-state reference of the tests and of
    scripts/layer_scaling.py; the benchmark trace wraps it by name.
    """
    rho = np.asarray(rho_entries, dtype=np.complex128)
    n = grid.n_points
    if rho.shape != (n, n):
        raise ValueError(f"density shape {rho.shape} does not match grid ({n}, {n})")
    if _hermitian_residue(rho) > 1e-8:
        raise ValueError("density matrix must be Hermitian for a real Wigner function")
    # both indices onto the half grid, plus one zero row and column at -1
    half = np.pad(_upsample2(_upsample2(rho).T).T, ((0, 1), (0, 1)))
    plus, minus = _folded_lags(n)
    corr = half[minus[0], plus[0]] + half[minus[1], plus[1]]
    return _wigner_from_folded(corr, grid, params)


def negativity_ratio(w: WignerGrid) -> float:
    """f = int|W| / int W. Equals 1 exactly when W is non-negative."""
    total = float(np.sum(w.values))
    absolute = float(np.sum(np.abs(w.values)))
    if absolute == 0.0 or abs(total) < 1e-12 * absolute:
        raise ValueError("negativity ratio undefined: total integral vanishes")
    return absolute / total


def wigner_to_csv(w: WignerGrid, path) -> None:
    _write_grid(path, ("x", "p", "w"), w.x_axis.x, w.p_axis.x, w.values)

"""Wigner quasi-probability transform and phase-space functionals.

The transform evaluated here is

    W(x, p) = (2 pi hbar)^-1 int dy conj(psi)(x + y/2) exp(i p y / hbar) psi(x - y/2)

with the prefactor fixed so that the double integral of W is exactly the
squared norm of the state. The y integral needs psi at half-grid points;
those come from an exact factor-2 FFT interpolation (zero padding, with the
Nyquist bin split symmetrically when n is even), which reproduces the
original samples at even indices identically. Consequence: the p-marginal of
the returned W equals |psi(x_j)|^2 to machine rounding, not merely to
quadrature accuracy.

The momentum axis is the Nyquist-complete dual grid of the position axis, on
which exp(i p y / hbar) repeats every n lags: lags m and m - n fold onto one
column, and the lag sum is one inverse FFT of the folded correlation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import Grid1D, PhysParams, WaveFunction, dual_grid


@dataclass(frozen=True)
class WignerGrid:
    """Real phase-space density sampled on a rectangle, values[j, k] = W(x_j, p_k)."""

    x_axis: Grid1D
    p_axis: Grid1D
    values: np.ndarray = field(repr=False, compare=False)
    params: PhysParams = PhysParams()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        expected = (self.x_axis.n_points, self.p_axis.n_points)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} does not match axes {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("Wigner values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def cell_area(self) -> float:
        return self.x_axis.dx * self.p_axis.dx

    def total_integral(self) -> float:
        return float(np.sum(self.values) * self.cell_area)


@dataclass(frozen=True)
class PhaseSpaceObservable:
    """Classical symbol O(x, p), evaluated vectorized on meshgrids."""

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str = "custom"

    def __call__(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        out = np.asarray(self.func(x, p), dtype=np.float64)
        out = np.broadcast_to(out, np.broadcast_shapes(np.shape(x), np.shape(p)))
        if not np.all(np.isfinite(out)):
            raise ValueError(f"observable {self.label!r} is not finite on the grid")
        return out


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
    half = np.append(_upsample2(psi.amplitudes), 0.0)
    plus, minus = _folded_lags(psi.grid.n_points)
    conj = np.conj(half)
    corr = conj[plus[0]] * half[minus[0]] + conj[plus[1]] * half[minus[1]]
    return _wigner_from_folded(corr, psi.grid, psi.params)


def wigner_of_density(rho_entries: np.ndarray, grid: Grid1D, params: PhysParams) -> WignerGrid:
    """Wigner function of a density matrix given as rho(x, x') grid samples.

    W(x, p) = (2 pi hbar)^-1 int dy exp(i p y / hbar) rho(x - y/2, x + y/2).
    """
    rho = np.asarray(rho_entries, dtype=np.complex128)
    n = grid.n_points
    if rho.shape != (n, n):
        raise ValueError(f"density shape {rho.shape} does not match grid ({n}, {n})")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > 1e-8 * max(float(np.max(np.abs(rho))), 1e-300):
        raise ValueError("density matrix must be Hermitian for a real Wigner function")
    # both indices onto the half grid, plus one zero row and column at -1
    half = np.pad(_upsample2(_upsample2(rho).T).T, ((0, 1), (0, 1)))
    plus, minus = _folded_lags(n)
    corr = half[minus[0], plus[0]] + half[minus[1], plus[1]]
    return _wigner_from_folded(corr, grid, params)


def expectation_phase_space(w: WignerGrid, obs: PhaseSpaceObservable) -> float:
    """int int W(x,p) O(x,p) dx dp on the sampled rectangle."""
    xm = w.x_axis.x[:, None]
    pm = w.p_axis.x[None, :]
    return float(np.sum(w.values * obs(xm, pm)) * w.cell_area)


def negativity_ratio(w: WignerGrid) -> float:
    """f = int|W| / int W. Equals 1 exactly when W is non-negative."""
    total = float(np.sum(w.values))
    absolute = float(np.sum(np.abs(w.values)))
    if absolute == 0.0 or abs(total) < 1e-12 * absolute:
        raise ValueError("negativity ratio undefined: total integral vanishes")
    return absolute / total


def wigner_to_csv(w: WignerGrid, path) -> None:
    from .csvio import write_csv

    nx, npts = w.x_axis.n_points, w.p_axis.n_points
    rows = (
        (w.x_axis.x[j], w.p_axis.x[k], w.values[j, k])
        for j in range(nx)
        for k in range(npts)
    )
    write_csv(path, ("x", "p", "w"), rows)


def wigner_from_csv(path, params: PhysParams = PhysParams()) -> WignerGrid:
    from .csvio import read_csv

    rows = read_csv(path, ("x", "p", "w"))
    data = np.array([[float(c) for c in row] for row in rows])
    p0 = data[0, 1]
    npts = 1
    while npts < len(data) and data[npts, 1] != p0:
        npts += 1
    if len(data) % npts:
        raise ValueError(f"{path}: ragged phase-space block (period {npts})")
    nx = len(data) // npts
    x = data[::npts, 0]
    p = data[:npts, 1]
    x_axis = Grid1D(float(x[0]), float(x[-1]), nx)
    p_axis = Grid1D(float(p[0]), float(p[-1]), npts)
    if np.max(np.abs(x_axis.x - x)) > 1e-9 or np.max(np.abs(p_axis.x - p)) > 1e-9:
        raise ValueError(f"{path}: axes are not uniform grids")
    return WignerGrid(x_axis, p_axis, data[:, 2].reshape(nx, npts), params)

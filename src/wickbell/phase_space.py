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
That runs over a fixed block of rows at a time, each block written scaled
and shifted straight into the one preallocated W, so the per-call
temporaries stay a few hundred KiB instead of several n^2 arrays that
glibc may map and fault in afresh on every call. A density's takes a
complex inverse FFT and a guard on the imaginary part.
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

# rows of a pure-state W computed together: a block's two complex buffers and
# its inverse-FFT output hold about 24 n bytes a row, 384 KiB at n = 512
_ROWS = 32


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
    out[..., n + h + 1 :] = spec[..., h + 1 :]
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


def _pure_wigner(amps: np.ndarray, scale: float) -> np.ndarray:
    """scale times W[j, k] of the pure state `amps`, p in dual-grid order,
    computed _ROWS rows at a time straight into one n x n array: each block's
    folded correlation goes through a real inverse FFT into one reused
    buffer, and the scale and the shift to dual-grid order write it into W."""
    n, h, s = len(amps), len(amps) // 2 + 1, len(amps) // 2
    pad = np.pad(_upsample2(amps), (n, n + 1))
    # rows[j, n + l] is the half-grid sample at x_j + l dx / 2, zero outside
    # the box; conj_rows the same of its conjugate, taken once for every row
    windows = np.lib.stride_tricks.sliding_window_view
    rows = windows(pad, 2 * n + 1)[: 2 * n : 2]
    conj_rows = windows(np.conjugate(pad), 2 * n + 1)[: 2 * n : 2]
    w = np.empty((n, n))
    b = min(n, _ROWS)
    corr, term = np.empty((b, h), np.complex128), np.empty((b, h), np.complex128)
    line = np.empty((b, n))
    for j in range(0, n, b):
        r, c = rows[j : j + b], conj_rows[j : j + b]
        k = len(r)
        np.multiply(c[:, n : n + h], r[:, n : n - h : -1], out=corr[:k])
        np.multiply(c[:, :h], r[:, 2 * n : 2 * n - h : -1], out=term[:k])
        corr[:k] += term[:k]
        np.fft.irfft(corr[:k], n, axis=1, out=line[:k])
        np.multiply(line[:k, : n - s], scale, out=w[j : j + k, s:])
        np.multiply(line[:k, n - s :], scale, out=w[j : j + k, :s])
    return w


def wigner_transform(psi: WaveFunction) -> WignerGrid:
    """Wigner function of a normalized pure state."""
    if abs(psi.norm_squared() - 1.0) > 1e-8:
        raise ValueError("wigner_transform expects a normalized wavefunction")
    grid, n = psi.grid, psi.grid.n_points
    scale = grid.dx * n / (2.0 * np.pi * psi.params.hbar)
    values = _pure_wigner(psi.amplitudes, scale)
    return WignerGrid(grid, dual_grid(grid, psi.params), values, psi.params)


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

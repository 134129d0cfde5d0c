"""Two-particle correlated pairs: construction, free evolution, momentum statistics.

The initial pair is a regularized version of a position-correlated state,

    psi(x, y) ~ exp(-(x - y)^2 / 4 s^2) * exp(-(x + y)^2 / 16 E^2),

a Gaussian in the relative coordinate (width s in the probability sense)
under a broad center-of-mass envelope E. As s -> 0 at fixed E this approaches
a perfectly position-correlated pair, and its momentum distribution pinches
onto the anti-correlated line p_x + p_y = 0.

Normalization is enforced where an operation needs it rather than on the
container: imaginary-time evolution damps the raw weight, and the weight
ratio against the real-time result is itself a measured quantity, so the
container must be able to carry non-normalized amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import _write_grid
from .errors import GridEscapeError
from .grids import EUCLIDEAN, Grid1D, PhysParams, _Amplitudes, dual_grid
from .kernels import free_kernel_row

# relative border amplitude above which an evolved pair is considered to
# have run off the grid
_ESCAPE_THRESHOLD = 1e-4

# rows per FFT block: a pass holds one block's transforms besides its
# n x n input and output, never a whole padded copy
_BLOCK_ROWS = 32


@dataclass(frozen=True)
class CorrelationWidth:
    """Regularization width of the relative-coordinate constraint."""

    s: float

    def __post_init__(self):
        if not (self.s > 0.0) or not np.isfinite(self.s):
            raise ValueError(f"correlation width must be positive, got {self.s}")


@dataclass(frozen=True)
class PairWaveFunction(_Amplitudes):
    """Amplitudes indexed (x, y) on a shared grid for both particles."""

    rank = 2


def epr_initial_pair(
    grid: Grid1D,
    width: CorrelationWidth,
    envelope_width: float,
    params: PhysParams = PhysParams(),
) -> PairWaveFunction:
    """Normalized correlated pair; requires s < envelope so the state is
    genuinely relative-coordinate-squeezed."""
    s = width.s
    if not (envelope_width > 0.0) or not np.isfinite(envelope_width):
        raise ValueError(f"envelope width must be positive, got {envelope_width}")
    if not (s < envelope_width):
        raise ValueError(
            f"correlation width {s} must be smaller than envelope {envelope_width}"
        )
    # x - y = (i - j) dx and x + y = 2 x_min + (i + j) dx: an even Toeplitz
    # factor times a Hankel one, each a sliding window over 2n - 1 samples
    n, dx = grid.n_points, grid.dx
    k = np.arange(2 * n - 1)
    rel = np.exp(-(((k - (n - 1)) * dx) ** 2) / (4.0 * s**2))
    com = np.exp(-((2.0 * grid.x_min + k * dx) ** 2) / (16.0 * envelope_width**2))
    windows = np.lib.stride_tricks.sliding_window_view
    return PairWaveFunction(grid, windows(rel, n)[::-1] * windows(com, n), params).normalized()


def _border_escape(amps: np.ndarray) -> float:
    peak = float(np.max(np.abs(amps)))
    border = max(float(np.max(np.abs(amps[[0, -1]]))), float(np.max(np.abs(amps[:, [0, -1]]))))
    return border / peak if peak > 0.0 else 0.0


def _blocked_pass(transform, src: np.ndarray, dtype=np.complex128, length: int = 0) -> np.ndarray:
    """transform(src).T for a `transform` along the last axis, taken over
    blocks of _BLOCK_ROWS rows: each block's result is written transposed
    into one preallocated array. The transform's rows come out `length`
    long (default: as long as src's rows). Two passes apply a transform
    along both indices and leave the result in C order."""
    out = np.empty((length or src.shape[1], src.shape[0]), dtype=dtype)
    for start in range(0, src.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        out[:, rows] = transform(src[rows]).T
    return out


def _mirrored_fft(block: np.ndarray, length: int) -> np.ndarray:
    """np.fft.fft(block, length) of real rows without a complex copy of them:
    rfft's columns 0 .. length//2, the rest mirrored as X[length - k] = conj(X[k])."""
    out = np.empty((len(block), length), dtype=np.complex128)
    out[:, : length // 2 + 1] = np.fft.rfft(block, length)
    np.conjugate(out[:, (length - 1) // 2 : 0 : -1], out=out[:, length // 2 + 1 :])
    return out


def evolve_pair(pair: PairWaveFunction, time_extent: float, regime: str) -> PairWaveFunction:
    """Free evolution applied independently along each tensor index.

    The two-particle kernel factorizes, and the single-particle kernel is
    Toeplitz, so each index takes one O(n^2 log n) FFT convolution with the
    kernel's lag row; the n x n kernel is never built. Euclidean output keeps
    its damped raw weight (callers normalize when they need probabilities).
    The real Euclidean kernel keeps a float64 pair float64 (real-input FFTs);
    in real time a float64 pair's first pass mirrors a real-input FFT.

    Real-time caution: the sampled chirp aliases into state copies displaced
    by 2 pi hbar T/(m dx) (see the kernels module note); the convolution is
    the same linear map as the dense product. Keep that shift larger than the
    box so the copies land outside; the border-amplitude guard below catches
    the contamination when it does not.
    """
    row = free_kernel_row(pair.grid, time_extent, pair.params, regime)
    n, dx = pair.grid.n_points, pair.grid.dx
    # block @ T for the symmetric Toeplitz T with first row `row`, by
    # circulant embedding: lags -(n-1) .. n-1 wrap onto a circle of 2n
    # points, and the zero-padded FFT convolution is the exact product
    # (Golub & Van Loan, Matrix Computations, section 4.7)
    embedded = np.concatenate((row, [0.0], row[:0:-1]))
    real = not np.iscomplexobj(pair.amplitudes)
    if regime == EUCLIDEAN and real:
        # the embedded row is real and even, so its spectrum is real
        fft, ifft, spectrum = np.fft.rfft, np.fft.irfft, np.fft.rfft(embedded).real
        first, dtype = fft, np.float64
    else:
        fft, ifft, spectrum = np.fft.fft, np.fft.ifft, np.fft.fft(embedded)
        first, dtype = _mirrored_fft if real else fft, np.complex128

    def convolve(block, spectrum, fft=fft):
        padded = fft(block, 2 * n)
        padded *= spectrum
        return ifft(padded, 2 * n)[:, :n]

    # K A K = ((A K)^T K)^T: both passes run along contiguous rows, where the
    # FFT is fastest, and the second transposes the result back to C order
    half = _blocked_pass(lambda block: convolve(block, spectrum, first), pair.amplitudes, dtype)
    scaled = dx * dx * spectrum
    out = _blocked_pass(lambda block: convolve(block, scaled), half, dtype)
    del half  # before the border check takes |out|
    escape = _border_escape(out)
    if escape > _ESCAPE_THRESHOLD:
        raise GridEscapeError(
            f"evolved pair reaches the grid border at relative amplitude "
            f"{escape:.3g} (threshold {_ESCAPE_THRESHOLD:g}); enlarge the grid "
            f"or shorten the time"
        )
    return PairWaveFunction(pair.grid, out, pair.params)


def joint_momentum_distribution(pair: PairWaveFunction) -> tuple[Grid1D, np.ndarray]:
    """|phi(p_x, p_y)|^2 on the dual grid, carrying the pair's raw weight.

    phi is the dft_matrix map along both indices: an FFT along y, then
    along x, times dx / sqrt(2 pi hbar) and a grid-offset phase per index.
    The phase has unit modulus and cancels in |phi|^2, so the density is
    |FFT A|^2 (dx^2 / 2 pi hbar)^2, shifted once into the dual grid's order.
    """
    amps, grid = pair.amplitudes, pair.grid
    n = grid.n_points

    def power(block):
        return np.abs(np.fft.fft(block, axis=-1)) ** 2

    if np.iscomplexobj(amps):
        half = _blocked_pass(np.fft.fft, amps)
        prob = _blocked_pass(power, half, np.float64)
        del half
    else:
        # a real pair has |phi(-p)| = |phi(p)|: transform the n//2 + 1
        # columns k_y <= n/2 and fill the rest from (-k_x mod n, n - k_y)
        cols = n // 2 + 1
        half = _blocked_pass(np.fft.rfft, amps, length=cols)
        kept = _blocked_pass(power, half, np.float64)
        del half
        prob = np.empty((n, n))
        prob[:, :cols] = kept
        prob[0, cols:] = kept[0, n - cols : 0 : -1]
        prob[1:, cols:] = kept[:0:-1, n - cols : 0 : -1]
        del kept
    prob *= (grid.dx**2 / (2.0 * np.pi * pair.params.hbar)) ** 2
    return dual_grid(grid, pair.params), np.fft.fftshift(prob)


def momentum_anticorrelation(pair: PairWaveFunction) -> float:
    """Pearson correlation of (p_x, p_y) under the joint momentum distribution."""
    if abs(pair.norm_squared() - 1.0) > 1e-8:
        raise ValueError("momentum_anticorrelation expects a normalized pair")
    return _pearson(*joint_momentum_distribution(pair))


def _pearson(pgrid: Grid1D, prob: np.ndarray) -> float:
    total = float(np.sum(prob))
    if total <= 0.0:
        raise ValueError("momentum distribution vanishes")
    prob = prob / total
    p = pgrid.x
    px_marg = np.sum(prob, axis=1)
    py_marg = np.sum(prob, axis=0)
    mean_x = float(p @ px_marg)
    mean_y = float(p @ py_marg)
    var_x = float((p - mean_x) ** 2 @ px_marg)
    var_y = float((p - mean_y) ** 2 @ py_marg)
    if var_x <= 0.0 or var_y <= 0.0:
        raise ValueError("degenerate momentum distribution: zero variance")
    cov = float((p - mean_x) @ prob @ (p - mean_y))
    return cov / np.sqrt(var_x * var_y)


def condition_on_momentum_window(
    pair: PairWaveFunction, p_lo: float, p_hi: float
) -> tuple[Grid1D, np.ndarray]:
    """Post-select particle 1 into p_x in [p_lo, p_hi]; return the renormalized
    conditional momentum distribution of particle 2."""
    if not (p_hi > p_lo):
        raise ValueError(f"empty momentum window [{p_lo}, {p_hi}]")
    return _conditional(*joint_momentum_distribution(pair), p_lo, p_hi)


def _conditional(pgrid: Grid1D, prob: np.ndarray, p_lo: float, p_hi: float) -> tuple:
    mask = (pgrid.x >= p_lo) & (pgrid.x <= p_hi)
    if not np.any(mask):
        raise ValueError(
            f"momentum window [{p_lo}, {p_hi}] contains no grid samples "
            f"(dp = {pgrid.dx:.3g})"
        )
    conditional = np.sum(prob[mask, :], axis=0)
    total = float(np.sum(conditional))
    if total <= 0.0:
        raise ValueError("post-selected distribution has no weight")
    return pgrid, conditional / total


def momentum_distribution_to_csv(pgrid: Grid1D, prob: np.ndarray, path) -> None:
    _write_grid(path, ("p_x", "p_y", "probability"), pgrid.x, pgrid.x, prob)

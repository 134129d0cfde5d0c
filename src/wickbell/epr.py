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
from .grids import EUCLIDEAN, MINKOWSKI, Grid1D, PhysParams, _Amplitudes, dual_grid
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


def _blocked_pass(transform, src: np.ndarray, dtype=np.complex128) -> np.ndarray:
    """transform(src).T for a `transform` along the last axis, taken over
    blocks of _BLOCK_ROWS rows: each block's result is written transposed
    into one preallocated array."""
    out = np.empty(src.shape[::-1], dtype=dtype)
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


def _evolved_rows(pair: PairWaveFunction, time_extent: float, regime: str, transform, out=None):
    """Free evolution E = K A K dx^2, made and consumed one block of E^T's
    rows (index y, then x) at a time: transform(block) goes into the same
    rows of `out` (default: in place over the first pass's result).

    Returns `out` and E's border/peak ratio, folded blockwise from E^T's
    columns 0 and n-1 and its first and last rows; raises GridEscapeError
    when the ratio exceeds _ESCAPE_THRESHOLD. The real Euclidean kernel
    keeps a float64 pair float64 (real-input FFTs); in real time a float64
    pair's first pass mirrors a real-input FFT.
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

    # K A K = ((A K)^T K)^T: the first pass writes (A K)^T, and each of its
    # row blocks convolved along x is a block of E^T's rows
    half = _blocked_pass(lambda block: convolve(block, spectrum, first), pair.amplitudes, dtype)
    scaled = dx * dx * spectrum
    out = half if out is None else out
    border = peak = 0.0
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = convolve(half[rows], scaled)
        mag = np.abs(block)
        last = start + _BLOCK_ROWS >= n
        rims = (mag[:, [0, -1]], mag[0] if start == 0 else 0.0, mag[-1] if last else 0.0)
        border = max(border, *(float(np.max(rim)) for rim in rims))
        peak = max(peak, float(np.max(mag)))
        out[rows] = transform(block)
    escape = border / peak if peak > 0.0 else 0.0
    if escape > _ESCAPE_THRESHOLD:
        raise GridEscapeError(
            f"evolved pair reaches the grid border at relative amplitude {escape:.3g} "
            f"(threshold {_ESCAPE_THRESHOLD:g}); enlarge the grid or shorten the time"
        )
    return out, escape


def evolve_pair(pair: PairWaveFunction, time_extent: float, regime: str) -> PairWaveFunction:
    """Free evolution applied independently along each tensor index.

    The two-particle kernel factorizes, and the single-particle kernel is
    Toeplitz, so each index takes one O(n^2 log n) FFT convolution with the
    kernel's lag row; the n x n kernel is never built. Euclidean output keeps
    its damped raw weight (callers normalize when they need probabilities).
    The amplitudes are the transpose of the C-ordered E^T the passes leave.

    Real-time caution: the sampled chirp aliases into state copies displaced
    by 2 pi hbar T/(m dx) (see the kernels module note); the convolution is
    the same linear map as the dense product. Keep that shift larger than the
    box so the copies land outside; the border-amplitude guard catches the
    contamination when it does not.
    """
    evolved_t = _evolved_rows(pair, time_extent, regime, lambda block: block)[0]
    return PairWaveFunction(pair.grid, evolved_t.T, pair.params)


def joint_momentum_distribution(
    pair: PairWaveFunction, time_extent: float = 0.0, regime: str = MINKOWSKI
) -> tuple[Grid1D, np.ndarray]:
    """|phi(p_x, p_y)|^2 on the dual grid after free evolution for
    time_extent (none by default), carrying the pair's raw weight.

    phi is the dft_matrix map along both indices: an FFT along each, times
    dx / sqrt(2 pi hbar) and a grid-offset phase per index. The phase has
    unit modulus and cancels in |phi|^2, so the density is |FFT A|^2
    (dx^2 / 2 pi hbar)^2, shifted once into the dual grid's order. The
    first FFT runs along A's rows, or on each block of the evolved pair as
    _evolved_rows makes it, so that pair never exists whole; the second runs
    on column blocks, each block's |.|^2 written transposed into the density.
    A pair that stays real transforms the first index's n//2 + 1
    non-negative frequencies and fills the rest from |phi(-p)| = |phi(p)|.
    """
    amps, grid = pair.amplitudes, pair.grid
    n = grid.n_points
    real = not np.iscomplexobj(amps) and (time_extent == 0.0 or regime == EUCLIDEAN)
    fft = np.fft.rfft if real else np.fft.fft
    if time_extent == 0.0:  # A's rows are x: the density comes out transposed
        rows = fft(amps)
    else:
        rows = np.empty((n, n // 2 + 1), np.complex128) if real else None  # else in place
        rows = _evolved_rows(pair, time_extent, regime, fft, rows)[0]
    kept = rows.shape[1]
    prob = np.empty((n, n))
    for start in range(0, kept, _BLOCK_ROWS):
        cols = slice(start, min(start + _BLOCK_ROWS, kept))
        prob[cols] = (np.abs(np.fft.fft(rows[:, cols], axis=0)) ** 2).T
    del rows
    # rows k > n/2 of a real pair are rows n - k with the other index reversed
    # mod n (no rows remain when all n were transformed)
    prob[kept:, 0] = prob[n - kept : 0 : -1, 0]
    prob[kept:, 1:] = prob[n - kept : 0 : -1, :0:-1]
    prob *= (grid.dx**2 / (2.0 * np.pi * pair.params.hbar)) ** 2
    return dual_grid(grid, pair.params), np.fft.fftshift(prob.T if time_extent == 0.0 else prob)


def momentum_anticorrelation(pgrid: Grid1D, prob: np.ndarray) -> float:
    """Pearson correlation of (p_x, p_y) under a joint momentum density of
    any total weight, as joint_momentum_distribution returns it."""
    total = float(np.sum(prob))
    if total <= 0.0:
        raise ValueError("momentum distribution vanishes")
    p = pgrid.x
    px_marg = np.sum(prob, axis=1) / total
    py_marg = np.sum(prob, axis=0) / total
    mean_x = float(p @ px_marg)
    mean_y = float(p @ py_marg)
    var_x = float((p - mean_x) ** 2 @ px_marg)
    var_y = float((p - mean_y) ** 2 @ py_marg)
    if var_x <= 0.0 or var_y <= 0.0:
        raise ValueError("degenerate momentum distribution: zero variance")
    cov = float((p - mean_x) @ prob @ (p - mean_y)) / total
    return cov / np.sqrt(var_x * var_y)


def condition_on_momentum_window(
    pgrid: Grid1D, prob: np.ndarray, p_lo: float, p_hi: float
) -> tuple[Grid1D, np.ndarray]:
    """Post-select particle 1 into p_x in [p_lo, p_hi] under a joint momentum
    density of any total weight; return the normalized conditional momentum
    distribution of particle 2."""
    if not (p_hi > p_lo):
        raise ValueError(f"empty momentum window [{p_lo}, {p_hi}]")
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

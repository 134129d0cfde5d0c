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

On a box with x_min = -x_max the pair is centrosymmetric bit for bit,
psi(-x, -y) = psi(x, y), and the free kernel, a symmetric Toeplitz matrix,
commutes with the reflection J (Cantoni and Butler, Linear Algebra Appl.
13, 275 (1976)). Evolution and momentum density check A == J A J exactly;
a pair that passes transforms only its first ceil(n/2) rows in each pass,
and the other rows are read from the reflection. Any other pair, complex or
real, takes the passes over all n rows.

Every pass runs over blocks of rows (_each_block): when the process may run
on 2 CPUs, a helper thread transforms every other block while the calling
thread transforms the rest. Each block writes its own rows, so the bytes
are the same on one thread or two.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass

import numpy as np

from .csvio import _two_cpus, _write_grid
from .errors import GridEscapeError
from .grids import EUCLIDEAN, MINKOWSKI, Grid1D, PhysParams, _Amplitudes, dual_grid
from .kernels import free_kernel_row

# relative border amplitude above which an evolved pair is considered to
# have run off the grid
_ESCAPE_THRESHOLD = 1e-4

# rows in flight per pass, over the blocks of _BLOCK_ROWS // 2 rows that
# each of _each_block's two threads holds: a pass holds their transforms
# besides its n x n input and output, never a whole padded copy
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
    # x - y = (i - j) dx and x + y = (x_min + x_max) + (i + j - (n - 1)) dx:
    # an even Toeplitz factor times a Hankel one, each a sliding window over
    # 2n - 1 samples; both are even about k = n - 1 when x_min = -x_max
    n, dx = grid.n_points, grid.dx
    lag = (np.arange(2 * n - 1) - (n - 1)) * dx
    rel = np.exp(-(lag**2) / (4.0 * s**2))
    com = np.exp(-(((grid.x_min + grid.x_max) + lag) ** 2) / (16.0 * envelope_width**2))
    windows = np.lib.stride_tricks.sliding_window_view
    return PairWaveFunction(grid, windows(rel, n)[::-1] * windows(com, n), params).normalized()


def _each_block(m: int, work) -> list:
    """[work(rows) for each block `rows` of _BLOCK_ROWS // 2 rows of range(m)],
    in block order.

    With two blocks or more, when this process may run on 2 CPUs, one helper
    thread takes the odd blocks while the calling thread takes the even
    ones: numpy's FFTs and ufuncs release the interpreter lock, so both
    cores work. `work` writes only its own block's part of a shared array,
    so nothing depends on which thread ran a block. The helper runs in a
    copy of the caller's context (numpy's errstate with it) and is joined
    before this returns; an exception it raises is raised here, and either
    thread stops at its next block once the other has raised.
    """
    step = _BLOCK_ROWS // 2
    blocks = [slice(start, min(start + step, m)) for start in range(0, m, step)]
    if len(blocks) < 2 or not _two_cpus():
        return [work(rows) for rows in blocks]
    results = [None] * len(blocks)
    stop, errors = threading.Event(), []

    def run(first: int) -> None:
        for i in range(first, len(blocks), 2):
            if stop.is_set():
                return
            results[i] = work(blocks[i])

    def helper() -> None:
        try:
            run(1)
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)
            stop.set()

    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    thread.start()
    try:
        run(0)
    except BaseException:
        stop.set()
        raise
    finally:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _kept_rows(amps: np.ndarray) -> int:
    """Rows of `amps` a pass transforms: the first ceil(n/2) when it is
    centrosymmetric, amps[n-1-x, n-1-y] == amps[x, y] exactly, whose other
    rows are their reflection; all n otherwise."""
    n = len(amps)
    return n - n // 2 if np.array_equal(amps, amps[::-1, ::-1]) else n


def _blocked_pass(transform, src: np.ndarray, dtype=np.complex128) -> np.ndarray:
    """The first len(src) rows of T = transform(A).T, for a `transform` along
    the last axis of an n x n A whose first rows `src` holds, taken over
    _each_block's blocks: each block's result is written transposed into
    one preallocated array. Fewer than n rows stand for a
    centrosymmetric A, so T is one too: the columns x >= len(src) are read
    from the reflection T[y, n-1-x] = T[n-1-y, x] of computed ones."""
    m, n = src.shape
    out = np.empty((m, n), dtype=dtype)
    reflected = out[:, ::-1]

    def work(rows: slice) -> None:
        block = transform(src[rows]).T
        out[:, rows] = block[:m]
        mirrored = min(rows.stop, n - m) - rows.start  # none when m = n
        if mirrored > 0:
            reflected[:, rows.start : rows.start + mirrored] = block[::-1][:m, :mirrored]

    _each_block(m, work)
    return out


def _mirrored_fft(block: np.ndarray, length: int) -> np.ndarray:
    """np.fft.fft(block, length) of real rows without a complex copy of them:
    rfft's columns 0 .. length//2, the rest mirrored as X[length - k] = conj(X[k])."""
    out = np.empty((len(block), length), dtype=np.complex128)
    out[:, : length // 2 + 1] = np.fft.rfft(block, length)
    np.conjugate(out[:, (length - 1) // 2 : 0 : -1], out=out[:, length // 2 + 1 :])
    return out


def _evolved_rows(pair: PairWaveFunction, time_extent: float, regime: str, transform, width=None):
    """Free evolution E = K A K dx^2, made and consumed one block of E^T's
    rows (index y, then x) at a time: transform(block) goes into the same
    rows of a complex array `width` columns wide (default: in place over the
    first pass's result). A centrosymmetric pair makes only E^T's first
    ceil(n/2) rows, the rest being E^T[n-1-y, n-1-x] = E^T[y, x].

    Returns those rows and E's border/peak ratio, folded blockwise from E^T's
    columns 0 and n-1 and its first and last rows (the last row of a
    centrosymmetric E^T is its first reversed); raises GridEscapeError
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
    # row blocks convolved along x is a block of E^T's rows; K commutes with
    # the reflection, so a centrosymmetric A gives centrosymmetric A K and E
    amps = pair.amplitudes
    m = _kept_rows(amps)
    half = _blocked_pass(lambda block: convolve(block, spectrum, first), amps[:m], dtype)
    scaled = dx * dx * spectrum
    out = half if width is None else np.empty((m, width), np.complex128)

    def work(rows: slice) -> tuple[float, float]:
        block = convolve(half[rows], scaled)
        if rows.stop == m < n and n % 2:  # the middle row, its own reflection
            block[-1, m:] = block[-1, : n - m][::-1]
        mag = np.abs(block)
        top, bottom = rows.start == 0, rows.stop == n
        rims = (mag[:, [0, -1]], mag[0] if top else 0.0, mag[-1] if bottom else 0.0)
        out[rows] = transform(block)
        return max(float(np.max(rim)) for rim in rims), float(np.max(mag))

    borders, peaks = zip(*_each_block(m, work))
    border, peak = max(borders), max(peaks)
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
    m, n = evolved_t.shape
    if m < n:  # E^T[n-1-y, n-1-x] = E^T[y, x]
        evolved_t = np.concatenate((evolved_t, evolved_t[: n - m][::-1, ::-1]))
    return PairWaveFunction(pair.grid, evolved_t.T, pair.params)


def joint_momentum_distribution(
    pair: PairWaveFunction, time_extent: float = 0.0, regime: str = MINKOWSKI
) -> tuple[Grid1D, np.ndarray]:
    """|phi(p_x, p_y)|^2 on the dual grid after free evolution for
    time_extent (none by default), carrying the pair's raw weight.

    phi is the dft_matrix map along both indices: an FFT along each, times
    dx / sqrt(2 pi hbar) and a grid-offset phase per index. The phase has
    unit modulus and cancels in |phi|^2, so the density is |FFT A|^2
    (dx^2 / 2 pi hbar)^2, written in the dual grid's order. The
    first FFT runs along A's rows, or on each block of the evolved pair as
    _evolved_rows makes it, so that pair never exists whole; the second runs
    on column blocks, each block's |.|^2 written transposed into the density.
    A pair that stays real transforms the first index's n//2 + 1
    non-negative frequencies and fills the rest from |phi(-p)| = |phi(p)|.
    A centrosymmetric pair has |phi(-p)| = |phi(p)| too: its first FFT runs
    on the first ceil(n/2) rows, the second on the columns of the n//2 + 1
    non-negative frequencies, each column rebuilding its other rows from
    the reflection (_columns).
    """
    amps, grid = pair.amplitudes, pair.grid
    n = grid.n_points
    real = not np.iscomplexobj(amps) and (time_extent == 0.0 or regime == EUCLIDEAN)
    fft = np.fft.rfft if real else np.fft.fft
    if time_extent == 0.0:  # A's rows are x: the density comes out transposed
        src = amps[: _kept_rows(amps)]
        rows = np.empty((len(src), n // 2 + 1 if real else n), np.complex128)
        _each_block(len(src), lambda r: np.copyto(rows[r], fft(src[r])))
    else:  # in place over the complex intermediate unless real
        rows = _evolved_rows(pair, time_extent, regime, fft, n // 2 + 1 if real else None)[0]
    half = n // 2
    kept = rows.shape[1] if len(rows) == n else half + 1
    # written in the dual grid's order: frequency k goes to row and column
    # at[k], where np.fft.fftshift would put it
    at = (np.arange(n) + half) % n
    scale = (grid.dx**2 / (2.0 * np.pi * pair.params.hbar)) ** 2
    prob = np.empty((n, n))

    def work(cols: slice) -> None:
        block = np.abs(np.fft.fft(_columns(rows, cols, n), axis=0)) ** 2
        prob[at[cols]] = np.roll(block.T * scale, half, axis=1)

    _each_block(kept, work)
    del rows
    if kept < n:
        # frequencies k > n/2 of a real or centrosymmetric pair are -k with
        # the other index negated too: row i < n//2 is row 2(n//2) - i with
        # the columns mirrored the same way (column 0 of an even n holds
        # -n/2, its own negative)
        lo = 1 - n % 2
        mirror = prob[n - 1 : half : -1]
        prob[lo:half, :lo] = mirror[:, :lo]
        prob[lo:half, lo:] = mirror[:, ::-1][:, : n - lo]
    return dual_grid(grid, pair.params), prob.T if time_extent == 0.0 else prob


def _columns(rows: np.ndarray, cols: slice, n: int) -> np.ndarray:
    """The columns `cols` of the row FFT R of an n x n array whose first
    rows `rows` holds. Fewer than n rows stand for a centrosymmetric array,
    whose reversed row n-1-y has R[n-1-y, k] = e^{2 pi i k/n} R[y, -k mod n];
    a real row's half spectrum gives R[y, -k mod n] = conj(R[y, k])."""
    m = len(rows)
    if m == n:
        return rows[:, cols]
    out = np.empty((n, cols.stop - cols.start), np.complex128)
    out[:m] = rows[:, cols]
    source, k = rows[: n - m][::-1], np.arange(cols.start, cols.stop)
    if rows.shape[1] == n:
        out[m:] = source[:, -k % n]
    else:
        np.conjugate(source[:, cols], out=out[m:])
    out[m:] *= np.exp(2j * np.pi * k / n)
    return out


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

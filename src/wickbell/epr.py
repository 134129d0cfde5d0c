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

from dataclasses import dataclass, field

import numpy as np

from .errors import GridEscapeError
from .grids import Grid1D, PhysParams, _momentum_fft
from .kernels import free_kernel_row

# relative border amplitude above which an evolved pair is considered to
# have run off the grid
_ESCAPE_THRESHOLD = 1e-4


@dataclass(frozen=True)
class CorrelationWidth:
    """Regularization width of the relative-coordinate constraint."""

    s: float

    def __post_init__(self):
        if not (self.s > 0.0) or not np.isfinite(self.s):
            raise ValueError(f"correlation width must be positive, got {self.s}")


@dataclass(frozen=True)
class PairWaveFunction:
    """Amplitudes indexed (x, y) on a shared grid for both particles."""

    grid: Grid1D
    amplitudes: np.ndarray = field(repr=False, compare=False)
    params: PhysParams = PhysParams()

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        n = self.grid.n_points
        if amps.shape != (n, n):
            raise ValueError(f"amplitude shape {amps.shape} does not match grid ({n}, {n})")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx**2)

    def normalized(self) -> "PairWaveFunction":
        n2 = self.norm_squared()
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero pair state")
        return PairWaveFunction(self.grid, self.amplitudes / np.sqrt(n2), self.params)


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
    x = grid.x[:, None]
    y = grid.x[None, :]
    amps = np.exp(
        -((x - y) ** 2) / (4.0 * s**2) - ((x + y) ** 2) / (16.0 * envelope_width**2)
    )
    return PairWaveFunction(grid, amps, params).normalized()


def _border_escape(amps: np.ndarray) -> float:
    peak = float(np.max(np.abs(amps)))
    if peak == 0.0:
        return 0.0
    border = max(
        float(np.max(np.abs(amps[0, :]))),
        float(np.max(np.abs(amps[-1, :]))),
        float(np.max(np.abs(amps[:, 0]))),
        float(np.max(np.abs(amps[:, -1]))),
    )
    return border / peak


def _toeplitz_apply(row: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """amps @ T along the last axis for the symmetric Toeplitz T with first
    row `row`, by circulant embedding: lags -(n-1) .. n-1 wrap onto a circle
    of 2n points, and the zero-padded FFT convolution is the exact product
    (Golub & Van Loan, Matrix Computations, section 4.7)."""
    n = row.shape[0]
    padded = np.fft.fft(amps, 2 * n, axis=-1)
    padded *= np.fft.fft(np.concatenate((row, [0.0], row[:0:-1])))
    return np.fft.ifft(padded, axis=-1)[..., :n]


def evolve_pair(pair: PairWaveFunction, time_extent: float, regime: str) -> PairWaveFunction:
    """Free evolution applied independently along each tensor index.

    The two-particle kernel factorizes, and the single-particle kernel is
    Toeplitz, so each index takes one O(n^2 log n) FFT convolution with the
    kernel's lag row; the n x n kernel is never built. Euclidean output keeps
    its damped raw weight (callers normalize when they need probabilities).

    Real-time caution: the sampled chirp aliases into state copies displaced
    by 2 pi hbar T/(m dx) (see the kernels module note); the convolution is
    the same linear map as the dense product. Keep that shift larger than the
    box so the copies land outside; the border-amplitude guard below catches
    the contamination when it does not.
    """
    row = free_kernel_row(pair.grid, time_extent, pair.params, regime)
    dx = pair.grid.dx
    # K A K = ((A K)^T K)^T: both passes run along contiguous rows, where the
    # FFT is fastest, and the result is returned in C order
    half = np.ascontiguousarray(_toeplitz_apply(row, pair.amplitudes).T)
    out = np.multiply(dx * dx, _toeplitz_apply(row, half).T, order="C")
    escape = _border_escape(out)
    if escape > _ESCAPE_THRESHOLD:
        raise GridEscapeError(
            f"evolved pair reaches the grid border at relative amplitude "
            f"{escape:.3g} (threshold {_ESCAPE_THRESHOLD:g}); enlarge the grid "
            f"or shorten the time"
        )
    return PairWaveFunction(pair.grid, out, pair.params)


def joint_momentum_distribution(pair: PairWaveFunction) -> tuple[Grid1D, np.ndarray]:
    """|phi(p_x, p_y)|^2 on the dual grid, carrying the pair's raw weight;
    the FFT of momentum_representation acts on each index in turn."""
    _, phi = _momentum_fft(pair.amplitudes, pair.grid, pair.params, axis=0)
    pgrid, phi = _momentum_fft(phi, pair.grid, pair.params, axis=1)
    return pgrid, np.abs(phi) ** 2


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
    from .csvio import write_csv

    n = pgrid.n_points
    rows = (
        (pgrid.x[a], pgrid.x[b], prob[a, b]) for a in range(n) for b in range(n)
    )
    write_csv(path, ("p_x", "p_y", "probability"), rows)

"""Momentum-entangled pair: moments, Pearson anticorrelation, and the
regime contrast (unitary evolution preserves the correlation; the real
non-negative weight reweights the joint momentum distribution pointwise).
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from oracles import border_escape, epr_moments, euclidean_weight_ratio, read_csv, traced_peak
from wickbell import EUCLIDEAN, MINKOWSKI, Grid1D, PhysParams, epr
from wickbell.epr import (
    _BLOCK_ROWS,
    CorrelationWidth,
    PairWaveFunction,
    _each_block,
    _evolved_rows,
    _kept_rows,
    condition_on_momentum_window,
    epr_initial_pair,
    evolve_pair,
    joint_momentum_distribution,
    momentum_anticorrelation,
    momentum_distribution_to_csv,
)
from wickbell.errors import GridEscapeError
from wickbell.grids import dft_matrix, gaussian_wavepacket
from wickbell.kernels import free_kernel_euclidean, free_kernel_minkowski

PHYS = PhysParams()

# frozen contrast configuration: tight relative squeezing, short real time,
# alias displacement 2 pi hbar T / (m dx) = 25.2 clears the 23-wide box
S_TIGHT = 0.05
ENVELOPE = 1.0
T_SHORT = 0.06
PEARSON_TIGHT = -0.99875078076202373  # (s^2 - 4E^2)/(s^2 + 4E^2)

# grid sizes at the edges of the FFT row blocks: smaller than one block, one
# block exactly, one row over, and an odd size spanning several blocks
BLOCK_EDGE_SIZES = [_BLOCK_ROWS - 4, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5]

# bytes of one n x n complex array at the n of the memory tests
MEMORY_N = 512
ARRAY_BYTES = 16 * MEMORY_N**2


def product_pair(grid: Grid1D, a: dict, b: dict, real: bool = False) -> PairWaveFunction:
    """Unentangled pair of two Gaussian packets; a != b makes it asymmetric.
    `real` keeps the real part of the product, a float64 pair: the whole
    product when both packets have zero momentum."""
    psi_a = gaussian_wavepacket(grid, PHYS, **a).amplitudes
    psi_b = gaussian_wavepacket(grid, PHYS, **b).amplitudes
    amps = np.outer(psi_a, psi_b)
    return PairWaveFunction(grid, amps.real if real else amps, PHYS)


def assert_matches_dense_kernels(pair: PairWaveFunction, t: float, regime: str, builder) -> None:
    out = evolve_pair(pair, t, regime)
    k = builder(pair.grid, t, PHYS).entries
    manual = pair.grid.dx**2 * (k @ pair.amplitudes @ k)
    assert np.max(np.abs(out.amplitudes - manual)) < 1e-12


def assert_matches_dense_dft(grid: Grid1D, seed: int, real: bool = False) -> None:
    n = grid.n_points
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n, n)) + (0.0 if real else 1j * rng.normal(size=(n, n)))
    pgrid, prob = joint_momentum_distribution(PairWaveFunction(grid, amps, PHYS))
    ref_grid, fwd = dft_matrix(grid, PHYS)
    ref = np.abs(fwd @ amps @ fwd.T) ** 2
    assert pgrid == ref_grid
    assert np.max(np.abs(prob - ref)) < 1e-12 * ref.max()


def packet_pair(grid: Grid1D, real: bool, offset=(0.0, 0.0), width: float = 0.6) -> PairWaveFunction:
    """Product of two packets displaced by `offset` from the centre: float64
    with zero momenta, or complex with momenta 0.3 and -0.2."""
    momenta = (0.0, 0.0) if real else (0.3, -0.2)
    return product_pair(
        grid,
        dict(center=offset[0] - 0.1, width=width, momentum=momenta[0]),
        dict(center=offset[1] + 0.05, width=1.1 * width, momentum=momenta[1]),
        real,
    )


def dense_evolved_density(pair: PairWaveFunction, t: float, regime: str) -> np.ndarray:
    """|F K A K F^T|^2 dx^4 from the dense kernel and DFT matrices."""
    builder = free_kernel_minkowski if regime == MINKOWSKI else free_kernel_euclidean
    k = builder(pair.grid, t, PHYS).entries
    fwd = dft_matrix(pair.grid, PHYS)[1]
    return np.abs(fwd @ (pair.grid.dx**2 * (k @ pair.amplitudes @ k)) @ fwd.T) ** 2


# sizes whose ceil(n/2) computed rows of a centrosymmetric pair fall inside
# one FFT row block (14, 16, 17), span two (51) or make four exactly (128)
CENTROSYMMETRIC_SIZES = [28, 32, 33, 101, 255, 256]


def centrosymmetric_pair(grid: Grid1D, real: bool, s: float = 0.4, envelope: float = 0.5):
    """An EPR pair on a symmetric box, centrosymmetric bit for bit: real, or
    under the focusing chirp exp(-i (x^2 + 1.25 y^2)), which keeps it off the
    8-wide box's border at the real time T = 0.4 and breaks its symmetry
    under exchange."""
    pair = epr_initial_pair(grid, CorrelationWidth(s), envelope, PHYS)
    if real:
        return pair
    x = (grid.x - grid.x[::-1]) / 2.0  # x[n-1-i] == -x[i] exactly
    chirp = np.exp(-1j * (x[:, None] ** 2 + 1.25 * x[None, :] ** 2))
    return PairWaveFunction(grid, pair.amplitudes * chirp, PHYS)


def assert_matches_dense_oracles(pair: PairWaveFunction, t: float, regime: str) -> None:
    """evolve_pair against the dense kernel product, and the pair's momentum
    density before and after evolution against the dense DFT."""
    builder = free_kernel_minkowski if regime == MINKOWSKI else free_kernel_euclidean
    assert_matches_dense_kernels(pair, t, regime, builder)
    prob = joint_momentum_distribution(pair, t, regime)[1]
    ref = dense_evolved_density(pair, t, regime)
    assert np.max(np.abs(prob - ref)) < 1e-12 * ref.max()
    fwd = dft_matrix(pair.grid, PHYS)[1]
    ref = np.abs(fwd @ pair.amplitudes @ fwd.T) ** 2
    assert np.max(np.abs(joint_momentum_distribution(pair)[1] - ref)) < 1e-12 * ref.max()


@pytest.fixture(scope="module")
def tight_pair():
    grid = Grid1D(-11.5, 11.5, 1536)
    return epr_initial_pair(grid, CorrelationWidth(S_TIGHT), ENVELOPE, PHYS)


@pytest.fixture(scope="module")
def tight_pair_minkowski(tight_pair):
    return evolve_pair(tight_pair, T_SHORT, MINKOWSKI)


class TestInitialPair:
    def test_position_and_momentum_moments(self):
        grid = Grid1D(-11.5, 11.5, 256)
        s, env = 0.4, 1.0
        ref = epr_moments(s, env)
        pair = epr_initial_pair(grid, CorrelationWidth(s), env, PHYS)
        dens = np.abs(pair.amplitudes) ** 2
        xs, ys = grid.x[:, None], grid.x[None, :]
        rel2 = float(np.sum((xs - ys) ** 2 * dens) * grid.dx**2)
        assert rel2 == pytest.approx(ref["var_x_minus_y"], abs=1e-9)
        pgrid, prob = joint_momentum_distribution(pair)
        prob = prob / prob.sum()
        px, py = pgrid.x[:, None], pgrid.x[None, :]
        assert float(np.sum((px + py) ** 2 * prob)) == pytest.approx(
            ref["var_p_sum"], abs=1e-8
        )
        assert float(np.sum((px - py) ** 2 * prob)) == pytest.approx(
            ref["var_p_diff"], abs=1e-8
        )

    def test_joint_momentum_matches_closed_form(self):
        # rotated coordinates factorize the state, giving
        # P ~ exp(-s^2 (px-py)^2 / 2 hbar^2 - 2 E^2 (px+py)^2 / hbar^2)
        grid = Grid1D(-11.5, 11.5, 256)
        s, env = 0.4, 1.0
        pair = epr_initial_pair(grid, CorrelationWidth(s), env, PHYS)
        pgrid, prob = joint_momentum_distribution(pair)
        px, py = pgrid.x[:, None], pgrid.x[None, :]
        ref = np.exp(-(s**2) * (px - py) ** 2 / 2.0 - 2.0 * env**2 * (px + py) ** 2)
        assert np.max(np.abs(prob / prob.max() - ref / ref.max())) < 1e-10

    @pytest.mark.parametrize(
        "s, env, box, message",
        [
            (5e-324, 1.0, (-11.5, 11.5), r"4 s\^2 rounds to 0"),
            (1e-160, 1.0, (-11.5, 11.5), r"\(x - y\)\^2 / \(4 s\^2\) overflows at \|x - y\| = 23"),
            (0.05, 1.0, (-11.5, 1e308), r"\(x - y\)\^2 / \(4 s\^2\) overflows"),
            # a box far off the origin: x + y reaches 2.1e152, x - y only 1e151
            (1e-3, 2e-3, (1e152, 1.1e152), r"\(x \+ y\)\^2 / \(16 envelope\^2\) overflows"),
        ],
        ids=["s-rounds-to-0", "relative-overflow", "box-overflow", "envelope-overflow"],
    )
    def test_exponent_past_the_float_range_rejected(self, s, env, box, message):
        # checked as Python floats before numpy evaluates either factor
        grid = Grid1D(*box, 64)
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            epr_initial_pair(grid, CorrelationWidth(s), env, PHYS)

    def test_joint_momentum_matches_dense_dft_on_odd_grid(self):
        assert_matches_dense_dft(Grid1D(-6.0, 7.0, 63), seed=11)

    @pytest.mark.parametrize("n_points", BLOCK_EDGE_SIZES)
    def test_joint_momentum_matches_dense_dft_at_block_edges(self, n_points):
        assert_matches_dense_dft(Grid1D(-6.0, 7.0, n_points), seed=n_points)

    def test_joint_momentum_memory(self):
        # the two blocked passes hold one n x n complex
        # intermediate and the float result, not whole shifted copies
        grid = Grid1D(-8.0, 8.0, MEMORY_N)
        pair = epr_initial_pair(grid, CorrelationWidth(0.5), 1.2, PHYS)
        peak = traced_peak(lambda: joint_momentum_distribution(pair))[1]
        assert peak <= 1.75 * ARRAY_BYTES

    @pytest.mark.parametrize("n_points", BLOCK_EDGE_SIZES)
    def test_real_pair_momentum_matches_dense_dft_at_block_edges(self, n_points):
        # a real pair takes the half-spectrum path; odd sizes have no
        # Nyquist column, so the mirrored half is one column wider
        assert_matches_dense_dft(Grid1D(-6.0, 7.0, n_points), seed=n_points, real=True)

    def test_complex_pair_momentum_memory(self):
        # the full-spectrum path holds the same bound as the real pair above
        grid = Grid1D(-8.0, 8.0, MEMORY_N)
        pair = product_pair(
            grid,
            dict(center=-0.5, width=0.8, momentum=0.6),
            dict(center=0.7, width=1.1, momentum=-0.9),
        )
        peak = traced_peak(lambda: joint_momentum_distribution(pair))[1]
        assert peak <= 1.75 * ARRAY_BYTES

    @pytest.mark.parametrize(
        "x_min, x_max, n_points, s",
        [
            (-11.5, 11.5, 256, 0.4),
            (-6.0, 7.0, 255, 0.4),
            (-11.5, 11.5, 1536, 0.05),
            (-11.0, 12.0, 1537, 0.05),
        ],
    )
    def test_factored_build_matches_direct_formula(self, x_min, x_max, n_points, s):
        # the Toeplitz x Hankel build against exp of the whole exponent on
        # the grid's x and y, normalized by the same plain sum
        grid = Grid1D(x_min, x_max, n_points)
        pair = epr_initial_pair(grid, CorrelationWidth(s), ENVELOPE, PHYS)
        x, y = grid.x[:, None], grid.x[None, :]
        direct = np.exp(-((x - y) ** 2) / (4.0 * s**2) - ((x + y) ** 2) / (16.0 * ENVELOPE**2))
        direct /= np.sqrt(np.sum(direct**2) * grid.dx**2)
        assert pair.amplitudes.dtype == np.float64
        assert np.max(np.abs(pair.amplitudes - direct)) <= 1e-13 * np.max(direct)
        assert np.array_equal(pair.amplitudes, pair.amplitudes.T)

    def test_amplitudes_symmetric_under_exchange(self):
        grid = Grid1D(-11.5, 11.5, 256)
        pair = epr_initial_pair(grid, CorrelationWidth(0.4), 1.0, PHYS)
        assert np.array_equal(pair.amplitudes, pair.amplitudes.T)

    def test_pearson_matches_closed_form(self):
        grid = Grid1D(-11.5, 11.5, 256)
        s, env = 0.4, 1.0
        pair = epr_initial_pair(grid, CorrelationWidth(s), env, PHYS)
        assert momentum_anticorrelation(*joint_momentum_distribution(pair)) == pytest.approx(
            epr_moments(s, env)["pearson"], abs=1e-6
        )

    def test_product_state_is_uncorrelated(self):
        grid = Grid1D(-11.5, 11.5, 256)
        a = gaussian_wavepacket(grid, PHYS, center=-0.5, width=0.9, momentum=0.7)
        b = gaussian_wavepacket(grid, PHYS, center=0.8, width=1.3, momentum=-0.2)
        pair = PairWaveFunction(grid, np.outer(a.amplitudes, b.amplitudes), PHYS)
        assert abs(momentum_anticorrelation(*joint_momentum_distribution(pair))) < 1e-8

    def test_width_validation(self):
        grid = Grid1D(-11.5, 11.5, 256)
        with pytest.raises(ValueError, match="positive"):
            CorrelationWidth(0.0)
        with pytest.raises(ValueError, match="smaller than envelope"):
            epr_initial_pair(grid, CorrelationWidth(1.5), 1.0, PHYS)
        with pytest.raises(ValueError, match="envelope"):
            epr_initial_pair(grid, CorrelationWidth(0.4), -1.0, PHYS)


class TestTightPairContrast:
    def test_initial_pearson(self, tight_pair):
        assert momentum_anticorrelation(*joint_momentum_distribution(tight_pair)) == pytest.approx(
            PEARSON_TIGHT, abs=1e-6
        )

    def test_unitary_evolution_preserves_norm_and_pearson(self, tight_pair_minkowski):
        assert tight_pair_minkowski.norm_squared() == pytest.approx(1.0, abs=1e-6)
        pearson = momentum_anticorrelation(*joint_momentum_distribution(tight_pair_minkowski))
        assert pearson == pytest.approx(PEARSON_TIGHT, abs=1e-6)

    def test_conditional_peak_tracks_the_window(self, tight_pair_minkowski):
        # post-selecting p_x near +2 must leave particle 2 peaked near -2
        window = (2.0 - 2.0 * 0.2732, 2.0 + 2.0 * 0.2732)
        pgrid, cond = condition_on_momentum_window(
            *joint_momentum_distribution(tight_pair_minkowski), *window
        )
        peak = float(pgrid.x[np.argmax(cond)])
        assert abs(peak - (-2.0)) < pgrid.dx

    def test_euclidean_weight_is_pointwise_gaussian(self, tight_pair, tight_pair_minkowski):
        # the real non-negative kernel multiplies the joint momentum density
        # by exp(-(px^2+py^2) T / hbar m): no correlation is created or
        # destroyed pointwise, but the weight is no longer unitary
        pgrid, p_mink = joint_momentum_distribution(tight_pair_minkowski)
        pair_e = evolve_pair(tight_pair, T_SHORT, EUCLIDEAN)
        _, p_eucl = joint_momentum_distribution(pair_e)
        px, py = np.meshgrid(pgrid.x, pgrid.x, indexing="ij")
        ref = euclidean_weight_ratio(px, py, T_SHORT)
        # mask on the reweighted distribution: where it retains support, the
        # predicted factor is far from underflow and the ratio is testable
        mask = p_eucl > 1e-12 * p_eucl.max()
        assert int(mask.sum()) > 1000
        rel = np.abs(p_eucl[mask] / p_mink[mask] - ref[mask]) / ref[mask]
        assert float(np.max(rel)) < 1e-6

    @pytest.mark.parametrize("regime", [MINKOWSKI, EUCLIDEAN])
    def test_streamed_density_matches_density_of_evolved_pair(self, tight_pair, regime):
        # the density evolved block by block against the density of the
        # whole evolved pair: the two FFT axes run in the other order
        pgrid, streamed = joint_momentum_distribution(tight_pair, T_SHORT, regime)
        ref_grid, two_step = joint_momentum_distribution(evolve_pair(tight_pair, T_SHORT, regime))
        assert pgrid == ref_grid
        assert np.max(np.abs(streamed - two_step)) <= 1e-14 * two_step.max()

    def test_conditioning_commutes_with_unitary_evolution(
        self, tight_pair, tight_pair_minkowski
    ):
        window = (2.0 - 2.0 * 0.2732, 2.0 + 2.0 * 0.2732)
        _, before = condition_on_momentum_window(*joint_momentum_distribution(tight_pair), *window)
        _, after = condition_on_momentum_window(
            *joint_momentum_distribution(tight_pair_minkowski), *window
        )
        assert np.max(np.abs(after - before)) < 1e-8


class TestEvolvePair:
    def test_factorized_application_matches_manual_product(self):
        grid = Grid1D(-8.0, 8.0, 64)
        pair = epr_initial_pair(grid, CorrelationWidth(0.5), 1.2, PHYS)
        out = evolve_pair(pair, 0.1, EUCLIDEAN)
        k = free_kernel_euclidean(grid, 0.1, PHYS).entries
        manual = grid.dx**2 * (k @ pair.amplitudes @ k)
        assert np.max(np.abs(out.amplitudes - manual)) < 1e-12

    @pytest.mark.parametrize("n_points", [64, 65])
    @pytest.mark.parametrize(
        "regime, builder, t",
        # real time: alias shift 2 pi hbar T/(m dx) ~ 20 clears the 16-wide box
        [(MINKOWSKI, free_kernel_minkowski, 0.8), (EUCLIDEAN, free_kernel_euclidean, 0.1)],
    )
    def test_fft_application_matches_dense_kernels(self, n_points, regime, builder, t):
        grid = Grid1D(-8.0, 8.0, n_points)
        pair = product_pair(
            grid,
            dict(center=-0.5, width=0.8, momentum=0.6),
            dict(center=0.7, width=1.1, momentum=-0.9),
        )
        assert_matches_dense_kernels(pair, t, regime, builder)

    @pytest.mark.parametrize("n_points", BLOCK_EDGE_SIZES)
    @pytest.mark.parametrize(
        "regime, builder, t",
        # an 8-wide box keeps the real-time alias shift 2 pi hbar T/(m dx)
        # past the border down to 28 points, where the 16-wide box cannot
        [(MINKOWSKI, free_kernel_minkowski, 0.4), (EUCLIDEAN, free_kernel_euclidean, 0.1)],
    )
    def test_fft_application_matches_dense_kernels_at_block_edges(
        self, n_points, regime, builder, t
    ):
        grid = Grid1D(-4.0, 4.0, n_points)
        pair = product_pair(
            grid,
            dict(center=-0.2, width=0.6, momentum=0.3),
            dict(center=0.15, width=0.55, momentum=-0.2),
        )
        assert_matches_dense_kernels(pair, t, regime, builder)

    @pytest.mark.parametrize("n_points", BLOCK_EDGE_SIZES)
    def test_real_pair_euclidean_matches_dense_kernel_at_block_edges(self, n_points):
        # a float64 pair takes the real-input FFT path and stays float64
        grid = Grid1D(-4.0, 4.0, n_points)
        pair = product_pair(
            grid,
            dict(center=-0.2, width=0.6, momentum=0.0),
            dict(center=0.15, width=0.55, momentum=0.0),
            real=True,
        )
        assert pair.amplitudes.dtype == np.float64
        assert_matches_dense_kernels(pair, 0.1, EUCLIDEAN, free_kernel_euclidean)
        assert evolve_pair(pair, 0.1, EUCLIDEAN).amplitudes.dtype == np.float64

    @pytest.mark.parametrize("n_points", BLOCK_EDGE_SIZES)
    def test_real_pair_minkowski_matches_dense_kernel_at_block_edges(self, n_points):
        # the first pass mirrors the real-input FFT into the full spectrum;
        # widths near sqrt(T) keep the spread packets off the 8-wide box's
        # border, which the alias shift of T = 0.4 clears from 28 points
        grid = Grid1D(-4.0, 4.0, n_points)
        pair = product_pair(
            grid,
            dict(center=-0.1, width=0.6, momentum=0.0),
            dict(center=0.05, width=0.66, momentum=0.0),
            real=True,
        )
        assert pair.amplitudes.dtype == np.float64
        assert_matches_dense_kernels(pair, 0.4, MINKOWSKI, free_kernel_minkowski)

    def test_real_pair_euclidean_memory(self):
        # the real passes hold two n x n float arrays, and the real result
        # is returned as it is
        grid = Grid1D(-8.0, 8.0, MEMORY_N)
        pair = product_pair(
            grid,
            dict(center=-0.5, width=0.8, momentum=0.0),
            dict(center=0.7, width=1.1, momentum=0.0),
            real=True,
        )
        peak = traced_peak(lambda: evolve_pair(pair, 0.1, EUCLIDEAN))[1]
        assert peak <= 1.75 * ARRAY_BYTES

    @pytest.mark.parametrize("regime, t", [(MINKOWSKI, 0.8), (EUCLIDEAN, 0.1)])
    def test_memory(self, regime, t):
        # each pass holds its n x n output and one block of 2n-padded rows;
        # the input pair was allocated before tracing starts
        grid = Grid1D(-8.0, 8.0, MEMORY_N)
        pair = product_pair(
            grid,
            dict(center=-0.5, width=0.8, momentum=0.6),
            dict(center=0.7, width=1.1, momentum=-0.9),
        )
        peak = traced_peak(lambda: evolve_pair(pair, t, regime))[1]
        assert peak <= 2.5 * ARRAY_BYTES

    def test_escape_guard(self):
        grid = Grid1D(-6.0, 6.0, 128)
        pair = epr_initial_pair(grid, CorrelationWidth(0.5), 1.5, PHYS)
        with pytest.raises(GridEscapeError, match="border"):
            evolve_pair(pair, 5.0, MINKOWSKI)
        # the density path folds the same guard from its blocks
        with pytest.raises(GridEscapeError, match="border"):
            joint_momentum_distribution(pair, 5.0, MINKOWSKI)

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize(
        "regime, t, box, n_points, offset, width",
        # each displaced packet puts the largest border modulus on one edge,
        # 1e-6 to 1e-4 of the peak; real time needs the 16-wide box at T = 0.8
        [(EUCLIDEAN, 0.1, 4.0, n, 0.7, 0.6) for n in BLOCK_EDGE_SIZES]
        + [(MINKOWSKI, 0.8, 8.0, n, 2.0, 0.8) for n in (64, 65, 3 * _BLOCK_ROWS + 5)],
    )
    def test_blockwise_guard_ratio_matches_whole_array(
        self, regime, t, box, n_points, offset, width, real
    ):
        grid = Grid1D(-box, box, n_points)
        for shift in [(-offset, 0.0), (offset, 0.0), (0.0, -offset), (0.0, offset)]:
            pair = packet_pair(grid, real, shift, width)
            ratio = _evolved_rows(pair, t, regime, lambda block: block)[1]
            assert ratio == border_escape(evolve_pair(pair, t, regime).amplitudes)
            assert 1e-6 < ratio < 1e-4

    @pytest.mark.parametrize("n_points", BLOCK_EDGE_SIZES)
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("regime, t", [(MINKOWSKI, 0.4), (EUCLIDEAN, 0.1)])
    def test_evolved_density_matches_dense_products(self, regime, t, real, n_points):
        # an 8-wide box keeps the real-time alias shift past the border
        # down to 28 points; a float64 pair keeps half the spectrum in the
        # euclidean regime and mirrors the rest
        grid = Grid1D(-4.0, 4.0, n_points)
        pair = packet_pair(grid, real)
        pgrid, prob = joint_momentum_distribution(pair, t, regime)
        ref = dense_evolved_density(pair, t, regime)
        assert pgrid == dft_matrix(grid, PHYS)[0]
        assert np.max(np.abs(prob - ref)) < 1e-12 * ref.max()

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("regime, t", [(MINKOWSKI, 0.8), (EUCLIDEAN, 0.1)])
    def test_evolved_density_memory(self, regime, t, real):
        # the evolved pair exists one block at a time: the density holds one
        # n x n complex intermediate (or a float64 one and the half-spectrum
        # rows) beside the float result; the input was allocated before
        grid = Grid1D(-8.0, 8.0, MEMORY_N)
        pair = packet_pair(grid, real, width=0.8)
        peak = traced_peak(lambda: joint_momentum_distribution(pair, t, regime))[1]
        assert peak <= 1.8 * ARRAY_BYTES

    def test_unknown_regime_rejected(self):
        grid = Grid1D(-8.0, 8.0, 64)
        pair = epr_initial_pair(grid, CorrelationWidth(0.5), 1.2, PHYS)
        with pytest.raises(ValueError, match="regime"):
            evolve_pair(pair, 0.1, "thermal")


class TestCentrosymmetricPair:
    """A pair with A[n-1-x, n-1-y] == A[x, y] transforms ceil(n/2) rows per
    pass and reads the rest from the reflection."""

    @pytest.mark.parametrize(
        "regime, t, real, n_points",
        [(EUCLIDEAN, 0.1, real, n) for real in (True, False) for n in CENTROSYMMETRIC_SIZES]
        + [(MINKOWSKI, 0.4, False, n) for n in CENTROSYMMETRIC_SIZES]
        # the real pair spreads onto the 8-wide box's border by T = 0.4, the
        # time whose alias shift 2 pi hbar T/(m dx) clears the box below 101
        # points; T = 0.15 clears it from 101 points on
        + [(MINKOWSKI, 0.15, True, n) for n in CENTROSYMMETRIC_SIZES if n >= 101],
    )
    def test_matches_dense_oracles(self, regime, t, real, n_points):
        grid = Grid1D(-4.0, 4.0, n_points)
        pair = centrosymmetric_pair(grid, real)
        assert _kept_rows(pair.amplitudes) == n_points - n_points // 2
        assert_matches_dense_oracles(pair, t, regime)

    @pytest.mark.parametrize("n_points", [33, 101])
    def test_odd_evolved_pair_stays_centrosymmetric(self, n_points):
        # the evolved pair's middle column is mirrored, not computed on both
        # sides, so its own passes take ceil(n/2) rows too
        pair = epr_initial_pair(Grid1D(-12.0, 12.0, n_points), CorrelationWidth(0.5), 1.2, PHYS)
        evolved = evolve_pair(pair, 0.1, EUCLIDEAN)
        amps = evolved.amplitudes
        assert np.array_equal(amps, amps[::-1, ::-1])
        assert _kept_rows(amps) == n_points - n_points // 2
        assert_matches_dense_oracles(pair, 0.1, EUCLIDEAN)
        assert_matches_dense_oracles(evolved, 0.1, EUCLIDEAN)

    @pytest.mark.parametrize(
        "regime, t, real",
        [(EUCLIDEAN, 0.1, True), (EUCLIDEAN, 0.1, False), (MINKOWSKI, 0.4, False), (MINKOWSKI, 0.15, True)],
    )
    def test_one_ulp_off_takes_the_general_path(self, regime, t, real):
        grid = Grid1D(-4.0, 4.0, 101)
        amps = centrosymmetric_pair(grid, real).amplitudes.copy()
        amps.real[47, 52] = np.nextafter(amps.real[47, 52], np.inf)
        pair = PairWaveFunction(grid, amps, PHYS)
        assert _kept_rows(pair.amplitudes) == 101
        assert_matches_dense_oracles(pair, t, regime)

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize(
        "regime, t, s, envelope, n_points",
        # widths that put the border at 1e-6 to 1e-4 of the peak; the alias
        # shift of T = 0.2 clears the box from 101 points on
        [(EUCLIDEAN, 0.1, 0.45, 0.5, n) for n in CENTROSYMMETRIC_SIZES]
        + [(MINKOWSKI, 0.2, 0.3, 0.4, n) for n in CENTROSYMMETRIC_SIZES if n >= 101],
    )
    def test_guard_ratio_matches_whole_array(self, regime, t, s, envelope, n_points, real):
        grid = Grid1D(-4.0, 4.0, n_points)
        pair = epr_initial_pair(grid, CorrelationWidth(s), envelope, PHYS)
        if not real:
            pair = PairWaveFunction(grid, pair.amplitudes * np.exp(0.3j), PHYS)
        assert _kept_rows(pair.amplitudes) == n_points - n_points // 2
        ratio = _evolved_rows(pair, t, regime, lambda block: block)[1]
        assert ratio == border_escape(evolve_pair(pair, t, regime).amplitudes)
        assert 1e-6 < ratio < 1e-4

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("regime, t", [(MINKOWSKI, 0.4), (EUCLIDEAN, 0.1)])
    def test_density_memory(self, regime, t, real):
        # each intermediate holds ceil(n/2) rows: at most half an n x n
        # complex array beside the float result, where the general path
        # holds a whole one (1.6 arrays traced)
        grid = Grid1D(-8.0, 8.0, MEMORY_N)
        pair = centrosymmetric_pair(grid, real, s=0.6, envelope=0.9)
        peak = traced_peak(lambda: joint_momentum_distribution(pair, t, regime))[1]
        assert peak <= 1.25 * ARRAY_BYTES

    def test_symmetric_box_pair_is_exactly_centrosymmetric(self, tight_pair):
        amps = tight_pair.amplitudes
        assert np.array_equal(amps, amps[::-1, ::-1])
        assert _kept_rows(amps) == 768
        grid = Grid1D(-11.5, 11.75, 1536)
        amps = epr_initial_pair(grid, CorrelationWidth(S_TIGHT), ENVELOPE, PHYS).amplitudes
        assert not np.array_equal(amps, amps[::-1, ::-1])
        assert _kept_rows(amps) == 1536


# _each_block's rows per block, and pair sizes whose passes (n rows of a
# general pair, ceil(n/2) of a centrosymmetric one) end one row before, at
# and one row after a block edge, or span several blocks at an odd size
STEP = _BLOCK_ROWS // 2
THREAD_SIZES = [2 * STEP - 1, 2 * STEP, 2 * STEP + 1, 4 * STEP + 1, 101]


def outputs_on(monkeypatch, cpus: set, pair: PairWaveFunction) -> tuple[dict, int]:
    """evolve_pair in both regimes and the three joint_momentum_distribution
    call forms (a tripped guard stands as its message), with `cpus` as the
    process's affinity; and the helper threads started meanwhile."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(threading, "Thread", Counted)
    calls = {
        "evolve minkowski": lambda: evolve_pair(pair, 0.4, MINKOWSKI).amplitudes,
        "evolve euclidean": lambda: evolve_pair(pair, 0.1, EUCLIDEAN).amplitudes,
        "density": lambda: joint_momentum_distribution(pair)[1],
        "density minkowski": lambda: joint_momentum_distribution(pair, 0.4, MINKOWSKI)[1],
        "density euclidean": lambda: joint_momentum_distribution(pair, 0.1, EUCLIDEAN)[1],
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except GridEscapeError as exc:
            out[name] = str(exc)
    return out, len(started)


class TestTwoThreadBlocks:
    """With two CPUs the calling thread transforms the even blocks of each
    pass and one helper thread the odd ones; the bytes are those of one.
    The helper starts from two blocks here, so that small pairs run it."""

    @pytest.fixture(autouse=True)
    def helper_from_two_blocks(self, monkeypatch):
        monkeypatch.setattr(epr, "_HELPER_BLOCKS", 2)

    @pytest.mark.parametrize("n_points", THREAD_SIZES)
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("centrosymmetric", [False, True], ids=["general", "centrosymmetric"])
    def test_two_threads_match_one_cpu(self, monkeypatch, n_points, real, centrosymmetric):
        grid = Grid1D(-4.0, 4.0, n_points)
        pair = centrosymmetric_pair(grid, real) if centrosymmetric else packet_pair(grid, real)
        kept = (n_points + 1) // 2 if centrosymmetric else n_points
        assert _kept_rows(pair.amplitudes) == kept
        one, helpers = outputs_on(monkeypatch, {0}, pair)
        assert helpers == 0
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads' bytecode interleaves finely
        try:
            two, helpers = outputs_on(monkeypatch, {0, 1}, pair)
        finally:
            sys.setswitchinterval(switch)
        # one block per pass (ceil(n/2) rows, n//2 + 1 columns) runs in-line
        assert helpers > 0 or max(kept, n_points // 2 + 1) <= STEP
        assert one.keys() == two.keys()
        for name, value in one.items():
            if isinstance(value, str):
                assert two[name] == value, name
            else:
                assert two[name].dtype == value.dtype and np.array_equal(two[name], value), name
        assert any(not isinstance(value, str) for value in one.values())

    @pytest.mark.parametrize(
        "m, cpus, helped",
        [(STEP, {0, 1}, False), (STEP + 1, {0, 1}, True), (5 * STEP + 1, {0, 1}, True), (5 * STEP + 1, {0}, False)],
    )
    def test_block_order_and_threads(self, monkeypatch, m, cpus, helped):
        # one block, or one CPU, runs in the calling thread; otherwise the
        # odd blocks run in the helper, and results come in block order
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        caller = threading.get_ident()
        results = _each_block(m, lambda rows: (rows, threading.get_ident()))
        assert [rows for rows, _ in results] == [
            slice(start, min(start + STEP, m)) for start in range(0, m, STEP)
        ]
        assert [ident != caller for _, ident in results] == [
            helped and i % 2 == 1 for i in range(len(results))
        ]

    def test_helper_exception_reaches_the_caller(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        caller, failure = threading.get_ident(), RuntimeError("a helper block fails")

        def work(rows):
            if threading.get_ident() != caller:
                raise failure

        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            _each_block(4 * STEP, work)
        assert info.value is failure
        assert threading.active_count() == threads
        assert hooked == [] and capsys.readouterr().err == ""

    def test_caller_exception_stops_the_helper(self, monkeypatch):
        # the calling thread fails on its first block; the helper, slowed to
        # 5 ms a block, ends at its next one and is joined
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller, failure, ran = threading.get_ident(), KeyError("block 0"), []

        def work(rows):
            if threading.get_ident() == caller:
                raise failure
            time.sleep(0.005)
            ran.append(rows.start)

        threads = threading.active_count()
        with pytest.raises(KeyError) as info:
            _each_block(64 * STEP, work)
        assert info.value is failure
        assert threading.active_count() == threads
        assert len(ran) < 32

    def test_helper_keeps_the_callers_errstate(self, monkeypatch):
        # under numpy's default errstate the helper's division would warn
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller = threading.get_ident()

        def work(rows):
            if threading.get_ident() != caller:
                return np.float64(1.0) / np.float64(0.0)

        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            _each_block(2 * STEP, work)


@pytest.mark.parametrize("blocks", [1, 2, 31, 32, 48])
def test_helper_starts_from_its_block_count(monkeypatch, blocks):
    # a pass of fewer blocks, 16 at 512 points of a centrosymmetric pair,
    # runs faster on one thread; the 48 at 1536 points take the helper
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    caller = threading.get_ident()
    results = _each_block(blocks * STEP, lambda rows: threading.get_ident() != caller)
    assert any(results) is (blocks >= 32)


@pytest.mark.parametrize("cpus, two", [({0}, False), ({0, 1}, True), ({3, 5, 7}, True), (None, False)])
def test_two_cpus(monkeypatch, cpus, two):
    # the predicate behind the helper thread; None stands for a platform
    # without os.sched_getaffinity
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert epr._two_cpus() is two


class TestValidationAndCsv:
    def test_statistics_ignore_the_density_weight(self):
        # doubling is exact in floating point, so both statistics of a
        # doubled density come out bit for bit the same
        grid = Grid1D(-8.0, 8.0, 64)
        pgrid, prob = joint_momentum_distribution(
            epr_initial_pair(grid, CorrelationWidth(0.5), 1.2, PHYS)
        )
        assert momentum_anticorrelation(pgrid, 2.0 * prob) == momentum_anticorrelation(pgrid, prob)
        _, cond = condition_on_momentum_window(pgrid, prob, 0.5, 1.5)
        _, doubled = condition_on_momentum_window(pgrid, 2.0 * prob, 0.5, 1.5)
        assert np.array_equal(doubled, cond)

    def test_fortran_ordered_amplitudes_checked(self):
        grid = Grid1D(-8.0, 8.0, 64)
        pair = epr_initial_pair(grid, CorrelationWidth(0.5), 1.2, PHYS)
        swapped = PairWaveFunction(grid, pair.amplitudes.T, PHYS)
        assert np.array_equal(swapped.amplitudes, pair.amplitudes.T)
        bad = pair.amplitudes.copy()
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PairWaveFunction(grid, bad.T, PHYS)

    def test_empty_window_rejected(self):
        grid = Grid1D(-8.0, 8.0, 64)
        pair = epr_initial_pair(grid, CorrelationWidth(0.5), 1.2, PHYS)
        with pytest.raises(ValueError, match="window"):
            condition_on_momentum_window(*joint_momentum_distribution(pair), 1.0, 1.0)

    def test_window_outside_grid_rejected(self):
        grid = Grid1D(-8.0, 8.0, 64)
        pair = epr_initial_pair(grid, CorrelationWidth(0.5), 1.2, PHYS)
        with pytest.raises(ValueError, match="no grid samples"):
            condition_on_momentum_window(*joint_momentum_distribution(pair), 500.0, 500.1)

    def test_csv_header(self, tmp_path):
        grid = Grid1D(-8.0, 8.0, 16)
        pgrid, prob = joint_momentum_distribution(
            epr_initial_pair(Grid1D(-8.0, 8.0, 16), CorrelationWidth(0.5), 1.2, PHYS)
        )
        path = tmp_path / "p.csv"
        momentum_distribution_to_csv(pgrid, prob, path)
        rows = read_csv(path, ("p_x", "p_y", "probability"))
        assert len(rows) == 256

"""Momentum-entangled pair: moments, Pearson anticorrelation, and the
regime contrast (unitary evolution preserves the correlation; the real
non-negative weight reweights the joint momentum distribution pointwise).
"""

import numpy as np
import pytest

from oracles import epr_moments, euclidean_weight_ratio
from wickbell import EUCLIDEAN, MINKOWSKI, Grid1D, PhysParams
from wickbell.epr import (
    CorrelationWidth,
    PairWaveFunction,
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

    def test_joint_momentum_matches_dense_dft_on_odd_grid(self):
        grid = Grid1D(-6.0, 7.0, 63)
        rng = np.random.default_rng(11)
        amps = rng.normal(size=(63, 63)) + 1j * rng.normal(size=(63, 63))
        pgrid, prob = joint_momentum_distribution(PairWaveFunction(grid, amps, PHYS))
        ref_grid, fwd = dft_matrix(grid, PHYS)
        ref = np.abs(fwd @ amps @ fwd.T) ** 2
        assert pgrid == ref_grid
        assert np.max(np.abs(prob - ref)) < 1e-12 * ref.max()

    def test_amplitudes_symmetric_under_exchange(self):
        grid = Grid1D(-11.5, 11.5, 256)
        pair = epr_initial_pair(grid, CorrelationWidth(0.4), 1.0, PHYS)
        assert np.array_equal(pair.amplitudes, pair.amplitudes.T)

    def test_pearson_matches_closed_form(self):
        grid = Grid1D(-11.5, 11.5, 256)
        s, env = 0.4, 1.0
        pair = epr_initial_pair(grid, CorrelationWidth(s), env, PHYS)
        assert momentum_anticorrelation(pair) == pytest.approx(
            epr_moments(s, env)["pearson"], abs=1e-6
        )

    def test_product_state_is_uncorrelated(self):
        grid = Grid1D(-11.5, 11.5, 256)
        a = gaussian_wavepacket(grid, PHYS, center=-0.5, width=0.9, momentum=0.7)
        b = gaussian_wavepacket(grid, PHYS, center=0.8, width=1.3, momentum=-0.2)
        pair = PairWaveFunction(grid, np.outer(a.amplitudes, b.amplitudes), PHYS)
        assert abs(momentum_anticorrelation(pair)) < 1e-8

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
        assert momentum_anticorrelation(tight_pair) == pytest.approx(
            PEARSON_TIGHT, abs=1e-6
        )

    def test_unitary_evolution_preserves_norm_and_pearson(self, tight_pair_minkowski):
        assert tight_pair_minkowski.norm_squared() == pytest.approx(1.0, abs=1e-6)
        assert momentum_anticorrelation(tight_pair_minkowski) == pytest.approx(
            PEARSON_TIGHT, abs=1e-6
        )

    def test_conditional_peak_tracks_the_window(self, tight_pair_minkowski):
        # post-selecting p_x near +2 must leave particle 2 peaked near -2
        pgrid, cond = condition_on_momentum_window(
            tight_pair_minkowski, 2.0 - 2.0 * 0.2732, 2.0 + 2.0 * 0.2732
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

    def test_conditioning_commutes_with_unitary_evolution(
        self, tight_pair, tight_pair_minkowski
    ):
        window = (2.0 - 2.0 * 0.2732, 2.0 + 2.0 * 0.2732)
        _, before = condition_on_momentum_window(tight_pair, *window)
        _, after = condition_on_momentum_window(tight_pair_minkowski, *window)
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
        a = gaussian_wavepacket(grid, PHYS, center=-0.5, width=0.8, momentum=0.6)
        b = gaussian_wavepacket(grid, PHYS, center=0.7, width=1.1, momentum=-0.9)
        pair = PairWaveFunction(grid, np.outer(a.amplitudes, b.amplitudes), PHYS)
        out = evolve_pair(pair, t, regime)
        k = builder(grid, t, PHYS).entries
        manual = grid.dx**2 * (k @ pair.amplitudes @ k)
        assert np.max(np.abs(out.amplitudes - manual)) < 1e-12

    def test_escape_guard(self):
        grid = Grid1D(-6.0, 6.0, 128)
        pair = epr_initial_pair(grid, CorrelationWidth(0.5), 1.5, PHYS)
        with pytest.raises(GridEscapeError, match="border"):
            evolve_pair(pair, 5.0, MINKOWSKI)

    def test_unknown_regime_rejected(self):
        grid = Grid1D(-8.0, 8.0, 64)
        pair = epr_initial_pair(grid, CorrelationWidth(0.5), 1.2, PHYS)
        with pytest.raises(ValueError, match="regime"):
            evolve_pair(pair, 0.1, "thermal")


class TestValidationAndCsv:
    def test_anticorrelation_requires_normalized_pair(self):
        grid = Grid1D(-8.0, 8.0, 64)
        pair = epr_initial_pair(grid, CorrelationWidth(0.5), 1.2, PHYS)
        scaled = PairWaveFunction(grid, 2.0 * pair.amplitudes, PHYS)
        with pytest.raises(ValueError, match="normalized"):
            momentum_anticorrelation(scaled)

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
            condition_on_momentum_window(pair, 1.0, 1.0)

    def test_window_outside_grid_rejected(self):
        grid = Grid1D(-8.0, 8.0, 64)
        pair = epr_initial_pair(grid, CorrelationWidth(0.5), 1.2, PHYS)
        with pytest.raises(ValueError, match="no grid samples"):
            condition_on_momentum_window(pair, 500.0, 500.1)

    def test_csv_header(self, tmp_path):
        from wickbell.csvio import read_csv

        grid = Grid1D(-8.0, 8.0, 16)
        pgrid, prob = joint_momentum_distribution(
            epr_initial_pair(Grid1D(-8.0, 8.0, 16), CorrelationWidth(0.5), 1.2, PHYS)
        )
        path = tmp_path / "p.csv"
        momentum_distribution_to_csv(pgrid, prob, path)
        rows = read_csv(path, ("p_x", "p_y", "probability"))
        assert len(rows) == 256

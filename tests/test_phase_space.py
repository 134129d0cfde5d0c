"""Wigner transform: analytic cross-checks, marginals, and the negativity ratio.

Grids here are offset so that x = 0 and p = 0 are exact sample points
(Grid1D(-L, L - dx, n) with even n), which lets central values like W(0, 0)
be compared without interpolation.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cat_negativity_exact,
    cat_wigner_point,
    dense_wigner_of_density,
    excited_state_negativity,
    gaussian_wigner_point,
    read_csv,
)
from wickbell import Grid1D, PhysParams
from wickbell.grids import (
    WaveFunction,
    cat_state,
    gaussian_wavepacket,
    momentum_representation,
)
from wickbell.phase_space import (
    WignerGrid,
    negativity_ratio,
    wigner_of_density,
    wigner_to_csv,
    wigner_transform,
)

PHYS = PhysParams()

F_ODD_CAT = 1.600554  # separation 3, width 1; converged quadrature +-2e-6
F_EVEN_CAT = 1.60017  # separation 3, width 1; converged quadrature +-4e-6


def offset_grid(half_span: float, n: int) -> Grid1D:
    # places x = 0 at index n // 2 and, on the dual grid, p = 0 at n // 2
    dx = 2.0 * half_span / n
    return Grid1D(-half_span, half_span - dx, n)


def first_excited_state(grid: Grid1D) -> WaveFunction:
    raw = grid.x * np.exp(-0.5 * grid.x**2)
    raw = raw / np.sqrt(np.sum(np.abs(raw) ** 2) * grid.dx)
    return WaveFunction(grid, raw.astype(np.complex128), PHYS)


class TestWignerGridType:
    def test_shape_mismatch_rejected(self):
        g = offset_grid(4.0, 16)
        with pytest.raises(ValueError, match="shape"):
            WignerGrid(g, g, np.zeros((16, 8)), PHYS)

    def test_nonfinite_rejected(self):
        g = offset_grid(4.0, 16)
        vals = np.zeros((16, 16))
        vals[3, 3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            WignerGrid(g, g, vals, PHYS)


class TestGaussianWigner:
    def test_matches_analytic_form(self):
        g = offset_grid(12.0, 256)
        for center, width, momentum in ((0.0, 1.0, 0.0), (0.4, 1.3, 0.0), (-0.6, 0.8, 1.1)):
            psi = gaussian_wavepacket(g, PHYS, center=center, width=width, momentum=momentum)
            w = wigner_transform(psi)
            ref = gaussian_wigner_point(
                w.x_axis.x[:, None], w.p_axis.x[None, :], width, center, momentum
            )
            assert np.max(np.abs(w.values - ref)) < 1e-8

    def test_nonnegative_and_unit_ratio(self):
        g = offset_grid(12.0, 256)
        w = wigner_transform(gaussian_wavepacket(g, PHYS, width=1.2))
        assert w.values.min() > -1e-12
        assert negativity_ratio(w) == pytest.approx(1.0, abs=1e-8)

    def test_total_integral_is_one(self):
        g = offset_grid(12.0, 256)
        w = wigner_transform(gaussian_wavepacket(g, PHYS, center=0.3, momentum=0.5))
        assert np.sum(w.values) * w.cell_area == pytest.approx(1.0, abs=1e-9)

    def test_requires_normalized_state(self):
        g = offset_grid(6.0, 64)
        psi = gaussian_wavepacket(g, PHYS)
        doubled = WaveFunction(g, 2.0 * psi.amplitudes, PHYS)
        with pytest.raises(ValueError, match="normalized"):
            wigner_transform(doubled)

    def test_boost_shifts_momentum_axis_exactly(self):
        # boosting by an integer number of momentum cells translates the
        # sampled W along p with no other change
        g = offset_grid(12.0, 256)
        k0 = 7
        dp = 2.0 * np.pi * PHYS.hbar / (g.n_points * g.dx)
        w0 = wigner_transform(gaussian_wavepacket(g, PHYS, center=0.4, width=1.2))
        wb = wigner_transform(
            gaussian_wavepacket(g, PHYS, center=0.4, width=1.2, momentum=k0 * dp)
        )
        assert np.max(np.abs(wb.values[:, k0:] - w0.values[:, :-k0])) < 1e-10


class TestCatWigner:
    def test_matches_analytic_form(self):
        g = offset_grid(48.0, 512)
        for parity in ("odd", "even"):
            cat = cat_state(g, PHYS, separation=3.0, width=1.0, parity=parity)
            w = wigner_transform(cat)
            ref = cat_wigner_point(
                w.x_axis.x[:, None], w.p_axis.x[None, :], 3.0, 1.0, parity
            )
            assert np.max(np.abs(w.values - ref)) < 1e-8

    def test_central_value_is_parity_extremum(self):
        # W(0, 0) = (+-)1/(pi hbar) for even/odd superpositions regardless
        # of separation
        g = offset_grid(48.0, 512)
        jc, kc = 256, 256
        assert g.x[jc] == 0.0
        w_odd = wigner_transform(cat_state(g, PHYS, separation=3.0, width=1.0, parity="odd"))
        w_even = wigner_transform(cat_state(g, PHYS, separation=3.0, width=1.0, parity="even"))
        assert abs(w_odd.p_axis.x[kc]) < 1e-12
        assert w_odd.values[jc, kc] == pytest.approx(-1.0 / np.pi, abs=1e-12)
        assert w_even.values[jc, kc] == pytest.approx(+1.0 / np.pi, abs=1e-12)

    def test_marginals(self):
        g = offset_grid(48.0, 512)
        cat = cat_state(g, PHYS, separation=3.0, width=1.0, parity="odd")
        w = wigner_transform(cat)
        p_marginal = np.sum(w.values, axis=1) * w.p_axis.dx
        assert np.max(np.abs(p_marginal - np.abs(cat.amplitudes) ** 2)) < 1e-10
        phi = momentum_representation(cat)
        x_marginal = np.sum(w.values, axis=0) * w.x_axis.dx
        assert np.max(np.abs(x_marginal - np.abs(phi.amplitudes) ** 2)) < 1e-8

    def test_negativity_ratio_converges_to_reference(self):
        # the integrable kink of |W| along its zero fringes makes the ratio
        # first-order in the momentum cell, so convergence needs a wider box
        # (dp = 2 pi hbar / span), not more points at fixed span
        diffs = []
        for half_span, n in ((48.0, 512), (96.0, 1024)):
            g = offset_grid(half_span, n)
            cat = cat_state(g, PHYS, separation=3.0, width=1.0, parity="odd")
            diffs.append(abs(negativity_ratio(wigner_transform(cat)) - F_ODD_CAT))
        assert diffs[0] < 0.01
        assert diffs[1] < 0.5 * diffs[0]

    def test_even_cat_ratio(self):
        g = offset_grid(48.0, 512)
        cat = cat_state(g, PHYS, separation=3.0, width=1.0, parity="even")
        assert abs(negativity_ratio(wigner_transform(cat)) - F_EVEN_CAT) < 0.01


class TestExcitedState:
    def test_negativity_ratio(self):
        # reference value integrates the closed-form W of the first excited
        # oscillator state; the grid estimate carries the fringe-kink error
        g = offset_grid(12.0, 256)
        f = negativity_ratio(wigner_transform(first_excited_state(g)))
        assert abs(f - excited_state_negativity()) < 5e-3


def phase_space_mean(w: WignerGrid, symbol) -> float:
    """int int W(x, p) O(x, p) dx dp on the sampled rectangle."""
    x, p = w.x_axis.x[:, None], w.p_axis.x[None, :]
    return float(np.sum(w.values * symbol(x, p)) * w.cell_area)


class TestExpectations:
    def test_moments_of_boosted_packet(self):
        g = offset_grid(12.0, 256)
        w = wigner_transform(gaussian_wavepacket(g, PHYS, center=0.7, width=1.0, momentum=0.9))
        assert phase_space_mean(w, lambda x, p: 1.0) == pytest.approx(1.0, abs=1e-9)
        assert phase_space_mean(w, lambda x, p: x) == pytest.approx(0.7, abs=1e-8)
        assert phase_space_mean(w, lambda x, p: p) == pytest.approx(0.9, abs=1e-8)

    def test_harmonic_energy_of_ground_state(self):
        # width 1 packet is the omega = 1 oscillator ground state; the
        # classical symbol of H averages to hbar omega / 2
        g = offset_grid(12.0, 256)
        w = wigner_transform(gaussian_wavepacket(g, PHYS, width=1.0))
        energy = phase_space_mean(w, lambda x, p: 0.5 * (p**2 + x**2))
        assert energy == pytest.approx(0.5, abs=1e-8)


class TestNegativityRatio:
    def test_invariant_under_positive_rescaling(self):
        g = offset_grid(48.0, 512)
        w = wigner_transform(cat_state(g, PHYS, separation=3.0, width=1.0, parity="odd"))
        scaled = WignerGrid(w.x_axis, w.p_axis, 3.7 * w.values, PHYS)
        assert negativity_ratio(scaled) == pytest.approx(negativity_ratio(w), abs=1e-12)

    def test_vanishing_total_rejected(self):
        g = offset_grid(4.0, 16)
        signs = (-1.0) ** np.arange(16)  # alternating rows sum to exactly zero
        vals = np.outer(signs, np.ones(16))
        with pytest.raises(ValueError, match="vanishes"):
            negativity_ratio(WignerGrid(g, g, vals, PHYS))


class TestDensityRoute:
    def test_pure_density_matches_wavefunction_route(self):
        g = offset_grid(6.0, 64)
        psi = gaussian_wavepacket(g, PHYS, center=0.3, momentum=0.4)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        wd = wigner_of_density(rho, g, PHYS)
        wt = wigner_transform(psi)
        assert np.max(np.abs(wd.values - wt.values)) < 1e-10

    def test_mixed_state(self):
        g = offset_grid(12.0, 256)
        psi0 = gaussian_wavepacket(g, PHYS, width=1.0)
        psi1 = first_excited_state(g)
        rho = 0.5 * np.outer(psi0.amplitudes, psi0.amplitudes.conj()) + 0.5 * np.outer(
            psi1.amplitudes, psi1.amplitudes.conj()
        )
        w = wigner_of_density(rho, g, PHYS)
        assert np.sum(w.values) * w.cell_area == pytest.approx(1.0, abs=1e-9)
        assert negativity_ratio(w) >= 1.0 - 1e-12

    def test_non_hermitian_rejected(self):
        g = offset_grid(6.0, 64)
        psi = gaussian_wavepacket(g, PHYS)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        rho[3, 10] += 0.05
        with pytest.raises(ValueError, match="Hermitian"):
            wigner_of_density(rho, g, PHYS)

    def test_shape_mismatch_rejected(self):
        g = offset_grid(6.0, 64)
        with pytest.raises(ValueError, match="shape"):
            wigner_of_density(np.eye(32), g, PHYS)


class TestOddGrids:
    # odd n has no Nyquist bin; the half-grid interpolation must not split one
    @pytest.mark.parametrize("n, half_span", [(65, 12.0), (255, 24.0)])
    def test_matches_closed_forms(self, n, half_span):
        g = Grid1D(-half_span, half_span, n)
        cases = [
            (
                gaussian_wavepacket(g, PHYS, center=0.4, width=1.2, momentum=-0.7),
                lambda x, p: gaussian_wigner_point(x, p, 1.2, 0.4, -0.7),
            )
        ]
        for parity in ("odd", "even"):
            cases.append(
                (
                    cat_state(g, PHYS, separation=3.0, width=1.0, parity=parity),
                    lambda x, p, parity=parity: cat_wigner_point(x, p, 3.0, 1.0, parity),
                )
            )
        for psi, exact in cases:
            w = wigner_transform(psi)
            ref = exact(w.x_axis.x[:, None], w.p_axis.x[None, :])
            assert np.max(np.abs(w.values - ref)) < 1e-10
            rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
            wd = wigner_of_density(rho, g, PHYS)
            assert np.max(np.abs(wd.values - w.values)) < 1e-10
            p_marginal = np.sum(w.values, axis=1) * w.p_axis.dx
            assert np.max(np.abs(p_marginal - np.abs(psi.amplitudes) ** 2)) < 1e-10


class TestDenseOracle:
    @pytest.mark.parametrize("n", [8, 9, 33, 64, 65, 512])
    def test_pure_transform_matches_dense_lag_sum_on_random_states(self, n):
        # amplitudes up to the box edges: every lag window reaches past it
        g = Grid1D(-6.0, 6.0, n)
        rng = np.random.default_rng(1000 + n)
        psi = WaveFunction(g, rng.normal(size=n) + 1j * rng.normal(size=n), PHYS).normalized()
        pure = np.outer(psi.amplitudes, psi.amplitudes.conj())
        ref = dense_wigner_of_density(pure, g.dx, PHYS.hbar)
        assert np.max(np.abs(wigner_transform(psi).values - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_pure_transform_memory_is_bounded(self):
        # the folded correlation (n x (n//2 + 1) complex, 8 bytes per cell)
        # and its products, then the real W and its shifted copy
        g = offset_grid(12.0, 512)
        psi = gaussian_wavepacket(g, PHYS)
        wigner_transform(psi)  # numpy.fft is imported on first use
        tracemalloc.start()
        try:
            wigner_transform(psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 512**2

    @pytest.mark.parametrize("n", [64, 65])
    def test_both_transforms_match_dense_lag_sum(self, n):
        g = Grid1D(-6.0, 6.0, n)
        rng = np.random.default_rng(n)
        raw = (rng.normal(size=n) + 1j * rng.normal(size=n)) * np.exp(-0.15 * g.x**2)
        psi = WaveFunction(g, raw, PHYS).normalized()
        pure = np.outer(psi.amplitudes, psi.amplitudes.conj())
        ref = dense_wigner_of_density(pure, g.dx, PHYS.hbar)
        peak = np.max(np.abs(ref))
        assert np.max(np.abs(wigner_transform(psi).values - ref)) < 1e-13 * peak
        assert np.max(np.abs(wigner_of_density(pure, g, PHYS).values - ref)) < 1e-13 * peak
        boosted = gaussian_wavepacket(g, PHYS, center=0.5, width=0.8, momentum=1.0)
        mixed = 0.6 * pure + 0.4 * np.outer(boosted.amplitudes, boosted.amplitudes.conj())
        ref = dense_wigner_of_density(mixed, g.dx, PHYS.hbar)
        peak = np.max(np.abs(ref))
        assert np.max(np.abs(wigner_of_density(mixed, g, PHYS).values - ref)) < 1e-13 * peak

    def test_density_transform_memory_is_bounded(self):
        # the half-grid density (2n x 2n) and its FFTs dominate: 16 n^2 bytes
        # per complex 2n x 2n array, 4 MiB at n = 256
        g = offset_grid(12.0, 256)
        psi = gaussian_wavepacket(g, PHYS)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        tracemalloc.start()
        try:
            wigner_of_density(rho, g, PHYS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCsv:
    def test_roundtrip(self, tmp_path):
        g = offset_grid(4.0, 16)
        w = wigner_transform(gaussian_wavepacket(g, PHYS, center=0.2))
        path = tmp_path / "w.csv"
        wigner_to_csv(w, path)
        rows = read_csv(path, ("x", "p", "w"))
        # x-major rows; 17 significant digits parse back to the exact float
        cells = np.array([[float(c) for c in row] for row in rows])
        n_x, n_p = w.values.shape
        assert cells.shape == (n_x * n_p, 3)
        assert np.array_equal(cells[:, 0], np.repeat(w.x_axis.x, n_p))
        assert np.array_equal(cells[:, 1], np.tile(w.p_axis.x, n_x))
        assert np.array_equal(cells[:, 2], w.values.ravel())


class TestRandomStates:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_total_integral_and_ratio_bound(self, seed):
        # any normalized state has unit phase-space integral and a ratio
        # int|W|/int W of at least one
        g = offset_grid(6.0, 32)
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=32) + 1j * rng.normal(size=32)
        raw = raw * np.exp(-0.08 * g.x**2)  # keep support inside the box
        raw = raw / np.sqrt(np.sum(np.abs(raw) ** 2) * g.dx)
        w = wigner_transform(WaveFunction(g, raw, PHYS))
        assert np.sum(w.values) * w.cell_area == pytest.approx(1.0, abs=1e-9)
        assert negativity_ratio(w) >= 1.0 - 1e-9

"""Analytic kernels, time slicing, and the sliced-path twist expectation.

Twist values are checked against two independent routes: the continuant
recursion (same Gaussian moments, no flux solve) and, for one imaginary-time
case, a brute-force 3-D Gauss-Legendre integral.
"""

import warnings

import numpy as np
import pytest

from oracles import (
    mehler_euclidean_harmonic,
    point_kernel_euclidean,
    point_kernel_minkowski,
    twist_expectation_gauss_euclidean,
    twist_expectation_oracle,
)
from wickbell import EUCLIDEAN, MINKOWSKI, Grid1D, PhysParams
from wickbell.errors import NumericalGuardError
from wickbell.grids import apply_kernel, gaussian_wavepacket
from wickbell.kernels import (
    SlicingPlan,
    commutator_expectation,
    free_kernel_euclidean,
    free_kernel_minkowski,
    free_kernel_row,
    free_potential,
    _nonnegative_power,
    _slice_matrix,
    harmonic_potential,
    sliced_kernel,
)

PHYS = PhysParams()


def interior_mask(grid: Grid1D, margin: float) -> np.ndarray:
    return (grid.x >= grid.x_min + margin) & (grid.x <= grid.x_max - margin)


class TestFreeKernels:
    def test_minkowski_modulus_uniform(self):
        g = Grid1D(-8.0, 8.0, 128)
        t = 0.7
        k = free_kernel_minkowski(g, t, PHYS)
        expected = np.sqrt(PHYS.mass / (2.0 * np.pi * PHYS.hbar * t))
        assert np.max(np.abs(np.abs(k.entries) - expected)) < 1e-13

    def test_minkowski_diagonal_phase(self):
        g = Grid1D(-8.0, 8.0, 128)
        k = free_kernel_minkowski(g, 0.7, PHYS)
        diag = np.diag(k.entries)
        phase = diag / np.abs(diag)
        assert np.max(np.abs(phase - np.exp(-0.25j * np.pi))) < 1e-13

    def test_entries_match_point_formulas(self):
        g = Grid1D(-8.0, 8.0, 128)
        t = 0.45
        km = free_kernel_minkowski(g, t, PHYS)
        ke = free_kernel_euclidean(g, t, PHYS)
        rng = np.random.default_rng(5)
        for _ in range(20):
            f, i = rng.integers(0, 128, size=2)
            assert km.entries[f, i] == pytest.approx(
                point_kernel_minkowski(g.x[f], g.x[i], t), abs=1e-13
            )
            assert ke.entries[f, i] == pytest.approx(
                point_kernel_euclidean(g.x[f], g.x[i], t), abs=1e-13
            )

    def test_euclidean_rows_integrate_to_one(self):
        # heat kernel rows centered >= 6 diffusion lengths inside the box
        # (the truncated tail beyond 6 sqrt(hbar t / m) is ~2e-9)
        g = Grid1D(-16.0, 16.0, 512)
        t = 1.0
        k = free_kernel_euclidean(g, t, PHYS)
        rows = interior_mask(g, 6.0 * np.sqrt(PHYS.hbar * t / PHYS.mass))
        sums = np.sum(k.entries[rows, :].real, axis=1) * g.dx
        assert np.max(np.abs(sums - 1.0)) < 1e-8

    def test_euclidean_entries_real_nonnegative(self):
        g = Grid1D(-8.0, 8.0, 128)
        k = free_kernel_euclidean(g, 0.5, PHYS)
        assert np.all(k.entries.imag == 0.0)
        assert np.all(k.entries.real >= 0.0)

    def test_rejects_nonpositive_time(self):
        g = Grid1D(-8.0, 8.0, 128)
        for builder in (free_kernel_minkowski, free_kernel_euclidean):
            with pytest.raises(ValueError, match="time_extent"):
                builder(g, 0.0, PHYS)

    @pytest.mark.parametrize("n_points", [128, 129])
    def test_dense_kernels_are_toeplitz_in_the_lag_row(self, n_points):
        g = Grid1D(-8.0, 8.0, n_points)
        idx = np.arange(n_points)
        lags = np.abs(idx[:, None] - idx[None, :])
        for regime, builder in (
            (MINKOWSKI, free_kernel_minkowski),
            (EUCLIDEAN, free_kernel_euclidean),
        ):
            row = free_kernel_row(g, 0.45, PHYS, regime)
            assert row.shape == (n_points,)
            assert np.array_equal(builder(g, 0.45, PHYS).entries, row[lags])

    def test_lag_row_runs_the_kernel_entry_checks(self):
        g = Grid1D(-8.0, 8.0, 128)
        heavy = PhysParams(mass=1e308)  # prefactor sqrt(m / 2 pi hbar T) overflows
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            free_kernel_row(g, 1e-10, heavy, EUCLIDEAN)
        with pytest.raises(ValueError, match="regime"):
            free_kernel_row(g, 0.5, PHYS, "thermal")
        with pytest.raises(ValueError, match="time_extent"):
            free_kernel_row(g, 0.0, PHYS, EUCLIDEAN)
        row = free_kernel_row(g, 0.5, PHYS, EUCLIDEAN)
        assert row.dtype == np.float64 and np.all(row >= 0.0)

    def test_euclidean_kernel_type_rejects_negative_entries(self):
        g = Grid1D(-1.0, 1.0, 8)
        from wickbell.grids import Kernel

        with pytest.raises(ValueError, match="non-negative"):
            Kernel(g, -np.ones((8, 8)), EUCLIDEAN)

    def test_euclidean_kernel_type_rejects_complex_dtype(self):
        # real is a dtype property: a zero imaginary part is still complex
        g = Grid1D(-1.0, 1.0, 8)
        from wickbell.grids import Kernel

        with pytest.raises(ValueError, match="must be real"):
            Kernel(g, np.ones((8, 8), dtype=complex), EUCLIDEAN)
        assert Kernel(g, np.ones((8, 8)), EUCLIDEAN).entries.dtype == np.float64
        assert free_kernel_euclidean(g, 1.0, PHYS).entries.dtype == np.float64


def composed(later, earlier) -> np.ndarray:
    """sum_y later(x_f, y) earlier(y, x_i) dy on the shared grid."""
    return later.entries @ earlier.entries * later.grid.dx


class TestComposition:
    def test_euclidean_entrywise_semigroup(self):
        # interior entries of E(0.5) o E(0.5) reproduce E(1.0); border rows
        # carry the box-truncation error and are excluded
        g = Grid1D(-16.0, 16.0, 2048)
        k1 = free_kernel_euclidean(g, 0.5, PHYS)
        combined = composed(k1, k1)
        exact = free_kernel_euclidean(g, 1.0, PHYS)
        m = 2048 // 8
        dev = np.abs(combined - exact.entries)[m:-m, m:-m]
        assert dev.max() < 1e-8

    def test_minkowski_wavepacket_semigroup(self):
        # the oscillatory composition integral is only box-convergent when it
        # acts on a contained packet, so the identity is tested at that level
        g = Grid1D(-16.0, 16.0, 1024)
        psi = gaussian_wavepacket(g, PHYS, center=-0.3, width=1.1, momentum=0.8)
        one = apply_kernel(free_kernel_minkowski(g, 0.6, PHYS), psi)
        two = apply_kernel(
            free_kernel_minkowski(g, 0.25, PHYS),
            apply_kernel(free_kernel_minkowski(g, 0.35, PHYS), psi),
        )
        assert np.max(np.abs(one.amplitudes - two.amplitudes)) < 1e-6

    def test_associativity(self):
        g = Grid1D(-12.0, 12.0, 256)
        a = free_kernel_euclidean(g, 0.2, PHYS)
        b = free_kernel_euclidean(g, 0.3, PHYS)
        c = free_kernel_euclidean(g, 0.4, PHYS)
        left = composed(a, b) @ c.entries * g.dx
        right = a.entries @ composed(b, c) * g.dx
        scale = np.max(np.abs(left))
        assert np.max(np.abs(left - right)) < 1e-10 * scale

    def test_identity_composition(self):
        # the Kronecker delta over dx is the unit of the dy quadrature
        g = Grid1D(-12.0, 12.0, 128)
        k = free_kernel_euclidean(g, 0.5, PHYS)
        with_id = k.entries @ (np.eye(g.n_points) / g.dx) * g.dx
        assert np.max(np.abs(with_id - k.entries)) < 1e-12


class TestSlicingPlan:
    def test_epsilon(self):
        plan = SlicingPlan(16, 2.0, EUCLIDEAN)
        assert plan.epsilon == pytest.approx(0.125)

    def test_rejects_single_slice(self):
        with pytest.raises(ValueError, match="n_slices"):
            SlicingPlan(1, 1.0, EUCLIDEAN)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError, match="total_time"):
            SlicingPlan(4, 0.0, EUCLIDEAN)

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError, match="regime"):
            SlicingPlan(4, 1.0, "thermal")


class TestSlicedKernel:
    def test_two_slices_equal_composed_analytic(self):
        # the V = 0 slice factor is the analytic kernel at eps; the smallest
        # legal plan (N = 2) must therefore equal two composed analytic steps
        g = Grid1D(-16.0, 16.0, 256)
        eps = 0.5
        for regime, builder in (
            (MINKOWSKI, free_kernel_minkowski),
            (EUCLIDEAN, free_kernel_euclidean),
        ):
            sliced = sliced_kernel(g, free_potential(), SlicingPlan(2, 2 * eps, regime), PHYS)
            two = composed(builder(g, eps, PHYS), builder(g, eps, PHYS))
            scale = np.max(np.abs(two))
            assert np.max(np.abs(sliced.entries - two)) < 1e-12 * scale

    def test_free_euclidean_matches_closed_form(self):
        # measured interior deviation is ~1e-13 (the Gaussian slice factor
        # composes exactly); the asserted bound is the contract value
        g = Grid1D(-16.0, 16.0, 512)
        t = 1.0
        exact = free_kernel_euclidean(g, t, PHYS)
        mask = interior_mask(g, 5.0 * np.sqrt(PHYS.hbar * t / PHYS.mass))
        sub = np.ix_(mask, mask)
        deviations = []
        for n in (16, 32, 64, 128):
            k = sliced_kernel(g, free_potential(), SlicingPlan(n, t, EUCLIDEAN), PHYS)
            deviations.append(float(np.max(np.abs(k.entries - exact.entries)[sub])))
        assert all(d < 1e-4 for d in deviations)
        # V = 0 has no slicing error term, so the sequence sits at roundoff;
        # non-increase is asserted above that floor
        floored = [max(d, 5e-13) for d in deviations]
        assert all(b <= a for a, b in zip(floored, floored[1:]))

    def test_harmonic_euclidean_first_order_convergence(self):
        # with a potential the slice error is genuine O(eps): each doubling
        # of N should roughly halve the deviation from the closed form
        g = Grid1D(-10.0, 10.0, 512)
        tau = 1.0
        pot = harmonic_potential(1.0, PHYS)
        exact = mehler_euclidean_harmonic(g.x[:, None], g.x[None, :], tau, 1.0)
        mask = interior_mask(g, 5.0 * np.sqrt(PHYS.hbar * tau / PHYS.mass))
        sub = np.ix_(mask, mask)
        errs = []
        for n in (16, 32, 64, 128):
            k = sliced_kernel(g, pot, SlicingPlan(n, tau, EUCLIDEAN), PHYS)
            errs.append(float(np.max(np.abs(k.entries - exact)[sub])))
        assert all(b < 0.75 * a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 5e-4

    def test_harmonic_ground_state_energy(self):
        # largest eigenvalue of the sliced transfer kernel decays like
        # exp(-E0 tau); E0 must land within 1% of hbar omega / 2
        g = Grid1D(-10.0, 10.0, 512)
        tau = 2.0
        k = sliced_kernel(g, harmonic_potential(1.0, PHYS), SlicingPlan(128, tau, EUCLIDEAN), PHYS)
        lam = float(np.linalg.eigvalsh(k.entries.real * g.dx).max())
        e0 = -np.log(lam) / tau
        assert abs(e0 - 0.5) < 0.005

    def test_slice_guard_on_grid_past_float_range(self):
        # dx^2 overflows: the guard reads the grid as too coarse, no OverflowError
        g = Grid1D(-1e300, 1e300, 64)
        with pytest.raises(NumericalGuardError, match="slice duration"):
            sliced_kernel(g, free_potential(), SlicingPlan(4, 1.0, EUCLIDEAN), PHYS)

    def test_euclidean_sliced_positivity(self):
        g = Grid1D(-10.0, 10.0, 256)
        k = sliced_kernel(g, harmonic_potential(1.0, PHYS), SlicingPlan(32, 1.0, EUCLIDEAN), PHYS)
        assert np.all(k.entries.real >= 0.0)
        assert np.all(k.entries.imag == 0.0)

    @pytest.mark.parametrize("n_slices", [16, 128])
    @pytest.mark.parametrize(
        "grid, potential",
        [
            # the kernel-check grid, whose heat-kernel tails reach 1e-300,
            # and a harmonic grid from the convergence test above; T = 1
            (Grid1D(-16.0, 16.0, 512), free_potential()),
            (Grid1D(-10.0, 10.0, 512), harmonic_potential(1.0, PHYS)),
        ],
        ids=["kernel-check", "harmonic"],
    )
    def test_flushed_power_matches_matrix_power(self, grid, potential, n_slices):
        a = _slice_matrix(grid, potential, 1.0 / n_slices, EUCLIDEAN, PHYS) * grid.dx
        oracle = np.linalg.matrix_power(a, n_slices)
        power = _nonnegative_power(a.copy(), n_slices)
        kept = oracle > 1e-100
        assert np.array_equal(power[kept], oracle[kept])
        assert np.max(np.abs(power - oracle)[~kept], initial=0.0) <= 2.0**-500
        assert np.all(power >= 0.0)

    def test_minkowski_sliced_norm_preservation(self):
        # config keeps the per-slice alias displacement 2 pi hbar eps/(m dx)
        # = 25.1 beyond the 24-wide box; measured drift is ~1e-9
        g = Grid1D(-12.0, 12.0, 1536)
        psi = gaussian_wavepacket(g, PHYS, width=2.0)
        k = sliced_kernel(g, free_potential(), SlicingPlan(64, 4.0, MINKOWSKI), PHYS)
        assert abs(apply_kernel(k, psi).norm_squared() - 1.0) < 1e-4

    def test_slice_resolution_guard(self):
        g = Grid1D(-16.0, 16.0, 512)
        with pytest.raises(NumericalGuardError, match="slice duration"):
            sliced_kernel(g, free_potential(), SlicingPlan(4096, 1.0, EUCLIDEAN), PHYS)


class TestTwistExpectation:
    def test_minkowski_value_is_i_hbar(self):
        for n, j in ((2, 1), (3, 2), (8, 4)):
            val = commutator_expectation(SlicingPlan(n, 1.0, MINKOWSKI), PHYS, j)
            assert val == pytest.approx(1j * PHYS.hbar, abs=1e-10)

    def test_euclidean_value_is_plus_hbar(self):
        for n, j in ((2, 1), (3, 1), (8, 5)):
            val = commutator_expectation(SlicingPlan(n, 1.0, EUCLIDEAN), PHYS, j)
            assert val == pytest.approx(PHYS.hbar, abs=1e-10)

    def test_matches_continuant_oracle(self):
        # the oracle places its packets at `center`; the twist has no center
        # to take, so the off-center cases check translation invariance
        cases = [
            (2, 1, 0.7, 0.0), (3, 1, 1.0, 0.5), (3, 2, 1.3, -0.8), (4, 2, 0.9, 1.1),
        ]
        for n, j, width, center in cases:
            plan_m = SlicingPlan(n, 0.8, MINKOWSKI)
            plan_e = SlicingPlan(n, 0.8, EUCLIDEAN)
            got_m = commutator_expectation(plan_m, PHYS, j, width)
            got_e = commutator_expectation(plan_e, PHYS, j, width)
            ref_m = twist_expectation_oracle(n, j, plan_m.epsilon, "minkowski", width, center)
            ref_e = twist_expectation_oracle(n, j, plan_e.epsilon, "euclidean", width, center)
            assert got_m == pytest.approx(ref_m, abs=1e-10)
            assert got_e == pytest.approx(ref_e, abs=1e-10)

    def test_brute_force_integral_anchor(self):
        # assumption-free 3-D quadrature of the N = 2 imaginary-time case,
        # converged in its order
        ref = twist_expectation_gauss_euclidean(eps=0.2)
        assert abs(twist_expectation_gauss_euclidean(eps=0.2, order=96) - ref) < 1e-13
        val = commutator_expectation(SlicingPlan(2, 0.4, EUCLIDEAN), PHYS, 1)
        assert val.real == pytest.approx(ref, abs=1e-9)
        assert abs(val.imag) < 1e-12

    def test_interior_slice_independence(self):
        plan = SlicingPlan(8, 1.0, MINKOWSKI)
        vals = [commutator_expectation(plan, PHYS, j) for j in range(2, 7)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-12

    def test_rejects_boundary_slice_index(self):
        plan = SlicingPlan(4, 1.0, MINKOWSKI)
        for j in (0, 4):
            with pytest.raises(ValueError, match="slice index"):
                commutator_expectation(plan, PHYS, j)

    def test_couplings_past_float_range_are_exact(self):
        # a subnormal slice gives a free end (hbar eps / (m width^2) = 0), a
        # width whose inverse square overflows a pinned one (coupling inf)
        val = commutator_expectation(SlicingPlan(8, 1e-310, EUCLIDEAN), PHYS, 2)
        assert val == PHYS.hbar
        val = commutator_expectation(SlicingPlan(8, 1.0, MINKOWSKI), PHYS, 2, boundary_width=1e-160)
        assert val == 1j * PHYS.hbar

    def test_exact_over_slice_lengths_and_widths(self):
        # hbar / u within 1e-15, with no numpy warning, from a subnormal
        # total time to the top of the float range, on pinned to free ends
        times = [*np.logspace(-300, 300, 121), 5e-324, 1.7e308]
        widths = np.logspace(-200, 200, 9)
        cases = [(2, 1), (3, 1), (8, 1), (8, 4), (8, 7), (64, 31), (10**5, 5 * 10**4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for regime, exact in ((EUCLIDEAN, PHYS.hbar), (MINKOWSKI, 1j * PHYS.hbar)):
                for n, j in cases:
                    for t in times:
                        plan = SlicingPlan(n, float(t), regime)
                        for width in widths:
                            val = commutator_expectation(plan, PHYS, j, float(width))
                            assert abs(val - exact) <= 1e-15, (regime, n, j, t, width)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="width"):
            commutator_expectation(SlicingPlan(4, 1.0, EUCLIDEAN), PHYS, 2, boundary_width=0.0)

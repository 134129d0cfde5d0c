"""Grids, wavefunctions, quadrature, and the analytic free kernels.

The propagation checks compare the dense grid quadrature against adaptive
momentum-space integration (oracles.evolved_gaussian_point), which shares no
code or discretization with the package.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    evolved_gaussian_point,
    gaussian_momentum_amplitude,
    spread_width_euclidean,
    spread_width_minkowski,
)
from wickbell import EUCLIDEAN, MINKOWSKI, Grid1D, PhysParams, WaveFunction
from wickbell.grids import (
    Kernel,
    _momentum_fft,
    apply_kernel,
    cat_state,
    dft_matrix,
    dual_grid,
    gaussian_wavepacket,
    momentum_representation,
)
from wickbell.kernels import free_kernel_euclidean, free_kernel_minkowski

PHYS = PhysParams()


def variance_of(grid: Grid1D, density: np.ndarray) -> tuple[float, float]:
    total = float(np.sum(density) * grid.dx)
    mean = float(np.sum(grid.x * density) * grid.dx) / total
    var = float(np.sum((grid.x - mean) ** 2 * density) * grid.dx) / total
    return mean, var


class TestGrid:
    def test_spacing_includes_both_endpoints(self):
        g = Grid1D(-16.0, 16.0, 512)
        assert g.x[0] == -16.0
        assert g.x[-1] == pytest.approx(16.0, abs=1e-12)
        assert g.dx == pytest.approx(32.0 / 511)
        assert g.extent == 32.0

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="n_points"):
            Grid1D(-1.0, 1.0, 4)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="x_max"):
            Grid1D(2.0, -2.0, 64)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ((-np.inf, 1.0), "x_min must be finite"),
            ((0.0, np.inf), "x_max must be finite"),
            ((-1e308, 1e308), "x_max - x_min overflows"),
        ],
    )
    def test_rejects_non_finite_edge(self, edges, message):
        # checked before x is built, so no inf spacing or nan samples appear
        with pytest.raises(ValueError, match=message):
            Grid1D(*edges, 8)

    def test_dual_grid_spacing_and_origin(self):
        g = Grid1D(-10.0, 10.0, 256)
        pg = dual_grid(g, PHYS)
        assert pg.n_points == 256
        assert pg.dx == pytest.approx(2.0 * np.pi * PHYS.hbar / (256 * g.dx))
        assert pg.x[128] == 0.0


class TestPhysParams:
    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(ValueError, match="hbar"):
            PhysParams(hbar=0.0)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError, match="mass"):
            PhysParams(mass=-1.0)


class TestWaveFunction:
    def test_shape_mismatch_rejected(self):
        g = Grid1D(-1.0, 1.0, 16)
        with pytest.raises(ValueError, match="shape"):
            WaveFunction(g, np.ones(8))

    def test_nonfinite_rejected(self):
        g = Grid1D(-1.0, 1.0, 16)
        amps = np.ones(16, dtype=complex)
        amps[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            WaveFunction(g, amps)

    def test_normalize_zero_rejected(self):
        g = Grid1D(-1.0, 1.0, 16)
        with pytest.raises(ValueError, match="zero"):
            WaveFunction(g, np.zeros(16)).normalized()

    def test_packet_unit_norm(self):
        g = Grid1D(-12.0, 12.0, 512)
        psi = gaussian_wavepacket(g, PHYS, center=0.7, width=1.3, momentum=-0.4)
        assert psi.norm_squared() == pytest.approx(1.0, abs=1e-13)

    def test_cat_state_parity(self):
        g = Grid1D(-16.0, 16.0, 512)
        odd = cat_state(g, PHYS, separation=3.0, parity="odd")
        even = cat_state(g, PHYS, separation=3.0, parity="even")
        # parity is exact on the symmetric grid: x -> -x is index reversal
        assert np.allclose(odd.amplitudes, -odd.amplitudes[::-1], atol=1e-14)
        assert np.allclose(even.amplitudes, even.amplitudes[::-1], atol=1e-14)
        # opposite parities are orthogonal: <odd|even> = sum conj(odd) even dx
        assert abs(np.vdot(odd.amplitudes, even.amplitudes) * g.dx) < 1e-14
        with pytest.raises(ValueError, match="parity"):
            cat_state(g, PHYS, separation=3.0, parity="mixed")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda g: gaussian_wavepacket(g, PHYS, width=5e-324), r"2 width\^2 rounds to 0"),
            (lambda g: gaussian_wavepacket(g, PHYS, center=1e308), r"\|x - center\| = 1e\+308"),
            (lambda g: gaussian_wavepacket(g, PHYS, momentum=1e308), "phase momentum"),
            (lambda g: cat_state(g, PHYS, separation=3.0, width=5e-324), r"2 width\^2 rounds to 0"),
            (lambda g: cat_state(g, PHYS, separation=1e308), r"\|x -\+ separation\| = 1e\+308"),
            (lambda g: cat_state(g, PHYS, separation=3.0, width=1e-160), "overflows at"),
        ],
        ids=[
            "gauss-width",
            "gauss-center",
            "gauss-momentum",
            "cat-width",
            "cat-separation",
            "cat-narrow",
        ],
    )
    def test_exponent_past_the_float_range_rejected(self, build, message):
        # checked as Python floats before numpy evaluates the exponent, so
        # numpy meets no overflow or division by zero
        g = Grid1D(-16.0, 16.0, 64)
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            build(g)

    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_cat_state_is_real(self, parity):
        # two real Gaussians: the amplitudes stay float64, so evolution and
        # the Wigner transform of a cat start from real arithmetic
        g = Grid1D(-16.0, 16.0, 256)
        cat = cat_state(g, PHYS, separation=3.0, parity=parity)
        assert cat.amplitudes.dtype == np.float64
        assert cat.norm_squared() == pytest.approx(1.0, abs=1e-13)

    def test_displaced_pair_overlap(self):
        # unit-norm packets at +-a with amplitude width w overlap at
        # exp(-a^2/w^2); frozen from the Gaussian-integral oracle for a=1.5
        g = Grid1D(-16.0, 16.0, 1024)
        plus = gaussian_wavepacket(g, PHYS, center=1.5, width=1.0)
        minus = gaussian_wavepacket(g, PHYS, center=-1.5, width=1.0)
        overlap = np.vdot(plus.amplitudes, minus.amplitudes) * g.dx
        assert overlap.real == pytest.approx(0.10539922456186433, abs=1e-12)
        assert abs(overlap.imag) < 1e-14


    @pytest.mark.parametrize(
        "values, dtype",
        [
            (np.ones(16), np.float64),
            (np.ones(16, dtype=np.float32), np.float64),
            (np.arange(16), np.float64),
            (np.ones(16, dtype=complex), np.complex128),  # zero imaginary part
            (np.ones(16, dtype=np.complex64), np.complex128),
        ],
    )
    def test_stored_dtype_follows_input(self, values, dtype):
        # real input is stored as float64; complex input stays complex even
        # when its imaginary part is zero
        g = Grid1D(-1.0, 1.0, 16)
        assert WaveFunction(g, values).amplitudes.dtype == dtype
        assert WaveFunction(g, values).normalized().amplitudes.dtype == dtype
        assert Kernel(g, np.outer(values, values)).entries.dtype == dtype

    def test_float64_norm_is_sum_of_squared_moduli(self):
        # the float64 norm sums a * a: bit for bit the sum of |a|^2
        g = Grid1D(-1.0, 1.0, 1001)
        amps = np.random.default_rng(3).normal(size=1001)
        assert WaveFunction(g, amps).norm_squared() == float(np.sum(np.abs(amps) ** 2) * g.dx)

    def test_strided_amplitudes_checked(self):
        # the finiteness check must not depend on memory layout
        g = Grid1D(-1.0, 1.0, 16)
        amps = np.ones(32, dtype=complex)
        assert np.array_equal(WaveFunction(g, amps[::2]).amplitudes, amps[::2])
        amps[4] = np.inf
        with pytest.raises(ValueError, match="finite"):
            WaveFunction(g, amps[::2])


class TestApplyKernel:
    def test_identity_kernel_returns_state(self):
        g = Grid1D(-10.0, 10.0, 256)
        psi = gaussian_wavepacket(g, PHYS, center=0.3, width=1.1, momentum=0.9)
        # Kronecker delta over dx: the unit of the dy quadrature
        out = apply_kernel(Kernel(g, np.eye(g.n_points) / g.dx), psi)
        assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-12

    def test_transposed_entries_checked(self):
        g = Grid1D(-10.0, 10.0, 64)
        k = free_kernel_minkowski(g, 0.5, PHYS)
        assert np.array_equal(Kernel(g, k.entries.T).entries, k.entries.T)
        bad = free_kernel_euclidean(g, 0.5, PHYS).entries.copy()
        bad[2, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Kernel(g, bad.T, EUCLIDEAN)

    def test_minkowski_matches_quadrature_oracle(self):
        g = Grid1D(-16.0, 16.0, 1024)
        psi = gaussian_wavepacket(g, PHYS, center=-0.3, width=1.1, momentum=0.8)
        out = apply_kernel(free_kernel_minkowski(g, 0.9, PHYS), psi)
        for idx in (380, 470, 512, 600, 680):
            ref = evolved_gaussian_point(
                float(g.x[idx]), 0.9, "minkowski", center=-0.3, width=1.1, momentum=0.8
            )
            assert abs(out.amplitudes[idx] - ref) < 1e-9

    def test_euclidean_matches_quadrature_oracle(self):
        g = Grid1D(-16.0, 16.0, 1024)
        psi = gaussian_wavepacket(g, PHYS, center=-0.3, width=1.1, momentum=0.8)
        out = apply_kernel(free_kernel_euclidean(g, 0.9, PHYS), psi)
        for idx in (380, 470, 512, 600, 680):
            ref = evolved_gaussian_point(
                float(g.x[idx]), 0.9, "euclidean", center=-0.3, width=1.1, momentum=0.8
            )
            assert abs(out.amplitudes[idx] - ref) < 1e-9

    def test_minkowski_norm_preserved(self):
        g = Grid1D(-16.0, 16.0, 1024)
        psi = gaussian_wavepacket(g, PHYS, width=1.0)
        out = apply_kernel(free_kernel_minkowski(g, 1.5, PHYS), psi)
        assert abs(out.norm_squared() - 1.0) < 1e-6

    def test_minkowski_spreading_width(self):
        g = Grid1D(-24.0, 24.0, 1024)
        width, t = 1.0, 2.0
        psi = gaussian_wavepacket(g, PHYS, width=width)
        out = apply_kernel(free_kernel_minkowski(g, t, PHYS), psi)
        _, var = variance_of(g, np.abs(out.amplitudes) ** 2)
        expected = spread_width_minkowski(width, t) ** 2 / 2.0
        assert var == pytest.approx(expected, rel=1e-8)

    def test_euclidean_spreading_width(self):
        g = Grid1D(-24.0, 24.0, 1024)
        width, t = 1.0, 2.0
        psi = gaussian_wavepacket(g, PHYS, width=width)
        out = apply_kernel(free_kernel_euclidean(g, t, PHYS), psi)
        _, var = variance_of(g, np.abs(out.amplitudes) ** 2)
        expected = spread_width_euclidean(width, t) ** 2 / 2.0
        assert var == pytest.approx(expected, rel=1e-8)

    def test_drifting_packet_center(self):
        g = Grid1D(-24.0, 24.0, 1024)
        p0, t = 1.4, 2.0
        psi = gaussian_wavepacket(g, PHYS, momentum=p0)
        out = apply_kernel(free_kernel_minkowski(g, t, PHYS), psi)
        mean, _ = variance_of(g, np.abs(out.amplitudes) ** 2)
        assert mean == pytest.approx(p0 * t / PHYS.mass, abs=1e-8)

    def test_grid_mismatch_rejected(self):
        k = free_kernel_minkowski(Grid1D(-8.0, 8.0, 128), 0.5, PHYS)
        psi = gaussian_wavepacket(Grid1D(-8.0, 8.0, 256), PHYS)
        with pytest.raises(ValueError, match="grid"):
            apply_kernel(k, psi)

    @settings(max_examples=40, deadline=None)
    @given(
        re_a=st.floats(-2.0, 2.0),
        im_a=st.floats(-2.0, 2.0),
        re_b=st.floats(-2.0, 2.0),
        im_b=st.floats(-2.0, 2.0),
    )
    def test_linearity(self, re_a, im_a, re_b, im_b):
        g = Grid1D(-8.0, 8.0, 64)
        k = free_kernel_euclidean(g, 0.3, PHYS)
        psi1 = gaussian_wavepacket(g, PHYS, center=-0.8, width=0.9)
        psi2 = gaussian_wavepacket(g, PHYS, center=0.6, width=1.2, momentum=0.5)
        alpha, beta = complex(re_a, im_a), complex(re_b, im_b)
        combined = WaveFunction(g, alpha * psi1.amplitudes + beta * psi2.amplitudes)
        lhs = apply_kernel(k, combined).amplitudes
        rhs = alpha * apply_kernel(k, psi1).amplitudes + beta * apply_kernel(k, psi2).amplitudes
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, abs(alpha) + abs(beta))


class TestMomentumRepresentation:
    def test_matches_analytic_gaussian(self):
        g = Grid1D(-16.0, 16.0, 1024)
        psi = gaussian_wavepacket(g, PHYS, center=0.5, width=1.2, momentum=1.1)
        phi = momentum_representation(psi)
        ref = gaussian_momentum_amplitude(phi.grid.x, 0.5, 1.2, 1.1)
        assert np.max(np.abs(phi.amplitudes - ref)) < 1e-9

    def test_parseval(self):
        g = Grid1D(-16.0, 16.0, 1024)
        psi = gaussian_wavepacket(g, PHYS, center=-0.7, width=0.8, momentum=-1.3)
        assert momentum_representation(psi).norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_momentum_width(self):
        # amplitude width w gives momentum-space |phi|^2 variance hbar^2/(2 w^2)
        g = Grid1D(-16.0, 16.0, 1024)
        width = 1.2
        psi = gaussian_wavepacket(g, PHYS, width=width)
        phi = momentum_representation(psi)
        _, var = variance_of(phi.grid, np.abs(phi.amplitudes) ** 2)
        assert var == pytest.approx(PHYS.hbar**2 / (2.0 * width**2), rel=1e-8)

    def test_boosted_packet_peaks_at_grid_momentum(self):
        g = Grid1D(-16.0, 16.0, 512)
        pg = dual_grid(g, PHYS)
        p0 = 8 * pg.dx
        psi = gaussian_wavepacket(g, PHYS, momentum=p0)
        phi = momentum_representation(psi)
        assert int(np.argmax(np.abs(phi.amplitudes))) == 512 // 2 + 8

    def test_requires_normalized_input(self):
        g = Grid1D(-16.0, 16.0, 256)
        psi = gaussian_wavepacket(g, PHYS)
        scaled = WaveFunction(g, 2.0 * psi.amplitudes)
        with pytest.raises(ValueError, match="normalized"):
            momentum_representation(scaled)

    def test_dense_dft_agrees_with_fft_path(self):
        for n in (256, 255):
            g = Grid1D(-12.0, 12.0, n)
            psi = gaussian_wavepacket(g, PHYS, center=0.4, width=1.1, momentum=-0.9)
            pgrid, fwd = dft_matrix(g, PHYS)
            dense = fwd @ psi.amplitudes
            fft = momentum_representation(psi)
            assert fft.grid == pgrid
            assert np.max(np.abs(dense - fft.amplitudes)) < 1e-10

    def test_block_transform_holds_two_block_copies(self):
        # the FFT and its shifted copy; the phase is applied in place
        g = Grid1D(-8.0, 8.0, 512)
        rng = np.random.default_rng(3)
        block = rng.normal(size=(32, 512)) + 1j * rng.normal(size=(32, 512))
        tracemalloc.start()
        try:
            _momentum_fft(block, g, PHYS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * block.nbytes

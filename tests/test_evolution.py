"""Density evolution: unitary real time, damped imaginary time, and the
phase-space shear for free real-time motion.
"""

import numpy as np
import pytest

from wickbell import EUCLIDEAN, MINKOWSKI, Grid1D, PhysParams, WaveFunction
from wickbell.errors import GridEscapeError, TraceCollapseError
from wickbell.evolution import (
    DensityMatrix,
    Hamiltonian,
    density_from_wavefunction,
    evolve_density_euclidean,
    evolve_density_minkowski,
    free_wigner_shear,
    hamiltonian,
    negativity_trajectory,
    shear_negativity_trajectory,
    trajectory_to_csv,
)
from wickbell.grids import cat_state, dft_matrix, gaussian_wavepacket
from wickbell.kernels import free_kernel_minkowski, harmonic_potential
from wickbell.grids import apply_kernel
from wickbell.phase_space import negativity_ratio, wigner_transform

PHYS = PhysParams()


def offset_grid(half_span: float, n: int) -> Grid1D:
    dx = 2.0 * half_span / n
    return Grid1D(-half_span, half_span - dx, n)


GRID = offset_grid(12.0, 256)
HARMONIC = hamiltonian(GRID, PHYS, harmonic_potential(1.0, PHYS))


def ground_state_vector(h: Hamiltonian) -> np.ndarray:
    w, v = np.linalg.eigh(h.entries)
    vec = v[:, 0] / np.sqrt(h.grid.dx)
    return vec * np.exp(-1j * np.angle(vec[np.argmax(np.abs(vec))]))


def fidelity(rho: DensityMatrix, vec: np.ndarray) -> float:
    return float(np.real(vec.conj() @ rho.entries @ vec) * rho.grid.dx**2)


class TestHamiltonian:
    def test_harmonic_spectrum(self):
        # spectral kinetic term keeps the low oscillator levels at rounding
        w = np.linalg.eigvalsh(HARMONIC.entries)
        expected = np.arange(10) + 0.5
        assert np.max(np.abs(w[:10] - expected)) < 1e-9

    def test_free_kinetic_expectation(self):
        h = hamiltonian(GRID, PHYS)
        psi = gaussian_wavepacket(GRID, PHYS, width=1.0)
        val = np.real(psi.amplitudes.conj() @ h.entries @ psi.amplitudes) * GRID.dx
        assert val == pytest.approx(0.25, abs=1e-6)  # <p^2>/2m = hbar^2/(4 m w^2)

    @pytest.mark.parametrize("n", [64, 65])
    def test_matches_dense_dft_product(self, n):
        # kinetic term against (dp/dx) F^H diag(p^2/2m) F with the dense DFT
        g = Grid1D(-8.0, 8.0, n)
        pgrid, fwd = dft_matrix(g, PHYS)
        kin = (pgrid.dx / g.dx) * (fwd.conj().T @ ((pgrid.x**2 / 2.0)[:, None] * fwd))
        h = hamiltonian(g, PHYS, harmonic_potential(1.0, PHYS))
        dense = kin + np.diag(0.5 * g.x**2)
        assert np.max(np.abs(h.entries - dense)) < 1e-12 * np.max(np.abs(h.entries))

    def test_spectral_trap_is_real(self):
        # a real symmetric H takes the real eigh
        assert HARMONIC.entries.dtype == np.float64
        assert hamiltonian(GRID, PHYS).entries.dtype == np.float64

    def test_rejects_non_hermitian(self):
        ent = np.diag(np.arange(GRID.n_points, dtype=float)).astype(complex)
        ent[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian(GRID, ent, PHYS)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Hamiltonian(GRID, np.eye(8), PHYS)

    def test_transposed_entries_checked(self):
        swapped = Hamiltonian(GRID, HARMONIC.entries.T, PHYS)
        assert np.array_equal(swapped.entries, HARMONIC.entries.T)
        bad = HARMONIC.entries.copy()
        bad[4, 4] = np.inf
        with pytest.raises(ValueError, match="finite"):
            Hamiltonian(GRID, bad.T, PHYS)


class TestDensityMatrix:
    def test_pure_state_trace_and_purity(self):
        rho = density_from_wavefunction(gaussian_wavepacket(GRID, PHYS))
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_hermitian(self):
        rho = density_from_wavefunction(gaussian_wavepacket(GRID, PHYS))
        ent = rho.entries.copy()
        ent[3, 10] += 0.05
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(GRID, ent, PHYS)

    def test_rejects_wrong_trace(self):
        rho = density_from_wavefunction(gaussian_wavepacket(GRID, PHYS))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(GRID, 2.0 * rho.entries, PHYS)

    def test_fortran_ordered_entries_checked(self):
        rho = density_from_wavefunction(cat_state(GRID, PHYS, 3.0, 1.0, "even"))
        swapped = DensityMatrix(GRID, np.asfortranarray(rho.entries), PHYS)
        assert swapped.trace() == pytest.approx(1.0, abs=1e-12)
        bad = np.asfortranarray(rho.entries)
        bad[7, 7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(GRID, bad, PHYS)

    def test_rejects_indefinite(self):
        w, v = np.linalg.eigh(HARMONIC.entries)
        dx = GRID.dx
        p0 = np.outer(v[:, 0], v[:, 0].conj()) / dx
        p1 = np.outer(v[:, 1], v[:, 1].conj()) / dx
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(GRID, 1.5 * p0 - 0.5 * p1, PHYS)


class TestMinkowskiEvolution:
    def test_zero_time_is_identity(self):
        rho = density_from_wavefunction(cat_state(GRID, PHYS, 3.0, 1.0, "even"))
        assert evolve_density_minkowski(rho, HARMONIC, 0.0) is rho

    def test_spectrum_and_purity_preserved(self):
        rho = density_from_wavefunction(cat_state(GRID, PHYS, 3.0, 1.0, "even"))
        out = evolve_density_minkowski(rho, HARMONIC, 1.7)
        s0 = np.sort(np.linalg.eigvalsh(rho.entries))
        s1 = np.sort(np.linalg.eigvalsh(out.entries))
        assert np.max(np.abs(s1 - s0)) < 1e-8
        assert out.purity() == pytest.approx(rho.purity(), abs=1e-10)
        assert out.trace() == pytest.approx(1.0, abs=1e-10)

    def test_reversibility(self):
        rho = density_from_wavefunction(gaussian_wavepacket(GRID, PHYS, center=0.8))
        back = evolve_density_minkowski(
            evolve_density_minkowski(rho, HARMONIC, 1.3), HARMONIC, -1.3
        )
        assert np.max(np.abs(back.entries - rho.entries)) < 1e-8

    def test_eigenprojector_is_stationary(self):
        vec = ground_state_vector(HARMONIC)
        rho = DensityMatrix(GRID, np.outer(vec, vec.conj()), PHYS)
        out = evolve_density_minkowski(rho, HARMONIC, 2.1)
        assert np.max(np.abs(out.entries - rho.entries)) < 1e-10

    def test_grid_mismatch_rejected(self):
        other = offset_grid(12.0, 128)
        rho = density_from_wavefunction(gaussian_wavepacket(other, PHYS))
        with pytest.raises(ValueError, match="grid"):
            evolve_density_minkowski(rho, HARMONIC, 1.0)

    def test_nonfinite_time_rejected(self):
        rho = density_from_wavefunction(gaussian_wavepacket(GRID, PHYS))
        with pytest.raises(ValueError, match="finite"):
            evolve_density_minkowski(rho, HARMONIC, np.nan)

    def test_phase_past_float_range_rejected(self):
        # a finite time whose phase max|E| t / hbar overflows on a 16-point trap
        grid = offset_grid(4.0, 16)
        h = hamiltonian(grid, PHYS, harmonic_potential(1.0, PHYS))
        psi = gaussian_wavepacket(grid, PHYS)
        with pytest.raises(ValueError, match="time 1e"):
            evolve_density_minkowski(density_from_wavefunction(psi), h, 1e308)
        with pytest.raises(ValueError, match="time 1e"):
            negativity_trajectory(psi, h, [0.0, 1e308], MINKOWSKI)


class TestEuclideanEvolution:
    def test_zero_tau_is_identity(self):
        rho = density_from_wavefunction(cat_state(GRID, PHYS, 3.0, 1.0, "even"))
        assert evolve_density_euclidean(rho, HARMONIC, 0.0) is rho

    def test_symmetric_projects_onto_ground_state(self):
        rho = density_from_wavefunction(cat_state(GRID, PHYS, 3.0, 1.0, "even"))
        out = evolve_density_euclidean(rho, HARMONIC, 20.0)
        vec = ground_state_vector(HARMONIC)
        assert fidelity(out, vec) > 1.0 - 1e-6
        assert out.purity() > 1.0 - 1e-6
        assert out.trace() == pytest.approx(1.0, abs=1e-10)

    def test_eigenprojector_is_stationary(self):
        vec = ground_state_vector(HARMONIC)
        rho = DensityMatrix(GRID, np.outer(vec, vec.conj()), PHYS)
        out = evolve_density_euclidean(rho, HARMONIC, 1.5)
        assert np.max(np.abs(out.entries - rho.entries)) < 1e-10

    def test_late_tau_reaches_ground_state(self):
        # the raw trace e^{-E_0 2 tau} underflows here, but the shifted and
        # renormalized evolution is exact and must not be rejected
        rho = density_from_wavefunction(gaussian_wavepacket(GRID, PHYS))
        out = evolve_density_euclidean(rho, HARMONIC, 800.0)
        assert fidelity(out, ground_state_vector(HARMONIC)) > 1.0 - 1e-6
        assert out.trace() == pytest.approx(1.0, abs=1e-10)

    def test_trace_collapse_guard(self):
        # diagonal H: eigh returns the identity basis, so a density living on
        # level 5 alone has no ground-state weight and its shifted weight
        # e^{-2 * 5 * 400} underflows to exactly zero
        n = GRID.n_points
        h = Hamiltonian(GRID, np.diag(np.arange(n, dtype=np.float64)), PHYS)
        w, v = np.linalg.eigh(h.entries)
        assert np.array_equal(v, np.eye(n))
        ent = np.zeros((n, n))
        ent[5, 5] = 1.0 / GRID.dx
        rho = DensityMatrix(GRID, ent, PHYS)
        with pytest.raises(TraceCollapseError):
            evolve_density_euclidean(rho, h, 400.0)

    def test_rejects_negative_tau(self):
        rho = density_from_wavefunction(gaussian_wavepacket(GRID, PHYS))
        with pytest.raises(ValueError, match=">= 0"):
            evolve_density_euclidean(rho, HARMONIC, -0.5)


class TestFreeWignerShear:
    def test_zero_time_is_identity(self):
        w0 = wigner_transform(gaussian_wavepacket(GRID, PHYS))
        assert free_wigner_shear(w0, 0.0, PHYS) is w0

    def test_commensurate_shift_preserves_integrals(self):
        # at t = k m n dx^2 / (2 pi hbar) every momentum row shifts by an
        # integer cell count, so interpolation is exact
        w0 = wigner_transform(cat_state(GRID, PHYS, 3.0, 1.0, "odd"))
        t_cell = PHYS.mass * GRID.n_points * GRID.dx**2 / (2.0 * np.pi * PHYS.hbar)
        wt = free_wigner_shear(w0, 2.0 * t_cell, PHYS)
        assert np.sum(wt.values) == pytest.approx(np.sum(w0.values), abs=1e-10)
        assert np.sum(np.abs(wt.values)) == pytest.approx(
            np.sum(np.abs(w0.values)), abs=1e-10
        )

    def test_matches_kernel_evolution(self):
        # same free dynamics through two unrelated routes: shear of W versus
        # kernel evolution of psi followed by a fresh transform; the grid is
        # sized so the evolved packet and the alias displacement both clear it
        cat = cat_state(GRID, PHYS, 3.0, 1.0, "odd")
        t_cell = PHYS.mass * GRID.n_points * GRID.dx**2 / (2.0 * np.pi * PHYS.hbar)
        t = 2.0 * t_cell
        sheared = free_wigner_shear(wigner_transform(cat), t, PHYS)
        evolved = apply_kernel(free_kernel_minkowski(GRID, t, PHYS), cat).normalized()
        direct = wigner_transform(evolved)
        l1 = float(np.sum(np.abs(sheared.values - direct.values)) * sheared.cell_area)
        assert l1 < 1e-4

    def test_escape_guard(self):
        g = offset_grid(6.0, 64)
        w0 = wigner_transform(gaussian_wavepacket(g, PHYS, momentum=2.0))
        with pytest.raises(GridEscapeError, match="populated"):
            free_wigner_shear(w0, 50.0, PHYS)


class TestTrajectories:
    def test_euclidean_negativity_decays_monotonically(self):
        g = offset_grid(48.0, 512)
        h = hamiltonian(g, PHYS, harmonic_potential(1.0, PHYS))
        psi0 = cat_state(g, PHYS, 3.0, 1.0, "even")
        taus = np.linspace(0.2, 3.0, 8)
        pts = negativity_trajectory(psi0, h, taus, EUCLIDEAN)
        f = np.array([p.negativity for p in pts])
        assert np.all(np.diff(f) <= 1e-9)
        assert f[-1] < f[0]
        raw = np.array([p.trace_raw for p in pts])
        assert np.all(np.diff(raw) < 0.0)

    def test_minkowski_trajectory_keeps_negativity(self):
        g = offset_grid(48.0, 512)
        h = hamiltonian(g, PHYS, harmonic_potential(1.0, PHYS))
        psi0 = cat_state(g, PHYS, 3.0, 1.0, "odd")
        pts = negativity_trajectory(psi0, h, np.linspace(0.5, 2.0, 4), MINKOWSKI)
        for p in pts:
            assert p.negativity > 1.2
            assert p.purity == pytest.approx(1.0, abs=1e-8)
            assert p.trace_raw == 1.0

    def test_shear_trajectory_constant_at_commensurate_times(self):
        w0 = wigner_transform(cat_state(GRID, PHYS, 3.0, 1.0, "odd"))
        t_cell = PHYS.mass * GRID.n_points * GRID.dx**2 / (2.0 * np.pi * PHYS.hbar)
        pts = shear_negativity_trajectory(w0, [t_cell, 2 * t_cell, 3 * t_cell], PHYS)
        f0 = negativity_ratio(w0)
        for p in pts:
            assert p.negativity == pytest.approx(f0, abs=1e-12)

    def test_shear_trajectory_gaussian_stays_classical(self):
        w0 = wigner_transform(gaussian_wavepacket(GRID, PHYS, width=1.0))
        pts = shear_negativity_trajectory(w0, [0.3, 0.7, 1.1], PHYS)
        for p in pts:
            assert p.negativity == pytest.approx(1.0, abs=1e-12)
            assert abs(p.trace_raw - 1.0) < 1e-6
            assert 0.9 < p.purity <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "regime, taus",
        [(MINKOWSKI, [-0.7, 0.0, 0.4, 1.9]), (EUCLIDEAN, [0.0, 0.3, 1.2, 5.0])],
        ids=["minkowski-symmetric-taus0", "euclidean-symmetric-taus1"],
    )
    def test_samples_match_single_shot_evolution(self, monkeypatch, regime, taus):
        # every state the trajectory scores must be the pure state whose
        # projector the one-off density evolution returns at the same time
        import wickbell.evolution as evolution

        seen = []

        def capture(psi):
            seen.append(psi.amplitudes.copy())
            return wigner_transform(psi)

        monkeypatch.setattr(evolution, "wigner_transform", capture)
        psi0 = cat_state(GRID, PHYS, 3.0, 1.0, "even")
        rho0 = density_from_wavefunction(psi0)
        pts = negativity_trajectory(psi0, HARMONIC, taus, regime)
        assert len(seen) == len(taus)
        for tau, amps, p in zip(taus, seen, pts):
            if regime == MINKOWSKI:
                single = evolve_density_minkowski(rho0, HARMONIC, tau)
            else:
                single = evolve_density_euclidean(rho0, HARMONIC, tau)
            assert np.max(np.abs(np.outer(amps, amps.conj()) - single.entries)) < 1e-12
            assert p.purity == pytest.approx(single.purity(), abs=1e-12)

    @pytest.mark.parametrize(
        "regime", [MINKOWSKI, EUCLIDEAN], ids=["minkowski-symmetric", "euclidean-symmetric"]
    )
    def test_one_eigendecomposition_per_trajectory(self, monkeypatch, regime):
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        psi0 = cat_state(GRID, PHYS, 3.0, 1.0, "even")
        monkeypatch.setattr(np.linalg, "eigh", counting)
        negativity_trajectory(psi0, HARMONIC, [0.0, 0.005, 0.01, 0.02], regime)
        assert calls == [HARMONIC.entries.shape]

    @pytest.mark.parametrize("regime", [MINKOWSKI, EUCLIDEAN])
    def test_complex_typed_hamiltonian_gives_same_trajectory(self, regime):
        psi0 = cat_state(GRID, PHYS, 3.0, 1.0, "odd")
        complex_h = Hamiltonian(GRID, HARMONIC.entries.astype(np.complex128), PHYS)
        assert complex_h.entries.dtype == np.complex128
        taus = [0.0, 0.3, 1.2, 5.0]
        real_pts = negativity_trajectory(psi0, HARMONIC, taus, regime)
        complex_pts = negativity_trajectory(psi0, complex_h, taus, regime)
        for a, b in zip(real_pts, complex_pts):
            assert a.tau == b.tau
            assert b.negativity == pytest.approx(a.negativity, abs=1e-12)
            assert b.purity == pytest.approx(a.purity, abs=1e-12)
            assert b.trace_raw == pytest.approx(a.trace_raw, abs=1e-12)

    def test_trace_collapse_guard(self):
        # as TestEuclideanEvolution.test_trace_collapse_guard: a state on
        # level 5 alone of a diagonal H has its shifted weight e^{-2 * 5 * 400}
        # underflow to exactly zero
        n = GRID.n_points
        h = Hamiltonian(GRID, np.diag(np.arange(n, dtype=np.float64)), PHYS)
        amps = np.zeros(n)
        amps[5] = 1.0 / np.sqrt(GRID.dx)
        with pytest.raises(TraceCollapseError):
            negativity_trajectory(WaveFunction(GRID, amps, PHYS), h, [400.0])

    def test_schedule_validation(self):
        psi0 = gaussian_wavepacket(GRID, PHYS)
        with pytest.raises(ValueError, match="non-empty"):
            negativity_trajectory(psi0, HARMONIC, [], EUCLIDEAN)
        with pytest.raises(ValueError, match="increasing"):
            negativity_trajectory(psi0, HARMONIC, [0.5, 0.5], EUCLIDEAN)
        with pytest.raises(ValueError, match=">= 0"):
            negativity_trajectory(psi0, HARMONIC, [-1.0, 1.0], EUCLIDEAN)
        with pytest.raises(ValueError, match="finite"):
            negativity_trajectory(psi0, HARMONIC, [0.5, np.inf], EUCLIDEAN)
        with pytest.raises(ValueError, match="regime"):
            negativity_trajectory(psi0, HARMONIC, [0.5], "thermal")

    def test_csv_header(self, tmp_path):
        from wickbell.csvio import read_csv

        w0 = wigner_transform(gaussian_wavepacket(GRID, PHYS))
        pts = shear_negativity_trajectory(w0, [0.2, 0.4], PHYS)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(pts, path)
        rows = read_csv(path, ("tau", "f", "purity", "trace_raw"))
        assert len(rows) == 2
        assert float(rows[0][0]) == pytest.approx(0.2)

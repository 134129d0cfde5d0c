"""Pure-state evolution: unitary real time, damped imaginary time, and the
phase-space shear for free real-time motion.

Trajectory states are checked against scipy's matrix exponential of H,
which shares no eigendecomposition with the package.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from wickbell import EUCLIDEAN, MINKOWSKI, Grid1D, PhysParams, WaveFunction
from wickbell.errors import GridEscapeError, TraceCollapseError
from wickbell.evolution import (
    Hamiltonian,
    density_from_wavefunction,
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


def fidelity(amps: np.ndarray, vec: np.ndarray) -> float:
    return float(np.abs(np.vdot(vec, amps)) ** 2 * GRID.dx**2)


def captured_trajectory(monkeypatch, psi0, h, taus, regime):
    """The trajectory's points and the amplitudes of each state it scores."""
    import wickbell.evolution as evolution

    seen = []

    def capture(psi):
        seen.append(psi.amplitudes.copy())
        return wigner_transform(psi)

    monkeypatch.setattr(evolution, "wigner_transform", capture)
    points = negativity_trajectory(psi0, h, taus, regime)
    assert len(seen) == len(taus)
    return points, seen


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
        psi = cat_state(GRID, PHYS, 3.0, 1.0, "even")
        rho = density_from_wavefunction(WaveFunction(GRID, 2.0 * psi.amplitudes, PHYS))
        assert rho.shape == (GRID.n_points, GRID.n_points)
        assert np.real(np.trace(rho)) * GRID.dx == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(rho) ** 2) * GRID.dx**2 == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rho - np.outer(psi.amplitudes, psi.amplitudes.conj()))) < 1e-12


def assert_eigenvector_is_stationary(monkeypatch, regime):
    # an eigenvector only picks up a phase (real time) or is renormalized
    # back onto itself (imaginary time)
    vec = ground_state_vector(HARMONIC)
    psi0 = WaveFunction(GRID, vec, PHYS)
    _, seen = captured_trajectory(monkeypatch, psi0, HARMONIC, [0.0, 1.5, 2.1], regime)
    for amps in seen:
        assert np.max(np.abs(np.outer(amps, amps.conj()) - np.outer(vec, vec.conj()))) < 1e-10


class TestMinkowskiEvolution:
    def test_eigenprojector_is_stationary(self, monkeypatch):
        assert_eigenvector_is_stationary(monkeypatch, MINKOWSKI)

    def test_grid_mismatch_rejected(self):
        psi = gaussian_wavepacket(offset_grid(12.0, 128), PHYS)
        with pytest.raises(ValueError, match="grid"):
            negativity_trajectory(psi, HARMONIC, [1.0], MINKOWSKI)

    def test_phase_past_float_range_rejected(self):
        # a finite time whose phase max|E| t / hbar overflows on a 16-point trap
        grid = offset_grid(4.0, 16)
        h = hamiltonian(grid, PHYS, harmonic_potential(1.0, PHYS))
        psi = gaussian_wavepacket(grid, PHYS)
        with pytest.raises(ValueError, match="time 1e"):
            negativity_trajectory(psi, h, [0.0, 1e308], MINKOWSKI)


class TestEuclideanEvolution:
    def test_symmetric_projects_onto_ground_state(self, monkeypatch):
        cat = cat_state(GRID, PHYS, 3.0, 1.0, "even")
        pts, seen = captured_trajectory(monkeypatch, cat, HARMONIC, [20.0], EUCLIDEAN)
        assert fidelity(seen[0], ground_state_vector(HARMONIC)) > 1.0 - 1e-6
        assert pts[0].purity == pytest.approx(1.0, abs=1e-10)

    def test_eigenprojector_is_stationary(self, monkeypatch):
        assert_eigenvector_is_stationary(monkeypatch, EUCLIDEAN)

    def test_late_tau_reaches_ground_state(self, monkeypatch):
        # the raw trace e^{-E_0 2 tau} underflows here, but the shifted and
        # renormalized evolution is exact and must not be rejected
        packet = gaussian_wavepacket(GRID, PHYS)
        pts, seen = captured_trajectory(monkeypatch, packet, HARMONIC, [800.0], EUCLIDEAN)
        assert fidelity(seen[0], ground_state_vector(HARMONIC)) > 1.0 - 1e-6
        assert pts[0].purity == pytest.approx(1.0, abs=1e-10)


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
        # every state the trajectory scores must be psi0 propagated by
        # expm(-iHt/hbar) or expm(-H tau/hbar), then normalized
        psi0 = cat_state(GRID, PHYS, 3.0, 1.0, "even").normalized()
        pts, seen = captured_trajectory(monkeypatch, psi0, HARMONIC, taus, regime)
        unit = 1j if regime == MINKOWSKI else 1.0
        for tau, amps, p in zip(taus, seen, pts):
            ref = expm(-unit * HARMONIC.entries * tau / PHYS.hbar) @ psi0.amplitudes
            ref /= np.sqrt(np.sum(np.abs(ref) ** 2) * GRID.dx)
            assert np.max(np.abs(amps - ref)) < 1e-12
            assert p.purity == pytest.approx(1.0, abs=1e-12)

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
        # diagonal H: eigh returns the identity basis, so a state on level 5
        # alone has no ground-state weight and its shifted weight
        # e^{-2 * 5 * 400} underflows to exactly zero
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

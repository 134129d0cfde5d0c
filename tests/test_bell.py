"""Two-qubit correlation scores: CHSH optimization, the entangling gate,
and the imaginary-time decay of the violation.

The coordinate-ascent optimizer is checked against the closed-form maximum
2 sqrt(lambda_1 + lambda_2) from the two largest eigenvalues of T^T T.
"""

import numpy as np
import pytest
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chsh_horodecki, damped_singlet_chsh, singlet_chsh_coplanar
from wickbell.bell import (
    DecayPoint,
    MeasurementSetting,
    TwoQubitState,
    chsh_maximize,
    chsh_value,
    cnot,
    correlation,
    correlation_matrix,
    decay_to_csv,
    euclidean_chsh_decay,
    minkowski_chsh_control,
    singlet,
)
from wickbell.spin_geometry import PAULI, UnitVector

TSIRELSON = 2.0 * np.sqrt(2.0)


def horodecki_of(state) -> float:
    t = correlation_matrix(state)
    lam = np.sort(np.linalg.eigvalsh(t.T @ t))
    return 2.0 * np.sqrt(lam[-1] + lam[-2])


def random_state(rng) -> TwoQubitState:
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoQubitState(raw / np.linalg.norm(raw))


def random_product_state(rng) -> TwoQubitState:
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    return TwoQubitState(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))


def coplanar_setting(theta: float) -> MeasurementSetting:
    return MeasurementSetting.of(np.sin(theta), 0.0, np.cos(theta))


class TestStateTypes:
    def test_singlet_is_antisymmetric(self):
        amps = singlet().amplitudes
        assert amps[0] == 0.0 and amps[3] == 0.0
        assert amps[1] == pytest.approx(-amps[2])
        assert float(np.sum(np.abs(amps) ** 2)) == pytest.approx(1.0, abs=1e-15)

    def test_of_normalizes(self):
        st_ = TwoQubitState.of(1.0, 0.0, 0.0, 1.0)
        assert float(np.sum(np.abs(st_.amplitudes) ** 2)) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_zero_state(self):
        with pytest.raises(ValueError, match="zero"):
            TwoQubitState.of(0.0, 0.0, 0.0, 0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4"):
            TwoQubitState(np.array([1.0, 0.0, 0.0]))

    def test_strided_amplitudes_checked(self):
        amps = np.zeros(8, dtype=complex)
        amps[2], amps[4] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
        assert np.array_equal(TwoQubitState(amps[::2]).amplitudes, singlet().amplitudes)
        amps[6] = np.nan
        with pytest.raises(ValueError, match="finite"):
            TwoQubitState(amps[::2])

    def test_measurement_setting_angles(self):
        theta, phi = MeasurementSetting.of(1.0, 0.0, 0.0).angles
        assert theta == pytest.approx(np.pi / 2.0)
        assert phi == pytest.approx(0.0)
        theta_z, _ = MeasurementSetting.of(0.0, 0.0, 1.0).angles
        assert theta_z == pytest.approx(0.0)


class TestCorrelations:
    def test_singlet_tensor_is_minus_identity(self):
        t = correlation_matrix(singlet())
        assert np.max(np.abs(t + np.eye(3))) < 1e-12

    def test_singlet_same_axis_anticorrelated(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            raw = rng.normal(size=3)
            u = MeasurementSetting(UnitVector.of(*raw))
            assert correlation(singlet(), u, u) == pytest.approx(-1.0, abs=1e-10)

    def test_singlet_orthogonal_axes_uncorrelated(self):
        a = MeasurementSetting.of(0.0, 0.0, 1.0)
        b = MeasurementSetting.of(1.0, 0.0, 0.0)
        assert correlation(singlet(), a, b) == pytest.approx(0.0, abs=1e-12)

    def test_parallel_spins(self):
        up_up = TwoQubitState.of(1.0, 0.0, 0.0, 0.0)
        z = MeasurementSetting.of(0.0, 0.0, 1.0)
        assert correlation(up_up, z, z) == pytest.approx(1.0, abs=1e-12)

    def test_density_input_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            correlation_matrix(np.diag([1.0, 0.0, 0.0, 0.0]) + 0.1j * np.eye(4))
        with pytest.raises(ValueError, match="trace"):
            correlation_matrix(np.eye(4))
        with pytest.raises(ValueError, match="4x4"):
            correlation_matrix(np.eye(3) / 3.0)

    def test_maximally_mixed_has_no_correlations(self):
        t = correlation_matrix(np.eye(4) / 4.0)
        assert np.max(np.abs(t)) < 1e-14


class TestChshValue:
    def test_coplanar_singlet_settings(self):
        # analyzers in the x-z plane at the standard eighth-turn offsets
        a, a_alt = coplanar_setting(0.0), coplanar_setting(np.pi / 2.0)
        b, b_alt = coplanar_setting(np.pi / 4.0), coplanar_setting(3.0 * np.pi / 4.0)
        s = chsh_value(singlet(), a, a_alt, b, b_alt)
        assert s == pytest.approx(-TSIRELSON, abs=1e-12)
        assert s == pytest.approx(
            singlet_chsh_coplanar(0.0, np.pi / 2.0, np.pi / 4.0, 3.0 * np.pi / 4.0),
            abs=1e-12,
        )

    def test_degenerate_settings_collapse(self):
        a, a_alt = coplanar_setting(0.3), coplanar_setting(1.2)
        b = coplanar_setting(0.8)
        s = chsh_value(singlet(), a, a_alt, b, b)
        assert s == pytest.approx(2.0 * correlation(singlet(), a_alt, b), abs=1e-12)


class TestChshMaximize:
    def test_singlet_reaches_tsirelson(self):
        settings_out, s = chsh_maximize(singlet())
        assert abs(s) >= TSIRELSON - 1e-6
        assert len(settings_out) == 4

    def test_deterministic_for_fixed_seed(self):
        st1, s1 = chsh_maximize(singlet(), restarts=8, seed=5)
        st2, s2 = chsh_maximize(singlet(), restarts=8, seed=5)
        assert s1 == s2
        for u, v in zip(st1, st2):
            assert u.direction == v.direction

    def test_matches_closed_form_on_random_states(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            state = random_state(rng)
            _, s = chsh_maximize(state, restarts=16, seed=0)
            assert abs(s) == pytest.approx(chsh_horodecki(state.amplitudes), abs=1e-9)

    def test_product_states_never_violate(self):
        # closed-form sweep over 10^4 product states; the classical bound
        # holds with no entanglement to spend
        rng = np.random.default_rng(67)
        worst = 0.0
        for _ in range(10_000):
            worst = max(worst, horodecki_of(random_product_state(rng)))
        assert worst <= 2.0 + 1e-9

    def test_product_state_optimizer_bound(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            _, s = chsh_maximize(random_product_state(rng), restarts=4, seed=1)
            assert abs(s) <= 2.0 + 1e-6

    def test_up_up_reaches_classical_bound(self):
        _, s = chsh_maximize(TwoQubitState.of(1.0, 0.0, 0.0, 0.0))
        assert abs(s) == pytest.approx(2.0, abs=1e-6)

    def test_maximally_mixed_scores_zero(self):
        _, s = chsh_maximize(np.eye(4) / 4.0)
        assert abs(s) < 1e-6

    def test_restart_validation(self):
        with pytest.raises(ValueError, match="restarts"):
            chsh_maximize(singlet(), restarts=0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8))
    def test_quantum_bound(self, data):
        raw = np.array(data[:4]) + 1j * np.array(data[4:])
        if np.linalg.norm(raw) < 1e-3:
            raw = raw + np.array([1.0, 0.0, 0.0, 0.0])
        state = TwoQubitState(raw / np.linalg.norm(raw))
        assert horodecki_of(state) <= TSIRELSON + 1e-9


class TestCnotGate:
    def test_basis_action(self):
        uu = TwoQubitState.of(1.0, 0.0, 0.0, 0.0)
        ud = TwoQubitState.of(0.0, 1.0, 0.0, 0.0)
        du = TwoQubitState.of(0.0, 0.0, 1.0, 0.0)
        assert np.array_equal(cnot(uu).amplitudes, ud.amplitudes)
        assert np.array_equal(cnot(ud).amplitudes, uu.amplitudes)
        assert np.array_equal(cnot(du).amplitudes, du.amplitudes)

    def test_superposed_control_entangles(self):
        # (|up> + |down>) |down> / sqrt(2) -> maximally entangled pair
        before = TwoQubitState.of(0.0, 1.0, 0.0, 1.0)
        after = cnot(before)
        expected = TwoQubitState.of(1.0, 0.0, 0.0, 1.0)
        assert np.max(np.abs(after.amplitudes - expected.amplitudes)) < 1e-15
        _, s = chsh_maximize(after)
        assert abs(s) == pytest.approx(TSIRELSON, abs=1e-6)

    def test_involution(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            state = random_state(rng)
            back = cnot(cnot(state))
            assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


class TestLocalUnitaries:
    def test_invariance_of_maximal_score(self):
        # local rotations cannot change the optimized CHSH value
        rng = np.random.default_rng(79)
        state = random_state(rng)
        _, s0 = chsh_maximize(state, restarts=16, seed=0)

        def rotation():
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0, np.pi)
            return expm(-0.5j * angle * sum(c * p for c, p in zip(axis, PAULI)))

        for _ in range(5):
            u1, u2 = rotation(), rotation()
            rotated = TwoQubitState(np.kron(u1, u2) @ state.amplitudes)
            _, s = chsh_maximize(rotated, restarts=16, seed=0)
            assert abs(s) == pytest.approx(abs(s0), abs=1e-6)


class TestDecay:
    H_LEVELS = [0.0, 1.0, 2.0, 3.0]

    def test_matches_closed_form(self):
        # the damped singlet has S* = 2 sqrt(1 + sech^2 tau) in closed form
        taus = np.linspace(0.0, 8.0, 33)
        pts = euclidean_chsh_decay(singlet(), self.H_LEVELS, taus)
        for p in pts:
            assert p.chsh_max == pytest.approx(damped_singlet_chsh(p.tau), abs=1e-7)

    def test_decays_from_tsirelson_to_classical_bound(self):
        taus = np.linspace(0.0, 8.0, 33)
        pts = euclidean_chsh_decay(singlet(), self.H_LEVELS, taus)
        vals = np.array([p.chsh_max for p in pts])
        assert vals[0] == pytest.approx(TSIRELSON, abs=1e-9)
        assert np.all(np.diff(vals) <= 1e-9)
        assert abs(vals[-1] - 2.0) < 1e-4
        fids = np.array([p.fidelity_to_initial for p in pts])
        assert np.all(np.diff(fids) <= 1e-9)
        assert fids[-1] == pytest.approx(0.5, abs=1e-2)

    def test_degenerate_support_is_stationary(self):
        # a state supported on equal-energy levels only picks up a global
        # factor, which the renormalization removes
        state = TwoQubitState.of(1.0, 1.0, 0.0, 0.0)
        pts = euclidean_chsh_decay(state, [1.0, 1.0, 2.0, 3.0], [0.0, 2.0, 4.0])
        assert all(p.fidelity_to_initial == pytest.approx(1.0, abs=1e-12) for p in pts)
        assert max(p.chsh_max for p in pts) - min(p.chsh_max for p in pts) < 1e-12

    def test_minkowski_control_keeps_tsirelson(self):
        pts = minkowski_chsh_control(singlet(), self.H_LEVELS, np.linspace(0.0, 8.0, 17))
        for p in pts:
            assert p.chsh_max == pytest.approx(TSIRELSON, abs=1e-9)

    def test_diagonal_matrix_accepted(self):
        pts = euclidean_chsh_decay(singlet(), np.diag(self.H_LEVELS), [0.0, 1.0])
        assert pts[0].chsh_max == pytest.approx(TSIRELSON, abs=1e-9)

    def test_energy_validation(self):
        off_diag = np.diag([0.0, 1.0, 2.0, 3.0]).astype(float)
        off_diag[0, 1] = 0.5
        with pytest.raises(ValueError, match="diagonal"):
            euclidean_chsh_decay(singlet(), off_diag, [0.0, 1.0])
        with pytest.raises(ValueError, match="4 level"):
            euclidean_chsh_decay(singlet(), [0.0, 1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            euclidean_chsh_decay(singlet(), [0.0, 1.0, 2.0, np.nan], [0.0, 1.0])

    def test_tau_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            euclidean_chsh_decay(singlet(), self.H_LEVELS, [])
        with pytest.raises(ValueError, match=">= 0"):
            euclidean_chsh_decay(singlet(), self.H_LEVELS, [-1.0, 0.0])
        with pytest.raises(ValueError, match="increasing"):
            minkowski_chsh_control(singlet(), self.H_LEVELS, [0.0, 0.0])

    def test_csv_header(self, tmp_path):
        from wickbell.csvio import read_csv

        path = tmp_path / "decay.csv"
        decay_to_csv(
            [DecayPoint(0.0, TSIRELSON, 1.0), DecayPoint(1.0, 2.5, 0.8)], path
        )
        rows = read_csv(path, ("tau", "chsh_max", "fidelity_to_initial"))
        assert len(rows) == 2
        assert float(rows[1][1]) == pytest.approx(2.5)

"""Two-qubit correlation scores: the CHSH maximum, the entangling gate,
and the imaginary-time decay of the violation.

The closed-form maximum is checked against the eigenvalues of T^T T, the
concurrence of pure states, and a seeded coordinate ascent over settings.
"""

import numpy as np
import pytest
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    chsh_ascent,
    chsh_concurrence,
    chsh_horodecki,
    correlation_tensor,
    damped_singlet_chsh,
    read_csv,
    singlet_chsh_coplanar,
)
from wickbell.bell import (
    DecayPoint,
    TwoQubitState,
    chsh_maximize,
    cnot,
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


def coplanar_setting(theta: float) -> np.ndarray:
    return np.array([np.sin(theta), 0.0, np.cos(theta)])


def chsh_of(t: np.ndarray, a, a_alt, b, b_alt) -> float:
    """S = E(a, b) - E(a, b') + E(a', b) + E(a', b') with E(u, v) = u.T v."""
    return a @ t @ (b - b_alt) + a_alt @ t @ (b + b_alt)


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


class TestCorrelations:
    def test_singlet_tensor_is_minus_identity(self):
        t = correlation_matrix(singlet())
        assert np.max(np.abs(t + np.eye(3))) < 1e-12

    def test_singlet_same_axis_anticorrelated(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = UnitVector.of(*rng.normal(size=3)).array
            assert u @ correlation_matrix(singlet()) @ u == pytest.approx(-1.0, abs=1e-10)

    def test_singlet_orthogonal_axes_uncorrelated(self):
        z, x = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
        assert z @ correlation_matrix(singlet()) @ x == pytest.approx(0.0, abs=1e-12)

    def test_parallel_spins(self):
        up_up = TwoQubitState.of(1.0, 0.0, 0.0, 0.0)
        assert correlation_matrix(up_up)[2, 2] == pytest.approx(1.0, abs=1e-12)

    def test_matches_pauli_trace_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            state = TwoQubitState.of(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
            got = correlation_matrix(state)
            assert np.max(np.abs(got - correlation_tensor(state.amplitudes))) < 1e-13

    def test_pure_state_tensor_is_never_zero(self):
        # ||T||_F^2 = 1 + 2 C^2 with concurrence C = 2 |ad - bc|: a pure
        # state always carries correlations, at least those of a product state
        rng = np.random.default_rng(31)
        for _ in range(50):
            state = TwoQubitState.of(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
            a, b, c, d = state.amplitudes
            concurrence = 2.0 * abs(a * d - b * c)
            norm2 = float(np.sum(correlation_matrix(state) ** 2))
            assert norm2 == pytest.approx(1.0 + 2.0 * concurrence**2, abs=1e-12)


class TestChshValue:
    def test_coplanar_singlet_settings(self):
        # analyzers in the x-z plane at the standard eighth-turn offsets
        a, a_alt = coplanar_setting(0.0), coplanar_setting(np.pi / 2.0)
        b, b_alt = coplanar_setting(np.pi / 4.0), coplanar_setting(3.0 * np.pi / 4.0)
        s = chsh_of(correlation_matrix(singlet()), a, a_alt, b, b_alt)
        assert s == pytest.approx(-TSIRELSON, abs=1e-12)
        assert s == pytest.approx(
            singlet_chsh_coplanar(0.0, np.pi / 2.0, np.pi / 4.0, 3.0 * np.pi / 4.0),
            abs=1e-12,
        )


class TestChshMaximize:
    def test_singlet_reaches_tsirelson(self):
        settings_out, s = chsh_maximize(singlet())
        assert s == pytest.approx(TSIRELSON, abs=1e-14)
        assert len(settings_out) == 4

    def test_deterministic(self):
        st1, s1 = chsh_maximize(singlet())
        st2, s2 = chsh_maximize(singlet())
        assert s1 == s2
        assert st1 == st2

    def test_matches_closed_form_on_random_states(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            state = random_state(rng)
            _, s = chsh_maximize(state)
            assert s == pytest.approx(chsh_horodecki(state.amplitudes), abs=1e-12)

    def test_matches_concurrence_on_random_pure_states(self):
        # S = 2 sqrt(1 + C^2) for every pure state; among these states one
        # has singular values (1, 0.99872, 0.99872), where a coordinate
        # ascent over settings stops up to 7e-6 short
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(3000):
            state = random_state(rng)
            worst = max(worst, abs(chsh_maximize(state)[1] - chsh_concurrence(state.amplitudes)))
        assert worst <= 1e-12

    def test_ascent_never_beats_closed_form(self):
        # the ascent scores S at unit settings, so it cannot pass the maximum
        rng = np.random.default_rng(79)
        for seed in range(20):
            state = random_state(rng)
            _, s = chsh_maximize(state)
            ascent = chsh_ascent(correlation_tensor(state.amplitudes), restarts=16, seed=seed)
            assert s - 1e-4 <= ascent <= s + 1e-14

    def test_product_states_never_violate(self):
        # closed-form sweep over 10^4 product states; the classical bound
        # holds with no entanglement to spend
        rng = np.random.default_rng(67)
        worst = 0.0
        for _ in range(10_000):
            worst = max(worst, horodecki_of(random_product_state(rng)))
        assert worst <= 2.0 + 1e-9

    def test_product_states_score_two(self):
        # a pure product state has a rank-one tensor with singular value 1;
        # S scales with the norm^2 of the stored amplitudes, which is off 1
        # by up to 4 eps here, and the tensor and its SVD round too
        rng = np.random.default_rng(71)
        for _ in range(1000):
            _, s = chsh_maximize(random_product_state(rng))
            assert abs(s - 2.0) <= 20 * np.finfo(float).eps

    def test_up_up_reaches_classical_bound(self):
        _, s = chsh_maximize(TwoQubitState.of(1.0, 0.0, 0.0, 0.0))
        assert s == 2.0

    def test_returned_settings_reproduce_value(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            state = random_state(rng)
            settings_out, s = chsh_maximize(state)
            t = correlation_tensor(state.amplitudes)
            assert chsh_of(t, *(u.array for u in settings_out)) == pytest.approx(s, abs=1e-12)

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
        assert s == pytest.approx(TSIRELSON, abs=1e-14)

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
        _, s0 = chsh_maximize(state)

        def rotation():
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0, np.pi)
            return expm(-0.5j * angle * sum(c * p for c, p in zip(axis, PAULI)))

        for _ in range(5):
            u1, u2 = rotation(), rotation()
            rotated = TwoQubitState(np.kron(u1, u2) @ state.amplitudes)
            _, s = chsh_maximize(rotated)
            assert s == pytest.approx(s0, abs=1e-12)


class TestDecay:
    H_LEVELS = [0.0, 1.0, 2.0, 3.0]

    def test_matches_closed_form(self):
        # the damped singlet has S* = 2 sqrt(1 + sech^2 tau) in closed form
        taus = np.linspace(0.0, 8.0, 33)
        pts = euclidean_chsh_decay(singlet(), self.H_LEVELS, taus)
        for p in pts:
            assert p.chsh_max == pytest.approx(damped_singlet_chsh(p.tau), abs=1e-14)

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

    def test_energy_validation(self):
        with pytest.raises(ValueError, match="4 level"):
            euclidean_chsh_decay(singlet(), [0.0, 1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="4 level"):
            euclidean_chsh_decay(singlet(), np.diag(self.H_LEVELS), [0.0, 1.0])
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
        path = tmp_path / "decay.csv"
        decay_to_csv(
            [DecayPoint(0.0, TSIRELSON, 1.0), DecayPoint(1.0, 2.5, 0.8)], path
        )
        rows = read_csv(path, ("tau", "chsh_max", "fidelity_to_initial"))
        assert len(rows) == 2
        assert float(rows[1][1]) == pytest.approx(2.5)

"""Spin-coherent states, triangle areas, geodesic loops and their phases.

Cross-checks run three independent routes against each other: matrix
exponentials for the states, the half-side (l'Huilier) formula for areas,
and the discrete loop product for accumulated phases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import latitude_solid_angle, lhuilier_area, spinor_by_expm
from wickbell.spin_geometry import (
    PLUS_X,
    PLUS_Y,
    PLUS_Z,
    SphericalPath,
    SpinorState,
    UnitVector,
    canonical_spinor,
    coherent_overlap,
    coherent_state,
    equator_loop,
    free_spin_kernel_pair,
    latitude_loop,
    octant_loop,
    path_loop_product,
    phases_to_csv,
    spherical_triangle_area,
    wz_phase_closed_path,
)

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def random_unit_vectors(rng, count):
    raw = rng.normal(size=(count, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return [UnitVector.of(*row) for row in raw]


class TestUnitVector:
    def test_of_normalizes(self):
        v = UnitVector.of(3.0, 0.0, 4.0)
        assert v.n_x == pytest.approx(0.6)
        assert v.n_z == pytest.approx(0.8)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            UnitVector.of(0.0, 0.0, 0.0)

    def test_rejects_non_unit_components(self):
        with pytest.raises(ValueError, match="norm"):
            UnitVector(1.0, 1.0, 0.0)

    def test_from_spherical(self):
        v = UnitVector.from_spherical(np.pi / 2.0, np.pi / 2.0)
        assert v.dot(PLUS_Y) == pytest.approx(1.0, abs=1e-15)


class TestSpinorState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            SpinorState(1.0 + 0.0j, 1.0 + 0.0j)

    def test_canonical_chart_at_poles(self):
        up = canonical_spinor(PLUS_Z)
        assert abs(up.up - 1.0) < 1e-15 and abs(up.down) < 1e-15
        down = canonical_spinor(UnitVector(0.0, 0.0, -1.0))
        assert abs(down.up) < 1e-12 and abs(abs(down.down) - 1.0) < 1e-12

    def test_plus_x_state(self):
        st_x = coherent_state(PLUS_X)
        assert st_x.up == pytest.approx(np.cos(np.pi / 4.0), abs=1e-14)
        assert st_x.down == pytest.approx(np.sin(np.pi / 4.0), abs=1e-14)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(11)
        for n in random_unit_vectors(rng, 25):
            got = coherent_state(n).vector
            ref = spinor_by_expm(n.array, np.array([0.0, 0.0, 1.0]))
            # fix the overall phase before comparing
            k = int(np.argmax(np.abs(ref)))
            got_fixed = got * np.exp(-1j * np.angle(got[k]))
            ref_fixed = ref * np.exp(-1j * np.angle(ref[k]))
            assert np.max(np.abs(got_fixed - ref_fixed)) < 1e-12

    def test_eigenvector_property(self):
        rng = np.random.default_rng(7)
        for n in random_unit_vectors(rng, 25):
            sigma_n = n.n_x * _PAULI[0] + n.n_y * _PAULI[1] + n.n_z * _PAULI[2]
            vec = coherent_state(n).vector
            assert np.max(np.abs(sigma_n @ vec - vec)) < 1e-13

    def test_antipode_of_reference_is_orthogonal(self):
        minus_z = UnitVector(0.0, 0.0, -1.0)
        s = coherent_state(minus_z, PLUS_Z)
        assert abs(s.up) < 1e-14
        s2 = coherent_state(UnitVector(-1.0, 0.0, 0.0), PLUS_X)
        assert abs(coherent_state(PLUS_X, PLUS_X).overlap_with(s2)) < 1e-14


class TestTriangleArea:
    def test_octant(self):
        assert spherical_triangle_area(PLUS_X, PLUS_Y, PLUS_Z) == pytest.approx(
            np.pi / 2.0, abs=1e-14
        )

    def test_matches_half_side_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            v1, v2, v3 = random_unit_vectors(rng, 3)
            got = spherical_triangle_area(v1, v2, v3)
            ref = lhuilier_area(v1.array, v2.array, v3.array)
            assert got == pytest.approx(ref, abs=1e-10)

    def test_odd_permutation_flips_sign(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            v1, v2, v3 = random_unit_vectors(rng, 3)
            a = spherical_triangle_area(v1, v2, v3)
            b = spherical_triangle_area(v2, v1, v3)
            assert b == pytest.approx(-a, abs=1e-13)

    def test_degenerate_triangle_is_flat(self):
        assert spherical_triangle_area(PLUS_X, PLUS_X, PLUS_Z) == pytest.approx(
            0.0, abs=1e-15
        )
        on_meridian = UnitVector.from_spherical(0.7, 0.0)
        other = UnitVector.from_spherical(1.9, 0.0)
        assert spherical_triangle_area(PLUS_Z, on_meridian, other) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_antipodal_pair_rejected(self):
        with pytest.raises(ValueError, match="antipodal"):
            spherical_triangle_area(PLUS_X, UnitVector(-1.0, 0.0, 0.0), PLUS_Z)


class TestCoherentOverlap:
    def test_identical_endpoints(self):
        assert coherent_overlap(PLUS_Y, PLUS_Y) == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_antipodal_endpoints_vanish(self):
        val = coherent_overlap(PLUS_X, UnitVector(-1.0, 0.0, 0.0))
        assert val == 0.0 + 0.0j

    def test_octant_transition_phase(self):
        # <+x|+y> around the +z gauge picks up an eighth turn
        got = coherent_overlap(PLUS_Y, PLUS_X, PLUS_Z)
        expected = np.exp(0.25j * np.pi) / np.sqrt(2.0)
        assert got == pytest.approx(expected, abs=1e-14)

    def test_matches_spinor_inner_product(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            n_i, n_f = random_unit_vectors(rng, 2)
            got = coherent_overlap(n_i, n_f)
            ref = coherent_state(n_f).overlap_with(coherent_state(n_i))
            assert got == pytest.approx(ref, abs=1e-10)

    def test_modulus_is_half_angle_cosine(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n_i, n_f = random_unit_vectors(rng, 2)
            val = abs(coherent_overlap(n_i, n_f))
            assert val <= 1.0 + 1e-14
            assert val == pytest.approx(
                np.sqrt(0.5 * (1.0 + n_i.dot(n_f))), abs=1e-13
            )

    def test_real_positive_on_shared_meridian(self):
        # endpoints on the gauge meridian enclose no area with the reference
        a = UnitVector.from_spherical(0.4, 1.1)
        b = UnitVector.from_spherical(1.3, 1.1)
        n0 = UnitVector.from_spherical(2.0, 1.1)
        val = coherent_overlap(a, b, n0)
        assert val.imag == pytest.approx(0.0, abs=1e-14)
        assert val.real > 0.0

    def test_regime_independence(self):
        # the path-weight term is first order in the time derivative, so the
        # two time contours give literally equal amplitudes
        rng = np.random.default_rng(47)
        for _ in range(50):
            n_i, n_f = random_unit_vectors(rng, 2)
            k_real, k_imag = free_spin_kernel_pair(n_i, n_f)
            assert k_real == k_imag
            assert k_real == coherent_overlap(n_i, n_f)


class TestSphericalPath:
    def test_closed_needs_three_vertices(self):
        with pytest.raises(ValueError, match="3"):
            SphericalPath((PLUS_X, PLUS_Y), closed=True)

    def test_open_needs_two_vertices(self):
        with pytest.raises(ValueError, match="2"):
            SphericalPath((PLUS_X,), closed=False)

    def test_rejects_non_unitvector_entries(self):
        with pytest.raises(TypeError, match="UnitVector"):
            SphericalPath((PLUS_X, (0.0, 1.0, 0.0), PLUS_Z), closed=True)

    def test_rejects_antipodal_consecutive_vertices(self):
        with pytest.raises(ValueError, match="antipodal"):
            SphericalPath(
                (PLUS_X, UnitVector(-1.0, 0.0, 0.0), PLUS_Z), closed=True
            )

    def test_closed_edges_wrap(self):
        path = octant_loop()
        edges = list(path.edges())
        assert len(edges) == 3
        assert edges[-1] == (PLUS_Z, PLUS_X)


class TestLoopPhases:
    def test_equator_is_exactly_geodesic(self):
        # every fan triangle from +z to an equatorial chord has the same
        # area contribution, so even the coarse loop sums to pi exactly
        assert wz_phase_closed_path(equator_loop(256)) == pytest.approx(
            np.pi, abs=1e-6
        )
        assert wz_phase_closed_path(equator_loop(7)) == pytest.approx(np.pi, abs=1e-12)

    def test_octant(self):
        assert wz_phase_closed_path(octant_loop()) == pytest.approx(
            np.pi / 4.0, abs=1e-12
        )

    def test_latitude_cap_refinement(self):
        # inscribed polygons underestimate the cap; error drops ~ 1/N^2
        theta = np.pi / 3.0
        target = latitude_solid_angle(theta)
        errs = [
            abs(2.0 * wz_phase_closed_path(latitude_loop(theta, n)) - target)
            for n in (16, 32, 64)
        ]
        assert errs[1] < errs[0] / 3.0
        assert errs[2] < errs[1] / 3.0

    def test_reversed_loop_negates_phase(self):
        path = latitude_loop(1.1, 17)
        fwd = wz_phase_closed_path(path)
        rev = SphericalPath(path.vertices[::-1], closed=True)
        assert wz_phase_closed_path(rev) == pytest.approx(-fwd, abs=1e-13)

    def test_loop_product_matches_wz_phase(self):
        for path in (octant_loop(), latitude_loop(0.9, 24), equator_loop(12)):
            prod = path_loop_product(path)
            wz = wz_phase_closed_path(path)
            # compare on the unit circle to dodge the +-pi branch cut
            assert prod / abs(prod) == pytest.approx(np.exp(1j * wz), abs=1e-8)

    def test_gauge_invariance(self):
        # both the loop product and the accumulated phase (mod 2 pi) are
        # independent of the reference direction
        rng = np.random.default_rng(53)
        path = latitude_loop(0.8, 20)
        base_prod = path_loop_product(path, PLUS_Z)
        base_phase = np.exp(1j * wz_phase_closed_path(path, PLUS_Z))
        for n0 in random_unit_vectors(rng, 10):
            assert path_loop_product(path, n0) == pytest.approx(base_prod, abs=1e-10)
            assert np.exp(1j * wz_phase_closed_path(path, n0)) == pytest.approx(
                base_phase, abs=1e-10
            )

    def test_additivity_under_splitting(self):
        # cutting a cap loop along a meridian pair splits the solid angle
        theta, n = 0.9, 16
        whole = latitude_loop(theta, n)
        verts = whole.vertices
        half1 = SphericalPath(verts[: n // 2 + 1] + (PLUS_Z,), closed=True)
        half2 = SphericalPath(verts[n // 2 :] + (verts[0], PLUS_Z), closed=True)
        total = wz_phase_closed_path(half1) + wz_phase_closed_path(half2)
        assert total == pytest.approx(wz_phase_closed_path(whole), abs=1e-12)

    def test_open_path_rejected(self):
        path = SphericalPath((PLUS_X, PLUS_Y, PLUS_Z), closed=False)
        with pytest.raises(ValueError, match="closed"):
            path_loop_product(path)
        with pytest.raises(ValueError, match="closed"):
            wz_phase_closed_path(path)

    @settings(max_examples=30, deadline=None)
    @given(
        theta=st.floats(min_value=0.2, max_value=2.9),
        n=st.integers(min_value=8, max_value=40),
    )
    def test_latitude_phase_bounded_by_cap(self, theta, n):
        # geodesic chords between same-latitude points bow poleward, so the
        # inscribed polygon under-covers a northern cap and over-covers a
        # southern one; either way the phase stays inside (0, 2 pi)
        wz = wz_phase_closed_path(latitude_loop(theta, n))
        half_cap = 0.5 * latitude_solid_angle(theta)
        assert 0.0 < wz < 2.0 * np.pi
        if theta <= np.pi / 2.0:
            assert wz <= half_cap + 1e-12
        else:
            assert wz >= half_cap - 1e-12


class TestCsv:
    def test_phases_header(self, tmp_path):
        from wickbell.csvio import read_csv

        file = tmp_path / "phases.csv"
        phases_to_csv([("octant", np.pi / 2.0, np.pi / 4.0)], file)
        rows = read_csv(file, ("loop_id", "solid_angle", "wz_phase"))
        assert rows[0][0] == "octant"
        assert float(rows[0][2]) == pytest.approx(np.pi / 4.0)

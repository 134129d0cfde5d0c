"""Spin-1/2 coherent states on the sphere and geometric phases of loops.

Conventions, fixed once and used by every operation here:

* canonical chart: the state at polar angle theta, azimuth phi is
  (cos(theta/2), e^{i phi} sin(theta/2));
* signed areas come from the Van Oosterom-Strackee form in _fan_areas,
  positive for counterclockwise triangles seen from outside the sphere;
* overlaps obey <n_f|n_i> = exp(-i Area(n_i, n_f, n0)/2) sqrt((1+n_i.n_f)/2),
  e.g. <+y|+x> = e^{-i pi/4}/sqrt(2) in the +z gauge;
* a closed loop's sequential product is the identity-insertion chain
  <v_0|v_1><v_1|v_2>...<v_{N-1}|v_0>, whose accumulated phase equals the
  fan value (half the enclosed signed solid angle) returned by
  wz_phase_closed_path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)


@dataclass(frozen=True)
class UnitVector:
    n_x: float
    n_y: float
    n_z: float

    def __post_init__(self):
        norm = np.sqrt(self.n_x**2 + self.n_y**2 + self.n_z**2)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-12:
            raise ValueError(f"components have norm {norm!r}, expected 1")

    @classmethod
    def of(cls, x: float, y: float, z: float) -> "UnitVector":
        """Normalize raw components (rejects the zero vector)."""
        norm = np.sqrt(x * x + y * y + z * z)
        if not (norm > 0.0) or not np.isfinite(norm):
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(x / norm, y / norm, z / norm)

    @property
    def array(self) -> np.ndarray:
        return np.array([self.n_x, self.n_y, self.n_z])

PLUS_Z = UnitVector(0.0, 0.0, 1.0)
PLUS_X = UnitVector(1.0, 0.0, 0.0)
PLUS_Y = UnitVector(0.0, 1.0, 0.0)


@dataclass(frozen=True)
class SpinorState:
    up: complex
    down: complex

    def __post_init__(self):
        norm = abs(self.up) ** 2 + abs(self.down) ** 2
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-12:
            raise ValueError(f"spinor norm^2 is {norm!r}, expected 1")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.up, self.down], dtype=np.complex128)

    def overlap_with(self, other: "SpinorState") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.vector, other.vector))


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products of the last axes, broadcast over the leading ones."""
    return np.einsum("...i,...i->...", u, v)


def _fan_areas(r: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Signed areas of the geodesic triangles (r, a, b), row by row:
    2 atan2(r.(a x b), 1 + r.a + a.b + b.r) (Van Oosterom and Strackee,
    IEEE Trans. Biomed. Eng. 30, 125 (1983)). A flat triangle gives +-0; a
    triangle with an antipodal vertex pair is rejected."""
    # r.(a x b) from column views: np.cross would copy both inputs
    (rx, ry, rz), (ax, ay, az), (bx, by, bz) = (np.moveaxis(v, -1, 0) for v in (r, a, b))
    triple = rx * (ay * bz - az * by) + ry * (az * bx - ax * bz) + rz * (ax * by - ay * bx)
    ra, ab, br = _rowdot(r, a), _rowdot(a, b), _rowdot(b, r)
    if np.any(np.minimum(np.minimum(ra, ab), br) <= -1.0 + 1e-12):
        raise ValueError("triangle has an antipodal vertex pair; area is ambiguous")
    return 2.0 * np.arctan2(triple, 1.0 + ra + ab + br)


@dataclass(frozen=True, eq=False)
class SphericalPath:
    """Closed loop on the sphere: a read-only float64 (N, 3) array of unit
    vertices, N >= 3, whose last edge wraps to the first vertex. A closing
    vertex that repeats the first is dropped."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.array(self.vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError(f"path vertices must form an (N, 3) array, got shape {verts.shape}")
        if len(verts) > 1 and np.array_equal(verts[0], verts[-1]):
            verts = verts[:-1]
        if len(verts) < 3:
            raise ValueError(f"closed path needs >= 3 vertices, got {len(verts)}")
        if not np.all(np.abs(np.sqrt(_rowdot(verts, verts)) - 1.0) <= 1e-12):
            raise ValueError("path vertices must have norm 1 within 1e-12")
        if np.any(_rowdot(verts, np.roll(verts, -1, axis=0)) <= -1.0 + 1e-12):
            raise ValueError("consecutive path vertices are antipodal; their geodesic is not unique")
        verts.flags.writeable = False
        object.__setattr__(self, "vertices", verts)


def coherent_state(n: UnitVector) -> SpinorState:
    """Chart value (cos(theta/2), e^{i phi} sin(theta/2)) at n."""
    theta = np.arccos(np.clip(n.n_z, -1.0, 1.0))
    phi = np.arctan2(n.n_y, n.n_x)
    return SpinorState(complex(np.cos(theta / 2.0)), np.exp(1j * phi) * np.sin(theta / 2.0))


def spherical_triangle_area(n1: UnitVector, n2: UnitVector, n3: UnitVector) -> float:
    """Signed spherical excess of the geodesic triangle (n1, n2, n3).

    Positive when the vertex order runs counterclockwise seen from outside.
    Degenerate triangles (a repeated vertex, or all three on one geodesic)
    return 0; an antipodal vertex pair is rejected.
    """
    return float(_fan_areas(n1.array, n2.array, n3.array))


def coherent_overlap(n_i: UnitVector, n_f: UnitVector, n0: UnitVector = PLUS_Z) -> complex:
    """<n_f|n_i> from the triangle-area phase and the half-angle modulus.

    Antipodal endpoints give modulus 0 and, by convention, phase 1.
    """
    cos_gamma = float(n_i.array @ n_f.array)
    if cos_gamma <= -1.0 + 1e-12:
        return 0.0 + 0.0j
    modulus = np.sqrt(0.5 * (1.0 + cos_gamma))
    area = spherical_triangle_area(n_i, n_f, n0)
    return complex(modulus * np.exp(-0.5j * area))


def free_spin_kernel_pair(
    n_i: UnitVector, n_f: UnitVector, n0: UnitVector = PLUS_Z
) -> tuple[complex, complex]:
    """Free-spin transition amplitude in both time regimes.

    The geometric phase term has a single time derivative, so rotating the
    time contour leaves the kernel literally unchanged: both entries come
    from the same overlap and are equal by construction.
    """
    amplitude = coherent_overlap(n_i, n_f, n0)
    return amplitude, amplitude


def path_loop_product(path: SphericalPath, n0: UnitVector = PLUS_Z) -> complex:
    """Identity-insertion chain <v_0|v_1><v_1|v_2>...<v_{N-1}|v_0>: the
    factor <a|b> has modulus sqrt((1 + a.b)/2) and phase half the signed area
    of the fan triangle (n0, a, b)."""
    a = path.vertices
    b = np.roll(a, -1, axis=0)
    moduli = np.sqrt(0.5 * (1.0 + _rowdot(a, b)))
    return complex(np.prod(moduli * np.exp(0.5j * _fan_areas(n0.array, a, b))))


def wz_phase_closed_path(path: SphericalPath, reference: UnitVector = PLUS_Z) -> float:
    """Half the signed solid angle enclosed by a closed path.

    The loop is fanned into geodesic triangles from the gauge reference
    vertex (not from the loop's own first vertex: a great-circle loop
    contains its first vertex's antipode and the fan would degenerate).
    Matches the accumulated phase of path_loop_product for the same loop.
    """
    v = path.vertices
    return 0.5 * float(np.sum(_fan_areas(reference.array, v, np.roll(v, -1, axis=0))))


def _ring(n_segments: int, sin_theta: float, cos_theta: float) -> SphericalPath:
    """n_segments equally spaced counterclockwise vertices at one latitude."""
    if n_segments < 3:
        raise ValueError(f"need >= 3 segments, got {n_segments}")
    phi = 2.0 * np.pi * np.arange(n_segments) / n_segments
    z = np.full(n_segments, cos_theta)
    return SphericalPath(np.column_stack((sin_theta * np.cos(phi), sin_theta * np.sin(phi), z)))


def equator_loop(n_segments: int) -> SphericalPath:
    """Counterclockwise great-circle loop in the x-y plane (seen from +z)."""
    return _ring(n_segments, 1.0, 0.0)


def latitude_loop(theta: float, n_segments: int) -> SphericalPath:
    """Counterclockwise small circle at polar angle theta; encloses the cap
    around +z with solid angle 2 pi (1 - cos theta)."""
    if not (0.0 < theta < np.pi):
        raise ValueError(f"polar angle must lie strictly between 0 and pi, got {theta}")
    return _ring(n_segments, np.sin(theta), np.cos(theta))


def octant_loop() -> SphericalPath:
    return SphericalPath(np.eye(3))


def phases_to_csv(records, path) -> None:
    """records: iterable of (loop_id, solid_angle, wz_phase)."""
    from .csvio import write_csv

    write_csv(path, ("loop_id", "solid_angle", "wz_phase"), records)

"""Spin-1/2 coherent states on the sphere and geometric phases of loops.

Conventions, fixed once and used by every operation here:

* canonical chart: the state at polar angle theta, azimuth phi is
  (cos(theta/2), e^{i phi} sin(theta/2));
* rotation from the reference direction n0 to n uses the axis n0 x n and
  the operator exp(-i theta a.sigma / 2), which reproduces the canonical
  chart exactly when n0 = +z;
* signed areas come from the Van Oosterom-Strackee form
  2 atan2(n1.(n2 x n3), 1 + n1.n2 + n2.n3 + n3.n1), positive for
  counterclockwise triangles seen from outside the sphere;
* overlaps obey <n_f|n_i> = exp(-i Area(n_i, n_f, n0)/2) sqrt((1+n_i.n_f)/2),
  e.g. <+y|+x> = e^{-i pi/4}/sqrt(2) in the +z gauge;
* a closed loop's sequential product is the identity-insertion chain
  <v_0|v_1><v_1|v_2>...<v_{N-1}|v_0>, whose accumulated phase equals the
  fan value (half the enclosed signed solid angle) returned by
  wz_phase_closed_path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
PAULI = (_PAULI_X, _PAULI_Y, _PAULI_Z)


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

    @classmethod
    def from_spherical(cls, theta: float, phi: float) -> "UnitVector":
        st = np.sin(theta)
        return cls.of(st * np.cos(phi), st * np.sin(phi), np.cos(theta))

    @property
    def array(self) -> np.ndarray:
        return np.array([self.n_x, self.n_y, self.n_z])

    def dot(self, other: "UnitVector") -> float:
        return float(self.array @ other.array)

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


@dataclass(frozen=True)
class SphericalPath:
    """Ordered vertices on the sphere; closed paths wrap the last edge."""

    vertices: tuple
    closed: bool = True

    def __post_init__(self):
        verts = tuple(self.vertices)
        minimum = 3 if self.closed else 2
        if len(verts) < minimum:
            raise ValueError(
                f"{'closed' if self.closed else 'open'} path needs >= {minimum} "
                f"vertices, got {len(verts)}"
            )
        if not all(isinstance(v, UnitVector) for v in verts):
            raise TypeError("path vertices must be UnitVector instances")
        for a, b in self.edges_of(verts, self.closed):
            if a.dot(b) <= -1.0 + 1e-12:
                raise ValueError(
                    "consecutive path vertices are antipodal; the connecting "
                    "geodesic is not unique"
                )
        object.__setattr__(self, "vertices", verts)

    @staticmethod
    def edges_of(verts: tuple, closed: bool):
        pairs = list(zip(verts[:-1], verts[1:]))
        if closed and verts[0] != verts[-1]:
            pairs.append((verts[-1], verts[0]))
        return pairs

    def edges(self):
        return self.edges_of(self.vertices, self.closed)

def canonical_spinor(n: UnitVector) -> SpinorState:
    """Chart value (cos(theta/2), e^{i phi} sin(theta/2)) at n."""
    theta = np.arccos(np.clip(n.n_z, -1.0, 1.0))
    phi = np.arctan2(n.n_y, n.n_x)
    return SpinorState(complex(np.cos(theta / 2.0)), np.exp(1j * phi) * np.sin(theta / 2.0))


def coherent_state(n: UnitVector, n0: UnitVector = PLUS_Z) -> SpinorState:
    """Rotate the reference spinor at n0 onto n about the axis n0 x n.

    Antipodal n = -n0 has no preferred axis; the convention here rotates
    about +x (about +y if n0 itself is +-x).
    """
    a0 = n0.array
    a1 = n.array
    cross = np.cross(a0, a1)
    sin_theta = float(np.linalg.norm(cross))
    cos_theta = float(a0 @ a1)
    theta = float(np.arctan2(sin_theta, cos_theta))
    base = canonical_spinor(n0).vector
    if sin_theta < 1e-15:
        if cos_theta > 0.0:
            return SpinorState(complex(base[0]), complex(base[1]))  # n == n0
        # antipode: rotation axis must be perpendicular to n0; convention is
        # +x projected perpendicular, falling back to +y when n0 is along x
        raw = np.array([1.0, 0.0, 0.0])
        if abs(raw @ a0) > 1.0 - 1e-12:
            raw = np.array([0.0, 1.0, 0.0])
        perp = raw - (raw @ a0) * a0
        axis = perp / np.linalg.norm(perp)
    else:
        axis = cross / sin_theta
    sigma_a = axis[0] * _PAULI_X + axis[1] * _PAULI_Y + axis[2] * _PAULI_Z
    rot = np.cos(theta / 2.0) * np.eye(2) - 1j * np.sin(theta / 2.0) * sigma_a
    out = rot @ base
    return SpinorState(complex(out[0]), complex(out[1]))


def spherical_triangle_area(n1: UnitVector, n2: UnitVector, n3: UnitVector) -> float:
    """Signed spherical excess of the geodesic triangle (n1, n2, n3).

    Positive when the vertex order runs counterclockwise seen from outside.
    Degenerate triangles (a repeated vertex, or all three on one geodesic)
    return 0; an antipodal vertex pair is rejected.
    """
    a1, a2, a3 = n1.array, n2.array, n3.array
    for u, v in ((a1, a2), (a2, a3), (a3, a1)):
        if float(u @ v) <= -1.0 + 1e-12:
            raise ValueError("triangle has an antipodal vertex pair; area is ambiguous")
    triple = float(a1 @ np.cross(a2, a3))
    denom = 1.0 + float(a1 @ a2) + float(a2 @ a3) + float(a3 @ a1)
    if triple == 0.0 and denom == 0.0:
        return 0.0
    return 2.0 * float(np.arctan2(triple, denom))


def coherent_overlap(n_i: UnitVector, n_f: UnitVector, n0: UnitVector = PLUS_Z) -> complex:
    """<n_f|n_i> from the triangle-area phase and the half-angle modulus.

    Antipodal endpoints give modulus 0 and, by convention, phase 1.
    """
    cos_gamma = n_i.dot(n_f)
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
    """Identity-insertion chain <v_0|v_1><v_1|v_2>...<v_{N-1}|v_0>."""
    if not path.closed:
        raise ValueError("loop product requires a closed path")
    product = 1.0 + 0.0j
    for a, b in path.edges():
        product *= coherent_overlap(b, a, n0)  # <a|b>: ket is the later vertex
    return product


def wz_phase_closed_path(path: SphericalPath, reference: UnitVector = PLUS_Z) -> float:
    """Half the signed solid angle enclosed by a closed path.

    The loop is fanned into geodesic triangles from the gauge reference
    vertex (not from the loop's own first vertex: a great-circle loop
    contains its first vertex's antipode and the fan would degenerate).
    Matches the accumulated phase of path_loop_product for the same loop.
    """
    if not path.closed:
        raise ValueError("geometric phase needs a closed path")
    total = 0.0
    for a, b in path.edges():
        total += spherical_triangle_area(reference, a, b)
    return 0.5 * total


def equator_loop(n_segments: int) -> SphericalPath:
    """Counterclockwise great-circle loop in the x-y plane (seen from +z)."""
    if n_segments < 3:
        raise ValueError(f"need >= 3 segments, got {n_segments}")
    angles = 2.0 * np.pi * np.arange(n_segments) / n_segments
    verts = tuple(UnitVector.of(np.cos(t), np.sin(t), 0.0) for t in angles)
    return SphericalPath(verts, closed=True)


def latitude_loop(theta: float, n_segments: int) -> SphericalPath:
    """Counterclockwise small circle at polar angle theta; encloses the cap
    around +z with solid angle 2 pi (1 - cos theta)."""
    if n_segments < 3:
        raise ValueError(f"need >= 3 segments, got {n_segments}")
    if not (0.0 < theta < np.pi):
        raise ValueError(f"polar angle must lie strictly between 0 and pi, got {theta}")
    angles = 2.0 * np.pi * np.arange(n_segments) / n_segments
    verts = tuple(UnitVector.from_spherical(theta, t) for t in angles)
    return SphericalPath(verts, closed=True)


def octant_loop() -> SphericalPath:
    return SphericalPath((PLUS_X, PLUS_Y, PLUS_Z), closed=True)


def phases_to_csv(records, path) -> None:
    """records: iterable of (loop_id, solid_angle, wz_phase)."""
    from .csvio import write_csv

    write_csv(path, ("loop_id", "solid_angle", "wz_phase"), records)

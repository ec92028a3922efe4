"""Voxel-grid geometry and 6-DOF rigid world-space transforms.

World coordinates are in millimetres. A grid is described by its voxel
counts, voxel spacing, the world position of the centre of voxel
(0, 0, 0) and a 3x3 direction-cosine matrix whose columns are the world
directions of the voxel axes. The slab-normal (slice) axis is axis 1 (y).

``index_map`` is the one place two grids are related: it composes one
grid's index-to-world map, a rigid transform and the other grid's
world-to-index map into a single 3x4 index-to-index matrix, which
registration, reslicing and resampling all apply to voxel indices.

Rotations are unit quaternions (x, y, z, w), converted by NumPy ports of
scipy 1.17.1's Cython ``Rotation`` with its bits (``math`` for the C
library's scalar functions, but NumPy's ``hypot``); xyz angles follow
Bernardes & Viollet (PLoS ONE 17:e0276302, 2022). No scipy is imported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

_ORTHO_TOL = 1e-6


def _as_tuple3(value, kind=float):
    t = tuple(kind(v) for v in value)
    if len(t) != 3:
        raise InvalidInput(f"expected 3 components, got {len(t)}")
    return t


@dataclass(frozen=True, eq=False)
class AffineGeometry:
    """Regular 3D voxel grid embedded in world space."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    axes: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        object.__setattr__(self, "dims", _as_tuple3(self.dims, int))
        object.__setattr__(self, "spacing", _as_tuple3(self.spacing))
        object.__setattr__(self, "origin", _as_tuple3(self.origin))
        axes = np.array(self.axes, dtype=float)
        axes.flags.writeable = False
        object.__setattr__(self, "axes", axes)
        if any(d < 1 for d in self.dims):
            raise InvalidInput(f"all dims must be >= 1, got {self.dims}")
        if any(not np.isfinite(s) or s <= 0 for s in self.spacing):
            raise InvalidInput(f"all spacings must be > 0, got {self.spacing}")
        if not np.all(np.isfinite(self.origin)):
            raise InvalidInput(f"origin must be finite, got {self.origin}")
        if axes.shape != (3, 3) or not np.all(np.isfinite(axes)):
            raise InvalidInput("axes must be a finite 3x3 matrix")
        if not np.allclose(axes.T @ axes, np.eye(3), atol=_ORTHO_TOL):
            raise InvalidInput("axes columns must be unit-length and orthogonal")

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.dims))

    def index_to_world(self, indices) -> np.ndarray:
        """Map (N, 3) voxel indices (may be fractional) to world mm."""
        idx = np.atleast_2d(np.asarray(indices, dtype=float))
        return idx * np.asarray(self.spacing) @ self.axes.T + np.asarray(self.origin)

    def world_to_index(self, points) -> np.ndarray:
        """Map (N, 3) world-mm points to fractional voxel indices."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - np.asarray(self.origin)) @ self.axes / np.asarray(self.spacing)

    def world_center(self) -> np.ndarray:
        return self.index_to_world([(d - 1) / 2.0 for d in self.dims])[0]

    def same_grid(self, other: "AffineGeometry", tol: float = 1e-9) -> bool:
        return (
            self.dims == other.dims
            and np.allclose(self.spacing, other.spacing, atol=tol)
            and np.allclose(self.origin, other.origin, atol=tol)
            and np.allclose(self.axes, other.axes, atol=tol)
        )

    def with_spacing(self, spacing) -> "AffineGeometry":
        """The grid over the same extent at ``spacing``: n * s / s' voxels per
        axis, exact halves rounded up, same origin and axes."""
        dims = tuple(int(np.floor(n * s / t + 0.5))
                     for n, s, t in zip(self.dims, self.spacing, spacing))
        return AffineGeometry(dims, spacing, self.origin, self.axes)


def _quat_product(p, q) -> tuple:
    """The rotation ``q`` then ``p``."""
    x, y, z = p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]
    return (p[3] * q[0] + q[3] * p[0] + x, p[3] * q[1] + q[3] * p[1] + y,
            p[3] * q[2] + q[3] * p[2] + z, p[3] * q[3] - p[0] * q[0] - p[1] * q[1] - p[2] * q[2])


def normalized_quat(q) -> tuple:
    """``q`` divided by its norm, rounded as scipy's ``Rotation.from_quat`` does."""
    norm = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return tuple(v / norm for v in q)


def quat_matrix(q) -> np.ndarray:
    """The rotation matrix of a unit quaternion (x, y, z, w)."""
    x, y, z, w = q
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
                     [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
                     [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]])


def matrix_quat(matrix) -> tuple:
    """The unit quaternion (x, y, z, w) of a rotation matrix, or of its SVD
    projection if it is not orthogonal to 1e-12."""
    m = np.asarray(matrix, dtype=float)
    if not np.all(np.isclose(m @ m.T, np.eye(3), atol=1e-12)):
        u, _, vt = np.linalg.svd(m)
        m = u @ vt
    m = m.tolist()
    trace = m[0][0] + m[1][1] + m[2][2]
    pivots = [m[0][0], m[1][1], m[2][2], trace]
    i = pivots.index(max(pivots))
    if i == 3:
        return normalized_quat((m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1], 1 + trace))
    j, k = (i + 1) % 3, (i + 2) % 3
    q = [0.0, 0.0, 0.0, m[k][j] - m[j][k]]
    q[i], q[j], q[k] = 1 - trace + 2 * m[i][i], m[j][i] + m[i][j], m[k][i] + m[i][k]
    return normalized_quat(q)


def _quat_euler(q) -> tuple:
    """xyz Euler angles in [-pi, pi]; at ry = +-pi/2, rz = 0 and a warning, as in scipy."""
    x, y, z, w = q
    a, b, c, d = w - y, x + z, y + w, z - x
    middle = 2 * math.atan2(np.hypot(c, d), np.hypot(a, b))
    half_sum, half_diff = math.atan2(b, a), math.atan2(d, c)
    if abs(middle) <= 1e-7 or abs(middle - math.pi) <= 1e-7:
        warnings.warn("Gimbal lock detected. Setting third angle to zero since it is "
                      "not possible to uniquely determine all angles.", stacklevel=3)
        angles = [2 * half_sum if abs(middle) <= 1e-7 else -2 * half_diff, middle, 0.0]
    else:
        angles = [half_sum - half_diff, middle, half_sum + half_diff]
    angles[1] -= math.pi / 2
    return tuple(v + 2 * math.pi if v < -math.pi else v - 2 * math.pi if v > math.pi else v
                 for v in angles)


def _euler_matrix(rotation) -> np.ndarray:
    # Rz @ Ry @ Rx, i.e. rotations applied about the fixed x, then y, then z axes.
    q = (0.0, 0.0, 0.0, 1.0)
    for axis, angle in enumerate(rotation):
        e = [0.0, 0.0, 0.0, math.cos(angle / 2.0)]
        e[axis] = math.sin(angle / 2.0)
        q = _quat_product(e, q) if axis else tuple(e)
    return quat_matrix(q)


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation (radians, applied as Rz*Ry*Rx about ``center``) plus translation (mm)."""

    rotation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_tuple3(self.rotation))
        object.__setattr__(self, "translation", _as_tuple3(self.translation))
        object.__setattr__(self, "center", _as_tuple3(self.center))
        for name in ("rotation", "translation", "center"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidInput(f"non-finite {name} in rigid transform")

    @staticmethod
    def identity(center=(0.0, 0.0, 0.0)) -> "RigidTransform":
        return RigidTransform(center=center)

    @staticmethod
    def from_matrix(matrix, center=(0.0, 0.0, 0.0)) -> "RigidTransform":
        """Recover (rotation, translation) about ``center`` from a rigid 4x4 matrix."""
        mat = np.asarray(matrix, dtype=float)
        if mat.shape != (4, 4):
            raise InvalidInput("rigid matrix must be 4x4")
        rot = mat[:3, :3]
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-7):
            raise InvalidInput("matrix block is not orthonormal")
        if np.linalg.det(rot) < 0:
            raise InvalidInput("matrix block is a reflection, not a rotation")
        angles = _quat_euler(matrix_quat(rot))
        c = np.asarray(center, dtype=float)
        translation = mat[:3, 3] + rot @ c - c
        return RigidTransform(tuple(angles), tuple(translation), tuple(c))

    @property
    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 world-space matrix: p -> R (p - c) + c + t."""
        rot = _euler_matrix(self.rotation)
        c = np.asarray(self.center)
        mat = np.eye(4)
        mat[:3, :3] = rot
        mat[:3, 3] = c + np.asarray(self.translation) - rot @ c
        return mat

    def apply(self, points) -> np.ndarray:
        """Transform (N, 3) world points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        mat = self.matrix
        return pts @ mat[:3, :3].T + mat[:3, 3]

    def is_identity(self) -> bool:
        return not any(self.rotation + self.translation)

    def parameters(self) -> np.ndarray:
        """Packed (tx, ty, tz, rx, ry, rz) vector, translations first."""
        return np.array([*self.translation, *self.rotation], dtype=float)

    def to_dict(self) -> dict:
        return {
            "rotation_deg": [float(np.degrees(r)) for r in self.rotation],
            "translation_mm": list(self.translation),
            "center_mm": list(self.center),
            "matrix_4x4_row_major": [float(v) for v in self.matrix.ravel()],
        }


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform applying ``b`` first, then ``a``. Parameters are re-expressed about a.center."""
    return RigidTransform.from_matrix(a.matrix @ b.matrix, center=a.center)


def invert(t: RigidTransform) -> RigidTransform:
    fwd = t.matrix
    rot = fwd[:3, :3]
    mat = np.eye(4)
    mat[:3, :3] = rot.T
    mat[:3, 3] = -rot.T @ fwd[:3, 3]
    return RigidTransform.from_matrix(mat, center=t.center)


def index_map(src: AffineGeometry, transform: RigidTransform,
              dst: AffineGeometry) -> np.ndarray:
    """3x4 matrix taking fractional ``src`` indices to fractional ``dst`` indices,
    i -> dst.world_to_index(transform.apply(src.index_to_world(i))).

    Apply it to (3, N) indices as ``m[:, :3] @ idx + m[:, 3:]``.
    """
    to_world = np.eye(4)
    to_world[:3, :3] = src.axes * np.asarray(src.spacing)
    to_world[:3, 3] = src.origin
    to_index = np.eye(4)
    to_index[:3, :3] = dst.axes.T / np.asarray(dst.spacing)[:, None]
    to_index[:3, 3] = -to_index[:3, :3] @ np.asarray(dst.origin)
    return (to_index @ transform.matrix @ to_world)[:3]


def transform_deviation(a: RigidTransform, b: RigidTransform, point) -> tuple[float, float]:
    """Geodesic rotation difference (degrees) and displacement gap (mm) at ``point``.

    Center-free comparison: two transforms with different rotation centers but
    identical world action compare as (0, 0).
    """
    ra = a.matrix[:3, :3]
    rb = b.matrix[:3, :3]
    q = matrix_quat(ra @ rb.T)
    if q[3] < 0:
        q = tuple(-v for v in q)
    # the rotation vector: angle * axis, by a series at small angles
    angle = 2 * math.atan2(math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2]), q[3])
    if angle <= 1e-3:
        scale = 2 + angle * angle / 12 + 7 * (angle * angle) * (angle * angle) / 2880
    else:
        scale = angle / math.sin(angle / 2)
    angle = float(np.degrees(np.linalg.norm([scale * q[0], scale * q[1], scale * q[2]])))
    gap = float(np.linalg.norm(a.apply(point)[0] - b.apply(point)[0]))
    return angle, gap

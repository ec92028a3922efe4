"""Voxel-grid geometry and 6-DOF rigid world-space transforms.

World coordinates are in millimetres. A grid is described by its voxel
counts, voxel spacing, the world position of the centre of voxel
(0, 0, 0) and a 3x3 direction-cosine matrix whose columns are the world
directions of the voxel axes. The slab-normal (slice) axis is axis 1 (y).

``index_map`` is the one place two grids are related: it composes one
grid's index-to-world map, a rigid transform and the other grid's
world-to-index map into a single 3x4 index-to-index matrix, which
registration, reslicing and resampling all apply to voxel indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.transform import Rotation

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


def _euler_matrix(rotation) -> np.ndarray:
    # Rz @ Ry @ Rx, i.e. rotations applied about the fixed x, then y, then z axes.
    return Rotation.from_euler("xyz", rotation).as_matrix()


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
        angles = Rotation.from_matrix(rot).as_euler("xyz")
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
    rot = _euler_matrix(t.rotation)
    mat = np.eye(4)
    mat[:3, :3] = rot.T
    mat[:3, 3] = -rot.T @ t.matrix[:3, 3]
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
    rel = ra @ rb.T
    angle = float(np.degrees(np.linalg.norm(Rotation.from_matrix(rel).as_rotvec())))
    gap = float(np.linalg.norm(a.apply(point)[0] - b.apply(point)[0]))
    return angle, gap

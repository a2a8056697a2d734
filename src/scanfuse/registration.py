"""Instance-level rigid registration: centroid init plus point-to-point ICP.

The refinement loop alternates nearest-neighbor correspondences (within a
distance gate) with the closed-form SVD rigid fit. The best transform seen is
kept, so the accepted-RMS sequence is non-increasing by construction.

The target is a ``cKDTree`` that the caller builds over its points, once for
every source it registers onto them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateSource, EmptyInput, InvalidConfig, NoOverlap
from .geometry import RigidTransform, apply_points, centroid


@dataclass
class RegistrationConfig:
    max_iterations: int = 50
    convergence_tol: float = 1e-4  # RMS change, meters
    max_correspondence_dist: float = 1.0  # meters

    def __post_init__(self) -> None:
        if not self.max_iterations >= 1:
            raise InvalidConfig("max_iterations must be >= 1")
        if not self.convergence_tol > 0.0:
            raise InvalidConfig("convergence_tol must be > 0")
        if not self.max_correspondence_dist > 0.0:
            raise InvalidConfig("max_correspondence_dist must be > 0")


@dataclass
class RegistrationResult:
    transform: RigidTransform
    rms_error: float
    iterations_used: int
    converged: bool
    rms_history: list[float] = field(default_factory=list)  # accepted RMS values


def centroid_align(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Identity rotation, translation moving source centroid onto target's."""
    source = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    target = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if len(source) == 0 or len(target) == 0:
        raise EmptyInput("centroid_align needs nonempty source and target")
    return RigidTransform(np.eye(3), centroid(target) - centroid(source))


def _check_source_rank(source: np.ndarray) -> None:
    if len(source) < 3:
        raise DegenerateSource(f"need >= 3 source points, got {len(source)}")
    centered = source - centroid(source)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[1] <= 1e-8:
        raise DegenerateSource("source points are (near-)collinear")


def fit_rigid(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Least-squares rigid fit for paired points via the cross-covariance SVD.

    Reflections are corrected by flipping the smallest singular vector.
    """
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    src_mean = centroid(source)
    tgt_mean = centroid(target)
    h = (source - src_mean).T @ (target - tgt_mean)
    u, _, vt = np.linalg.svd(h)
    rotation = vt.T @ u.T
    if np.linalg.det(rotation) < 0.0:
        vt[-1, :] *= -1.0
        rotation = vt.T @ u.T
    return RigidTransform(rotation, tgt_mean - rotation @ src_mean)


def icp_register(
    source: np.ndarray,
    tree: cKDTree,
    init: RigidTransform,
    config: RegistrationConfig,
) -> RegistrationResult:
    """Refine ``init`` so the transformed source matches the points ``tree``
    was built over.

    Raises DegenerateSource for sources that cannot constrain a rigid fit
    (fewer than 3 points or near-collinear spread) and NoOverlap when the
    initial transform yields zero gated correspondences.
    """
    source = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    target = tree.data
    if len(target) == 0:
        raise EmptyInput("icp_register needs a nonempty target")
    _check_source_rank(source)

    transform = init
    best_transform = init
    best_rms = np.inf
    prev_rms = np.inf
    history: list[float] = []
    converged = False
    iterations = 0

    for iterations in range(1, config.max_iterations + 1):
        moved = apply_points(transform, source)
        dists, nn = tree.query(moved, distance_upper_bound=config.max_correspondence_dist)
        matched = np.isfinite(dists)
        if not matched.any():
            if iterations == 1:
                raise NoOverlap(
                    "no correspondences within "
                    f"{config.max_correspondence_dist} m at initialization"
                )
            break
        rms = float(np.sqrt(np.mean(dists[matched] ** 2)))
        if rms < best_rms:
            best_rms = rms
            best_transform = transform
            history.append(rms)
        if rms < config.convergence_tol or abs(prev_rms - rms) < config.convergence_tol:
            converged = True
            break
        prev_rms = rms
        transform = fit_rigid(source[matched], target[nn[matched]])

    return RegistrationResult(
        transform=best_transform,
        rms_error=best_rms,
        iterations_used=iterations,
        converged=converged,
        rms_history=history,
    )

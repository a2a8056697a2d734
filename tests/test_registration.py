import numpy as np
import pytest
from scipy.spatial import cKDTree

from scanfuse.errors import DegenerateSource, NoOverlap
from scanfuse.geometry import (
    RigidTransform,
    apply_points,
    rotation_about_z,
)
from scanfuse.registration import (
    RegistrationConfig,
    fit_rigid,
    icp_register,
)

from scenes import centroid_init, rotation_from_axis_angle


def box_cloud(rng, n=120):
    return rng.uniform(-1, 1, size=(n, 3)) * np.array([1.5, 1.0, 0.6])


# --- centroid initialization ---------------------------------------------------


def test_centroid_identical_clouds():
    pts = np.random.default_rng(0).normal(size=(20, 3))
    t = centroid_init(pts, pts)
    assert np.array_equal(t.rotation, np.eye(3))
    assert np.abs(t.translation).max() < 1e-12


def test_centroid_known_shift():
    target = np.random.default_rng(1).normal(size=(10, 3))
    source = target + np.array([-1.0, 2.0, 0.0])
    t = centroid_init(source, target)
    assert np.abs(t.translation - [1.0, -2.0, 0.0]).max() < 1e-12


def test_centroid_alignment_property():
    rng = np.random.default_rng(2)
    for _ in range(30):
        source = rng.normal(size=(rng.integers(1, 100), 3))
        target = rng.normal(size=(rng.integers(1, 100), 3))
        t = centroid_init(source, target)
        moved = apply_points(t, source)
        assert np.abs(moved.mean(axis=0) - target.mean(axis=0)).max() < 1e-12


# --- icp_register ----------------------------------------------------------------


def test_icp_identity_on_identical_clouds():
    source = box_cloud(np.random.default_rng(3))
    result = icp_register(
        source, cKDTree(source), RigidTransform.identity(), RegistrationConfig()
    )
    assert result.converged
    assert result.iterations_used == 1
    assert result.rms_error < 1e-12
    assert result.transform.allclose(RigidTransform.identity(), tol=0.0)


def test_icp_recovers_known_transform():
    rng = np.random.default_rng(4)
    source = box_cloud(rng)
    true = RigidTransform(rotation_about_z(np.deg2rad(15)), np.array([0.5, -0.3, 0.1]))
    target = apply_points(true, source)
    init = centroid_init(source, target)
    result = config = RegistrationConfig(max_correspondence_dist=5.0)
    result = icp_register(source, cKDTree(target), init, config)
    assert np.abs(result.transform.rotation - true.rotation).max() < 1e-6
    assert np.abs(result.transform.translation - true.translation).max() < 1e-6


def test_icp_rejects_too_few_points():
    target = box_cloud(np.random.default_rng(5))
    with pytest.raises(DegenerateSource):
        icp_register(
            np.array([[0.0, 0, 0], [1.0, 0, 0]]),
            cKDTree(target),
            RigidTransform.identity(),
            RegistrationConfig(),
        )


def test_icp_rejects_collinear_points():
    target = box_cloud(np.random.default_rng(6))
    collinear = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    with pytest.raises(DegenerateSource):
        icp_register(collinear, cKDTree(target), RigidTransform.identity(), RegistrationConfig())


@pytest.mark.parametrize(
    "target",
    [
        [[0.2, 0.1, 0.0], [-0.2, -0.1, 0.0], [0.4, 0.2, 0.0]],
        [[0.2, 0.1, 0.0], [-0.2, -0.1, 0.0]],
    ],
    ids=["three-collinear", "two"],
)
def test_icp_refuses_a_fit_onto_collinear_matched_targets(target):
    # A fit onto points on one line leaves the rotation about that line
    # free: ICP turned a box by tens of degrees and reported convergence.
    source = box_cloud(np.random.default_rng(0), n=200)
    target = np.array(target)
    init = centroid_init(source, target)
    with pytest.raises(DegenerateSource, match=r"^matched target points are \(near-\)collinear$"):
        icp_register(source, cKDTree(target), init, RegistrationConfig())


def test_icp_no_overlap_at_init():
    rng = np.random.default_rng(7)
    source = box_cloud(rng)
    target = source + np.array([100.0, 0.0, 0.0])
    with pytest.raises(NoOverlap):
        icp_register(source, cKDTree(target), RigidTransform.identity(), RegistrationConfig())


def test_icp_accepted_rms_non_increasing():
    rng = np.random.default_rng(8)
    for seed in range(20):
        trial_rng = np.random.default_rng(seed)
        source = box_cloud(trial_rng)
        true = RigidTransform(
            rotation_from_axis_angle(trial_rng.normal(size=3), trial_rng.uniform(0, 0.5)),
            trial_rng.uniform(-1, 1, size=3),
        )
        target = apply_points(true, source)
        result = icp_register(
            source,
            cKDTree(target),
            centroid_init(source, target),
            RegistrationConfig(max_correspondence_dist=10.0, convergence_tol=1e-9),
        )
        history = result.rms_history
        assert all(b <= a for a, b in zip(history, history[1:]))


def test_icp_recovery_sample():
    # 20-trial slice of the 100-trial acceptance sweep.
    successes = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        source = box_cloud(rng, n=200)
        axis = rng.normal(size=3)
        angle = rng.uniform(0, np.deg2rad(30))
        translation = rng.uniform(-1, 1, size=3)
        translation *= rng.uniform(0, 2.0) / max(np.linalg.norm(translation), 1e-12)
        true = RigidTransform(rotation_from_axis_angle(axis, angle), translation)
        target = apply_points(true, source)
        result = icp_register(
            source,
            cKDTree(target),
            centroid_init(source, target),
            RegistrationConfig(
                max_iterations=100, convergence_tol=1e-9, max_correspondence_dist=10.0
            ),
        )
        rot_err = np.linalg.norm(result.transform.rotation - true.rotation)
        tr_err = np.linalg.norm(result.transform.translation - true.translation)
        successes += rot_err < 1e-5 and tr_err < 1e-5
    assert successes >= 19


def test_fit_rigid_output_is_always_a_rotation():
    rng = np.random.default_rng(9)
    for _ in range(100):
        source = rng.normal(size=(rng.integers(3, 40), 3))
        target = rng.normal(size=source.shape)
        t = fit_rigid(source, target)
        assert t.rigidity_error() < 1e-9


def test_result_iteration_bound():
    rng = np.random.default_rng(10)
    source = box_cloud(rng)
    target = apply_points(
        RigidTransform(rotation_about_z(0.4), np.array([0.3, 0.1, 0.0])), source
    )
    config = RegistrationConfig(max_iterations=3, max_correspondence_dist=10.0)
    result = icp_register(source, cKDTree(target), centroid_init(source, target), config)
    assert result.iterations_used <= config.max_iterations
    assert result.rms_error >= 0.0

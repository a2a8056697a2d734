import numpy as np
import pytest

from scanfuse.geometry import (
    RigidTransform,
    apply_points,
    compose,
    invert,
    random_rigid_transform,
    rotation_about_z,
)


def test_compose_with_identity():
    rng = np.random.default_rng(0)
    t = random_rigid_transform(rng)
    assert compose(t, RigidTransform.identity()).allclose(t, tol=0.0)
    assert compose(RigidTransform.identity(), t).allclose(t, tol=0.0)


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = random_rigid_transform(rng)
        assert compose(t, invert(t)).allclose(RigidTransform.identity(), tol=1e-9)
        assert compose(invert(t), t).allclose(RigidTransform.identity(), tol=1e-9)


def test_compose_matches_homogeneous_matrix_product():
    # Independent oracle: 4x4 matrix multiplication.
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = random_rigid_transform(rng)
        b = random_rigid_transform(rng)
        expected = a.matrix() @ b.matrix()
        got = compose(a, b).matrix()
        assert np.allclose(got, expected, atol=1e-12)


def test_compose_is_associative():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a, b, c = (random_rigid_transform(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.allclose(right, tol=1e-9)


def test_invert_identity():
    assert invert(RigidTransform.identity()).allclose(RigidTransform.identity(), tol=0.0)


def test_double_inversion_roundtrips():
    rng = np.random.default_rng(4)
    for _ in range(50):
        t = random_rigid_transform(rng)
        assert invert(invert(t)).allclose(t, tol=1e-12)


def test_inverse_undoes_apply():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = random_rigid_transform(rng)
        points = rng.uniform(-10, 10, size=(30, 3))
        back = apply_points(invert(t), apply_points(t, points))
        assert np.abs(back - points).max() < 1e-9


def test_apply_transform_identity_keeps_cloud():
    rng = np.random.default_rng(6)
    points = rng.uniform(-5, 5, size=(10, 3))
    assert np.array_equal(apply_points(RigidTransform.identity(), points), points)


def test_apply_transform_pure_translation():
    t = RigidTransform(np.eye(3), np.array([1.0, 0.0, 0.0]))
    out = apply_points(t, np.zeros((1, 3)))
    assert np.allclose(out, [[1.0, 0.0, 0.0]])


def test_apply_transform_quarter_turn():
    t = RigidTransform(rotation_about_z(np.pi / 2), np.zeros(3))
    out = apply_points(t, np.array([[1.0, 0.0, 0.0]]))
    assert np.abs(out - [[0.0, 1.0, 0.0]]).max() < 1e-12


def test_transforms_are_isometries():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = random_rigid_transform(rng)
        points = rng.uniform(-10, 10, size=(15, 3))
        moved = apply_points(t, points)
        before = np.linalg.norm(points[:, None] - points[None, :], axis=2)
        after = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
        assert np.abs(before - after).max() < 1e-9


def test_generated_rotations_are_rigid():
    rng = np.random.default_rng(8)
    for _ in range(100):
        t = random_rigid_transform(rng)
        assert t.rigidity_error() <= 1e-9


def test_rigid_transform_shape_validation():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(4), np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3), np.zeros(2))

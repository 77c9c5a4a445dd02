import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshslam.geometry import (
    DegenerateRotationError,
    Rotation,
    Se3Pose,
    Sim3Transform,
    _cross3,
    quat_canonical,
    quat_mul,
    quat_rotate,
    se3_exp,
    se3_log,
    vec3,
)


def random_rotation(rng):
    q = rng.normal(size=4)
    return Rotation.from_quat(*q)


def random_sim3(rng, scale_range=(0.5, 2.0)):
    return Sim3Transform(
        rng.uniform(*scale_range),
        random_rotation(rng),
        rng.uniform(-5, 5, size=3),
    )


def sim3_matrix(t):
    m = np.eye(4)
    m[:3, :3] = t.scale * t.rotation.matrix()
    m[:3, 3] = t.translation
    return m


class TestSim3Compose:
    def test_identity_compose(self):
        rng = np.random.default_rng(0)
        t = random_sim3(rng)
        out = Sim3Transform.identity().compose(t)
        p = rng.uniform(-1, 1, size=3)
        assert np.allclose(out.apply(p), t.apply(p), atol=1e-14)

    def test_inverse_compose_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = random_sim3(rng)
            ident = t.compose(t.inverse())
            assert ident.rotation.angle() < 1e-12
            assert np.linalg.norm(ident.translation) < 1e-12
            assert abs(math.log(ident.scale)) < 1e-12

    def test_scale_translation_example(self):
        a = Sim3Transform(2.0, Rotation.identity(), vec3(1, 0, 0))
        b = Sim3Transform(1.0, Rotation.identity(), vec3(0, 1, 0))
        ab = a.compose(b)
        assert ab.scale == 2.0
        assert ab.rotation.angle() < 1e-15
        assert np.allclose(ab.translation, [1, 2, 0])

    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = random_sim3(rng), random_sim3(rng)
            ab = a.compose(b)
            m = sim3_matrix(a) @ sim3_matrix(b)
            probes = rng.uniform(-3, 3, size=(10, 3))
            direct = (m[:3, :3] @ probes.T).T + m[:3, 3]
            assert np.allclose(ab.apply(probes), direct, atol=1e-10)
            for p in probes:
                assert np.allclose(ab.apply(p), a.apply(b.apply(p)), atol=1e-10)


class TestSim3Apply:
    def test_identity(self):
        p = vec3(1, 2, 3)
        assert np.allclose(Sim3Transform.identity().apply(p), p)

    def test_pure_scale(self):
        t = Sim3Transform(2.0, Rotation.identity(), np.zeros(3))
        assert np.allclose(t.apply(vec3(1, 0, 0)), [2, 0, 0])

    def test_rotation_about_z(self):
        t = Sim3Transform(
            1.0, Rotation.from_axis_angle(vec3(0, 0, 1), math.pi / 2), vec3(0, 0, 1)
        )
        assert np.allclose(t.apply(vec3(1, 0, 0)), [0, 1, 1], atol=1e-15)

    def test_distances_scale_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = random_sim3(rng)
            pts = rng.uniform(-2, 2, size=(8, 3))
            out = t.apply(pts)
            din = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            dout = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
            mask = din > 1e-9
            assert np.all(
                np.abs(dout[mask] / (t.scale * din[mask]) - 1.0) < 1e-12
            )

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            Sim3Transform(-1.0, Rotation.identity(), np.zeros(3))
        with pytest.raises(ValueError):
            Sim3Transform(float("nan"), Rotation.identity(), np.zeros(3))


class TestSe3ExpLog:
    def test_exp_zero_is_identity(self):
        pose = se3_exp(np.zeros(6))
        assert pose.rotation.angle() < 1e-15
        assert np.linalg.norm(pose.translation) < 1e-15

    def test_pure_translation(self):
        pose = se3_exp(np.array([0, 0, 0, 1, 2, 3.0]))
        assert pose.rotation.angle() < 1e-15
        assert np.allclose(pose.translation, [1, 2, 3])

    def test_round_trip_small(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v = rng.uniform(-0.5, 0.5, size=6)
            assert np.allclose(se3_log(se3_exp(v)), v, atol=1e-10)

    def test_round_trip_large_angle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.uniform(-1, 1, size=6)
            v[:3] *= 2.5  # up to ~4.3 rad rotations fold back under pi
            pose = se3_exp(v)
            back = se3_exp(se3_log(pose))
            assert pose.rotation.angle_to(back.rotation) < 1e-9
            assert np.linalg.norm(pose.translation - back.translation) < 1e-9

    def test_log_near_pi_raises(self):
        pose = Se3Pose(
            Rotation.from_axis_angle(vec3(1, 0, 0), math.pi - 1e-9), np.zeros(3)
        )
        with pytest.raises(DegenerateRotationError):
            se3_log(pose)


class TestRotation:
    def test_canonical_w_nonnegative(self):
        r = Rotation.from_quat(-1, 0, 0, 0)
        assert r.q[0] >= 0

    def test_equal_rotations_compare_equal_after_canonicalization(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            q = rng.normal(size=4)
            a = Rotation.from_quat(*q)
            b = Rotation.from_quat(*(-q))
            assert np.allclose(a.q, b.q, atol=1e-15)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = random_rotation(rng)
            back = Rotation.from_matrix(r.matrix())
            assert r.angle_to(back) < 1e-12

    def test_compose_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            r = random_rotation(rng)
            assert r.compose(r.inverse()).angle() < 1e-12


class TestScalarKernels:
    def test_bit_equal_to_numpy_array_arithmetic(self):
        # the scalar kernels compute on Python floats; the same formulas on
        # numpy arrays are the reference and must agree bit for bit
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(2, 1000, 4))
        aw, ax, ay, az = a.T
        bw, bx, by, bz = b.T
        ref_mul = np.stack([
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ], axis=1)
        for i in range(len(a)):
            assert np.array_equal(quat_mul(a[i], b[i]), ref_mul[i])
            u, v = a[i, 1:], b[i, 1:]
            assert np.array_equal(_cross3(u, v), _cross3(u, v[None])[0])


def numpy_cross(a, b):
    """a x b on numpy arrays, a of shape (3,) and b of shape (n, 3)."""
    return np.stack([a[1] * b[:, 2] - a[2] * b[:, 1],
                     a[2] * b[:, 0] - a[0] * b[:, 2],
                     a[0] * b[:, 1] - a[1] * b[:, 0]], axis=-1)


def numpy_rotate(q, p):
    """The single-point rotation as numpy array arithmetic."""
    t = 2.0 * numpy_cross(q[1:], p[None])
    return (p[None] + q[0] * t + numpy_cross(q[1:], t))[0]


def numpy_canonical(q):
    """The single-quaternion canonical form as numpy array arithmetic."""
    n2 = float(np.dot(q, q))
    if not (math.isfinite(n2) and n2 >= np.finfo(float).tiny):
        raise ValueError("quaternion has zero, subnormal or non-finite norm")
    q = q / math.sqrt(n2)
    if q[0] < 0.0:
        q = -q
    elif q[0] == 0.0:
        for c in q[1:]:
            if c != 0.0:
                if c < 0.0:
                    q = -q
                break
    return q


def bits(a):
    return a.dtype.str, a.shape, a.tobytes()


# signed zeros, ordinary values, and magnitudes from subnormal to 1e100
COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-2.0, 2.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-320, 100)),
)
VEC3 = st.tuples(COMPONENT, COMPONENT, COMPONENT).map(np.array)


@st.composite
def quaternions(draw):
    """w < 0, w == 0 (either sign) with leading zero vector components, and
    components up to 1e300, whose squared norm overflows, or non-finite."""
    q = [draw(COMPONENT) for _ in range(4)]
    kind = draw(st.sampled_from(["any", "negative-w", "zero-w", "huge"]))
    if kind == "negative-w":
        q[0] = -abs(q[0]) or -1.0
    elif kind == "zero-w":
        q[0] = draw(st.sampled_from([0.0, -0.0]))
        for i in range(1, 1 + draw(st.integers(0, 3))):
            q[i] = draw(st.sampled_from([0.0, -0.0]))
    elif kind == "huge":
        q[draw(st.integers(0, 3))] = draw(st.sampled_from(
            [1e155, -1e200, 1e300, math.inf, -math.inf, math.nan]))
    return np.array(q)


class TestFloatKernelsProperty:
    """The Python-float single-vector kernels equal numpy array arithmetic
    bit for bit, and reject the same quaternions with the same message."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(q=st.tuples(COMPONENT, COMPONENT, COMPONENT, COMPONENT).map(np.array), p=VEC3)
    def test_quat_rotate(self, q, p):
        assert bits(quat_rotate(q, p)) == bits(numpy_rotate(q, p))

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(q=quaternions())
    def test_quat_canonical(self, q):
        with np.errstate(over="ignore", invalid="ignore"):  # huge or non-finite norms
            try:
                want = numpy_canonical(q)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    quat_canonical(q)
                assert str(got.value) == str(exc)
                return
            assert bits(quat_canonical(q)) == bits(want)


def edge_rows(rng):
    """Random rows plus rows with w < 0, w == 0 exactly and signed zeros."""
    rows = rng.normal(size=(500, 4))
    rows[:100, 0] = -np.abs(rows[:100, 0])
    rows[100:200, 0] = 0.0
    rows[150:200, 1] = 0.0                 # w == x == 0: y decides the sign
    rows[175:200, 2] = 0.0                 # w == x == y == 0: z decides
    rows[200:220, 0] = -0.0
    return rows


class TestRowKernels:
    """The (n, 4) row forms equal the scalar forms row by row, bit for bit."""

    def test_quat_mul_rows(self):
        rng = np.random.default_rng(11)
        b = edge_rows(rng)
        for a in (rng.normal(size=4), np.array([0.0, 0.0, 0.0, 1.0]),
                  np.array([-0.5, 0.5, -0.5, 0.5])):
            want = np.array([quat_mul(a, row) for row in b])
            assert np.array_equal(quat_mul(a, b), want)

    def test_quat_canonical_rows(self):
        rows = edge_rows(np.random.default_rng(12))
        want = np.array([quat_canonical(row) for row in rows])
        got = quat_canonical(rows)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_canonical_of_product_rows(self):
        # the row operation a whole-map transform performs on its poses
        rng = np.random.default_rng(13)
        a = quat_canonical(rng.normal(size=4))
        b = quat_canonical(edge_rows(rng))
        want = np.array([quat_canonical(quat_mul(a, row)) for row in b])
        assert np.array_equal(quat_canonical(quat_mul(a, b)), want)

    def test_empty_rows(self):
        out = quat_canonical(quat_mul(np.array([1.0, 0, 0, 0]), np.zeros((0, 4))))
        assert out.shape == (0, 4)

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_bad_row_raises_like_scalar_without_warning(self, bad):
        rows = np.random.default_rng(14).normal(size=(5, 4))
        rows[3] = 0.0
        rows[3, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero, subnormal or non-finite norm") as scalar:
                quat_canonical(rows[3])
            with pytest.raises(ValueError, match="zero, subnormal or non-finite norm") as batched:
                quat_canonical(rows)
        assert str(batched.value) == str(scalar.value)


class TestPose:
    def test_compose_apply_consistency(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = Se3Pose(random_rotation(rng), rng.uniform(-2, 2, 3))
            b = Se3Pose(random_rotation(rng), rng.uniform(-2, 2, 3))
            p = rng.uniform(-2, 2, 3)
            assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)

    def test_transform_pose_moves_camera_center_like_point(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            t = random_sim3(rng)
            pose = Se3Pose(random_rotation(rng), rng.uniform(-2, 2, 3))
            moved = t.transform_pose(pose)
            assert np.allclose(moved.translation, t.apply(pose.translation), atol=1e-12)

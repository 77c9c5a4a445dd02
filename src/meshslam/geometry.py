"""Quaternion-based SE(3) / SIM(3) primitives used across the package.

Conventions, used everywhere without restating them:

* Quaternions are stored as (w, x, y, z), unit norm, canonicalized to w >= 0
  (if w == 0 the first nonzero vector component is made positive).
* Keyframe poses are camera-to-world transforms.
* A similarity transform maps points as ``p' = s * R @ p + t``.  Applying it
  to a camera-to-world pose rotates the orientation and moves the camera
  center like an ordinary point, i.e. the translation is scaled.
* Twists (tangent vectors) are 6-vectors ordered (rotational, translational).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_ANGLE_LIMIT = math.pi - 1e-6


class DegenerateRotationError(ValueError):
    """Log map requested too close to the pi singularity."""


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


# ---------------------------------------------------------------------------
# Float kernels.  A quaternion is a sequence (w, x, y, z) and a vector a
# sequence (x, y, z) of Python floats; each kernel returns tuples.  Python
# floats are the same IEEE doubles as numpy's, operation for operation, at a
# fraction of numpy's per-call dispatch cost, so the array helpers below and
# the value types wrap these kernels, and the tracker chains them through a
# whole tick without building an array in between.
#
# Every sum of products is written out in one fixed left-to-right order: the
# quaternion norm is ``w*w + x*x + y*y + z*z``, a vector norm
# ``x*x + y*y + z*z``, and ``se3_exp``'s ``V v`` uses ``K K = w w^T - |w|^2 I``
# rather than a matrix product.  A library dot or matrix product may add the
# same terms in another order or fuse them (pairwise, SIMD lanes, FMA), and
# which kernel runs depends on the CPU core BLAS picks, so the last bits of
# every pose would too.  Element-wise arithmetic rounds each operation alone,
# the same on any core.
#
# ``quat_mul`` and ``quat_rotate`` also take rows, (n, 4) and (..., 3): the
# same kernel runs on the columns, so each row is bit-identical to the
# single form.  ``quat_canonical``'s row form sums the same squared columns
# in the same order as the single form.
# ---------------------------------------------------------------------------

def quat_mul_f(a, b) -> tuple:
    """a * b."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def quat_conjugate_f(q) -> tuple:
    w, x, y, z = q
    return w, -x, -y, -z


# a squared norm below the smallest normal double has lost its precision, so
# dividing by its root would not give a unit quaternion
_TINY = float(np.finfo(float).tiny)
_BAD_NORM = "quaternion has zero, subnormal or non-finite norm"


def _unit_f(q, n2: float) -> tuple:
    """q / sqrt(n2), sign-canonical, where n2 is q's squared norm."""
    if not (math.isfinite(n2) and n2 >= _TINY):
        raise ValueError(_BAD_NORM)
    n = math.sqrt(n2)
    w, x, y, z = q
    w, x, y, z = w / n, x / n, y / n, z / n
    # with w == 0, the first nonzero vector component decides the sign
    if w < 0.0 or (w == 0.0 and (x or y or z) < 0.0):
        return -w, -x, -y, -z
    return w, x, y, z


def quat_canonical_f(q) -> tuple:
    """Unit-norm, sign-canonical q."""
    w, x, y, z = q
    return _unit_f(q, w * w + x * x + y * y + z * z)


def norm3_f(v) -> float:
    """The Euclidean norm of the 3-vector v, summed in order."""
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def quat_rotate_f(q, p) -> tuple:
    """Rotate point p by unit quaternion q: ``p + w t + qv x t``, ``t = 2 qv x p``."""
    w, x, y, z = q
    px, py, pz = p
    tx = 2.0 * (y * pz - z * py)
    ty = 2.0 * (z * px - x * pz)
    tz = 2.0 * (x * py - y * px)
    return (px + w * tx + (y * tz - z * ty),
            py + w * ty + (z * tx - x * tz),
            pz + w * tz + (x * ty - y * tx))


def pose_compose_f(aq, at, bq, bt) -> tuple[tuple, tuple]:
    """The pose product (aq, at) * (bq, bt) as (quaternion, translation)."""
    rx, ry, rz = quat_rotate_f(aq, bt)
    tx, ty, tz = at
    return quat_canonical_f(quat_mul_f(aq, bq)), (rx + tx, ry + ty, rz + tz)


def pose_inverse_f(q, t) -> tuple[tuple, tuple]:
    """The inverse of pose (q, t) as (quaternion, translation)."""
    qi = quat_canonical_f(quat_conjugate_f(q))
    x, y, z = quat_rotate_f(qi, t)
    return qi, (-x, -y, -z)


def _rotvec_quat_f(v, angle: float) -> tuple:
    """The quaternion of rotation vector v, whose norm is ``angle``."""
    x, y, z = v
    if angle < 1e-12:
        # First-order expansion keeps exp/log inverses tight near zero.
        return quat_canonical_f((1.0, 0.5 * x, 0.5 * y, 0.5 * z))
    s = math.sin(0.5 * angle) / angle
    return quat_canonical_f((math.cos(0.5 * angle), s * x, s * y, s * z))


# ---------------------------------------------------------------------------
# Array helpers on (4,) quaternions and (3,) vectors; the value types below
# are thin wrappers around them.
# ---------------------------------------------------------------------------

def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for a of shape (4,) and b of shape (4,) or (n, 4)."""
    if b.ndim == 1:
        return np.array(quat_mul_f(a.tolist(), b.tolist()))
    return np.stack(quat_mul_f(a.tolist(), b.T), axis=-1)


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array(quat_conjugate_f(q.tolist()))


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Unit-norm, sign-canonical copy of q of shape (4,) or (n, 4)."""
    if q.ndim == 2:
        w, x, y, z = q.T
        n2 = w * w + x * x + y * y + z * z
        if not (np.isfinite(n2).all() and (n2 >= _TINY).all()):
            raise ValueError(_BAD_NORM)
        q = q / np.sqrt(n2)[:, None]
        w, v = q[:, 0], q[:, 1:]
        first = v[np.arange(len(v)), np.argmax(v != 0.0, axis=1)]
        flip = (w < 0.0) | ((w == 0.0) & (first < 0.0))
        return np.where(flip[:, None], -q, q)
    return np.array(quat_canonical_f(q.tolist()))


def quat_rotate(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rotate point(s) ``p`` (shape (..., 3)) by unit quaternion ``q``."""
    if p.ndim == 1:
        return np.array(quat_rotate_f(q.tolist(), p.tolist()))
    return np.stack(quat_rotate_f(q.tolist(), (p[..., 0], p[..., 1], p[..., 2])), axis=-1)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    v = v.tolist()
    return np.array(_rotvec_quat_f(v, norm3_f(v)))


def quat_angle(q) -> float:
    """Rotation angle in [0, pi] of a canonical unit quaternion, an array or
    a float sequence."""
    return 2.0 * math.atan2(norm3_f(q[1:]), abs(float(q[0])))


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    angle = quat_angle(q)
    if angle >= LOG_ANGLE_LIMIT:
        raise DegenerateRotationError(
            f"rotation angle {angle:.9f} rad is within 1e-6 of pi"
        )
    n = norm3_f(q[1:])
    if n < 1e-12:
        return 2.0 * np.asarray(q[1:], dtype=float)
    return np.asarray(q[1:], dtype=float) * (angle / n)


def _skew(v) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rotation:
    """Unit quaternion rotation, canonical w >= 0."""

    q: np.ndarray

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.array([1.0, 0.0, 0.0, 0.0]))

    @staticmethod
    def from_quat(w: float, x: float, y: float, z: float) -> "Rotation":
        return Rotation(quat_canonical(np.array([w, x, y, z], dtype=float)))

    @staticmethod
    def from_axis_angle(axis: np.ndarray, angle: float) -> "Rotation":
        axis = np.asarray(axis, dtype=float)
        axis = axis / norm3_f(axis.tolist())
        return Rotation(quat_from_rotvec(axis * angle))

    @staticmethod
    def from_rotvec(v: np.ndarray) -> "Rotation":
        return Rotation(quat_from_rotvec(np.asarray(v, dtype=float)))

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Rotation":
        # Shepperd's method; stable for all quadrants.
        m = np.asarray(m, dtype=float)
        tr = m[0, 0] + m[1, 1] + m[2, 2]
        if tr > 0:
            s = math.sqrt(tr + 1.0) * 2
            w = 0.25 * s
            x = (m[2, 1] - m[1, 2]) / s
            y = (m[0, 2] - m[2, 0]) / s
            z = (m[1, 0] - m[0, 1]) / s
        elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
            w = (m[2, 1] - m[1, 2]) / s
            x = 0.25 * s
            y = (m[0, 1] + m[1, 0]) / s
            z = (m[0, 2] + m[2, 0]) / s
        elif m[1, 1] > m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
            w = (m[0, 2] - m[2, 0]) / s
            x = (m[0, 1] + m[1, 0]) / s
            y = 0.25 * s
            z = (m[1, 2] + m[2, 1]) / s
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
            w = (m[1, 0] - m[0, 1]) / s
            x = (m[0, 2] + m[2, 0]) / s
            y = (m[1, 2] + m[2, 1]) / s
            z = 0.25 * s
        return Rotation.from_quat(w, x, y, z)

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(quat_canonical(quat_mul(self.q, other.q)))

    def inverse(self) -> "Rotation":
        return Rotation(quat_canonical(quat_conjugate(self.q)))

    def apply(self, p: np.ndarray) -> np.ndarray:
        return quat_rotate(self.q, np.asarray(p, dtype=float))

    def to_rotvec(self) -> np.ndarray:
        return quat_to_rotvec(self.q)

    def angle(self) -> float:
        return quat_angle(self.q)

    def matrix(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def angle_to(self, other: "Rotation") -> float:
        return quat_angle(quat_mul(quat_conjugate(self.q), other.q))


@dataclass(frozen=True)
class Se3Pose:
    rotation: Rotation
    translation: np.ndarray

    @staticmethod
    def identity() -> "Se3Pose":
        return Se3Pose(Rotation.identity(), np.zeros(3))

    @staticmethod
    def of_floats(q, t) -> "Se3Pose":
        """The pose with quaternion q and translation t, float sequences."""
        return Se3Pose(Rotation(np.array(q)), np.array(t))

    def floats(self) -> tuple[list[float], list[float]]:
        """(quaternion, translation) as Python floats, for the float kernels."""
        return self.rotation.q.tolist(), self.translation.tolist()

    def compose(self, other: "Se3Pose") -> "Se3Pose":
        return Se3Pose.of_floats(*pose_compose_f(*self.floats(), *other.floats()))

    def inverse(self) -> "Se3Pose":
        return Se3Pose.of_floats(*pose_inverse_f(*self.floats()))

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.rotation.apply(p) + self.translation

    def copy(self) -> "Se3Pose":
        return Se3Pose(Rotation(self.rotation.q.copy()), self.translation.copy())


@dataclass(frozen=True)
class Sim3Transform:
    """Similarity transform p -> scale * R @ p + t."""

    scale: float
    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")

    @staticmethod
    def identity() -> "Sim3Transform":
        return Sim3Transform(1.0, Rotation.identity(), np.zeros(3))

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.scale * self.rotation.apply(np.asarray(p, dtype=float)) + self.translation

    def compose(self, other: "Sim3Transform") -> "Sim3Transform":
        """Returns T with T(p) = self(other(p))."""
        return Sim3Transform(
            self.scale * other.scale,
            self.rotation.compose(other.rotation),
            self.scale * self.rotation.apply(other.translation) + self.translation,
        )

    def inverse(self) -> "Sim3Transform":
        rinv = self.rotation.inverse()
        s = 1.0 / self.scale
        return Sim3Transform(s, rinv, -s * rinv.apply(self.translation))

    def transform_pose(self, pose: Se3Pose) -> Se3Pose:
        """Re-express a camera-to-world pose after this map-frame change."""
        return Se3Pose(
            self.rotation.compose(pose.rotation),
            self.scale * self.rotation.apply(pose.translation) + self.translation,
        )


# ---------------------------------------------------------------------------
# SE(3) exponential / logarithm on (rot, trans) twists
# ---------------------------------------------------------------------------

def _so3_coeffs(angle: float) -> tuple[float, float, float]:
    """A = sin/theta, B = (1-cos)/theta^2, C = (theta-sin)/theta^3."""
    if angle < 1e-5:
        a2 = angle * angle
        return 1.0 - a2 / 6.0, 0.5 - a2 / 24.0, 1.0 / 6.0 - a2 / 120.0
    return (
        math.sin(angle) / angle,
        (1.0 - math.cos(angle)) / (angle * angle),
        (angle - math.sin(angle)) / (angle ** 3),
    )


def se3_exp_f(w, v) -> tuple[tuple, tuple]:
    """exp of the twist (w, v) as (quaternion, translation) floats.

    The translation is ``V v`` with ``V = I + b K + c K K``, ``K`` the skew
    matrix of w.  ``K v`` is ``w x v`` and ``K K v`` is
    ``w (w . v) - |w|^2 v``, each summed in the order written.
    """
    wx, wy, wz = w
    vx, vy, vz = v
    n2 = wx * wx + wy * wy + wz * wz
    angle = math.sqrt(n2)
    _, b, c = _so3_coeffs(angle)
    wv = wx * vx + wy * vy + wz * vz
    return _rotvec_quat_f(w, angle), (
        vx + b * (wy * vz - wz * vy) + c * (wx * wv - n2 * vx),
        vy + b * (wz * vx - wx * vz) + c * (wy * wv - n2 * vy),
        vz + b * (wx * vy - wy * vx) + c * (wz * wv - n2 * vz))


def se3_exp(twist: np.ndarray) -> Se3Pose:
    twist = np.asarray(twist, dtype=float).tolist()
    return Se3Pose.of_floats(*se3_exp_f(twist[:3], twist[3:]))


def se3_log(pose: Se3Pose) -> np.ndarray:
    w = pose.rotation.to_rotvec()
    angle = math.sqrt(float(np.dot(w, w)))
    k = _skew(w)
    if angle < 1e-5:
        a2 = angle * angle
        d = 1.0 / 12.0 + a2 / 720.0
    else:
        d = 1.0 / (angle * angle) - (1.0 + math.cos(angle)) / (
            2.0 * angle * math.sin(angle)
        )
    vinv = np.eye(3) - 0.5 * k + d * (k @ k)
    return np.concatenate([w, vinv @ pose.translation])

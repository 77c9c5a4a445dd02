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
# Raw quaternion helpers on plain (4,) float arrays; the value types below
# are thin wrappers around them.  Scalar kernels (``quat_mul``,
# ``quat_conjugate``, ``quat_canonical``, ``_cross3`` and the single-point
# ``quat_rotate``) unpack their inputs with ``tolist()`` so the arithmetic
# runs on Python floats, which is the same IEEE double arithmetic, operation
# for operation, at a fraction of the numpy-scalar overhead.
#
# Calls that sum several products stay numpy: the quaternion norm's
# ``np.dot``, ``se3_exp``'s ``k @ k`` and ``vmat @ v``, and the visibility
# test's ``rel @ forward``.  A library may add those terms in another order
# (pairwise or SIMD lanes), so a Python-float sum would differ in the last
# bits.
#
# ``quat_mul`` and ``quat_canonical`` also take (n, 4) rows, the way
# ``_cross3`` and ``quat_rotate`` take (..., 3), so a whole map's poses move
# in one call.  The row forms perform the scalar forms' operations in the
# same order, so each row is bit-identical to the scalar result.  The row
# norm comes from ``np.vecdot``, which sums each row with the same dot kernel
# as the scalar path's ``np.dot``; ``(q * q).sum(1)`` and ``einsum`` sum in
# another order and differ in the last bits.
# ---------------------------------------------------------------------------

def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for a of shape (4,) and b of shape (4,) or (n, 4)."""
    aw, ax, ay, az = a.tolist()
    if b.ndim == 1:
        bw, bx, by, bz = b.tolist()
        return np.array(
            [
                aw * bw - ax * bx - ay * by - az * bz,
                aw * bx + ax * bw + ay * bz - az * by,
                aw * by - ax * bz + ay * bw + az * bx,
                aw * bz + ax * by - ay * bx + az * bw,
            ]
        )
    bw, bx, by, bz = b.T
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q.tolist()
    return np.array([w, -x, -y, -z])


# a squared norm below the smallest normal double has lost its precision, so
# dividing by its root would not give a unit quaternion
_TINY = np.finfo(float).tiny
_BAD_NORM = "quaternion has zero, subnormal or non-finite norm"


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Unit-norm, sign-canonical copy of q of shape (4,) or (n, 4)."""
    if q.ndim == 2:
        n2 = np.vecdot(q, q)
        if not (np.isfinite(n2).all() and (n2 >= _TINY).all()):
            raise ValueError(_BAD_NORM)
        q = q / np.sqrt(n2)[:, None]
        w, v = q[:, 0], q[:, 1:]
        first = v[np.arange(len(v)), np.argmax(v != 0.0, axis=1)]
        flip = (w < 0.0) | ((w == 0.0) & (first < 0.0))
        return np.where(flip[:, None], -q, q)
    n2 = float(np.dot(q, q))
    if not (math.isfinite(n2) and n2 >= _TINY):
        raise ValueError(_BAD_NORM)
    n = math.sqrt(n2)
    w, x, y, z = q.tolist()
    w, x, y, z = w / n, x / n, y / n, z / n
    # with w == 0, the first nonzero vector component decides the sign
    if w < 0.0 or (w == 0.0 and (x or y or z) < 0.0):
        return np.array([-w, -x, -y, -z])
    return np.array([w, x, y, z])


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b for a of shape (3,) and b of shape (..., 3).

    Written out by component: np.cross's axis handling costs more than the
    arithmetic on the small arrays used in residual evaluation.
    """
    if b.ndim == 1:
        ax, ay, az = a.tolist()
        bx, by, bz = b.tolist()
        return np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])
    ax, ay, az = a
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx],
                    axis=-1)


def quat_rotate(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rotate point(s) ``p`` (shape (..., 3)) by unit quaternion ``q``.

    Computes ``p + w * t + qv x t`` with ``t = 2 (qv x p)``; each row of the
    (..., 3) form is elementwise, so it equals the single-point form.
    """
    if p.ndim == 1:
        w, x, y, z = q.tolist()
        px, py, pz = p.tolist()
        tx = 2.0 * (y * pz - z * py)
        ty = 2.0 * (z * px - x * pz)
        tz = 2.0 * (x * py - y * px)
        return np.array([px + w * tx + (y * tz - z * ty),
                         py + w * ty + (z * tx - x * tz),
                         pz + w * tz + (x * ty - y * tx)])
    qv = q[1:]
    t = 2.0 * _cross3(qv, p)
    return p + q[0] * t + _cross3(qv, t)


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
    angle = math.sqrt(float(np.dot(v, v)))
    x, y, z = v.tolist()
    if angle < 1e-12:
        # First-order expansion keeps exp/log inverses tight near zero.
        return quat_canonical(np.array([1.0, 0.5 * x, 0.5 * y, 0.5 * z]))
    s = math.sin(0.5 * angle) / angle
    return quat_canonical(np.array([math.cos(0.5 * angle), s * x, s * y, s * z]))


def quat_angle(q: np.ndarray) -> float:
    """Rotation angle in [0, pi] of a canonical unit quaternion."""
    n = math.sqrt(float(np.dot(q[1:], q[1:])))
    return 2.0 * math.atan2(n, abs(float(q[0])))


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    angle = quat_angle(q)
    if angle >= LOG_ANGLE_LIMIT:
        raise DegenerateRotationError(
            f"rotation angle {angle:.9f} rad is within 1e-6 of pi"
        )
    n = math.sqrt(float(np.dot(q[1:], q[1:])))
    if n < 1e-12:
        return 2.0 * np.asarray(q[1:], dtype=float)
    return np.asarray(q[1:], dtype=float) * (angle / n)


def _skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v.tolist()
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
        axis = axis / np.linalg.norm(axis)
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

    def compose(self, other: "Se3Pose") -> "Se3Pose":
        return Se3Pose(
            self.rotation.compose(other.rotation),
            self.rotation.apply(other.translation) + self.translation,
        )

    def inverse(self) -> "Se3Pose":
        rinv = self.rotation.inverse()
        return Se3Pose(rinv, -rinv.apply(self.translation))

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


def se3_exp(twist: np.ndarray) -> Se3Pose:
    twist = np.asarray(twist, dtype=float)
    w, v = twist[:3], twist[3:]
    angle = math.sqrt(float(np.dot(w, w)))
    _, b, c = _so3_coeffs(angle)
    k = _skew(w)
    vmat = np.eye(3) + b * k + c * (k @ k)
    return Se3Pose(Rotation.from_rotvec(w), vmat @ v)


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

"""Synthetic frontend standing in for a visual tracking pipeline.

The world is a set of landmarks with visual word ids assigned by spatial
cell, so nearby landmarks share word statistics and place recognition has
realistic aliasing.  Each agent follows a scripted waypoint loop; odometry
integrates the true relative motion perturbed by tangent-space noise that
grows with distance traveled (random walk, sigma per sqrt(meter)).

Agents estimate in their own map frame: a random SE(3) offset plus a random
scale in [0.5, 2], which is what a monocular system's arbitrary map scale
looks like to the rest of the system.  Losing sight of enough landmarks for
several consecutive frames declares localization lost; the caller then
spawns a private map and the tracker restarts in a fresh frame with a fresh
scale, exactly the situation the merge machinery has to recover from.

Every pose on one waypoint segment shares that segment's facing rotation, so
each ``Segment`` carries the facing's inverse and optical axis, and each
tracker holds the landmark table rotated into every segment's camera
orientation.  A frame's camera-frame landmarks are rows of that table plus
the pose's inverse translation, bit-identical to rotating the visible subset
afresh because the row rotation is elementwise.  The true pose's inverse is
computed once per tick and reused for the next tick's odometry delta.

The per-tick work is kept to what every tick needs:

* The odometry delta, the noise composition, the estimated pose update and
  the spawn test's relative pose run on ``geometry``'s float kernels, with
  the operations, in the order, of ``Se3Pose.compose``/``inverse`` and
  ``se3_exp``.  Every sum of products is written out in one fixed order,
  as ``geometry`` does: the step length and spawn distance as
  ``x*x + y*y + z*z`` on floats, and the visibility test's distances and
  offsets along the optical axis as column products added left to right.
  No BLAS call is left on the tick, so no pose, and no landmark's cone
  test, depends on which kernel BLAS picks for the CPU or on how many
  rows the landmark table has.
* The weak-frame test needs only whether MIN_WORD_MATCHES landmarks are in
  view.  A scan keeps a bound on how far the agent may move along its
  segment's optical axis before that can change; a tick within it skips
  the scan.  ``spawn_keyframe`` reads the visible ``Landmark`` list and camera
  rows from ``seen``, which scans if the step did not, only once a keyframe
  is due, so which landmarks are seen never comes from the bound.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import AgentConfig, WorldConfig
from .geometry import (Rotation, Se3Pose, Sim3Transform, norm3_f, pose_compose_f,
                       pose_inverse_f, quat_angle, quat_rotate_f, se3_exp_f, vec3)
from .map_store import KeyFrame, MapPoint, UuidGenerator

# A keyframe spawns once the agent-frame pose has moved more than
# SPAWN_DISTANCE (agent-frame units) or turned more than SPAWN_ANGLE_DEG
# since the last one.
SPAWN_DISTANCE = 0.3
SPAWN_ANGLE_DEG = 15.0
# A frame that sees fewer than MIN_WORD_MATCHES landmarks is weak; LOST_FRAMES
# consecutive weak frames declare localization lost.
MIN_WORD_MATCHES = 10
LOST_FRAMES = 5
# How far a re-observation pulls a map point toward the fresh estimate.
POINT_UPDATE_BLEND = 0.3


@dataclass(frozen=True)
class Landmark:
    id: int
    position: np.ndarray
    word: int


def generate_world(seed: int, cfg: WorldConfig) -> list[Landmark]:
    """Deterministic landmark placement with cell-based word assignment."""
    if cfg.landmarks < 1:
        raise ValueError("landmark count must be >= 1")
    if not cfg.regions:
        raise ValueError("at least one region box is required")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0x776F726C64]))
    volumes = []
    for box in cfg.regions:
        dx, dy, dz = box[3] - box[0], box[4] - box[1], box[5] - box[2]
        if dx <= 0 or dy <= 0 or dz <= 0:
            raise ValueError(f"region {box} is empty")
        volumes.append(dx * dy * dz)
    total_vol = sum(volumes)
    counts = [int(cfg.landmarks * v / total_vol) for v in volumes]
    for i in range(cfg.landmarks - sum(counts)):
        counts[i % len(counts)] += 1
    positions = []
    for box, n in zip(cfg.regions, counts):
        lo = np.array(box[:3])
        hi = np.array(box[3:])
        positions.append(rng.uniform(lo, hi, size=(n, 3)))
    pos = np.vstack(positions)
    cells = world_cells(pos, cfg.cell_size)
    cell_to_word = {c: i % cfg.vocab_size for i, c in enumerate(sorted(set(cells)))}
    return [
        Landmark(i, pos[i], cell_to_word[cells[i]]) for i in range(len(pos))
    ]


def world_cells(pos: np.ndarray, cell_size: float) -> list[tuple[int, int, int]]:
    """The integer cell of each (n, 3) row: floor(coordinate / cell_size)."""
    return [tuple(map(int, row)) for row in np.floor(pos / cell_size).tolist()]


_X_AXIS = np.array([1.0, 0.0, 0.0])
_NO_ROWS = np.zeros(0, dtype=np.intp)


def _rotation_facing(direction: np.ndarray) -> Rotation:
    """Rotation mapping the +x axis onto `direction`."""
    d = np.asarray(direction, dtype=float)
    n = norm3_f(d.tolist())
    if n < 1e-12:
        return Rotation.identity()
    d = d / n
    c = float(d[0])  # +x . d
    if c > 1.0 - 1e-12:
        return Rotation.identity()
    if c < -1.0 + 1e-12:
        return Rotation.from_axis_angle(vec3(0, 0, 1), math.pi)
    axis = np.cross(_X_AXIS, d)
    return Rotation.from_axis_angle(axis, math.acos(max(-1.0, min(1.0, c))))


class Segment(NamedTuple):
    """One leg of a waypoint script and the view geometry its poses share."""

    start: np.ndarray
    end: np.ndarray
    length: float
    facing: Rotation
    inverse: Rotation    # facing.inverse()
    forward: np.ndarray  # facing.apply(+x), the optical axis

    @staticmethod
    def between(a: np.ndarray, b: np.ndarray, length: float, facing: Rotation) -> "Segment":
        return Segment(a, b, length, facing, facing.inverse(), facing.apply(_X_AXIS))


class TrajectoryScript:
    """Constant-speed motion along a cyclic waypoint polyline.

    A script whose waypoints all coincide has one segment of length zero: the
    agent stands there facing +x.
    """

    def __init__(self, waypoints: list[list[float]], speed: float):
        self.points = [np.asarray(w, dtype=float) for w in waypoints]
        self.speed = speed
        segs = []
        n = len(self.points)
        if n > 1:
            for i in range(n):
                a, b = self.points[i], self.points[(i + 1) % n]
                length = norm3_f((b - a).tolist())
                if length > 1e-12:
                    segs.append(Segment.between(a, b, length, _rotation_facing(b - a)))
        self.total_length = sum(seg.length for seg in segs)
        p0 = self.points[0]
        self.segments = segs or [Segment.between(p0, p0, 0.0, Rotation.identity())]

    def pose_at(self, t: float) -> Se3Pose:
        """The pose at time t; its rotation is its segment's ``facing`` object."""
        if self.total_length == 0.0:
            return Se3Pose(self.segments[0].facing, self.points[0].copy())
        s = (self.speed * t) % self.total_length
        for seg in self.segments:
            if s <= seg.length:
                return Se3Pose(seg.facing, seg.start + (s / seg.length) * (seg.end - seg.start))
            s -= seg.length
        seg = self.segments[-1]
        return Se3Pose(seg.facing, seg.end.copy())


def _blend_positions(reobserved: list[tuple[MapPoint, int]], measured: np.ndarray,
                     blend: float) -> None:
    """Pull each point toward its measured row: p <- (1 - blend) p + blend m.

    One row operation per pass.  Two landmarks can resolve to one point
    through ``merged_into``; such a point blends once per landmark, in view
    order, so each pass takes every point's earliest pending row.
    """
    while reobserved:
        batch, later, taken = [], [], set()
        for point, row in reobserved:
            if point.id in taken:
                later.append((point, row))
            else:
                taken.add(point.id)
                batch.append((point, row))
        old = np.array([point.position for point, _ in batch])
        new = (1.0 - blend) * old + blend * measured[[row for _, row in batch]]
        for (point, _), position in zip(batch, new):
            point.position = position
        reobserved = later


class AgentTracker:
    """Scripted motion, noisy scaled odometry, visibility, spawn and loss logic."""

    def __init__(self, cfg: AgentConfig, landmarks: list[Landmark], seed: int,
                 uuid_gen: UuidGenerator):
        self.cfg = cfg
        self.landmarks = landmarks
        self._lm_positions = np.array([lm.position for lm in landmarks],
                                      dtype=float).reshape(-1, 3)
        self.script = TrajectoryScript(cfg.waypoints, cfg.speed)
        # id(segment facing) -> (segment, landmarks rotated by its inverse);
        # the script keeps every facing alive, so its id stays unique
        self._tables = {id(seg.facing): (seg, seg.inverse.apply(self._lm_positions))
                        for seg in self.script.segments}
        self.uuids = uuid_gen
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=[seed, 0x6167656E74, cfg.id]))
        self.true_pose = self.script.pose_at(0.0)
        if cfg.frame_offset == "identity":
            offset = Sim3Transform.identity()
            scale = cfg.scale_offset if cfg.scale_offset is not None else 1.0
            offset = Sim3Transform(scale, offset.rotation, offset.translation)
        else:
            scale = (cfg.scale_offset if cfg.scale_offset is not None
                     else float(self._rng.uniform(0.5, 2.0)))
            offset = Sim3Transform(
                scale,
                Rotation.from_rotvec(self._rng.uniform(-math.pi, math.pi, 3) * 0.3),
                self._rng.uniform(-5.0, 5.0, 3),
            )
        self.frame_scale = offset.scale
        self.est_pose = offset.transform_pose(self.true_pose)
        self.localized = True
        self._weak_frames = 0
        self.last_kf_pose: Se3Pose | None = None
        self._kf_inverse = None, None  # (last_kf_pose, its inverse as floats)
        # (view, scan position, optical axis, reach) of the last scan: see _settle
        self._reach = None
        c = math.cos(math.radians(cfg.fov_deg) / 2.0)
        self._cot = c / math.sqrt(1.0 - c * c) if c < 1.0 else None  # of half the FOV
        # landmark id -> map point uuid, per frame; shared-frame copy saved on loss
        self.assoc: dict[int, int] = {}
        self._shared_assoc: dict[int, int] = {}

    # -- stepping -------------------------------------------------------------

    @property
    def true_pose(self) -> Se3Pose:
        return self._true_pose

    @true_pose.setter
    def true_pose(self, pose: Se3Pose) -> None:
        """Set the ground-truth pose and the view geometry derived from it."""
        entry = self._tables.get(id(pose.rotation))
        if entry is None:
            # a pose that is not the script's: a zero-length segment of its own
            seg = Segment.between(pose.translation, pose.translation, 0.0, pose.rotation)
            entry = seg, seg.inverse.apply(self._lm_positions)
        self._view, self._cam_table = entry
        self._true_pose = pose
        self._rows = None  # the scan of this pose, once step has made it
        # the pose's inverse as floats: (segment inverse, -inverse(translation))
        q = self._view.inverse.q.tolist()
        x, y, z = quat_rotate_f(q, pose.translation.tolist())
        self._true_inverse = q, (-x, -y, -z)

    def in_blackout(self, t: float) -> bool:
        return any(t0 <= t < t1 for t0, t1 in self.cfg.blackouts)

    def _visible_rows(self, t: float, position: np.ndarray, forward: np.ndarray) -> np.ndarray:
        """Ascending indices of the landmarks in view at time t from `position` along `forward`."""
        if self.in_blackout(t) or len(self.landmarks) == 0:
            return _NO_ROWS
        rel = self._lm_positions - position
        x, y, z = rel[:, 0], rel[:, 1], rel[:, 2]
        fx, fy, fz = forward.tolist()
        dist = np.sqrt(x * x + y * y + z * z)
        dot = x * fx + y * fy + z * fz
        near = np.flatnonzero((dist > 1e-9) & (dist <= self.cfg.range_m))
        cosang = dot[near] / dist[near]
        return near[cosang >= math.cos(math.radians(self.cfg.fov_deg) / 2.0)]

    def _settle(self, rows: np.ndarray, position: np.ndarray) -> None:
        """Keep how far the agent may move from `position` along this view's
        optical axis with at least MIN_WORD_MATCHES of `rows` still in view.

        A move of s along the axis takes a landmark at forward offset u and
        lateral offset l to u - s and l: it comes nearer and stays in the
        cone of half-angle a for 0 <= s <= u - l cot(a).  The margin
        1e-6 (1 + u) (1 + cot(a)) outweighs the rounding of the scan, of
        these sums and of the segment's positions off the axis; a landmark
        within 1e-6 (1 + range) of the range counts for nothing, as rounding
        alone can move it out when s is near 0.
        """
        self._reach = None
        k, cot, far = MIN_WORD_MATCHES, self._cot, self.cfg.range_m
        if len(rows) < k or cot is None:
            return
        forward = self._view.forward
        rel = self._lm_positions[rows] - position
        fx, fy, fz = forward.tolist()
        u = rel[:, 0] * fx + rel[:, 1] * fy + rel[:, 2] * fz
        side = rel - u[:, None] * forward
        limit = u - np.sqrt((side * side).sum(axis=1)) * cot - 1e-6 * (1.0 + u) * (1.0 + cot)
        limits = sorted(limit[(rel * rel).sum(axis=1) <= (far - 1e-6 * (1.0 + far)) ** 2]
                        .tolist(), reverse=True)
        if len(limits) >= k:
            self._reach = self._view, position.tolist(), forward.tolist(), limits[k - 1]

    def _settled(self, t: float, position: list[float]) -> bool:
        """Whether the bound `_settle` kept puts at least MIN_WORD_MATCHES
        landmarks in view at time t from `position`, without a scan."""
        if self._reach is None or self._reach[0] is not self._view or self.in_blackout(t):
            return False
        _, start, (fx, fy, fz), reach = self._reach
        x, y, z = (p - p0 for p, p0 in zip(position, start))
        return 0.0 <= x * fx + y * fy + z * fz <= reach

    def step(self, t: float) -> bool:
        """Advance to time t, integrating noisy odometry in the agent frame;
        returns whether tracking was healthy and just crossed the loss gate.

        The pose arithmetic runs on the float kernels.  A tick `_settled` is
        healthy without a scan; others scan, keep the rows for `seen` and
        renew the bound.
        """
        prev_q, prev_t = self._true_inverse
        self.true_pose = pose = self.script.pose_at(t)
        pose_q, pose_t = pose.floats()
        q, d = pose_compose_f(prev_q, prev_t, pose_q, pose_t)
        d_step = norm3_f(d)
        if d_step > 0 and (self.cfg.sigma_t > 0 or self.cfg.sigma_r > 0):
            w = self._rng.normal(0.0, self.cfg.sigma_r * math.sqrt(d_step), 3)
            v = self._rng.normal(0.0, self.cfg.sigma_t * math.sqrt(d_step), 3)
            q, d = pose_compose_f(q, d, *se3_exp_f(w.tolist(), v.tolist()))
        s = self.frame_scale
        self.est_pose = Se3Pose.of_floats(*pose_compose_f(
            *self.est_pose.floats(), q, (s * d[0], s * d[1], s * d[2])))

        if self._settled(t, pose_t):
            self._weak_frames = 0
        else:
            self._rows = rows = self._visible_rows(t, pose.translation, self._view.forward)
            self._settle(rows, pose.translation)
            self._weak_frames = 0 if len(rows) >= MIN_WORD_MATCHES else self._weak_frames + 1
        return self.localized and self._weak_frames >= LOST_FRAMES

    def seen(self, t: float) -> tuple[list[Landmark], np.ndarray]:
        """The landmarks in view at time t from the true pose, in table order,
        and their (n, 3) camera-frame positions, meters: from the rows `step`
        kept for this pose, or from a scan now when it kept none."""
        rows = self._rows
        if rows is None:
            rows = self._visible_rows(t, self._true_pose.translation, self._view.forward)
        visible = [self.landmarks[i] for i in rows.tolist()]
        return visible, self._cam_table[rows] + self._true_inverse[1]

    # -- keyframe spawning ------------------------------------------------------

    def should_spawn(self) -> bool:
        if self.last_kf_pose is None:
            return True
        if self._kf_inverse[0] is not self.last_kf_pose:
            self._kf_inverse = self.last_kf_pose, pose_inverse_f(*self.last_kf_pose.floats())
        q, t = pose_compose_f(*self._kf_inverse[1], *self.est_pose.floats())
        if norm3_f(t) > SPAWN_DISTANCE:  # agent-frame units
            return True
        return quat_angle(q) > math.radians(SPAWN_ANGLE_DEG)

    def spawn_keyframe(self, agent_id: int, t: float,
                       active_map=None) -> tuple[KeyFrame, list[MapPoint]] | None:
        """Build a keyframe from what is `seen` at time t, or None when not due
        (tested first, so most ticks scan nothing here) or nothing is in view.

        Thresholds are strict (>): spawning happens once agent-frame
        displacement since the last keyframe exceeds the spawn distance or
        relative rotation exceeds the spawn angle.

        Re-observed landmarks keep their map point (extending its observer
        set) and pull its position toward the fresh estimate, so each agent's
        copy of a point tracks that agent's own drifting frame, exactly the
        divergence the map alignment refiner exists to measure.
        """
        if not self.should_spawn():
            return None
        visible, cam_positions = self.seen(t)
        if not visible:
            return None
        counts = Counter(lm.word for lm in visible)
        observed: set[int] = set()
        new_points: list[MapPoint] = []
        reobserved: list[tuple[MapPoint, int]] = []  # (point, measured row)
        kf_id = self.uuids.next()
        measured_rows = self.est_pose.apply(self.frame_scale * cam_positions)
        for row, lm in enumerate(visible):
            pid = self.assoc.get(lm.id)
            if pid is not None and active_map is not None:
                pid = active_map.resolve_point_id(pid)
                point = active_map.points.get(pid)
                if point is None:
                    pid = None
                else:
                    reobserved.append((point, row))
                    self.assoc[lm.id] = pid
            if pid is None:
                pid = self.uuids.next()
                new_points.append(MapPoint(pid, measured_rows[row], lm.word, {kf_id}))
                self.assoc[lm.id] = pid
            observed.add(pid)
        _blend_positions(reobserved, measured_rows, POINT_UPDATE_BLEND)
        kf = KeyFrame(
            id=kf_id, origin_agent=agent_id, timestamp=t, pose=self.est_pose.copy(),
            words=dict(sorted(counts.items())), observed_points=observed,
        )
        self.last_kf_pose = self.est_pose.copy()
        return kf, new_points

    # -- frame changes ----------------------------------------------------------

    def apply_frame_transform(self, t: Sim3Transform) -> None:
        """Follow a map-frame change (group merge or alignment round)."""
        self.est_pose = t.transform_pose(self.est_pose)
        self.frame_scale *= t.scale
        if self.last_kf_pose is not None:
            self.last_kf_pose = t.transform_pose(self.last_kf_pose)

    def enter_private_frame(self) -> None:
        """Restart tracking in a fresh frame with a fresh monocular scale."""
        self.localized = False
        self._weak_frames = 0
        self._shared_assoc = dict(self.assoc)
        self.assoc = {}
        self.frame_scale = float(self._rng.uniform(0.5, 2.0))
        self.est_pose = Se3Pose.identity()
        self.last_kf_pose = None

    def rejoin_shared_frame(self, t: Sim3Transform) -> None:
        """Private map merged back: move the live pose into the shared frame."""
        self.apply_frame_transform(t)
        self.localized = True
        self._weak_frames = 0
        merged = dict(self._shared_assoc)
        merged.update(self.assoc)
        self.assoc = merged
        self._shared_assoc = {}

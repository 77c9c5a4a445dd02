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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import AgentConfig, TrackConfig, WorldConfig
from .geometry import Rotation, Se3Pose, Sim3Transform, se3_exp, vec3
from .map_store import KeyFrame, MapPoint, UuidGenerator, normalize_histogram


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


def _rotation_facing(direction: np.ndarray) -> Rotation:
    """Rotation mapping the +x axis onto `direction`."""
    d = np.asarray(direction, dtype=float)
    n = np.linalg.norm(d)
    if n < 1e-12:
        return Rotation.identity()
    d = d / n
    x = np.array([1.0, 0.0, 0.0])
    c = float(np.dot(x, d))
    if c > 1.0 - 1e-12:
        return Rotation.identity()
    if c < -1.0 + 1e-12:
        return Rotation.from_axis_angle(vec3(0, 0, 1), math.pi)
    axis = np.cross(x, d)
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
                length = float(np.linalg.norm(b - a))
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


@dataclass
class TrackerFrame:
    time: float
    visible: list[Landmark]
    cam_positions: np.ndarray  # (n, 3) camera-frame positions, meters
    lost_transition: bool      # tracking was healthy and just crossed the loss gate


class AgentTracker:
    """Scripted motion, noisy scaled odometry, visibility, spawn and loss logic."""

    def __init__(self, cfg: AgentConfig, track: TrackConfig, landmarks: list[Landmark],
                 seed: int, uuid_gen: UuidGenerator):
        self.cfg = cfg
        self.track = track
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
        self._true_inverse = Se3Pose(self._view.inverse,
                                     -self._view.inverse.apply(pose.translation))

    def in_blackout(self, t: float) -> bool:
        return any(t0 <= t < t1 for t0, t1 in self.cfg.blackouts)

    def visible_landmarks(self, t: float) -> tuple[list[Landmark], np.ndarray]:
        if self.in_blackout(t) or len(self.landmarks) == 0:
            return [], np.zeros((0, 3))
        rel = self._lm_positions - self.true_pose.translation
        dist = np.linalg.norm(rel, axis=1)
        cosang = (rel @ self._view.forward) / np.where(dist > 0, dist, np.inf)
        ok = (dist > 1e-9) & (dist <= self.cfg.range_m) & (
            cosang >= math.cos(math.radians(self.cfg.fov_deg) / 2.0)
        )
        idx = np.nonzero(ok)[0]
        visible = [self.landmarks[i] for i in idx.tolist()]
        return visible, self._cam_table[idx] + self._true_inverse.translation

    def step(self, t: float) -> TrackerFrame:
        """Advance to time t, integrating noisy odometry in the agent frame."""
        prev_inverse = self._true_inverse
        self.true_pose = self.script.pose_at(t)
        delta = prev_inverse.compose(self.true_pose)
        d_step = math.sqrt(float(delta.translation.dot(delta.translation)))
        if d_step > 0 and (self.cfg.sigma_t > 0 or self.cfg.sigma_r > 0):
            noise = np.concatenate([
                self._rng.normal(0.0, self.cfg.sigma_r * math.sqrt(d_step), 3),
                self._rng.normal(0.0, self.cfg.sigma_t * math.sqrt(d_step), 3),
            ])
            delta = delta.compose(se3_exp(noise))
        delta_est = Se3Pose(delta.rotation, self.frame_scale * delta.translation)
        self.est_pose = self.est_pose.compose(delta_est)

        visible, cam = self.visible_landmarks(t)
        if len(visible) < self.track.min_word_matches:
            self._weak_frames += 1
        else:
            self._weak_frames = 0
        lost_transition = self.localized and self._weak_frames >= self.track.lost_frames
        return TrackerFrame(t, visible, cam, lost_transition)

    # -- keyframe spawning ------------------------------------------------------

    def should_spawn(self) -> bool:
        if self.last_kf_pose is None:
            return True
        rel = self.last_kf_pose.inverse().compose(self.est_pose)
        dist = math.sqrt(float(rel.translation.dot(rel.translation)))  # agent-frame units
        angle = rel.rotation.angle()
        return (dist > self.track.spawn_distance
                or angle > math.radians(self.track.spawn_angle_deg))

    def spawn_keyframe(self, agent_id: int, t: float, frame: TrackerFrame,
                       active_map=None) -> tuple[KeyFrame, list[MapPoint]] | None:
        """Build a keyframe from the current view, or None when not due.

        Thresholds are strict (>): spawning happens once agent-frame
        displacement since the last keyframe exceeds the spawn distance or
        relative rotation exceeds the spawn angle.

        Re-observed landmarks keep their map point (extending its observer
        set) and pull its position toward the fresh estimate, so each agent's
        copy of a point tracks that agent's own drifting frame, exactly the
        divergence the map alignment refiner exists to measure.
        """
        if not frame.visible or not self.should_spawn():
            return None
        counts: dict[int, float] = {}
        for lm in frame.visible:
            counts[lm.word] = counts.get(lm.word, 0.0) + 1.0
        observed: set[int] = set()
        new_points: list[MapPoint] = []
        reobserved: list[tuple[MapPoint, int]] = []  # (point, measured row)
        kf_id = self.uuids.next()
        measured_rows = self.est_pose.apply(self.frame_scale * frame.cam_positions)
        for row, lm in enumerate(frame.visible):
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
        _blend_positions(reobserved, measured_rows, self.track.point_update_blend)
        kf = KeyFrame(
            id=kf_id, origin_agent=agent_id, timestamp=t, pose=self.est_pose.copy(),
            words=normalize_histogram(counts), observed_points=observed,
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

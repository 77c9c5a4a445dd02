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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    cells = [tuple(int(c) for c in np.floor(p / cfg.cell_size)) for p in pos]
    cell_to_word = {c: i % cfg.vocab_size for i, c in enumerate(sorted(set(cells)))}
    return [
        Landmark(i, pos[i], cell_to_word[cells[i]]) for i in range(len(pos))
    ]


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


class TrajectoryScript:
    """Constant-speed motion along a cyclic waypoint polyline."""

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
                    segs.append((a, b, length, _rotation_facing(b - a)))
        self.segments = segs
        self.total_length = sum(s[2] for s in segs)

    def pose_at(self, t: float) -> Se3Pose:
        if not self.segments:
            return Se3Pose(Rotation.identity(), self.points[0].copy())
        s = (self.speed * t) % self.total_length
        for a, b, length, facing in self.segments:
            if s <= length:
                alpha = s / length
                pos = a + alpha * (b - a)
                return Se3Pose(facing, pos)
            s -= length
        _, b, _, facing = self.segments[-1]
        return Se3Pose(facing, b.copy())


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
        self._lm_positions = np.array([lm.position for lm in landmarks])
        self.script = TrajectoryScript(cfg.waypoints, cfg.speed)
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

    def in_blackout(self, t: float) -> bool:
        return any(t0 <= t < t1 for t0, t1 in self.cfg.blackouts)

    def visible_landmarks(self, t: float) -> tuple[list[Landmark], np.ndarray]:
        if self.in_blackout(t) or len(self.landmarks) == 0:
            return [], np.zeros((0, 3))
        rel = self._lm_positions - self.true_pose.translation
        dist = np.linalg.norm(rel, axis=1)
        forward = self.true_pose.rotation.apply(np.array([1.0, 0.0, 0.0]))
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = (rel @ forward) / np.where(dist > 0, dist, np.inf)
        ok = (dist > 1e-9) & (dist <= self.cfg.range_m) & (
            cosang >= math.cos(math.radians(self.cfg.fov_deg) / 2.0)
        )
        idx = np.nonzero(ok)[0]
        visible = [self.landmarks[i] for i in idx]
        if len(idx):
            inv = self.true_pose.inverse()
            cam = inv.rotation.apply(self._lm_positions[idx]) + inv.translation
        else:
            cam = np.zeros((0, 3))
        return visible, cam

    def step(self, t: float) -> TrackerFrame:
        """Advance to time t, integrating noisy odometry in the agent frame."""
        prev_true = self.true_pose
        self.true_pose = self.script.pose_at(t)
        delta = prev_true.inverse().compose(self.true_pose)
        d_step = float(np.linalg.norm(delta.translation))
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
        dist = float(np.linalg.norm(rel.translation))  # agent-frame units
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
        kf_id = self.uuids.next()
        blend = self.track.point_update_blend
        measured_rows = self.est_pose.apply(self.frame_scale * frame.cam_positions)
        for lm, measured in zip(frame.visible, measured_rows):
            pid = self.assoc.get(lm.id)
            if pid is not None and active_map is not None:
                pid = active_map.resolve_point_id(pid)
                point = active_map.points.get(pid)
                if point is None:
                    pid = None
                else:
                    point.position = (1.0 - blend) * point.position + blend * measured
                    self.assoc[lm.id] = pid
            if pid is None:
                pid = self.uuids.next()
                new_points.append(MapPoint(pid, measured, lm.word, {kf_id}))
                self.assoc[lm.id] = pid
            observed.add(pid)
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

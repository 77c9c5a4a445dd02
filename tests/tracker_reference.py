"""The frontend's per-tick code as it was before each segment cached its view
geometry: ``visible_landmarks``, ``step``, ``should_spawn`` and
``spawn_keyframe`` of ``AgentTracker``, written as functions of a tracker.

Every call rotates the visible landmarks and inverts the true pose afresh,
computes the optical axis from the pose, and blends re-observed points one at
a time.  Kept only as the reference that ``meshslam.sim_world`` must match bit
for bit; ``twin`` and ``ShadowMap`` let it run beside a live tracker without
touching the tracker's state or its map.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np

from meshslam.geometry import Se3Pose, se3_exp
from meshslam.map_store import KeyFrame, MapPoint
from meshslam.sim_world import TrackerFrame


def visible_landmarks(tr, t):
    if tr.in_blackout(t) or len(tr.landmarks) == 0:
        return [], np.zeros((0, 3))
    positions = np.array([lm.position for lm in tr.landmarks])
    rel = positions - tr.true_pose.translation
    dist = np.linalg.norm(rel, axis=1)
    forward = tr.true_pose.rotation.apply(np.array([1.0, 0.0, 0.0]))
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = (rel @ forward) / np.where(dist > 0, dist, np.inf)
    ok = (dist > 1e-9) & (dist <= tr.cfg.range_m) & (
        cosang >= math.cos(math.radians(tr.cfg.fov_deg) / 2.0)
    )
    idx = np.nonzero(ok)[0]
    visible = [tr.landmarks[i] for i in idx]
    if len(idx):
        inv = tr.true_pose.inverse()
        cam = inv.rotation.apply(positions[idx]) + inv.translation
    else:
        cam = np.zeros((0, 3))
    return visible, cam


def step(tr, t):
    prev_true = tr.true_pose
    tr.true_pose = tr.script.pose_at(t)
    delta = prev_true.inverse().compose(tr.true_pose)
    d_step = float(np.linalg.norm(delta.translation))
    if d_step > 0 and (tr.cfg.sigma_t > 0 or tr.cfg.sigma_r > 0):
        noise = np.concatenate([
            tr._rng.normal(0.0, tr.cfg.sigma_r * math.sqrt(d_step), 3),
            tr._rng.normal(0.0, tr.cfg.sigma_t * math.sqrt(d_step), 3),
        ])
        delta = delta.compose(se3_exp(noise))
    delta_est = Se3Pose(delta.rotation, tr.frame_scale * delta.translation)
    tr.est_pose = tr.est_pose.compose(delta_est)

    visible, cam = visible_landmarks(tr, t)
    if len(visible) < tr.track.min_word_matches:
        tr._weak_frames += 1
    else:
        tr._weak_frames = 0
    lost_transition = tr.localized and tr._weak_frames >= tr.track.lost_frames
    return TrackerFrame(t, visible, cam, lost_transition)


def should_spawn(tr):
    if tr.last_kf_pose is None:
        return True
    rel = tr.last_kf_pose.inverse().compose(tr.est_pose)
    dist = float(np.linalg.norm(rel.translation))
    angle = rel.rotation.angle()
    return (dist > tr.track.spawn_distance
            or angle > math.radians(tr.track.spawn_angle_deg))


def spawn_keyframe(tr, agent_id, t, frame, active_map=None):
    if not frame.visible or not should_spawn(tr):
        return None
    counts = {}
    for lm in frame.visible:
        counts[lm.word] = counts.get(lm.word, 0) + 1
    observed = set()
    new_points = []
    kf_id = tr.uuids.next()
    blend = tr.track.point_update_blend
    measured_rows = tr.est_pose.apply(tr.frame_scale * frame.cam_positions)
    for lm, measured in zip(frame.visible, measured_rows):
        pid = tr.assoc.get(lm.id)
        if pid is not None and active_map is not None:
            pid = active_map.resolve_point_id(pid)
            point = active_map.points.get(pid)
            if point is None:
                pid = None
            else:
                point.position = (1.0 - blend) * point.position + blend * measured
                tr.assoc[lm.id] = pid
        if pid is None:
            pid = tr.uuids.next()
            new_points.append(MapPoint(pid, measured, lm.word, {kf_id}))
            tr.assoc[lm.id] = pid
        observed.add(pid)
    kf = KeyFrame(
        id=kf_id, origin_agent=agent_id, timestamp=t, pose=tr.est_pose.copy(),
        words=dict(sorted(counts.items())), observed_points=observed,
    )
    tr.last_kf_pose = tr.est_pose.copy()
    return kf, new_points


def twin(tr):
    """A copy of ``tr`` that the functions above can advance on their own.

    Poses are replaced, never mutated, so they are shared; the random
    stream, the uuid counter and the association tables are copied.
    """
    ref = copy.copy(tr)
    ref._rng = copy.deepcopy(tr._rng)
    ref.uuids = copy.deepcopy(tr.uuids)
    ref.assoc = dict(tr.assoc)
    ref._shared_assoc = dict(tr._shared_assoc)
    return ref


class _ShadowPoints:
    def __init__(self, points):
        self.real = points
        self.copies = {}

    def get(self, pid):
        if pid not in self.copies:
            point = self.real.get(pid)
            self.copies[pid] = None if point is None else dataclasses.replace(point)
        return self.copies[pid]


class ShadowMap:
    """Reads a live map's points; blends land on copies in ``points.copies``."""

    def __init__(self, real):
        self.real = real
        self.points = _ShadowPoints(real.points)

    def resolve_point_id(self, pid):
        return self.real.resolve_point_id(pid)

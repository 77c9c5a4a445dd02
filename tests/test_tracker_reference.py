"""The tracker's cached per-segment view against the per-tick reference in
``tracker_reference``: visible ids, camera-frame positions, poses, spawned
points and blended positions must be equal bit for bit on every tick."""

import os

import numpy as np
import pytest

import test_sim_world as sw
import tracker_reference as ref
from meshslam import simulation
from meshslam.config import load_scenario
from meshslam.geometry import Rotation, Se3Pose
from meshslam.map_store import AgentMap, MapPoint, UuidGenerator
from meshslam.sim_world import AgentTracker

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def pose_bits(pose):
    return bits(pose.rotation.q), bits(pose.translation)


def assert_frames_equal(got, want):
    assert got.time == want.time
    assert [lm.id for lm in got.visible] == [lm.id for lm in want.visible]
    assert bits(got.cam_positions) == bits(want.cam_positions)
    assert got.lost_transition == want.lost_transition


def assert_trackers_equal(got, want):
    assert pose_bits(got.true_pose) == pose_bits(want.true_pose)
    assert pose_bits(got.est_pose) == pose_bits(want.est_pose)
    assert got._weak_frames == want._weak_frames
    assert got._rng.bit_generator.state == want._rng.bit_generator.state
    assert got.uuids.counter == want.uuids.counter
    assert got.assoc == want.assoc
    assert (got.last_kf_pose is None) == (want.last_kf_pose is None)
    if got.last_kf_pose is not None:
        assert pose_bits(got.last_kf_pose) == pose_bits(want.last_kf_pose)


def assert_spawns_equal(got, want):
    assert (got is None) == (want is None)
    if got is None:
        return
    (kf, points), (kf_want, points_want) = got, want
    assert (kf.id, kf.origin_agent, kf.timestamp) == (
        kf_want.id, kf_want.origin_agent, kf_want.timestamp)
    assert pose_bits(kf.pose) == pose_bits(kf_want.pose)
    assert kf.words == kf_want.words
    assert kf.observed_points == kf_want.observed_points
    assert [(p.id, bits(p.position), p.word, p.observers) for p in points] == [
        (p.id, bits(p.position), p.word, p.observers) for p in points_want]


class CheckedTracker(AgentTracker):
    """Runs the reference on a twin before every step and spawn, and compares."""

    def __init__(self, *args):
        super().__init__(*args)
        self.ticks = self.blackout_ticks = self.restarts = self.blends = 0

    def step(self, t):
        twin = ref.twin(self)
        want = ref.step(twin, t)
        got = super().step(t)
        assert_frames_equal(got, want)
        assert_trackers_equal(self, twin)
        self.ticks += 1
        self.blackout_ticks += self.in_blackout(t)
        return got

    def spawn_keyframe(self, agent_id, t, frame, active_map=None):
        twin = ref.twin(self)
        shadow = None if active_map is None else ref.ShadowMap(active_map)
        want = ref.spawn_keyframe(twin, agent_id, t, frame, shadow)
        got = super().spawn_keyframe(agent_id, t, frame, active_map)
        assert_spawns_equal(got, want)
        assert_trackers_equal(self, twin)
        for pid, point in (shadow.points.copies.items() if shadow else ()):
            if point is not None:
                assert bits(active_map.points[pid].position) == bits(point.position)
                self.blends += 1
        return got

    def enter_private_frame(self):
        self.restarts += 1
        super().enter_private_frame()


@pytest.mark.parametrize("name", ["blackout_recovery", "coop_loops", "fig3_replay",
                                  "leader_failover"])
def test_shipped_scenario_ticks_match_reference(name, monkeypatch):
    monkeypatch.setattr(simulation, "AgentTracker", CheckedTracker)
    cfg = load_scenario(os.path.join(SCENARIOS, f"{name}.yaml"))
    sim = simulation.Simulation(cfg, 7)
    sim.run()
    trackers = [rt.tracker for rt in sim.runtimes.values()]
    assert all(tr.ticks > 0 and tr.blends > 0 for tr in trackers)
    if name == "blackout_recovery":
        assert sum(tr.blackout_ticks for tr in trackers) > 0
        assert sum(tr.restarts for tr in trackers) > 0


def run_side_by_side(tr, times):
    for t in times:
        twin = ref.twin(tr)
        frame = tr.step(t)
        assert_frames_equal(frame, ref.step(twin, t))
        assert_trackers_equal(tr, twin)
        want = ref.spawn_keyframe(twin, 0, t, frame)
        assert_spawns_equal(tr.spawn_keyframe(0, t, frame), want)
        assert_trackers_equal(tr, twin)


def test_single_waypoint_script_matches_reference():
    tr = sw.tracker(seed=3, landmarks=sw.TestKeyframeSpawning().dense_world(),
                    waypoints=[[1.0, 0.5, 0.8]], frame_offset="random", scale_offset=None,
                    sigma_t=0.01, sigma_r=0.01, min_word_matches=1)
    assert len(tr.script.segments) == 1 and tr.script.segments[0].length == 0.0
    run_side_by_side(tr, [float(t) for t in np.arange(0.1, 6.0, 0.1)])


def test_directly_set_true_pose_drives_the_view():
    # the view follows the pose it is given, not the last step(): poses from
    # other segments, copies of script poses and poses off the script
    lms = sw.TestVisibility().grid_world()
    tr = sw.tracker(seed=2, landmarks=lms, waypoints=[[0, 0, 0], [6, 0, 0], [6, 5, 1]],
                    fov_deg=100.0, range_m=7.0, sigma_t=0.02, sigma_r=0.02,
                    frame_offset="random", scale_offset=None)
    rng = np.random.default_rng(8)
    for t in np.linspace(0.0, 20.0, 41):
        tr.step(float(t) + 0.5)
        script_pose = tr.script.pose_at(float(t))
        for pose in (script_pose, script_pose.copy(),
                     Se3Pose(Rotation.from_rotvec(rng.normal(size=3)), rng.uniform(-5, 5, 3))):
            tr.true_pose = pose
            got = tr.visible_landmarks(float(t))
            want = ref.visible_landmarks(tr, float(t))
            assert [lm.id for lm in got[0]] == [lm.id for lm in want[0]]
            assert bits(got[1]) == bits(want[1])
        # the next odometry delta starts from the pose set last
        twin = ref.twin(tr)
        assert_frames_equal(tr.step(float(t) + 0.1), ref.step(twin, float(t) + 0.1))
        assert_trackers_equal(tr, twin)


def test_two_landmarks_resolving_to_one_point_blend_in_order():
    lms = sw.TestKeyframeSpawning().dense_world()
    tr = sw.tracker(seed=5, landmarks=lms, min_word_matches=1)
    frame = tr.step(0.1)
    assert len(frame.visible) >= 4
    a, b, c = (lm.id for lm in frame.visible[1:4])
    uuids = UuidGenerator(99, 7)
    keep, gone, other = uuids.next(), uuids.next(), uuids.next()
    m = AgentMap()
    for pid, pos in ((keep, [1.0, 2.0, 3.0]), (other, [-1.0, 0.5, 2.0])):
        m.points[pid] = MapPoint(pid, np.array(pos), 0, set())
    m.merged_into[gone] = keep
    tr.assoc = {a: keep, b: gone, c: other}
    twin = ref.twin(tr)
    shadow = ref.ShadowMap(m)
    want = ref.spawn_keyframe(twin, 0, 0.1, frame, shadow)
    got = tr.spawn_keyframe(0, 0.1, frame, m)
    assert_spawns_equal(got, want)
    assert_trackers_equal(tr, twin)
    assert tr.assoc[b] == keep
    for pid in (keep, other):
        assert bits(m.points[pid].position) == bits(shadow.points.copies[pid].position)
    # the shared point blends a's row, then b's
    rows = tr.est_pose.apply(tr.frame_scale * frame.cam_positions)
    k = tr.track.point_update_blend
    first = (1.0 - k) * np.array([1.0, 2.0, 3.0]) + k * rows[1]
    assert bits(m.points[keep].position) == bits((1.0 - k) * first + k * rows[2])

"""The tracker's cached per-segment view against the per-tick reference in
``tracker_reference``: visible ids, camera-frame positions, poses, spawned
points and blended positions must be equal bit for bit on every tick."""

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_sim_world as sw
import tracker_reference as ref
from meshslam import sim_world, simulation
from meshslam.config import load_scenario
from meshslam.geometry import Rotation, Se3Pose
from meshslam.map_store import AgentMap, MapPoint, UuidGenerator
from meshslam.sim_world import AgentTracker, Landmark, TrajectoryScript

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def pose_bits(pose):
    return bits(pose.rotation.q), bits(pose.translation)


def tick(tr, t):
    """Step ``tr`` to time t; its loss flag and what it sees right after."""
    lost_transition = tr.step(t)
    return ref.Frame(t, *tr.seen(t), lost_transition)


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
        assert_frames_equal(ref.Frame(t, *self.seen(t), got), want)
        assert_trackers_equal(self, twin)
        self.ticks += 1
        self.blackout_ticks += self.in_blackout(t)
        return got

    def spawn_keyframe(self, agent_id, t, active_map=None):
        twin = ref.twin(self)
        shadow = None if active_map is None else ref.ShadowMap(active_map)
        want = ref.spawn_keyframe(twin, agent_id, t, shadow)
        got = super().spawn_keyframe(agent_id, t, active_map)
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
        assert_frames_equal(tick(tr, t), ref.step(twin, t))
        assert_trackers_equal(tr, twin)
        want = ref.spawn_keyframe(twin, 0, t)
        assert_spawns_equal(tr.spawn_keyframe(0, t), want)
        assert_trackers_equal(tr, twin)


def test_single_waypoint_script_matches_reference(monkeypatch):
    monkeypatch.setattr(sim_world, "MIN_WORD_MATCHES", 1)
    tr = sw.tracker(seed=3, landmarks=sw.TestKeyframeSpawning().dense_world(),
                    waypoints=[[1.0, 0.5, 0.8]], frame_offset="random", scale_offset=None,
                    sigma_t=0.01, sigma_r=0.01)
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
            visible, cam_positions = tr.seen(float(t))
            want = ref.visible_landmarks(tr, float(t))
            assert [lm.id for lm in visible] == [lm.id for lm in want[0]]
            assert bits(cam_positions) == bits(want[1])
        # the next odometry delta starts from the pose set last
        twin = ref.twin(tr)
        assert_frames_equal(tick(tr, float(t) + 0.1), ref.step(twin, float(t) + 0.1))
        assert_trackers_equal(tr, twin)


def test_two_landmarks_resolving_to_one_point_blend_in_order(monkeypatch):
    monkeypatch.setattr(sim_world, "MIN_WORD_MATCHES", 1)
    lms = sw.TestKeyframeSpawning().dense_world()
    tr = sw.tracker(seed=5, landmarks=lms)
    tr.step(0.1)
    visible, cam_positions = tr.seen(0.1)
    assert len(visible) >= 4
    a, b, c = (lm.id for lm in visible[1:4])
    uuids = UuidGenerator(99, 7)
    keep, gone, other = uuids.next(), uuids.next(), uuids.next()
    m = AgentMap()
    for pid, pos in ((keep, [1.0, 2.0, 3.0]), (other, [-1.0, 0.5, 2.0])):
        m.points[pid] = MapPoint(pid, np.array(pos), 0, set())
    m.merged_into[gone] = keep
    tr.assoc = {a: keep, b: gone, c: other}
    twin = ref.twin(tr)
    shadow = ref.ShadowMap(m)
    want = ref.spawn_keyframe(twin, 0, 0.1, shadow)
    got = tr.spawn_keyframe(0, 0.1, m)
    assert_spawns_equal(got, want)
    assert_trackers_equal(tr, twin)
    assert tr.assoc[b] == keep
    for pid in (keep, other):
        assert bits(m.points[pid].position) == bits(shadow.points.copies[pid].position)
    # the shared point blends a's row, then b's
    rows = tr.est_pose.apply(tr.frame_scale * cam_positions)
    k = sim_world.POINT_UPDATE_BLEND
    first = (1.0 - k) * np.array([1.0, 2.0, 3.0]) + k * rows[1]
    assert bits(m.points[keep].position) == bits((1.0 - k) * first + k * rows[2])


def landmarks_on_edges(data, script, ticks, fov_deg, range_m):
    """Landmarks within about 1e-9 of the range sphere, the view cone or the
    1e-9 m sphere the scan skips, or well inside, seen from a drawn tick."""
    half = math.radians(fov_deg) / 2.0
    lms = []
    for i in range(data.draw(st.integers(1, 8))):
        pose = script.pose_at(data.draw(ticks))
        f = pose.rotation.apply(np.array([1.0, 0.0, 0.0]))
        e1 = np.cross(f, [0.0, 0.0, 1.0] if abs(f[2]) < 0.9 else [1.0, 0.0, 0.0])
        e1 /= np.linalg.norm(e1)
        phi = data.draw(st.floats(0.0, 2.0 * math.pi))
        side = math.cos(phi) * e1 + math.sin(phi) * np.cross(f, e1)
        jitter = data.draw(st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9)))
        inner = data.draw(st.floats(0.0, 0.95)) * half
        angle, dist = data.draw(st.sampled_from([
            (inner, range_m + jitter),
            (half + jitter, data.draw(st.floats(0.05, 1.0)) * range_m),
            (inner, 1e-9 + jitter),
            (inner, data.draw(st.floats(0.05, 0.9)) * range_m)]))
        position = pose.translation + dist * (math.cos(angle) * f + math.sin(angle) * side)
        lms.append(Landmark(i, position, word=i))
    return lms


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_ticks_settled_without_a_scan_match_reference(data):
    """Whether a tick scans or is settled by the bound kept since the last
    scan, its weak-frame count, loss flag and visible ids equal the
    reference's: on loops that revisit a segment ahead of or behind the
    last scan, or at its very position, through blackouts and losses."""
    coord = st.one_of(st.integers(-4, 4).map(float), st.floats(-4.0, 4.0))
    waypoints = data.draw(st.lists(st.lists(coord, min_size=3, max_size=3),
                                   min_size=2, max_size=4))
    speed = data.draw(st.floats(0.1, 2.0))
    script = TrajectoryScript(waypoints, speed)
    loop = script.total_length / speed
    step = st.tuples(st.floats(0.02, 0.6), st.just(False))
    if loop > 0.0:  # about whole loops: back onto a segment near where it was
        step = st.one_of(step, st.tuples(st.builds(
            lambda n, e: (n + e) * loop, st.integers(1, 2),
            st.one_of(st.just(0.0), st.floats(-0.1, 0.1))), st.just(True)))
    steps = data.draw(st.lists(step, min_size=2, max_size=30))
    times = np.cumsum([dt for dt, _ in steps]).tolist()
    ticks = st.sampled_from(times)
    revisits = [t for t, (_, back) in zip(times, steps) if back]
    if revisits:
        ticks = st.one_of(ticks, st.sampled_from(revisits))
    fov_deg = data.draw(st.floats(0.0, 180.0, exclude_min=True, exclude_max=True))
    range_m = data.draw(st.floats(0.5, 8.0))
    blackouts = [(t0, t0 + data.draw(st.floats(0.0, 2.0)))
                 for t0 in data.draw(st.lists(st.floats(0.0, times[-1]), max_size=2))]
    lms = landmarks_on_edges(data, script, ticks, fov_deg, range_m)
    tr = sw.tracker(landmarks=lms, waypoints=waypoints, speed=speed, fov_deg=fov_deg,
                    range_m=range_m, blackouts=blackouts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_world, "MIN_WORD_MATCHES", data.draw(st.integers(1, 3)))
        for t in times:
            twin = ref.twin(tr)
            want = ref.step(twin, t)
            got = tick(tr, t)
            assert tr._weak_frames == twin._weak_frames
            assert got.lost_transition == want.lost_transition
            assert [lm.id for lm in got.visible] == [lm.id for lm in want.visible]
            if got.lost_transition:
                tr.enter_private_frame()


def exact_depth(lm, p, forward, c, range_m):
    """How deep `lm` lies in view from `p` in exact arithmetic: the smaller of
    range² - d² and u² - c² d² (u its offset along `forward`), < 0 outside."""
    rel = [Fraction(a) - Fraction(b) for a, b in zip(lm.tolist(), p.tolist())]
    u = sum(r * Fraction(x) for r, x in zip(rel, forward.tolist()))
    d2 = sum(r * r for r in rel)
    return min(Fraction(range_m) ** 2 - d2, u * u - Fraction(c) ** 2 * d2 if u > 0 else -1)


EDGE_WAYPOINTS, EDGE_RANGE, EDGE_T1 = [[0.0, 0.0, 0.0], [10.0, 7.0, 3.0]], 7.0, 2.0
NARROW_CONE = 0.0005, 2.5, (1.0, 6.0), (0.00025, 0.00025), 3e-5


def edge_landmarks(t2, radius, angle, along):
    """A seeded sequence of 1,000 landmarks about the view from time t2 on the
    first segment of EDGE_WAYPOINTS: at distances in `radius`, at angles
    (degrees) in `angle` off the optical axis, moved up to `along` along it."""
    script = TrajectoryScript(EDGE_WAYPOINTS, 1.0)
    f = script.segments[0].forward
    p2 = script.pose_at(t2).translation
    e1 = np.cross(f, [0.0, 0.0, 1.0])
    e1 /= np.linalg.norm(e1)
    rng = np.random.default_rng(0)
    lms = []
    for i in range(1000):
        a, r = math.radians(rng.uniform(*angle)), rng.uniform(*radius)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        side = math.cos(phi) * e1 + math.sin(phi) * np.cross(f, e1)
        lms.append(Landmark(i, p2 + (r * math.cos(a) + rng.uniform(-along, along)) * f
                            + r * math.sin(a) * side, i))
    return script, lms


@pytest.mark.parametrize("fov_deg, t2, radius, angle, along", [
    (170.0, float(np.nextafter(2.0, 3.0)), (7.0, 7.0), (60.0, 80.0), 2e-15),
    NARROW_CONE,
], ids=["range-sphere", "narrow-cone"])
def test_a_landmark_rounding_hides_settles_nothing(monkeypatch, fov_deg, t2, radius, angle,
                                                    along):
    """Rounding alone can hide a landmark that a tick's position has in view
    in exact arithmetic: on the range sphere a rounding step ahead of the
    scan, or at the edge of a narrow cone.  Of a seeded sequence, the one
    deepest in view that the scan misses counts for nothing in the bound,
    so the tick scans, as the reference does."""
    monkeypatch.setattr(sim_world, "MIN_WORD_MATCHES", 1)
    script, lms = edge_landmarks(t2, radius, angle, along)
    f = script.segments[0].forward
    p1, p2 = (script.pose_at(t).translation for t in (EDGE_T1, t2))

    def alone(lm):
        return sw.tracker(landmarks=[lm], waypoints=EDGE_WAYPOINTS, fov_deg=fov_deg,
                          range_m=EDGE_RANGE)

    hidden = [lm for lm in lms if len(alone(lm)._visible_rows(EDGE_T1, p1, f))
              and not len(alone(lm)._visible_rows(t2, p2, f))]
    c = math.cos(math.radians(fov_deg) / 2.0)
    depth, lm = max((exact_depth(lm.position, p2, f, c, EDGE_RANGE), lm) for lm in hidden)
    assert depth > 0
    tr = alone(lm)
    for t in (EDGE_T1, t2):
        twin = ref.twin(tr)
        assert_frames_equal(tick(tr, t), ref.step(twin, t))
        assert_trackers_equal(tr, twin)
    assert tr._weak_frames == 1


def test_cone_edge_reads_the_same_from_any_table_size():
    """Each landmark at the edge of a narrow cone is in view from a 1,000-row
    landmark table exactly when it is from a table of itself alone, and the
    reference agrees: the offset along the optical axis adds each row's
    three products in one order, however many rows the table has."""
    fov_deg, t, *edge = NARROW_CONE
    script, lms = edge_landmarks(t, *edge)
    pose = script.pose_at(t)

    def tracker(landmarks):
        return sw.tracker(landmarks=landmarks, waypoints=EDGE_WAYPOINTS, fov_deg=fov_deg,
                          range_m=EDGE_RANGE)

    def seen(landmarks):
        return tracker(landmarks)._visible_rows(t, pose.translation,
                                                script.segments[0].forward).tolist()

    rows = seen(lms)
    assert 0 < len(rows) < len(lms)
    assert rows == [lm.id for lm in lms if seen([lm])]
    full = tracker(lms)
    full.true_pose = pose
    assert [lm.id for lm in ref.visible_landmarks(full, t)[0]] == rows


def test_coop_loops_ticks_mostly_skip_the_scan(monkeypatch):
    """On coop_loops at seed 7 the weak-frame test scans on under a tenth of
    the ticks, and every other scan is a spawn's whose keyframe was due, so
    a bound that never settles a tick cannot pass unseen."""
    counts = {"ticks": 0, "step scans": 0, "spawn scans": 0, "due": 0}
    stepping = []
    step, rows, should_spawn = (AgentTracker.step, AgentTracker._visible_rows,
                                AgentTracker.should_spawn)

    def counted_step(self, t):
        counts["ticks"] += 1
        stepping.append(t)
        try:
            return step(self, t)
        finally:
            stepping.pop()

    def counted_rows(self, *args):
        counts["step scans" if stepping else "spawn scans"] += 1
        return rows(self, *args)

    def counted_should_spawn(self):
        due = should_spawn(self)
        counts["due"] += due
        return due

    monkeypatch.setattr(AgentTracker, "step", counted_step)
    monkeypatch.setattr(AgentTracker, "_visible_rows", counted_rows)
    monkeypatch.setattr(AgentTracker, "should_spawn", counted_should_spawn)
    simulation.Simulation(load_scenario(os.path.join(SCENARIOS, "coop_loops.yaml")), 7).run()
    assert counts["ticks"] == 750
    assert 0 < counts["step scans"] < 0.1 * counts["ticks"], counts
    assert counts["spawn scans"] <= counts["due"], counts


@pytest.mark.parametrize("blackouts, min_matches", [([(1.0, 2.0)], 1), ([], 10**6)],
                         ids=["blackout", "too-few-in-view"])
def test_a_spawn_on_the_loss_tick_sees_that_tick(monkeypatch, blackouts, min_matches):
    """On the tick that crosses the loss gate, step returns True; after
    enter_private_frame, a spawn on that same tick is due and builds the
    private map's first keyframe from that tick's view, as the reference
    does: nothing in a blackout, every landmark in view otherwise."""
    monkeypatch.setattr(sim_world, "MIN_WORD_MATCHES", min_matches)
    tr = sw.tracker(seed=4, landmarks=sw.TestKeyframeSpawning().dense_world(),
                    frame_offset="random", scale_offset=None, sigma_t=0.01, sigma_r=0.01,
                    blackouts=blackouts)
    losses = []
    for t in [0.1 * i for i in range(1, 31)]:
        twin = ref.twin(tr)
        want = ref.step(twin, t)
        lost = tr.step(t)
        assert lost == want.lost_transition
        if lost:
            tr.enter_private_frame()
        twin = ref.twin(tr)
        spawn = tr.spawn_keyframe(0, t)
        assert_spawns_equal(spawn, ref.spawn_keyframe(twin, 0, t))
        assert_trackers_equal(tr, twin)
        if lost:
            losses.append((t, len(want.visible), spawn))
    [(t, in_view, spawn)] = losses
    if blackouts:
        assert tr.in_blackout(t) and in_view == 0 and spawn is None
    else:
        assert in_view > 0 and spawn is not None
        kf, points = spawn
        assert kf.timestamp == t and len(kf.observed_points) == len(points) == in_view


def test_b_a_settled_spawn_tick_scans_afresh(monkeypatch):
    """A keyframe due on a tick the bound settled right after a scanned tick
    comes from a scan of its own tick, not from the rows the scanned tick
    kept: a landmark that came into range in between is in it."""
    monkeypatch.setattr(sim_world, "MIN_WORD_MATCHES", 1)
    near = [Landmark(i, np.array([3.0, y, 0.0]), word=i) for i, y in enumerate((-0.5, 0.0, 0.5))]
    edge = Landmark(3, np.array([5.05, 0.0, 0.0]), word=3)  # in range from x >= 0.05
    tr = sw.tracker(landmarks=near + [edge], range_m=5.0)
    scans = []
    rows = AgentTracker._visible_rows

    def counted_rows(self, *args):
        scans.append(args[0])
        return rows(self, *args)

    monkeypatch.setattr(AgentTracker, "_visible_rows", counted_rows)
    assert not tr.step(0.0) and not tr.step(0.1)
    assert scans == [0.0]  # the bound settled the second tick
    twin = ref.twin(tr)
    want = ref.spawn_keyframe(twin, 0, 0.1)
    assert_spawns_equal(tr.spawn_keyframe(0, 0.1), want)
    assert_trackers_equal(tr, twin)
    assert scans == [0.0, 0.1]
    assert len(want[0].observed_points) == 4


def test_c_spawn_after_setting_the_true_pose_sees_the_new_pose():
    """Setting the true pose drops the rows the last step kept: a spawn with
    no step in between builds its keyframe from the new pose's view, for a
    pose on another segment and a pose off the script."""
    tr = sw.tracker(seed=2, landmarks=sw.TestVisibility().grid_world(),
                    waypoints=[[0, 0, 0], [6, 0, 0], [6, 5, 1]], fov_deg=100.0, range_m=7.0,
                    sigma_t=0.02, sigma_r=0.02, frame_offset="random", scale_offset=None)
    rng = np.random.default_rng(4)
    for t in (0.5, 1.5):
        tr.step(t)
        stepped = [lm.id for lm in tr.seen(t)[0]]
        for pose in (tr.script.pose_at(t + 8.0),
                     Se3Pose(Rotation.from_rotvec(rng.normal(size=3)), rng.uniform(-5, 5, 3))):
            tr.true_pose = pose
            tr.last_kf_pose = None
            twin = ref.twin(tr)
            want = ref.spawn_keyframe(twin, 0, t)
            assert_spawns_equal(tr.spawn_keyframe(0, t), want)
            assert_trackers_equal(tr, twin)
            assert [lm.id for lm in ref.visible_landmarks(twin, t)[0]] != stepped

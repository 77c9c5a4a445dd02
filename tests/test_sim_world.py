import math

import numpy as np
import pytest

from meshslam.config import AgentConfig, TrackConfig, WorldConfig
from meshslam.geometry import Rotation, Se3Pose, vec3
from meshslam.map_store import UuidGenerator
from meshslam.sim_world import (
    AgentTracker,
    TrajectoryScript,
    _rotation_facing,
    generate_world,
    world_cells,
)


def tracker(seed=0, waypoints=None, landmarks=None, **kw):
    cfg = AgentConfig(
        id=0,
        waypoints=waypoints or [[0, 0, 0], [10, 0, 0]],
        speed=kw.pop("speed", 1.0),
        fov_deg=kw.pop("fov_deg", 90.0),
        range_m=kw.pop("range_m", 8.0),
        sigma_t=kw.pop("sigma_t", 0.0),
        sigma_r=kw.pop("sigma_r", 0.0),
        scale_offset=kw.pop("scale_offset", 1.0),
        frame_offset=kw.pop("frame_offset", "identity"),
        blackouts=kw.pop("blackouts", []),
    )
    track = TrackConfig(**kw)
    lms = landmarks if landmarks is not None else []
    return AgentTracker(cfg, track, lms, seed, UuidGenerator(seed, 0))


class TestGenerateWorld:
    def test_same_seed_identical(self):
        cfg = WorldConfig(landmarks=50, vocab_size=100, cell_size=1.0)
        w1 = generate_world(3, cfg)
        w2 = generate_world(3, cfg)
        assert len(w1) == len(w2) == 50
        for a, b in zip(w1, w2):
            assert a.id == b.id and a.word == b.word
            assert np.array_equal(a.position, b.position)

    def test_zero_count_errors(self):
        with pytest.raises(ValueError):
            generate_world(0, WorldConfig(landmarks=0))

    def test_empty_regions_error(self):
        with pytest.raises(ValueError):
            generate_world(0, WorldConfig(regions=[]))

    def test_disjoint_rooms_no_shared_words(self):
        cfg = WorldConfig(
            landmarks=60,
            regions=[[0, 0, 0, 4, 4, 2], [100, 100, 0, 104, 104, 2]],
            vocab_size=10_000,  # enough for every cell to get its own word
            cell_size=1.0,
        )
        world = generate_world(1, cfg)
        words_a = {lm.word for lm in world if lm.position[0] < 50}
        words_b = {lm.word for lm in world if lm.position[0] > 50}
        assert words_a.isdisjoint(words_b)

    def test_same_cell_shares_word(self):
        cfg = WorldConfig(landmarks=200, regions=[[0, 0, 0, 2, 2, 2]],
                          vocab_size=10_000, cell_size=2.0)
        world = generate_world(2, cfg)
        # single cell: every landmark carries the same word
        assert len({lm.word for lm in world}) == 1


class TestWorldCells:
    """``world_cells`` over all rows equals the per-landmark floor it replaced."""

    @staticmethod
    def per_landmark(pos, cell_size):
        return [tuple(int(c) for c in np.floor(p / cell_size)) for p in pos]

    @pytest.mark.parametrize("cell_size", [0.3, 0.5, 1.0, 2.0, 7.0])
    def test_equals_per_landmark_floor(self, cell_size):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pos = rng.uniform(-20.0, 20.0, size=(300, 3))
            # coordinates exactly on cell boundaries, either side of zero
            pos[:40] = cell_size * rng.integers(-6, 7, size=(40, 3))
            pos[40] = [-0.0, 0.0, -cell_size]
            assert world_cells(pos, cell_size) == self.per_landmark(pos, cell_size)

    def test_boundary_belongs_to_the_upper_cell(self):
        pos = np.array([[-2.0, 0.0, 2.0], [-1.5, -0.0, 1.999]])
        assert world_cells(pos, 1.0) == [(-2, 0, 2), (-2, 0, 1)]

    @pytest.mark.parametrize("seed", range(3))
    def test_generate_world_words_follow_per_landmark_cells(self, seed):
        cfg = WorldConfig(landmarks=400, regions=[[-5, -5, -1, 5, 5, 2]],
                          vocab_size=37, cell_size=0.7)
        world = generate_world(seed, cfg)
        cells = self.per_landmark([lm.position for lm in world], cfg.cell_size)
        word_of = {c: i % cfg.vocab_size for i, c in enumerate(sorted(set(cells)))}
        assert [lm.word for lm in world] == [word_of[c] for c in cells]


class TestTrajectoryScript:
    def test_stationary_single_waypoint(self):
        s = TrajectoryScript([[1, 2, 3]], speed=1.0)
        for t in (0.0, 5.0, 100.0):
            p = s.pose_at(t)
            assert np.allclose(p.translation, [1, 2, 3])

    def test_constant_speed_progress(self):
        s = TrajectoryScript([[0, 0, 0], [10, 0, 0]], speed=2.0)
        assert np.allclose(s.pose_at(1.0).translation, [2, 0, 0])
        assert np.allclose(s.pose_at(5.0).translation, [10, 0, 0])
        # cyclic: returns toward the start
        assert np.allclose(s.pose_at(6.0).translation, [8, 0, 0])

    def test_heading_faces_travel_direction(self):
        s = TrajectoryScript([[0, 0, 0], [0, 5, 0]], speed=1.0)
        fwd = s.pose_at(1.0).rotation.apply(np.array([1.0, 0, 0]))
        assert np.allclose(fwd, [0, 1, 0], atol=1e-12)


def reference_pose_at(script, t):
    """pose_at as it was, recomputing the segment's facing on every call."""
    s = (script.speed * t) % script.total_length
    for seg in script.segments:
        a, b = seg.start, seg.end
        if s <= seg.length:
            return Se3Pose(_rotation_facing(b - a), a + (s / seg.length) * (b - a))
        s -= seg.length
    a, b = script.segments[-1].start, script.segments[-1].end
    return Se3Pose(_rotation_facing(b - a), b.copy())


class TestCachedFacing:
    def test_pose_at_matches_per_tick_facing(self):
        # +x, -x (the pi special case), diagonal and vertical segments
        s = TrajectoryScript([[0, 0, 0], [4, 0, 0], [4, 3, 1], [4, 3, 5], [-2, 3, 5],
                              [-2, -1.5, 0.5]], speed=1.3)
        for t in np.linspace(0.0, 3 * s.total_length / s.speed, 601):
            got, want = s.pose_at(float(t)), reference_pose_at(s, float(t))
            assert np.array_equal(got.rotation.q, want.rotation.q)
            assert np.array_equal(got.translation, want.translation)


class TestBatchedMeasurement:
    def test_spawn_positions_match_per_point_apply(self):
        # reference: one Se3Pose.apply per visible landmark
        lms = TestKeyframeSpawning().dense_world()
        tr = tracker(seed=4, landmarks=lms, frame_offset="random", scale_offset=None,
                     sigma_t=0.01, sigma_r=0.01, min_word_matches=1)
        for i in range(5):
            frame = tr.step(i * 0.1)
        assert len(frame.visible) > 10
        want = [tr.est_pose.apply(tr.frame_scale * cam) for cam in frame.cam_positions]
        _, new_points = tr.spawn_keyframe(0, frame.time, frame)
        assert len(new_points) == len(want)
        for p, w in zip(new_points, want):
            assert np.array_equal(p.position, w)


class TestOdometry:
    def test_zero_noise_identity_offset_matches_ground_truth(self):
        tr = tracker()
        for i in range(1, 51):
            tr.step(i * 0.1)
        assert np.allclose(tr.est_pose.translation, tr.true_pose.translation, atol=1e-9)
        assert tr.est_pose.rotation.angle_to(tr.true_pose.rotation) < 1e-9

    def test_scale_offset_scales_translation(self):
        tr = tracker(scale_offset=2.0)
        for i in range(1, 11):
            tr.step(i * 0.1)
        assert np.allclose(tr.est_pose.translation, 2.0 * tr.true_pose.translation,
                           atol=1e-9)

    def test_drift_magnitude_random_walk(self):
        # 10 m straight at sigma_t=0.01: E||drift|| = sigma * sqrt(D) * 2 sqrt(2/pi)
        sigma, dist = 0.01, 10.0
        drifts = []
        for seed in range(100):
            tr = tracker(seed=seed, sigma_t=sigma, waypoints=[[0, 0, 0], [20, 0, 0]])
            for i in range(1, 101):
                tr.step(i * 0.1)  # 10 m at 1 m/s
            drifts.append(np.linalg.norm(
                tr.est_pose.translation - tr.true_pose.translation))
        expected = sigma * math.sqrt(dist) * 2 * math.sqrt(2 / math.pi)
        assert abs(np.mean(drifts) - expected) / expected < 0.2

    def test_noise_scaling_quadruple_path_doubles_drift(self):
        sigma = 0.01

        def mean_drift(path_len):
            out = []
            for seed in range(80):
                tr = tracker(seed=seed, sigma_t=sigma,
                             waypoints=[[0, 0, 0], [4 * path_len, 0, 0]])
                steps = int(path_len / 0.1)
                for i in range(1, steps + 1):
                    tr.step(i * 0.1)
                out.append(np.linalg.norm(
                    tr.est_pose.translation - tr.true_pose.translation))
            return float(np.mean(out))

        ratio = mean_drift(8.0) / mean_drift(2.0)
        assert abs(ratio - 2.0) < 0.45


class TestVisibility:
    def grid_world(self):
        lms = []
        rng = np.random.default_rng(5)
        from meshslam.sim_world import Landmark
        for i in range(100):
            lms.append(Landmark(i, rng.uniform(-10, 10, 3), word=i))
        return lms

    def test_behind_camera_invisible(self):
        from meshslam.sim_world import Landmark
        lms = [Landmark(0, np.array([-1.0, 0, 0]), 0)]
        tr = tracker(landmarks=lms)
        visible, _ = tr.visible_landmarks(0.0)
        assert visible == []

    def test_in_front_visible(self):
        from meshslam.sim_world import Landmark
        lms = [Landmark(0, np.array([2.0, 0, 0]), 0)]
        tr = tracker(landmarks=lms)
        visible, cam = tr.visible_landmarks(0.0)
        assert [lm.id for lm in visible] == [0]
        assert np.allclose(cam[0], [2, 0, 0], atol=1e-12)

    def test_matches_brute_force(self):
        lms = self.grid_world()
        tr = tracker(landmarks=lms, fov_deg=100.0, range_m=7.0)
        for t in np.linspace(0, 8, 17):
            tr.true_pose = tr.script.pose_at(float(t))
            visible, _ = tr.visible_landmarks(float(t))
            got = {lm.id for lm in visible}
            fwd = tr.true_pose.rotation.apply(np.array([1.0, 0, 0]))
            expect = set()
            for lm in lms:
                rel = lm.position - tr.true_pose.translation
                d = np.linalg.norm(rel)
                if d < 1e-9 or d > 7.0:
                    continue
                if np.dot(rel / d, fwd) >= math.cos(math.radians(50.0)):
                    expect.add(lm.id)
            assert got == expect

    def test_blackout_hides_everything(self):
        from meshslam.sim_world import Landmark
        lms = [Landmark(0, np.array([2.0, 0, 0]), 0)]
        tr = tracker(landmarks=lms, blackouts=[(0.0, 5.0)])
        assert tr.visible_landmarks(1.0)[0] == []
        assert [lm.id for lm in tr.visible_landmarks(5.0)[0]] == [0]


class TestKeyframeSpawning:
    def dense_world(self):
        from meshslam.sim_world import Landmark
        rng = np.random.default_rng(6)
        return [Landmark(i, np.array([rng.uniform(-2, 14), rng.uniform(-4, 4),
                                      rng.uniform(0, 2)]), word=i % 40)
                for i in range(300)]

    def test_stationary_agent_single_spawn(self):
        tr = tracker(landmarks=self.dense_world(), waypoints=[[0, 0, 0]],
                     min_word_matches=1)
        spawns = 0
        for i in range(50):
            frame = tr.step(i * 0.1)
            if tr.spawn_keyframe(0, frame.time, frame):
                spawns += 1
        assert spawns == 1

    def test_straight_run_spawn_count(self):
        # 1 m at thresholds of 0.3 -> spawns near 0.3/0.6/0.9 beyond the initial
        tr = tracker(landmarks=self.dense_world(), min_word_matches=1)
        spawn_times = []
        for i in range(0, 101):
            frame = tr.step(i * 0.01)  # 1 cm steps
            out = tr.spawn_keyframe(0, frame.time, frame)
            if out:
                spawn_times.append(round(frame.time, 3))
        assert len(spawn_times) == 4  # initial + 3
        assert spawn_times[0] == 0.0
        assert spawn_times[1:] == [0.31, 0.62, 0.93]

    def test_spin_in_place_spawns_at_angle_thresholds(self):
        tr = tracker(landmarks=self.dense_world(), waypoints=[[0, 0, 0]],
                     min_word_matches=1)
        frame = tr.step(0.0)
        assert tr.spawn_keyframe(0, 0.0, frame) is not None
        spawns = []
        for deg in range(2, 51, 2):
            # drive the estimated heading directly: spin in place 2 degrees per step
            tr.est_pose = Se3Pose(
                Rotation.from_axis_angle(vec3(0, 0, 1), math.radians(deg)),
                tr.est_pose.translation,
            )
            if tr.spawn_keyframe(0, 0.0, frame):
                spawns.append(deg)
        assert spawns == [16, 32, 48]  # first steps strictly past each 15 deg gap

    def test_keyframe_contents(self):
        tr = tracker(landmarks=self.dense_world(), min_word_matches=1)
        frame = tr.step(0.0)
        kf, new_points = tr.spawn_keyframe(7, 0.0, frame)
        assert kf.origin_agent == 7
        assert abs(sum(kf.words.values()) - 1.0) < 1e-12
        assert {p.id for p in new_points} == kf.observed_points
        # every new point carries the word of its landmark
        by_id = {lm.id: lm for lm in tr.landmarks}
        for lm_id, pid in tr.assoc.items():
            pt = next(p for p in new_points if p.id == pid)
            assert pt.word == by_id[lm_id].word

    def test_reobservation_extends_not_recreates(self):
        tr = tracker(landmarks=self.dense_world(), min_word_matches=1)
        frame = tr.step(0.0)
        kf1, new1 = tr.spawn_keyframe(0, 0.0, frame)
        # move a little and spawn again: most landmarks are re-associated
        for i in range(1, 40):
            frame = tr.step(i * 0.01)
        out = tr.spawn_keyframe(0, frame.time, frame)
        assert out is not None
        kf2, new2 = out
        reobserved = kf2.observed_points & kf1.observed_points
        assert reobserved, "expected shared observations across nearby keyframes"
        assert {p.id for p in new2}.isdisjoint({p.id for p in new1})


class TestLossDetection:
    def test_no_blackout_never_lost(self):
        lms = TestKeyframeSpawning().dense_world()
        tr = tracker(landmarks=lms)
        for i in range(1, 100):
            frame = tr.step(i * 0.1)
            assert not frame.lost_transition

    def test_blackout_triggers_loss_after_l_frames(self):
        lms = TestKeyframeSpawning().dense_world()
        tr = tracker(landmarks=lms, blackouts=[(1.0, 4.0)], lost_frames=5)
        transitions = []
        for i in range(1, 60):
            frame = tr.step(i * 0.1)
            if frame.lost_transition:
                transitions.append(round(frame.time, 2))
                tr.enter_private_frame()
        assert transitions == [1.4]  # 5th weak frame: 1.0..1.4

    def test_private_frame_resets_pose_and_scale(self):
        lms = TestKeyframeSpawning().dense_world()
        tr = tracker(seed=3, landmarks=lms, frame_offset="random", scale_offset=None)
        for i in range(1, 20):
            tr.step(i * 0.1)
        tr.enter_private_frame()
        assert not tr.localized
        assert np.allclose(tr.est_pose.translation, 0)
        assert tr.assoc == {}
        assert 0.5 <= tr.frame_scale <= 2.0

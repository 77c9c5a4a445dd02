import numpy as np
import pytest

from meshslam.geometry import Rotation, Se3Pose, Sim3Transform, vec3
from meshslam.map_store import (
    AgentMap,
    DuplicateObjectError,
    KeyFrame,
    MapDatabase,
    MapPoint,
    UnknownObjectError,
    UuidGenerator,
    WordMismatchError,
    make_uuid,
    normalize_histogram,
)
from meshslam.pose_graph import build_local_window, optimize


def make_kf(uid, words, observed=(), pose=None, agent=0, ts=0.0):
    return KeyFrame(
        id=uid,
        origin_agent=agent,
        timestamp=ts,
        pose=pose or Se3Pose.identity(),
        words=normalize_histogram({w: 1.0 for w in words}),
        observed_points=set(observed),
    )


def make_point(uid, pos, word, observers=()):
    return MapPoint(id=uid, position=np.asarray(pos, dtype=float), word=word,
                    observers=set(observers))


def brute_force_shared(m, a, b):
    return len(m.keyframes[a].observed_points & m.keyframes[b].observed_points
               & set(m.points))


class TestUuid:
    def test_deterministic(self):
        g1 = UuidGenerator(seed=42, agent_id=3)
        g2 = UuidGenerator(seed=42, agent_id=3)
        assert [g1.next() for _ in range(5)] == [g2.next() for _ in range(5)]

    def test_unique_across_agents(self):
        a = {UuidGenerator(7, 0).next() for _ in range(1)}
        b = {UuidGenerator(7, 1).next() for _ in range(1)}
        assert a.isdisjoint(b)

    def test_ascending_within_agent(self):
        g = UuidGenerator(1, 2)
        ids = [g.next() for _ in range(10)]
        assert ids == sorted(ids)

    def test_layout_round_trip(self):
        uid = make_uuid(seed=0xDEAD, agent_id=5, counter=99)
        assert (uid >> 64) == 0xDEAD
        assert (uid >> 48) & 0xFFFF == 5
        assert uid & 0xFFFFFFFFFFFF == 99


class TestInsertKeyframe:
    def test_first_keyframe_no_edges(self):
        m = AgentMap()
        p = make_point(100, [0, 0, 0], word=1, observers={1})
        m.insert_keyframe(make_kf(1, [1], observed={100}), [p])
        assert m.keyframes[1].covisibility == {}
        m.check_integrity()

    def test_shared_seven_points_edge_weight(self):
        m = AgentMap()
        pids = list(range(100, 110))
        pts = [make_point(pid, [pid, 0, 0], word=pid, observers={1}) for pid in pids]
        m.insert_keyframe(make_kf(1, pids, observed=set(pids)), pts)
        # second keyframe re-observes 7 of the 10
        shared = pids[:7]
        m.insert_keyframe(make_kf(2, shared, observed=set(shared)), [])
        assert m.keyframes[1].covisibility[2] == 7
        assert m.keyframes[2].covisibility[1] == 7
        assert brute_force_shared(m, 1, 2) == 7
        m.check_integrity()

    def test_reobserving_point_adds_observer_not_point(self):
        m = AgentMap()
        p = make_point(100, [0, 0, 0], word=1, observers={1})
        m.insert_keyframe(make_kf(1, [1], observed={100}), [p])
        dup = make_point(100, [9, 9, 9], word=1, observers={2})
        m.insert_keyframe(make_kf(2, [1], observed={100}), [dup])
        assert len(m.points) == 1
        assert m.points[100].observers == {1, 2}
        # original position kept
        assert np.allclose(m.points[100].position, [0, 0, 0])
        m.check_integrity()

    def test_duplicate_keyframe_rejected(self):
        m = AgentMap()
        m.insert_keyframe(make_kf(1, [1]), [])
        with pytest.raises(DuplicateObjectError):
            m.insert_keyframe(make_kf(1, [1]), [])


class TestQueryVisualWordSet:
    def test_empty_query(self):
        m = AgentMap()
        m.insert_keyframe(make_kf(1, [1, 2]), [])
        assert m.query_visual_word_set({}) == set()

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        m = AgentMap()
        for uid in range(1, 31):
            words = rng.choice(50, size=rng.integers(1, 6), replace=False)
            m.insert_keyframe(make_kf(uid, [int(w) for w in words]), [])
        for _ in range(20):
            q = {int(w): 1.0 for w in rng.choice(50, size=3, replace=False)}
            expected = {
                kid for kid, kf in m.keyframes.items()
                if set(kf.words) & set(q)
            }
            assert m.query_visual_word_set(q) == expected

    def test_unseen_words_empty(self):
        m = AgentMap()
        m.insert_keyframe(make_kf(1, [1, 2, 3]), [])
        assert m.query_visual_word_set({99: 1.0, 100: 1.0}) == set()


class TestTopCovisible:
    def test_isolated_keyframe(self):
        m = AgentMap()
        m.insert_keyframe(make_kf(1, [1]), [])
        assert m.top_covisible(1, 5) == []

    def test_ranking_with_uuid_ties(self):
        m = AgentMap()
        # center observes 9 points; neighbors share 9,7,7,3,2,1 of them
        pids = list(range(100, 109))
        pts = [make_point(p, [0, 0, 0], word=p, observers={10}) for p in pids]
        m.insert_keyframe(make_kf(10, pids, observed=set(pids)), pts)
        shares = {11: 9, 12: 7, 13: 7, 14: 3, 15: 2, 16: 1}
        for uid, k in shares.items():
            sub = pids[:k]
            m.insert_keyframe(make_kf(uid, sub, observed=set(sub)), [])
        # sort oracle: by (-weight, uuid)
        oracle = [uid for uid, _ in sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))][:5]
        assert m.top_covisible(10, 5) == oracle
        assert m.top_covisible(10, 5) == [11, 12, 13, 14, 15]

    def test_k_larger_than_neighbors(self):
        m = AgentMap()
        p = make_point(100, [0, 0, 0], word=1, observers={1})
        m.insert_keyframe(make_kf(1, [1], observed={100}), [p])
        m.insert_keyframe(make_kf(2, [1], observed={100}), [])
        assert m.top_covisible(1, 50) == [2]


class TestMergeMapPoints:
    def build(self):
        m = AgentMap()
        pa = make_point(100, [0, 0, 0], word=7, observers={1})
        pb = make_point(101, [0.01, 0, 0], word=7, observers={2})
        m.insert_keyframe(make_kf(1, [7], observed={100}), [pa])
        m.insert_keyframe(make_kf(2, [7], observed={101}), [pb])
        return m

    def test_merge_unions_observers_and_updates_covisibility(self):
        m = self.build()
        assert 2 not in m.keyframes[1].covisibility
        m.merge_map_points(100, 101)
        assert m.points[100].observers == {1, 2}
        assert 101 not in m.points
        assert m.keyframes[2].observed_points == {100}
        # shared count recomputed by brute force
        assert m.keyframes[1].covisibility[2] == brute_force_shared(m, 1, 2) == 1
        m.check_integrity()

    def test_self_merge_noop(self):
        m = self.build()
        before = {pid: sorted(p.observers) for pid, p in m.points.items()}
        m.merge_map_points(100, 100)
        after = {pid: sorted(p.observers) for pid, p in m.points.items()}
        assert before == after

    def test_shared_observer_deduplicated(self):
        m = AgentMap()
        pa = make_point(100, [0, 0, 0], word=7, observers={1})
        pb = make_point(101, [0, 0, 0], word=7, observers={1})
        m.insert_keyframe(make_kf(1, [7], observed={100, 101}), [pa, pb])
        m.merge_map_points(100, 101)
        assert m.keyframes[1].observed_points == {100}
        assert m.points[100].observers == {1}
        m.check_integrity()

    def test_word_mismatch_rejected(self):
        m = AgentMap()
        pa = make_point(100, [0, 0, 0], word=7, observers={1})
        pb = make_point(101, [0, 0, 0], word=8, observers={1})
        m.insert_keyframe(make_kf(1, [7, 8], observed={100, 101}), [pa, pb])
        with pytest.raises(WordMismatchError):
            m.merge_map_points(100, 101)


class TestApplySim3:
    def build(self):
        rng = np.random.default_rng(1)
        m = AgentMap()
        prev = None
        for uid in range(1, 6):
            pid = 100 + uid
            pos = rng.uniform(-2, 2, 3)
            pose = Se3Pose(Rotation.from_rotvec(rng.uniform(-0.3, 0.3, 3)),
                           rng.uniform(-2, 2, 3))
            pt = make_point(pid, pos, word=uid, observers={uid})
            obs = {pid} if prev is None else {pid, 100 + prev}
            m.insert_keyframe(make_kf(uid, [uid], observed=obs, pose=pose), [pt])
            prev = uid
        return m

    def test_identity_leaves_map_unchanged(self):
        m = self.build()
        before = {pid: p.position.copy() for pid, p in m.points.items()}
        m.apply_sim3(Sim3Transform.identity())
        for pid, p in m.points.items():
            assert np.array_equal(p.position, before[pid])

    def test_translation_shifts_x(self):
        m = self.build()
        before = {pid: p.position.copy() for pid, p in m.points.items()}
        m.apply_sim3(Sim3Transform(1.0, Rotation.identity(), vec3(1, 0, 0)))
        for pid, p in m.points.items():
            assert np.allclose(p.position, before[pid] + [1, 0, 0])

    def test_scale_doubles_distances(self):
        m = self.build()
        pts_before = np.array([m.points[p].position for p in sorted(m.points)])
        m.apply_sim3(Sim3Transform(2.0, Rotation.identity(), np.zeros(3)))
        pts_after = np.array([m.points[p].position for p in sorted(m.points)])
        din = np.linalg.norm(pts_before[:, None] - pts_before[None, :], axis=-1)
        dout = np.linalg.norm(pts_after[:, None] - pts_after[None, :], axis=-1)
        mask = din > 1e-12
        assert np.all(np.abs(dout[mask] / (2 * din[mask]) - 1) < 1e-12)

    def test_local_window_has_zero_cost_after_transform(self):
        # windows measure edges from the current poses, so a whole-map
        # SIM(3) leaves nothing for the optimizer to correct
        m = self.build()
        m.apply_sim3(Sim3Transform(1.7, Rotation.from_axis_angle(vec3(0, 0, 1), 0.4),
                                   vec3(0.5, -1, 2)))
        for kid in sorted(m.keyframes):
            window = build_local_window(m, kid, 2)
            assert window.edges
            report = optimize(window)
            assert report.initial_cost < 1e-20
            assert report.iterations == 0


class TestPrivateMaps:
    def test_spawn_and_merge_empty(self):
        db = MapDatabase()
        db.spawn_private_map()
        assert db.active == 1
        db.merge_private_map(Sim3Transform.identity())
        assert len(db.maps) == 1 and db.active == 0

    def test_merge_conserves_counts(self):
        db = MapDatabase()
        for uid in range(1, 4):
            pt = make_point(100 + uid, [uid, 0, 0], word=uid, observers={uid})
            db.active_map.insert_keyframe(make_kf(uid, [uid], observed={100 + uid}), [pt])
        db.spawn_private_map()
        for uid in range(10, 20):
            pt = make_point(100 + uid, [uid, 0, 0], word=uid, observers={uid})
            db.active_map.insert_keyframe(make_kf(uid, [uid], observed={100 + uid}), [pt])
        kf_in = len(db.maps[0].keyframes) + len(db.maps[1].keyframes)
        pt_in = len(db.maps[0].points) + len(db.maps[1].points)
        db.merge_private_map(Sim3Transform(2.0, Rotation.identity(), vec3(1, 1, 1)))
        assert len(db.maps) == 1
        assert len(db.shared_map.keyframes) == kf_in == 13
        assert len(db.shared_map.points) == pt_in
        db.shared_map.check_integrity()

    def test_two_sequential_private_maps(self):
        db = MapDatabase()
        db.spawn_private_map()
        db.merge_private_map(Sim3Transform.identity())
        db.spawn_private_map()
        assert db.active == 1
        db.merge_private_map(Sim3Transform.identity())
        assert len(db.maps) == 1

    def test_merge_without_private_map_errors(self):
        db = MapDatabase()
        with pytest.raises(UnknownObjectError):
            db.merge_private_map(Sim3Transform.identity())


class TestPendingLinks:
    def test_keyframe_waits_for_point(self):
        m = AgentMap()
        m.insert_keyframe(make_kf(1, [7], observed={100}), [])
        assert 100 in m.pending_point_links
        m.upsert_point(make_point(100, [0, 0, 0], word=7, observers=set()))
        assert 100 not in m.pending_point_links
        assert m.points[100].observers == {1}
        m.check_integrity()

    def test_point_waits_for_keyframe(self):
        m = AgentMap()
        m.insert_keyframe(make_kf(1, [7], observed={100}), [
            make_point(100, [0, 0, 0], word=7, observers={1, 2})
        ])
        assert 100 in m.pending_kf_links.get(2, set())
        m.insert_keyframe(make_kf(2, [7], observed=set()), [])
        assert m.points[100].observers == {1, 2}
        assert m.keyframes[1].covisibility[2] == 1
        m.check_integrity()


class TestIndexConsistencyProperty:
    def test_random_mutation_sequences(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            m = AgentMap()
            gen = UuidGenerator(trial, 0)
            pgen = UuidGenerator(trial, 1)
            live_points = []
            for _ in range(30):
                word_pool = rng.integers(0, 20, size=rng.integers(1, 5))
                new_pts, observed = [], set()
                for w in word_pool:
                    if live_points and rng.random() < 0.5:
                        observed.add(int(rng.choice(live_points)))
                    else:
                        pid = pgen.next()
                        new_pts.append(make_point(pid, rng.uniform(-1, 1, 3), int(w)))
                        observed.add(pid)
                kid = gen.next()
                words = sorted({m.points[p].word for p in observed if p in m.points}
                               | {p.word for p in new_pts})
                for p in new_pts:
                    p.observers.add(kid)
                m.insert_keyframe(make_kf(kid, words, observed=observed), new_pts)
                live_points = sorted(m.points)
                if len(live_points) > 2 and rng.random() < 0.3:
                    a, b = rng.choice(live_points, size=2, replace=False)
                    if m.points[int(a)].word == m.points[int(b)].word:
                        keep, discard = sorted((int(a), int(b)))
                        m.merge_map_points(keep, discard)
                        live_points = sorted(m.points)
            m.check_integrity()

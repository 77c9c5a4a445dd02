import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    uuid_agent,
)
from meshslam.pose_graph import build_local_window, optimize


def make_kf(uid, words, observed=(), pose=None, agent=0, ts=0.0):
    return KeyFrame(
        id=uid,
        origin_agent=agent,
        timestamp=ts,
        pose=pose or Se3Pose.identity(),
        words={w: 1 for w in words},
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
        assert uuid_agent(uid) == 5
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

    def two_covisible(self):
        m = AgentMap()
        p = make_point(100, [0, 0, 0], word=1, observers={1})
        m.insert_keyframe(make_kf(1, [1], observed={100}), [p])
        m.insert_keyframe(make_kf(2, [1], observed={100}), [])
        return m

    def test_k_zero_is_empty(self):
        m = self.two_covisible()
        assert m.top_covisible(1, 0) == []
        assert m.top_covisible(1, 1) == [2]

    def test_negative_k_raises(self):
        with pytest.raises(ValueError, match="k=-1"):
            self.two_covisible().top_covisible(1, -1)

    def test_returned_list_is_a_copy(self):
        m = self.two_covisible()
        m.top_covisible(1, 5).append(99)
        assert m.top_covisible(1, 5) == [2]


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

    def test_batched_transform_matches_per_point_apply(self):
        m = self.build()
        t = Sim3Transform(1.7, Rotation.from_axis_angle(vec3(0, 0, 1), 0.4),
                          vec3(0.5, -1, 2))
        want = {pid: t.apply(p.position) for pid, p in m.points.items()}
        m.apply_sim3(t)
        for pid, p in m.points.items():
            assert np.array_equal(p.position, want[pid])

    def test_batched_poses_match_per_keyframe_transform_pose(self):
        # reference: the per-keyframe loop apply_sim3 ran before it moved
        # all poses as one row operation
        rng = np.random.default_rng(21)
        quats = [rng.normal(size=4) for _ in range(20)] + [
            np.array([1.0, 0.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, -1.0, 0.0]),    # not canonical
            np.array([-0.5, 0.5, -0.5, 0.5]),   # not canonical
        ]
        for t in (Sim3Transform(1.7, Rotation.from_axis_angle(vec3(0, 0, 1), 0.4),
                                vec3(0.5, -1, 2)),
                  # 180 degrees about z: products with w == 0 and w < 0
                  Sim3Transform(0.6, Rotation(np.array([0.0, 0.0, 0.0, 1.0])),
                                vec3(-3, 0.25, 1))):
            m = AgentMap()
            for i, q in enumerate(quats):
                q = q / np.linalg.norm(q)
                pose = Se3Pose(Rotation(q), rng.uniform(-5, 5, 3))
                m.insert_keyframe(make_kf(100 + i, [i], pose=pose))
            want = {kid: t.transform_pose(kf.pose) for kid, kf in m.keyframes.items()}
            assert any(p.rotation.q[0] == 0.0 for p in want.values())
            m.apply_sim3(t)
            for kid, kf in m.keyframes.items():
                assert np.array_equal(kf.pose.rotation.q, want[kid].rotation.q)
                assert np.array_equal(kf.pose.translation, want[kid].translation)

    def test_zero_norm_pose_raises_like_transform_pose(self):
        t = Sim3Transform(1.7, Rotation.from_axis_angle(vec3(0, 0, 1), 0.4), vec3(0, 0, 1))
        bad = Se3Pose(Rotation(np.zeros(4)), vec3(1, 2, 3))
        m = AgentMap()
        m.insert_keyframe(make_kf(100, [1]))
        m.insert_keyframe(make_kf(101, [1], pose=bad))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as per_kf:
                t.transform_pose(bad)
            with pytest.raises(ValueError) as batched:
                m.apply_sim3(t)
        assert str(batched.value) == str(per_kf.value)

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
        assert db.active_map is db.private_map is not None
        db.merge_private_map(Sim3Transform.identity())
        assert len(db.maps) == 1 and db.private_map is None

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

    def test_moved_keyframe_reads_covisibility_in_destination(self):
        # keyframe 10 is built in the private map and names shared point 101,
        # which only the shared map holds
        db = MapDatabase()
        pts = [make_point(101, [1, 0, 0], word=1, observers={1}),
               make_point(102, [2, 0, 0], word=2, observers={1})]
        db.active_map.insert_keyframe(make_kf(1, [1, 2], observed={101, 102}), pts)
        private = db.spawn_private_map()
        pt = make_point(110, [3, 0, 0], word=3, observers={10})
        private.insert_keyframe(make_kf(10, [1, 3], observed={101, 110}), [pt])
        moved = private.keyframes[10]
        assert moved.covisibility == {}
        db.merge_private_map(Sim3Transform.identity())
        assert moved.covisibility == {1: 1}
        assert db.shared_map.keyframes[1].covisibility == {10: 1}
        assert db.shared_map.top_covisible(10, 5) == [1]
        assert moved.owner is db.shared_map
        db.shared_map.check_integrity()

    def test_two_sequential_private_maps(self):
        db = MapDatabase()
        db.spawn_private_map()
        db.merge_private_map(Sim3Transform.identity())
        db.spawn_private_map()
        assert db.active_map is db.private_map is not None
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

    def test_integrity_rejects_stale_pending_links(self):
        def linked_map():
            m = AgentMap()
            m.insert_keyframe(make_kf(1, [7], observed={100}), [
                make_point(100, [0, 0, 0], word=7, observers={1})
            ])
            m.check_integrity()
            return m

        plants = [
            lambda m: m.pending_kf_links.setdefault(1, set()).add(100),  # present keyframe
            lambda m: m.pending_kf_links.setdefault(2, set()).add(101),  # absent point
            lambda m: m.pending_point_links.setdefault(100, set()).add(1),  # present point
            lambda m: m.pending_point_links.setdefault(101, set()).add(1),  # not listed
            lambda m: m.pending_point_links.setdefault(101, set()).add(3),  # absent keyframe
        ]
        for plant in plants:
            m = linked_map()
            plant(m)
            with pytest.raises(AssertionError):
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


def counted_covisibility(m):
    """Edge weights recounted from scratch: pairs of observers per present point."""
    want = {kid: {} for kid in m.keyframes}
    for p in m.points.values():
        for a in p.observers:
            for b in p.observers - {a}:
                want[a][b] = want[a].get(b, 0) + 1
    return want


class TestObservationCounting:
    """Random operation sequences over every path that links an observation."""

    def test_random_operations_keep_weights_counted(self):
        rng = np.random.default_rng(4)
        hits = dict.fromkeys(("point_first", "keyframe_first", "new_observer",
                              "shared_merge", "absorb"), 0)

        def pick(pool, k):
            k = min(k, len(pool))
            return [int(x) for x in rng.choice(sorted(pool), size=k, replace=False)]

        for trial in range(6):
            m = AgentMap()
            kgen, pgen = UuidGenerator(trial, 0), UuidGenerator(trial, 1)
            future_kfs: list[int] = []          # claimed by a point, not inserted
            future_pts: dict[int, int] = {}     # observed by a keyframe, not sent

            def fresh_points(kid):
                pts = []
                for _ in range(rng.integers(1, 3)):
                    observers = {kid}
                    if rng.random() < 0.3:
                        future_kfs.append(kgen.next())
                        observers.add(future_kfs[-1])
                    pts.append(make_point(pgen.next(), rng.uniform(-1, 1, 3),
                                          int(rng.integers(3)), observers))
                return pts

            def keyframe(kid, pts, observed):
                words = {p.word for p in pts} | {int(rng.integers(3))}
                return make_kf(kid, sorted(words),
                               observed={p.id for p in pts} | set(observed))

            for _ in range(40):
                op = int(rng.integers(4)) if m.keyframes else 0
                if op == 0:
                    if future_kfs and rng.random() < 0.5:
                        kid = future_kfs.pop(0)
                        hits["point_first"] += kid in m.pending_kf_links
                    else:
                        kid = kgen.next()
                    observed = pick(m.points, int(rng.integers(0, 4)))
                    if rng.random() < 0.3:
                        future_pts[pgen.next()] = int(rng.integers(3))
                        observed.append(max(future_pts))
                    pts = fresh_points(kid)
                    m.insert_keyframe(keyframe(kid, pts, observed), pts)
                elif op == 1 and future_pts and rng.random() < 0.5:
                    pid = min(future_pts)
                    hits["keyframe_first"] += pid in m.pending_point_links
                    m.upsert_point(make_point(pid, rng.uniform(-1, 1, 3),
                                              future_pts.pop(pid)))
                elif op == 1:
                    pid = pick(m.points, 1)[0]
                    claimed = set(pick(m.keyframes, 2))
                    if rng.random() < 0.3:
                        future_kfs.append(kgen.next())
                        claimed.add(future_kfs[-1])
                    hits["new_observer"] += bool(
                        claimed & set(m.keyframes) - m.points[pid].observers)
                    m.upsert_point(make_point(pid, rng.uniform(-1, 1, 3),
                                              m.points[pid].word, claimed))
                elif op == 2:
                    pairs = [(a, b) for a in m.points for b in m.points
                             if a < b and m.points[a].word == m.points[b].word]
                    shared = [ab for ab in pairs
                              if m.points[ab[0]].observers & m.points[ab[1]].observers]
                    pool = shared if shared and rng.random() < 0.7 else pairs
                    if not pool:
                        continue
                    keep, discard = pool[int(rng.integers(len(pool)))]
                    hits["shared_merge"] += bool(
                        m.points[keep].observers & m.points[discard].observers)
                    m.merge_map_points(keep, discard)
                else:
                    other = AgentMap()
                    for _ in range(rng.integers(1, 3)):
                        kid = future_kfs.pop(0) if future_kfs else kgen.next()
                        pts = fresh_points(kid)
                        if future_pts and rng.random() < 0.5:
                            pid = min(future_pts)
                            pts.append(make_point(pid, rng.uniform(-1, 1, 3),
                                                  future_pts.pop(pid), {kid}))
                        if rng.random() < 0.5:
                            pts[0].observers.update(pick(m.keyframes, 1))
                        other.insert_keyframe(
                            keyframe(kid, pts, pick(m.points, 2)), pts)
                        other.check_integrity()
                    m.absorb(other)
                    hits["absorb"] += 1
                m.check_integrity()
                assert not m.pending_kf_links.keys() & m.keyframes.keys()
                assert not m.pending_point_links.keys() & m.points.keys()
                assert {kid: kf.covisibility for kid, kf in m.keyframes.items()} \
                    == counted_covisibility(m)
        assert all(hits.values()), hits


def uncached_top_covisible(m, kid, k):
    ranked = sorted(m.keyframes[kid].covisibility.items(), key=lambda kv: (-kv[1], kv[0]))
    return [nid for nid, _ in ranked[:k]]


class RandomMapOps:
    """Map mutations driven by one seed per operation.

    Ids never collide across the shared and the private map: every point id
    is created in one map only, and the private map's contents move to the
    shared map by `absorb`.
    """

    KINDS = ("insert", "late_point", "upsert", "merge", "absorb")

    def __init__(self):
        self.shared, self.private = AgentMap(), AgentMap()
        self.next_id = 1
        self.future_kfs: list[int] = []        # claimed by a point, not inserted
        self.future_pts: dict[int, int] = {}   # observed by a keyframe, not sent: id -> word
        self.home: dict[int, AgentMap] = {}    # point id -> the map that created it

    def fresh(self) -> int:
        self.next_id += 1
        return self.next_id

    def apply(self, kind: str, rng) -> None:
        getattr(self, kind)(rng, self.shared if rng.random() < 0.7 else self.private)

    def _pick(self, rng, pool, k):
        pool = sorted(pool)
        k = min(k, len(pool))
        return [int(x) for x in rng.choice(pool, size=k, replace=False)] if k else []

    def insert(self, rng, m):
        if self.future_kfs and rng.random() < 0.5:
            kid = self.future_kfs.pop(int(rng.integers(len(self.future_kfs))))
        else:
            kid = self.fresh()
        pts = []
        for _ in range(int(rng.integers(0, 3))):
            observers = {kid}
            if rng.random() < 0.3:
                self.future_kfs.append(self.fresh())
                observers.add(self.future_kfs[-1])
            pts.append(make_point(self.fresh(), rng.uniform(-1, 1, 3),
                                  int(rng.integers(3)), observers))
            self.home[pts[-1].id] = m
        observed = {p.id for p in pts} | set(self._pick(rng, self.home, int(rng.integers(0, 5))))
        if rng.random() < 0.4:
            pid = self.fresh()
            self.future_pts[pid] = int(rng.integers(3))
            observed.add(pid)
        words = sorted({p.word for p in pts} | {int(rng.integers(3))})
        m.insert_keyframe(make_kf(kid, words, observed=observed), pts)

    def late_point(self, rng, m):
        """A point that keyframes listed before it arrived."""
        if not self.future_pts:
            return self.insert(rng, m)
        pid = self._pick(rng, self.future_pts, 1)[0]
        # it arrives in the map whose keyframe listed it
        m = self.shared if pid in self.shared.pending_point_links else self.private
        self.home[pid] = m
        m.upsert_point(make_point(pid, rng.uniform(-1, 1, 3), self.future_pts.pop(pid)))

    def upsert(self, rng, m):
        """A known point record arriving again with more observers."""
        mine = [pid for pid, where in self.home.items() if where is m and pid in m.points]
        if not mine or not m.keyframes:
            return self.insert(rng, m)
        pid = self._pick(rng, mine, 1)[0]
        claimed = set(self._pick(rng, m.keyframes, int(rng.integers(1, 3))))
        if rng.random() < 0.3:
            self.future_kfs.append(self.fresh())
            claimed.add(self.future_kfs[-1])
        m.upsert_point(make_point(pid, rng.uniform(-1, 1, 3), m.points[pid].word, claimed))

    def merge(self, rng, m):
        pairs = [(a, b) for a in m.points for b in m.points
                 if a < b and m.points[a].word == m.points[b].word]
        # prefer duplicates seen together: their merge drops observations
        shared = [(a, b) for a, b in pairs if m.points[a].observers & m.points[b].observers]
        pairs = shared if shared and rng.random() < 0.7 else pairs
        if not pairs:
            return self.insert(rng, m)
        keep, discard = pairs[int(rng.integers(len(pairs)))]
        if rng.random() < 0.5:
            keep, discard = discard, keep
        m.merge_map_points(keep, discard)

    def absorb(self, rng, m):
        self.shared.absorb(self.private)
        self.home = {pid: self.shared for pid in self.home}
        self.private = AgentMap()


class TestTopCovisibleCache:
    """The cached ranking equals a fresh one after every kind of mutation."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(ops=st.lists(st.tuples(st.sampled_from(RandomMapOps.KINDS),
                                  st.integers(0, (1 << 32) - 1),
                                  st.one_of(st.none(), st.just(5), st.integers(0, 6))),
                        min_size=1, max_size=40))
    def test_ranking_matches_uncached(self, ops):
        # rankings are read with k after some operations only (k None: no
        # read), so a cached one may survive several mutations before it is
        # read again; a keyframe keeps only its last k's ranking
        world = RandomMapOps()
        for kind, seed, k in ops:
            world.apply(kind, np.random.default_rng(seed))
            if k is None:
                continue
            for m in (world.shared, world.private):
                m.check_integrity()
                for kid in sorted(m.keyframes):
                    assert m.top_covisible(kid, k) == uncached_top_covisible(m, kid, k)

    @staticmethod
    def drop_and_refill(m):
        """Keyframe 1 ranks [2]; a merge then drops one of its observations
        and a late point seen by 1 and 3 adds one back, so 1 again lists two
        present points with four observers in all, but now ranks [2, 3]."""
        m.insert_keyframe(make_kf(1, [1], observed={100, 101}),
                          [make_point(100, [0, 0, 0], 1, {1}), make_point(101, [0, 0, 0], 1, {1})])
        m.insert_keyframe(make_kf(2, [1], observed={100, 101}), [])
        m.insert_keyframe(make_kf(3, [1]), [])
        assert m.top_covisible(1, 5) == [2]
        m.merge_map_points(100, 101)
        m.upsert_point(make_point(102, [0, 0, 0], 1, {1, 3}))

    def test_unlink_invalidates_an_equal_size_ranking(self):
        m = AgentMap()
        self.drop_and_refill(m)
        assert m.top_covisible(1, 5) == uncached_top_covisible(m, 1, 5) == [2, 3]

    def test_absorb_clears_rankings_of_moved_keyframes(self):
        # the moved keyframe's ranking was keyed on the private map's count
        # of drops, and the shared map's own count is still 0
        db = MapDatabase()
        self.drop_and_refill(db.spawn_private_map())
        db.merge_private_map(Sim3Transform.identity())
        assert db.shared_map.unlinks == 0
        assert db.shared_map.top_covisible(1, 5) == [2, 3]

import dataclasses
import random

import numpy as np
import pytest

from meshslam.alignment import RansacParams
from meshslam.geometry import Rotation, Se3Pose, Sim3Transform, vec3
from meshslam.group_protocol import (
    ManagerHooks,
    PeerState,
    SystemManager,
    attempt_full_merge,
    collect_word_correspondences,
    points_by_word,
)
from meshslam.map_store import AgentMap, KeyFrame, MapPoint
from meshslam.wire import (
    BowAnnounce,
    FullMapMsg,
    GroupUpdate,
    LocalizationState,
    MergeNotify,
    decode_frame,
    encode_frame,
)


# ---------------------------------------------------------------------------
# geometric merge fixtures
# ---------------------------------------------------------------------------

def build_map_in_frame(frame: Sim3Transform, words_positions, kf_base=1,
                       pt_base=1000, agent=0, n_keyframes=1):
    """Map whose points are world positions re-expressed through `frame`."""
    m = AgentMap()
    items = sorted(words_positions.items())
    chunks = np.array_split(np.arange(len(items)), n_keyframes)
    all_pids = []
    for ci, chunk in enumerate(chunks):
        kf_id = kf_base + ci
        observed = set()
        pts = []
        for k in chunk:
            word, pos = items[k]
            pid = pt_base + k
            pts.append(MapPoint(pid, frame.apply(np.asarray(pos, dtype=float)),
                                word, {kf_id}))
            observed.add(pid)
            all_pids.append(pid)
        if ci > 0:  # overlap one point with the previous keyframe for covisibility
            observed.add(all_pids[int(chunks[ci - 1][0])])
        words = sorted({items[k][0] for k in chunk})
        kf = KeyFrame(kf_id, agent, float(ci), Se3Pose(frame.rotation,
                      frame.translation.copy()),
                      {w: 1 for w in words}, observed)
        m.insert_keyframe(kf, pts)
    return m


def world_landmarks(rng, n, word_base=0):
    return {word_base + i: rng.uniform(-5, 5, 3) for i in range(n)}


class TestAttemptFullMerge:
    def test_recovers_planted_transform(self):
        rng = np.random.default_rng(1)
        wp = world_landmarks(rng, 30)
        frame_local = Sim3Transform(1.4, Rotation.from_axis_angle(vec3(0, 0, 1), 0.6),
                                    vec3(2, -1, 0.5))
        frame_remote = Sim3Transform.identity()
        local = build_map_in_frame(frame_local, wp, agent=1)
        remote = build_map_in_frame(frame_remote, wp, agent=0, kf_base=50, pt_base=5000)
        remote_by_word = points_by_word(remote.points.values())
        result = attempt_full_merge(local, hint_kf_id=1,
                                    remote_by_word=remote_by_word,
                                    ransac=RansacParams(seed=5))
        assert result is not None
        t, inliers = result
        assert inliers == 30
        expected = frame_remote.compose(frame_local.inverse())
        probes = rng.uniform(-5, 5, (10, 3))
        err = np.linalg.norm(t.apply(probes) - expected.apply(probes), axis=1)
        assert np.max(err) < 1e-6

    def test_zero_word_overlap(self):
        rng = np.random.default_rng(2)
        local = build_map_in_frame(Sim3Transform.identity(), world_landmarks(rng, 10))
        remote = build_map_in_frame(Sim3Transform.identity(),
                                    world_landmarks(rng, 10, word_base=100),
                                    kf_base=50, pt_base=5000)
        remote_by_word = points_by_word(remote.points.values())
        assert attempt_full_merge(local, 1, remote_by_word, RansacParams(seed=1)) is None

    def test_outlier_correspondences_rejected(self):
        rng = np.random.default_rng(3)
        true_words = world_landmarks(rng, 20)
        frame_local = Sim3Transform(0.8, Rotation.from_axis_angle(vec3(0, 1, 0), 0.4),
                                    vec3(-1, 2, 1))
        local_words = dict(true_words)
        remote_words = dict(true_words)
        # 20 planted outlier words: positions unrelated across the two maps
        for w in range(100, 120):
            local_words[w] = rng.uniform(-5, 5, 3)
            remote_words[w] = rng.uniform(-5, 5, 3) + 20.0
        local = build_map_in_frame(frame_local, local_words, agent=1)
        remote = build_map_in_frame(Sim3Transform.identity(), remote_words,
                                    agent=0, kf_base=50, pt_base=5000)
        result = attempt_full_merge(local, 1, points_by_word(remote.points.values()),
                                    RansacParams(seed=7, min_inliers=12))
        assert result is not None
        t, inliers = result
        assert inliers >= 18  # outliers excluded, true pairs kept
        expected = frame_local.inverse()
        probes = rng.uniform(-5, 5, (10, 3))
        err = np.linalg.norm(t.apply(probes) - expected.apply(probes), axis=1)
        assert np.max(err) < 10 * 0.05

    def test_ambiguous_words_skipped(self):
        local_by_word = {1: [(10, np.zeros(3)), (11, np.ones(3))], 2: [(12, np.ones(3))]}
        remote_by_word = {1: [(20, np.zeros(3))], 2: [(21, np.ones(3))]}
        src, dst = collect_word_correspondences(local_by_word, remote_by_word)
        # word 1 ambiguous on the local side
        assert np.array_equal(src, [np.ones(3)]) and np.array_equal(dst, [np.ones(3)])

    def test_correspondences_are_rows_in_word_order(self):
        local_by_word = {7: [(3, np.full(3, 7.0))], 2: [(1, np.full(3, 2.0))],
                         5: [(2, np.full(3, 5.0))]}
        remote_by_word = {5: [(9, -np.full(3, 5.0))], 7: [(8, -np.full(3, 7.0))]}
        src, dst = collect_word_correspondences(local_by_word, remote_by_word)
        assert np.array_equal(src, [np.full(3, 5.0), np.full(3, 7.0)])
        assert np.array_equal(dst, -src)
        src, dst = collect_word_correspondences({1: [(1, np.zeros(3))]}, {})
        assert src.shape == dst.shape == (0, 3)


# ---------------------------------------------------------------------------
# full protocol harness: synchronous in-memory bus
# ---------------------------------------------------------------------------

class Bus:
    """Immediate-delivery message bus wiring several managers together."""

    def __init__(self):
        self.managers: dict[int, SystemManager] = {}
        self.maps: dict[int, AgentMap] = {}
        self.trace: list[tuple[int, int, object]] = []
        self.events: list[tuple[int, str, dict]] = []
        self.timers: list = []
        self.dropped: set[type] = set()  # message types lost in transit
        self._seed = 0

    def add_agent(self, aid: int, agents: list[int], m: AgentMap):
        def send(dsts, msg, src=aid):
            for dst in dsts:
                self.trace.append((src, dst, msg))
                if type(msg) not in self.dropped:
                    self.deliver(src, dst, msg)

        def log(event, _aid=aid, **detail):
            self.events.append((_aid, event, detail))

        def schedule(delay, fn):
            self.timers.append((delay, fn))

        def apply_transform(t, _aid=aid):
            self.maps[_aid].apply_sim3(t)

        def ransac_seed():
            self._seed += 1
            return self._seed

        self.maps[aid] = m
        hooks = ManagerHooks(send=send, log=log,
                             schedule=schedule, apply_map_transform=apply_transform,
                             ransac_seed=ransac_seed)
        mgr = SystemManager(aid, agents, hooks, shared_map=lambda _aid=aid: self.maps[_aid])
        self.managers[aid] = mgr
        return mgr

    def deliver(self, src, dst, msg):
        mgr = self.managers[dst]
        if isinstance(msg, BowAnnounce):
            mgr.on_bow_announce(msg)
        elif isinstance(msg, FullMapMsg):
            mgr.on_full_map(msg)
        elif isinstance(msg, MergeNotify):
            mgr.on_merge_notify(msg)
        elif isinstance(msg, GroupUpdate):
            mgr.on_group_update(msg)
        elif isinstance(msg, LocalizationState):
            mgr.on_localization_state(msg)
        else:
            raise TypeError(type(msg))
        for m in self.managers.values():
            m.check_invariants()

    def partition(self, components):
        for m in self.managers.values():
            m.on_partition_change(components)
            m.check_invariants()

    def timeouts(self):
        return [(a, d) for a, e, d in self.events if e == "merge_handshake_timeout"]


def three_agent_bus(rng):
    """Agents 1 and 2 share a region; agent 0 maps elsewhere initially."""
    shared = world_landmarks(rng, 20)                   # words 0..19
    own_area = world_landmarks(rng, 20, word_base=100)  # agent 0's initial area
    frame0 = Sim3Transform(1.1, Rotation.from_axis_angle(vec3(0, 0, 1), -0.4),
                           vec3(3, 3, 0))
    frame1 = Sim3Transform.identity()
    frame2 = Sim3Transform(1.3, Rotation.from_axis_angle(vec3(0, 0, 1), 0.3),
                           vec3(1, 2, 0))
    bus = Bus()
    m0 = build_map_in_frame(frame0, own_area, agent=0, kf_base=1, pt_base=1000)
    m1 = build_map_in_frame(frame1, shared, agent=1, kf_base=100, pt_base=2000)
    m2 = build_map_in_frame(frame2, shared, agent=2, kf_base=200, pt_base=3000)
    for aid, m in ((0, m0), (1, m1), (2, m2)):
        bus.add_agent(aid, [0, 1, 2], m)
    return bus, shared, (frame0, frame1, frame2)


class TestProtocolFlow:
    def test_fig3_style_two_stage_merge(self):
        rng = np.random.default_rng(10)
        bus, shared, frames = three_agent_bus(rng)
        m2 = bus.maps[2]

        # agent 2 announces one of its keyframes to the other leaders
        kf2 = m2.keyframes[200]
        bus.managers[2].announce_keyframe_bow(kf2.id, kf2.words)
        assert bus.managers[1].registry.group_of(1) == frozenset({1, 2})
        assert bus.managers[2].registry.group_of(2) == frozenset({1, 2})
        assert bus.managers[0].registry.group_of(1) == frozenset({1, 2})
        assert bus.managers[1].registry.leader_of(1) == 1
        merge_events = [(a, d) for a, e, d in bus.events if e == "group_merged"]
        assert merge_events[0][1]["roster"] == [1, 2]

        # maps of 1 and 2 now coincide in frame 1: compare word-matched points
        for word in range(20):
            p1 = next(p for p in bus.maps[1].points.values() if p.word == word)
            p2 = next(p for p in bus.maps[2].points.values() if p.word == word)
            assert np.linalg.norm(p1.position - p2.position) < 0.05

        # agent 0 then maps the shared region and announces: probe path (0 < 1)
        frame0 = frames[0]
        extra = build_map_in_frame(frame0, shared, agent=0, kf_base=10, pt_base=1500)
        kf = extra.keyframes[10]
        bus.maps[0].insert_keyframe(
            kf, [extra.points[p] for p in sorted(kf.observed_points)])
        kf0 = bus.maps[0].keyframes[10]
        bus.managers[0].announce_keyframe_bow(kf0.id, kf0.words)

        for mgr in bus.managers.values():
            assert mgr.registry.group_of(0) == frozenset({0, 1, 2})
            assert mgr.registry.leader_of(0) == 0
            assert mgr.state(0, 1) == PeerState.MERGED
            assert mgr.state(0, 2) == PeerState.MERGED
        merge_events = [(a, d) for a, e, d in bus.events if e == "group_merged"]
        assert [d["roster"] for _, d in merge_events] == [[1, 2], [0, 1, 2]]

        # all maps now express the shared landmarks in one frame
        for word in range(20):
            pts = []
            for aid in (0, 1, 2):
                cand = [p for p in bus.maps[aid].points.values() if p.word == word]
                if cand:
                    pts.append(cand[0].position)
            assert len(pts) >= 2
            for p in pts[1:]:
                assert np.linalg.norm(p - pts[0]) < 0.06

        # message class ordering per merge: announce* < full map < notify < update
        def first_index(pred):
            return next(i for i, (s, d, m) in enumerate(bus.trace) if pred(s, d, m))

        fm1 = first_index(lambda s, d, m: isinstance(m, FullMapMsg))
        mn1 = first_index(lambda s, d, m: isinstance(m, MergeNotify))
        gu1 = first_index(lambda s, d, m: isinstance(m, GroupUpdate))
        assert fm1 < mn1 < gu1
        announce_before = [i for i, (s, d, m) in enumerate(bus.trace)
                           if isinstance(m, BowAnnounce) and i < fm1]
        assert announce_before

    def test_duplicate_merge_notify_not_reapplied(self):
        rng = np.random.default_rng(11)
        bus, shared, frames = three_agent_bus(rng)
        kf2 = bus.maps[2].keyframes[200]
        bus.managers[2].announce_keyframe_bow(kf2.id, kf2.words)
        notices = [m for (_, d, m) in bus.trace if isinstance(m, MergeNotify)]
        assert notices
        # replaying the notice at its recipient must not move the map again:
        # receivers apply a notice once per merge id, and the transform
        # roster guard keeps non-members safe regardless
        before = {pid: p.position.copy() for pid, p in bus.maps[1].points.items()}
        bus.managers[1].on_merge_notify(notices[0])  # agent 1 not in transform roster
        for pid, p in bus.maps[1].points.items():
            assert np.array_equal(p.position, before[pid])

    def test_announce_ignored_while_merge_in_progress(self):
        rng = np.random.default_rng(12)
        bus, shared, frames = three_agent_bus(rng)
        mgr1 = bus.managers[1]
        bus.dropped.add(FullMapMsg)
        mgr1._start_full_map_exchange(2, hint_kf=200)
        assert mgr1.state(1, 2) == PeerState.MERGE_IN_PROGRESS
        kf2 = bus.maps[2].keyframes[200]
        before = len(bus.trace)
        bus.deliver(2, 1, BowAnnounce(2, kf2.id, dict(kf2.words)))
        assert len(bus.trace) == before  # no reaction

    def test_full_map_lists_objects_in_ascending_id_order(self):
        rng = np.random.default_rng(15)
        bus, shared, frames = three_agent_bus(rng)
        m1 = bus.maps[1]
        # lower ids inserted last, so the map's own order is not ascending
        late = build_map_in_frame(frames[1], world_landmarks(rng, 6, word_base=300),
                                  agent=1, kf_base=5, pt_base=500, n_keyframes=2)
        for kid in sorted(late.keyframes, reverse=True):
            kf = late.keyframes[kid]
            m1.insert_keyframe(kf, [late.points[p] for p in sorted(kf.observed_points)
                                    if p not in m1.points])
        assert list(m1.keyframes) != sorted(m1.keyframes)
        assert list(m1.points) != sorted(m1.points)
        bus.dropped.add(FullMapMsg)
        bus.managers[1]._start_full_map_exchange(2, hint_kf=200)
        [msg] = [m for (_, _, m) in bus.trace if isinstance(m, FullMapMsg)]
        assert [p.id for p in msg.points] == sorted(m1.points)

    def test_full_map_carries_what_the_fit_reads(self):
        """A full map carries no keyframes and no observers, and decodes to
        the word table the receiver's fit would build from the sender's map."""
        bus, shared, frames = three_agent_bus(np.random.default_rng(17))
        m1 = bus.maps[1]
        bus.dropped.add(FullMapMsg)
        bus.managers[1]._start_full_map_exchange(2, hint_kf=200)
        [msg] = [m for (_, _, m) in bus.trace if isinstance(m, FullMapMsg)]
        assert [f.name for f in dataclasses.fields(msg)] == ["sender", "hint_kf", "points"]
        assert all(p.observers == set() for p in msg.points)
        assert all(m1.points[p.id].observers for p in msg.points)  # the map's own keep theirs
        out = decode_frame(encode_frame(msg, 1))

        def table(points):
            return {w: [(i, pos.tobytes()) for i, pos in rows]
                    for w, rows in points_by_word(points).items()}
        assert table(out.points) == table(m1.points.values())

    def test_non_leader_announce_is_noop(self):
        rng = np.random.default_rng(13)
        bus, shared, frames = three_agent_bus(rng)
        kf2 = bus.maps[2].keyframes[200]
        bus.managers[2].announce_keyframe_bow(kf2.id, kf2.words)  # merges 1 and 2
        assert bus.managers[2].announce_keyframe_bow(kf2.id, kf2.words) == []

    def test_handshake_timeout_reverts_state(self):
        rng = np.random.default_rng(14)
        bus, shared, frames = three_agent_bus(rng)
        mgr1 = bus.managers[1]
        bus.dropped.add(FullMapMsg)  # the full map is lost in transit
        mgr1._start_full_map_exchange(2, hint_kf=200)
        assert mgr1.state(1, 2) == PeerState.MERGE_IN_PROGRESS
        timeout_timers = [(d, f) for d, f in bus.timers if d == 5.0]
        assert timeout_timers
        timeout_timers[-1][1]()
        assert mgr1.state(1, 2) == PeerState.UNMERGED
        assert bus.timeouts() == [(1, {"peer": 2})]

    def test_merged_handshake_is_dropped_and_its_timer_silent(self):
        bus, shared, frames = three_agent_bus(np.random.default_rng(10))
        kf2 = bus.maps[2].keyframes[200]
        bus.managers[2].announce_keyframe_bow(kf2.id, kf2.words)
        mgr1 = bus.managers[1]
        assert mgr1.registry.group_of(1) == frozenset({1, 2})
        assert mgr1._handshakes == {} and not mgr1._merge_busy()
        timeout_timers = [f for d, f in bus.timers if d == 5.0]
        assert timeout_timers
        for expire in timeout_timers:
            expire()
        assert bus.timeouts() == []

    def test_handshake_dropped_when_a_roster_joins_its_pair(self):
        # agent 1's full map to 2 is lost; a group update from a merge made
        # elsewhere then puts 1 and 2 in one group before the timer fires
        bus, shared, frames = three_agent_bus(np.random.default_rng(17))
        bus.dropped.add(FullMapMsg)
        mgr1 = bus.managers[1]
        mgr1._start_full_map_exchange(2, hint_kf=200)
        assert mgr1._merge_busy()
        expire = bus.timers[-1][1]
        mgr1.on_group_update(GroupUpdate(sender=0, roster=[0, 1, 2]))
        mgr1.check_invariants()
        assert mgr1.state(1, 2) == PeerState.MERGED
        assert mgr1._handshakes == {} and not mgr1._merge_busy()
        expire()
        assert bus.timeouts() == []


class TestHandshakeAcrossPartition:
    def lost_full_map(self, seed):
        bus, shared, frames = three_agent_bus(np.random.default_rng(seed))
        bus.dropped.add(FullMapMsg)
        bus.managers[1]._start_full_map_exchange(2, hint_kf=200)
        return bus, bus.managers[1]

    def test_unreachable_then_unmerged_and_timer_silent(self):
        bus, mgr1 = self.lost_full_map(15)
        first_timer = bus.timers[-1][1]
        bus.partition([{0, 1}, {2}])
        assert mgr1.state(1, 2) == PeerState.PEER_UNREACHABLE
        bus.partition([{0, 1, 2}])
        assert mgr1.state(1, 2) == PeerState.UNMERGED
        first_timer()
        assert mgr1.state(1, 2) == PeerState.UNMERGED
        assert bus.timeouts() == []

    def test_restarted_handshake_outlives_first_timer(self):
        bus, mgr1 = self.lost_full_map(16)
        first_timer = bus.timers[-1][1]
        bus.partition([{0, 1}, {2}])
        bus.partition([{0, 1, 2}])
        mgr1._start_full_map_exchange(2, hint_kf=200)
        second_timer = bus.timers[-1][1]
        first_timer()
        assert mgr1.state(1, 2) == PeerState.MERGE_IN_PROGRESS
        assert bus.timeouts() == []
        second_timer()
        assert mgr1.state(1, 2) == PeerState.UNMERGED
        assert bus.timeouts() == [(1, {"peer": 2})]


class TestAnnounceRecipients:
    def bus_with_maps(self, rng):
        bus = Bus()
        shared = world_landmarks(rng, 15)
        for aid in (0, 1, 2):
            frame = Sim3Transform.identity()
            m = build_map_in_frame(frame, shared, agent=aid,
                                   kf_base=100 * (aid + 1), pt_base=1000 * (aid + 1))
            bus.add_agent(aid, [0, 1, 2], m)
        return bus

    def test_three_singleton_groups(self):
        bus = self.bus_with_maps(np.random.default_rng(30))
        mgr0 = bus.managers[0]
        kf = bus.maps[0].keyframes[100]
        sent_before = len(bus.trace)
        recipients = mgr0.announce_keyframe_bow(kf.id, kf.words)
        assert recipients == [1, 2]

    def test_only_other_group_leaders(self):
        bus = self.bus_with_maps(np.random.default_rng(31))
        for mgr in bus.managers.values():
            mgr._absorb_roster([1, 2])
        mgr0 = bus.managers[0]
        kf = bus.maps[0].keyframes[100]
        assert mgr0.announce_keyframe_bow(kf.id, kf.words) == [1]

    def test_unreachable_leaders_get_nothing(self):
        bus = self.bus_with_maps(np.random.default_rng(33))
        bus.partition([{0, 2}, {1}])
        mgr0 = bus.managers[0]
        kf = bus.maps[0].keyframes[100]
        before = len(bus.trace)
        assert mgr0.announce_keyframe_bow(kf.id, kf.words) == [2]
        # the bus delivers at once, so agent 2's replies follow in the trace
        assert [(s, d) for s, d, m in bus.trace[before:]
                if isinstance(m, BowAnnounce) and s == 0] == [(0, 2)]
        bus.partition([{0}, {1, 2}])
        before = len(bus.trace)
        assert mgr0.announce_keyframe_bow(kf.id, kf.words) == []
        assert len(bus.trace) == before

    def test_non_leader_sends_nothing(self):
        bus = self.bus_with_maps(np.random.default_rng(32))
        for mgr in bus.managers.values():
            mgr._absorb_roster([1, 2])
        mgr2 = bus.managers[2]
        kf = bus.maps[2].keyframes[300]
        before = len(bus.trace)
        assert mgr2.announce_keyframe_bow(kf.id, kf.words) == []
        assert len(bus.trace) == before


class TestPartitionHandling:
    def merged_trio(self):
        reg_agents = [0, 1, 2]
        bus = Bus()
        for aid in reg_agents:
            bus.add_agent(aid, reg_agents, AgentMap())
        for mgr in bus.managers.values():
            mgr._absorb_roster([0, 1, 2])
            mgr.check_invariants()
        return bus

    def test_leader_drop_reelects_next_lowest(self):
        bus = self.merged_trio()
        for mgr in bus.managers.values():
            mgr.on_partition_change([{0}, {1, 2}])
            assert mgr.registry.group_of(1) == frozenset({1, 2})
            assert mgr.registry.leader_of(1) == 1
            assert mgr.state(0, 1) == PeerState.PEER_UNREACHABLE
            assert mgr.state(1, 2) == PeerState.MERGED
            mgr.check_invariants()

    def test_no_change_is_noop(self):
        bus = self.merged_trio()
        mgr = bus.managers[0]
        before = mgr.registry.groups()
        mgr.on_partition_change([{0, 1, 2}])
        assert mgr.registry.groups() == before

    def test_reconnection_restores_merged_without_handshake(self):
        bus = self.merged_trio()
        for mgr in bus.managers.values():
            mgr.on_partition_change([{0}, {1, 2}])
            mgr.on_partition_change([{0, 1, 2}])
            assert mgr.registry.group_of(0) == frozenset({0, 1, 2})
            assert mgr.state(0, 1) == PeerState.MERGED
            assert mgr.state(0, 2) == PeerState.MERGED
            mgr.check_invariants()

    def test_unmerged_pairs_stay_unmerged_after_reconnect(self):
        bus = Bus()
        for aid in (0, 1):
            bus.add_agent(aid, [0, 1], AgentMap())
        mgr = bus.managers[0]
        mgr.on_partition_change([{0}, {1}])
        assert mgr.state(0, 1) == PeerState.PEER_UNREACHABLE
        mgr.on_partition_change([{0, 1}])
        assert mgr.state(0, 1) == PeerState.UNMERGED
        mgr.check_invariants()


class TestLocalizationMessages:
    def test_lost_and_regained_pair_states(self):
        bus = TestPartitionHandling().merged_trio()
        bus.managers[1].declare_localization_lost()
        for mgr in bus.managers.values():
            assert mgr.state(0, 1) == PeerState.PEER_LOCALIZATION_LOST
            assert mgr.state(1, 2) == PeerState.PEER_LOCALIZATION_LOST
            assert mgr.state(0, 2) == PeerState.MERGED
            mgr.check_invariants()
        bus.managers[1].declare_localization_regained()
        for mgr in bus.managers.values():
            assert mgr.state(0, 1) == PeerState.MERGED
            assert mgr.state(1, 2) == PeerState.MERGED
            mgr.check_invariants()

    @pytest.mark.parametrize("seed", range(8))
    def test_reordered_and_repeated_states_keep_the_newest(self, seed):
        bus = TestPartitionHandling().merged_trio()
        bus.dropped.add(LocalizationState)  # held back, then delivered below
        flips = {1: 5, 2: 4}  # agent 1 ends lost, agent 2 localized
        for owner, n in flips.items():
            declare = (bus.managers[owner].declare_localization_lost,
                       bus.managers[owner].declare_localization_regained)
            for k in range(n):
                declare[k % 2]()
        sent = [(s, d, m) for s, d, m in bus.trace if isinstance(m, LocalizationState)]
        assert len(sent) == 2 * (5 + 4)  # each flip goes to both other agents
        rng = random.Random(seed)
        deliveries = sent + rng.sample(sent, len(sent) // 2)  # some twice
        rng.shuffle(deliveries)
        # the highest epoch each agent has seen of each flipping agent
        newest = {(a, b): flips[b] if a == b else 0 for a in bus.managers for b in flips}
        for src, dst, msg in deliveries:
            bus.deliver(src, dst, msg)  # checks every manager's invariants
            newest[dst, src] = max(newest[dst, src], msg.epoch)
            assert bus.managers[dst].lost_agents == {b for b in flips if newest[dst, b] % 2}
        for mgr in bus.managers.values():
            assert mgr.lost_agents == {1}
            assert mgr.state(0, 1) == PeerState.PEER_LOCALIZATION_LOST
            assert mgr.state(0, 2) == PeerState.MERGED

    def test_merged_peers_leave_out_a_lost_aligned_peer(self):
        bus = TestPartitionHandling().merged_trio()
        bus.managers[1].declare_localization_lost()
        assert (0, 1) in bus.managers[0].aligned
        assert bus.managers[0].merged_peers() == [2]


class TestCompleteGroupMerge:
    """The merging leader's own view of a merge it completes."""

    def bus(self, agents):
        bus = Bus()
        for aid in agents:
            bus.add_agent(aid, agents, AgentMap())
        return bus

    def test_two_singletons(self):
        bus = self.bus([1, 2])
        bus.managers[2].complete_group_merge(1, Sim3Transform.identity(), 12)
        for mgr in bus.managers.values():
            assert mgr.registry.group_of(2) == frozenset({1, 2})
            assert mgr.registry.leader_of(2) == 1
            assert mgr.aligned == {(1, 2)}
        [(_, merged)] = [(a, d) for a, e, d in bus.events if e == "group_merged"]
        assert merged["roster"] == [1, 2] and merged["leader"] == 1

    def test_singleton_with_pair(self):
        bus = self.bus([0, 1, 2])
        bus.managers[2].complete_group_merge(1, Sim3Transform.identity(), 12)
        bus.managers[1].complete_group_merge(0, Sim3Transform.identity(), 12)
        for mgr in bus.managers.values():
            assert mgr.registry.groups() == [frozenset({0, 1, 2})]
            assert mgr.registry.leaders() == [0]
            assert mgr.aligned == {(0, 1), (0, 2), (1, 2)}
        rosters = [(d["roster"], d["leader"]) for _, e, d in bus.events if e == "group_merged"]
        assert rosters == [([1, 2], 1), ([0, 1, 2], 0)]

    def test_repeated_notice_moves_a_member_once(self):
        bus = self.bus([0, 1, 2])
        bus.managers[2].complete_group_merge(1, Sim3Transform.identity(), 12)
        bus.managers[1].complete_group_merge(0, Sim3Transform.identity(), 12)

        def applied_at_2():
            return [d for a, e, d in bus.events if a == 2 and e == "merge_transform_applied"]

        # agent 2 was in agent 1's old group, so it moves its map once
        assert [d["source"] for d in applied_at_2()] == [1]
        [notice] = [m for s, d, m in bus.trace
                    if isinstance(m, MergeNotify) and (s, d) == (1, 2)]
        bus.deliver(1, 2, notice)  # a duplicate in transit
        for _, resend in bus.timers:  # the scheduled repeats of both merges
            resend()
        assert len(applied_at_2()) == 1

    def test_each_repeat_goes_to_the_agents_reachable_then(self):
        bus = self.bus([0, 1, 2, 3])
        bus.partition([{0, 1, 2}, {3}])
        bus.managers[2].complete_group_merge(1, Sim3Transform.identity(), 12)

        def sent():
            out = [(type(m).__name__, d) for s, d, m in bus.trace if s == 2]
            bus.trace.clear()
            return out

        assert sent() == [("MergeNotify", 1), ("GroupUpdate", 0), ("GroupUpdate", 1)]
        (_, first), (_, second) = bus.timers[:2]
        bus.partition([{0, 3}, {1, 2}])
        first()
        assert sent() == [("MergeNotify", 1), ("GroupUpdate", 1)]
        bus.partition([{0, 1, 2, 3}])
        second()
        assert sent() == [("MergeNotify", 1), ("GroupUpdate", 0), ("GroupUpdate", 1),
                          ("GroupUpdate", 3)]

    def test_merge_with_own_group_changes_nothing(self):
        bus = self.bus([0, 1])
        bus.managers[1].complete_group_merge(0, Sim3Transform.identity(), 12)
        bus.managers[1].complete_group_merge(0, Sim3Transform.identity(), 12)
        for mgr in bus.managers.values():
            assert mgr.registry.groups() == [frozenset({0, 1})]
            assert mgr.aligned == {(0, 1)}
        rosters = [(d["roster"], d["leader"]) for _, e, d in bus.events if e == "group_merged"]
        assert rosters[-1] == ([0, 1], 0)

    def test_merged_peers_need_a_direct_aligned_pair(self):
        bus = self.bus([0, 1, 2])
        bus.managers[1].complete_group_merge(0, Sim3Transform.identity(), 12)
        bus.partition([{0}, {1, 2}])
        bus.managers[2].complete_group_merge(1, Sim3Transform.identity(), 12)
        bus.deliver(2, 0, GroupUpdate(2, [1, 2]))  # a late copy from across the cut
        bus.partition([{0, 1, 2}])
        mgr = bus.managers[0]
        assert mgr.registry.group_of(0) == frozenset({0, 1, 2})
        assert (0, 2) not in mgr.aligned
        # agent 2 joined agent 0's group through agent 1 only, so agent 0 sends
        # it no keyframes; ROADMAP item 19 widens the recipients to the group
        assert mgr.merged_peers() == [1]
        assert bus.managers[1].merged_peers() == [0, 2]


# ---------------------------------------------------------------------------
# randomized: groups are always the reachable components of the aligned pairs
# ---------------------------------------------------------------------------

def expected_groups(agents, aligned, reachable):
    """Reference partition: merge sets across aligned pairs that can talk."""
    comp_of = {a: i for i, comp in enumerate(reachable) for a in comp}
    groups = [{a} for a in agents]
    for a, b in sorted(aligned):
        if comp_of[a] != comp_of[b]:
            continue
        ga = next(g for g in groups if a in g)
        gb = next(g for g in groups if b in g)
        if ga is not gb:
            ga |= gb
            groups.remove(gb)
    return sorted((frozenset(g) for g in groups), key=min)


def random_partition(rng, agents):
    labels = rng.integers(0, 3, len(agents))
    return [set(np.array(agents)[labels == k].tolist()) for k in sorted(set(labels))]


class RandomCluster:
    """Managers whose control messages reach a random subset of reachable peers.

    Every manager's inputs are logged, so replicas that saw the same inputs
    can be compared.
    """

    def __init__(self, rng, n):
        self.rng = rng
        self.agents = list(range(n))
        self.reachable = [set(self.agents)]
        self.outbox = []
        self.inputs = {a: [] for a in self.agents}
        self.managers = {}
        for aid in self.agents:
            hooks = ManagerHooks(
                send=lambda dsts, msg, src=aid: self.outbox.extend((src, d, msg) for d in dsts),
                log=lambda event, **detail: None,
                schedule=lambda delay, fn: None,
                apply_map_transform=lambda t: None,
                ransac_seed=lambda: 0,
            )
            self.managers[aid] = SystemManager(aid, self.agents, hooks, shared_map=AgentMap)

    def can_talk(self, a, b):
        return any(a in comp and b in comp for comp in self.reachable)

    def deliver_some(self):
        """Deliver each queued roster to a random subset of reachable recipients."""
        everyone = self.rng.random() < 0.5
        rosters: dict[int, list] = {}
        for src, dst, msg in self.outbox:
            if self.can_talk(src, dst) and (everyone or self.rng.random() < 0.5):
                if msg.roster not in rosters.setdefault(dst, []):
                    rosters[dst].append(msg.roster)
                if isinstance(msg, MergeNotify):
                    self.managers[dst].on_merge_notify(msg)
                else:
                    self.managers[dst].on_group_update(msg)
        self.outbox = []
        for dst, seen in rosters.items():
            self.inputs[dst].extend(("roster", tuple(r)) for r in seen)

    def merge(self):
        """A leader completes a merge with a lower, reachable leader in its view."""
        higher = int(self.rng.choice(self.agents))
        mgr = self.managers[higher]
        lower = [l for l in mgr.other_leaders()
                 if l < higher and self.can_talk(l, higher)]
        if not mgr.is_leader() or not lower:
            return
        lower_leader = int(self.rng.choice(lower))
        roster = sorted(mgr.registry.group_of(higher) | mgr.registry.group_of(lower_leader))
        mgr.complete_group_merge(lower_leader, Sim3Transform.identity(), 12)
        self.inputs[higher].append(("roster", tuple(roster)))
        self.deliver_some()

    def absorb(self):
        """Some managers receive a roster naming a random set of agents."""
        size = int(self.rng.integers(2, len(self.agents) + 1))
        roster = sorted(self.rng.choice(self.agents, size, replace=False).tolist())
        sender = roster[0]
        for dst in self.agents:
            if dst != sender:
                self.outbox.append((sender, dst, GroupUpdate(sender, roster)))
        self.deliver_some()

    def partition(self):
        self.reachable = random_partition(self.rng, self.agents)
        for aid, mgr in self.managers.items():
            mgr.on_partition_change(self.reachable)
            self.inputs[aid].append(
                ("partition", tuple(tuple(sorted(c)) for c in self.reachable)))

    def check(self):
        by_inputs: dict[tuple, SystemManager] = {}
        for aid, mgr in self.managers.items():
            mgr.check_invariants()
            assert mgr.registry.groups() == expected_groups(
                self.agents, mgr.aligned, self.reachable)
            twin = by_inputs.setdefault(tuple(self.inputs[aid]), mgr)
            assert twin.registry.groups() == mgr.registry.groups()
            assert twin.aligned == mgr.aligned


@pytest.mark.parametrize("seed", range(12))
def test_random_events_keep_groups_derived(seed):
    rng = np.random.default_rng(seed)
    cluster = RandomCluster(rng, int(rng.integers(3, 6)))
    steps = (cluster.merge, cluster.merge, cluster.absorb, cluster.partition)
    for _ in range(40):
        steps[int(rng.integers(len(steps)))]()
        cluster.check()

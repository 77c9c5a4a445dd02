import glob
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from meshslam import map_sharing, simulation, wire
from meshslam.config import load_scenario
from meshslam.geometry import Rotation, Se3Pose, Sim3Transform
from meshslam.group_protocol import PeerState
from meshslam.map_sharing import QueueEntry
from meshslam.map_store import KeyFrame, MapPoint
from meshslam.merge_detection import bow_similarity
from meshslam.net_sim import CATEGORIES, Envelope
from meshslam.simulation import _RECEIVERS, Simulation
from meshslam.wire import (
    AlignmentRequest,
    BowAnnounce,
    GroupUpdate,
    KeyFramePacket,
    LocalizationState,
    MergeNotify,
    TaggedPoints,
    encode_envelope,
    encode_message,
)

from scenario_defs import (
    blackout_at_end,
    blackout_recovery,
    coop_loops,
    fig3_replay,
)


@pytest.fixture(scope="module")
def lossy_result():
    # every manager's invariants are checked after every event
    return Simulation(coop_loops(True, drop_prob=0.2), seed=3,
                      check_invariants=True).run()


class TestStagedThreeAgentMerge:
    def test_merge_order_and_final_leader(self, fig3_result):
        res = fig3_result
        rosters = [e["detail"]["roster"] for e in res.log.named("group_merged")]
        assert rosters == [[1, 2], [0, 1, 2]]
        leaders = [e["detail"]["leader"] for e in res.log.named("group_merged")]
        assert leaders == [1, 0]
        for aid in (0, 1, 2):
            mgr = res.runtimes[aid].manager
            assert mgr.registry.group_of(aid) == frozenset({0, 1, 2})
            assert mgr.registry.leader_of(aid) == 0

    def test_message_classes_in_causal_order_per_merge(self, fig3_result):
        res = fig3_result
        sends = [(i, e["agent"], e["detail"]["type"])
                 for i, e in enumerate(res.log.entries) if e["event"] == "send"]
        merge_marks = [i for i, e in enumerate(res.log.entries)
                       if e["event"] == "group_merged"]
        assert len(merge_marks) == 2
        for mark in merge_marks:
            bows = [i for i, _, t in sends if t == "bow_announce" and i < mark]
            fms = [i for i, _, t in sends if t == "full_map" and i < mark]
            notifies = [i for i, _, t in sends if t == "merge_notify" and i > mark]
            updates = [i for i, _, t in sends if t == "group_update" and i > mark]
            assert bows and fms and notifies and updates
            assert max(bows[:1]) < fms[-1] < mark < notifies[0] <= updates[0]

    def test_maps_share_one_frame_after_merges(self, fig3_result):
        res = fig3_result
        # landmark copies across agents agree once everything is merged
        m0 = res.runtimes[0].db.shared_map
        m1 = res.runtimes[1].db.shared_map
        shared_ids = sorted(set(m0.points) & set(m1.points))
        assert len(shared_ids) > 50
        err = [np.linalg.norm(m0.points[p].position - m1.points[p].position)
               for p in shared_ids]
        assert np.median(err) < 0.1

    def test_pair_states_merged(self, fig3_result):
        for aid in (0, 1, 2):
            mgr = fig3_result.runtimes[aid].manager
            for a, b in ((0, 1), (0, 2), (1, 2)):
                assert mgr.state(a, b) == PeerState.MERGED


class TestBlackoutRecovery:
    def test_single_loss_and_recovery_cycle(self, blackout_result):
        res = blackout_result
        assert len(res.log.named("localization_lost")) == 1
        assert len(res.log.named("localization_regained")) == 1
        assert len(res.log.named("private_map_merged")) == 1
        assert res.log.named("localization_lost")[0]["agent"] == 1

    def test_final_database_holds_one_map(self, blackout_result):
        assert len(blackout_result.runtimes[1].db.maps) == 1

    def test_keyframe_id_conservation(self, blackout_result):
        res = blackout_result
        m1 = res.runtimes[1].db.shared_map
        spawned = [int(e["detail"]["kf"]) for e in res.log.named("keyframe_spawned")
                   if e["agent"] == 1]
        assert set(spawned) <= set(m1.keyframes)

    def test_backlog_flushes_to_peer(self, blackout_result):
        res = blackout_result
        regained_at = res.log.named("localization_regained")[0]["time"]
        private = [int(e["detail"]["kf"]) for e in res.log.named("keyframe_spawned")
                   if e["agent"] == 1 and e["detail"]["private"]]
        assert private
        m0 = res.runtimes[0].db.shared_map
        assert set(private) <= set(m0.keyframes)
        # both agents end with the same keyframe ids (lossless run)
        assert set(m0.keyframes) == set(res.runtimes[1].db.shared_map.keyframes)
        assert regained_at > 13.0  # only after vision returns

    def test_remerge_queues_private_keyframes_in_spawn_order(self):
        sim = Simulation(blackout_recovery(), seed=3)
        rt = sim.runtimes[1]
        created = []  # (private keyframe id, ids of the points it created), spawn order
        remerges = []  # the log just before and just after the remerge, and its recipients
        spawn, remerge = rt.tracker.spawn_keyframe, rt._try_private_remerge

        def record_spawn(*args):
            out = spawn(*args)
            if out is not None and not rt.tracker.localized:
                created.append((out[0].id, [p.id for p in out[1]]))
            return out

        def watch_remerge(kf):
            before = list(rt.sharing.log)
            remerge(kf)
            if rt.db.private_map is None:
                remerges.append((before, list(rt.sharing.log), rt.manager.merged_peers()))

        rt.tracker.spawn_keyframe = record_spawn
        rt._try_private_remerge = watch_remerge
        sim.run()
        assert len(remerges) == 1 and created
        before, after, recipients = remerges[0]
        kf_ids = [kid for kid, _ in created]
        assert kf_ids == sorted(kf_ids)
        assert recipients == [0]
        assert after[:len(before)] == before
        tail = after[len(before):]
        assert [kid for kid, _ in tail] == kf_ids
        assert list(dict.fromkeys(pid for _, pids in tail for pid in pids)) == [
            pid for _, pids in created for pid in pids]

    def test_peer_states_cycle(self, blackout_result):
        res = blackout_result
        mgr0 = res.runtimes[0].manager
        assert mgr0.state(0, 1) == PeerState.MERGED

    def test_blackout_at_run_end_leaves_private_map(self):
        res = Simulation(blackout_at_end(), seed=3).run()
        rt1 = res.runtimes[1]
        assert len(rt1.db.maps) == 2
        assert not rt1.tracker.localized
        mgr0 = res.runtimes[0].manager
        assert mgr0.state(0, 1) == PeerState.PEER_LOCALIZATION_LOST
        assert res.log.named("localization_regained") == []


class TestLeaderFailover:
    def test_reelection_within_partition_event(self, failover_result):
        res = failover_result
        part = res.log.named("partition_change")
        assert part and part[0]["detail"]["components"] == [[0], [1, 2]]
        # groups split and re-elect as part of handling that one event
        for aid in (1, 2):
            mgr = res.runtimes[aid].manager
            assert mgr.registry.leader_of(1) == 1

    def test_subsequent_merge_between_remaining_leaders(self, failover_result):
        res = failover_result
        rosters = [e["detail"]["roster"] for e in res.log.named("group_merged")]
        assert rosters == [[0, 1], [1, 2]]
        part_time = res.log.named("partition_change")[0]["time"]
        second_merge = res.log.named("group_merged")[1]["time"]
        assert second_merge > part_time

    def test_isolated_agent_sees_unreachable_peers(self, failover_result):
        mgr = failover_result.runtimes[0].manager
        assert mgr.state(0, 1) == PeerState.PEER_UNREACHABLE
        assert mgr.state(0, 2) == PeerState.PEER_UNREACHABLE


class TestCooperationEndToEnd:
    def test_lossless_run_converges_keyframe_sets(self, lossless_result):
        res = lossless_result
        id_sets = [frozenset(res.runtimes[a].db.shared_map.keyframes)
                   for a in (0, 1, 2)]
        assert id_sets[0] == id_sets[1] == id_sets[2]
        assert len(id_sets[0]) > 100
        # no dangling references survive a lossless, quiescent run
        for aid in (0, 1, 2):
            m = res.runtimes[aid].db.shared_map
            assert not m.pending_point_links
            assert not m.pending_kf_links
            m.check_integrity()

    def test_ledger_conserved_and_categorized(self, coop_result):
        res = coop_result
        led = res.net.ledger
        sent = led.totals(led.sent)
        received = led.totals(led.received)
        dropped = led.totals(led.dropped)
        assert any(dropped.values())  # the lossy network did drop something
        for cat in CATEGORIES:
            assert sent[cat] == received[cat] + dropped[cat]
        csv = led.to_csv(res.duration)
        for name in ("BoWs", "Full Map", "Key Frames", "Alignment Data"):
            assert name in csv

    def test_noncooperative_run_stays_silent(self):
        res = Simulation(coop_loops(False), seed=4).run()
        assert res.net.ledger.totals(res.net.ledger.sent) == {
            c: 0 for c in CATEGORIES}
        for aid in (0, 1, 2):
            group = res.runtimes[aid].manager.registry.group_of(aid)
            assert group == frozenset({aid})

    def test_no_packet_carries_a_keyframe_its_receiver_holds(self, monkeypatch):
        # each peer's cursor only moves forward, so no keyframe is sent twice
        insert = map_sharing.insert_external_keyframe
        calls, held = [], []

        def counted(m, entry):
            kid = insert(m, entry)
            calls.append(entry.keyframe.id)
            if kid is None:
                held.append(entry.keyframe.id)
            return kid

        monkeypatch.setattr(map_sharing, "insert_external_keyframe", counted)
        Simulation(coop_loops(duration=10.0), seed=7).run()
        assert calls and held == []

    def test_lossy_run_keeps_invariants_through_handshake_timeouts(self, lossy_result):
        assert lossy_result.log.named("merge_handshake_timeout")
        assert lossy_result.log.named("group_merged")

    def test_agents_never_share_map_objects(self, lossy_result):
        # keyframes and points cross the wire as map objects; every agent
        # must still hold its own copies of them and of their mutable parts
        owner: dict[int, int] = {}
        maps = {aid: rt.db.shared_map for aid, rt in lossy_result.runtimes.items()}
        for aid, m in maps.items():
            held = []
            for kf in m.keyframes.values():
                assert kf.owner is m
                held += [kf, kf.pose, kf.words, kf.observed_points]
            for p in m.points.values():
                held += [p, p.position, p.observers]
            for obj in held:
                assert owner.setdefault(id(obj), aid) == aid, (
                    f"agents {owner[id(obj)]} and {aid} share a {type(obj).__name__}")
        for a, b in ((0, 1), (0, 2), (1, 2)):
            assert maps[a].keyframes.keys() & maps[b].keyframes.keys()

    def test_every_copy_of_a_keyframe_holds_its_origin_histogram(self):
        # word counts cross the wire unchanged, so a copy scores exactly 1
        # against the keyframe its origin agent made
        path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "coop_loops.yaml")
        res = Simulation(load_scenario(path), seed=7).run()
        held = [(aid, kf) for aid, rt in res.runtimes.items()
                for m in rt.db.maps for kf in m.keyframes.values()]
        origin = {kf.id: kf for aid, kf in held if kf.origin_agent == aid}
        copies = [kf for aid, kf in held if kf.origin_agent != aid]
        assert len(copies) > 100
        for kf in copies:
            assert kf.words == origin[kf.id].words
            assert bow_similarity(origin[kf.id].words, kf.words) == 1.0


class TestAlignmentScheduling:
    def test_reply_from_another_agent_leaves_the_round_in_flight(self):
        sim = Simulation(coop_loops(True, drop_prob=0.0), seed=1)
        rt = sim.runtimes[1]
        rt.manager._absorb_roster([0, 1])
        sim.now = 10.0
        rt._alignment_tick(10.0)          # first call arms the schedule
        rt.aimd.next_due = 10.0
        rt._alignment_tick(10.0)          # the request goes out
        lead = rt.manager.registry.leader_of(1)
        assert rt._align_request_time == 10.0 and rt._align_leader == lead
        interval, due = rt.aimd.interval, rt.aimd.next_due
        no_points = ([], np.empty((0, 3)))
        other = next(a for a in sim.agent_ids if a not in (1, lead))
        rt.on_tagged_points(TaggedPoints(other, no_points), 10.5)
        assert rt._align_request_time == 10.0
        assert (rt.aimd.interval, rt.aimd.next_due) == (interval, due)
        assert not sim.log_book.named("alignment_round")
        rt.on_tagged_points(TaggedPoints(lead, no_points), 10.5)
        assert rt._align_request_time is None
        [round_] = sim.log_book.named("alignment_round")
        assert round_["detail"] == {"ok": False, "reason": "no_model", "shared_points": 0}


def recording_sends(sim):
    """Record every (src, dst, msg) `sim` sends, and still send it."""
    sent = []
    send = sim.send_message

    def record(src, dst, msg, encoded=None):
        sent.append((src, dst, msg))
        send(src, dst, msg, encoded)
    sim.send_message = record
    return sent


def follower_due(sim):
    """Agent 1 as a follower of a two-agent group whose alignment round is due
    at t = 10 s, and its leader."""
    rt = sim.runtimes[1]
    rt.manager._absorb_roster([0, 1])
    sim.now = 10.0
    rt._alignment_tick(10.0)          # first call arms the schedule
    rt.aimd.next_due = 10.0
    return rt, sim.runtimes[rt.manager.registry.leader_of(1)]


def keyframe(kid, origin, point_ids):
    return KeyFrame(kid, origin, 0.0, Se3Pose.identity(), {7: 1}, set(point_ids))


def point(pid, x, observers, word=7):
    return MapPoint(pid, np.array([x, 0.0, 0.0]), word, set(observers))


class TestAlignmentExchange:
    """A follower names the points its fit may read; its leader ships only those."""

    def test_reply_holds_the_requested_points_the_leader_has(self):
        sim = Simulation(coop_loops(True, drop_prob=0.0), seed=1)
        sent = recording_sends(sim)
        leader = sim.runtimes[0]
        leader.db.shared_map.insert_keyframe(
            keyframe(9, 0, [100, 200, 300]),
            [point(100, 1.0, [9]), point(200, 2.0, [9]), point(300, 3.0, [9])])
        leader.on_alignment_request(AlignmentRequest(1, [50, 100, 300, 400]))
        [(src, dst, reply)] = sent
        assert (src, dst) == (0, 1) and isinstance(reply, TaggedPoints)
        ids, positions = reply.points
        assert ids == [100, 300]  # 50 and 400 are not held, 200 was not asked for
        assert positions.tolist() == [[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]

    def test_empty_request_gets_an_empty_reply_and_no_model(self):
        sim = Simulation(coop_loops(True, drop_prob=0.0), seed=1)
        rt, leader = follower_due(sim)
        leader.db.shared_map.insert_keyframe(keyframe(9, 0, [100]), [point(100, 1.0, [9])])
        sent = recording_sends(sim)
        rt._alignment_tick(10.0)          # the follower holds no point: it asks for none
        sim._run_queue()
        request, reply = (msg for _, _, msg in sent)
        assert request == AlignmentRequest(1, [])
        assert reply.points[0] == [] and reply.points[1].shape == (0, 3)
        [round_] = sim.log_book.named("alignment_round")
        assert round_["detail"] == {"ok": False, "reason": "no_model", "shared_points": 0}

    def test_request_names_exactly_the_own_present_points(self):
        sim = Simulation(coop_loops(True, drop_prob=0.0), seed=1)
        rt, leader = follower_due(sim)
        m = rt.db.shared_map
        m.insert_keyframe(keyframe(11, 1, [100, 101, 999]),   # 999 is not present
                          [point(100, 1.0, [11], word=1), point(101, 1.5, [11], word=2)])
        m.insert_keyframe(keyframe(12, 0, [100, 102, 106]),
                          [point(102, 2.0, [12], word=4), point(106, 6.0, [12], word=5)])
        m.insert_keyframe(keyframe(13, 1, [103]), [point(103, 3.0, [13], word=3)])
        rt.sharing.queue.append(QueueEntry(2, keyframe(14, 2, [90, 104]), [
            point(90, 0.5, [14, 11], word=6), point(104, 4.0, [14], word=5)]))
        sent = recording_sends(sim)
        rt._alignment_tick(10.0)
        # own keyframes 11 and 13 observe 100, 101 and 103; another agent's
        # points 102 and 106 and the queued points 90 and 104 are not named,
        # though the drain would link 90 to keyframe 11
        assert sent == [(1, leader.id, AlignmentRequest(1, [100, 101, 103]))]

    def test_reply_row_of_a_point_folded_away_is_skipped(self, monkeypatch):
        # between request and reply the drain inserts a queued keyframe whose
        # point 100 lies within DUP_RADIUS of own point 200: the lower id
        # survives, so 200 is gone when the reply carries it
        fits = recording_fits(monkeypatch)
        sim = Simulation(coop_loops(True, drop_prob=0.0), seed=1)
        rt, leader = follower_due(sim)
        rt.db.shared_map.insert_keyframe(
            keyframe(11, 1, [200, 300]), [point(200, 1.0, [11]), point(300, 5.0, [11], word=8)])
        rt.sharing.queue.append(QueueEntry(0, keyframe(9, 0, [100]), [point(100, 1.01, [9])]))
        leader.db.shared_map.insert_keyframe(keyframe(9, 0, [100]), [point(100, 1.0, [9])])
        leader.db.shared_map.insert_keyframe(
            keyframe(11, 1, [200, 300]), [point(200, 1.02, [11]), point(300, 5.5, [11], word=8)])
        sent = recording_sends(sim)
        rt._alignment_tick(10.0)
        rt.end_of_tick(10.0)              # the drain folds 200 into 100
        assert rt.db.shared_map.keyframes[11].observed_points == {100, 300}
        sim._run_queue()
        request, reply = (msg for _, _, msg in sent)
        assert request.ids == [200, 300] and reply.points[0] == [200, 300]
        [(src, dst)] = fits
        assert src.tolist() == [[5.0, 0.0, 0.0]] and dst.tolist() == [[5.5, 0.0, 0.0]]
        [round_] = sim.log_book.named("alignment_round")
        assert round_["detail"]["shared_points"] == 1

    @pytest.mark.parametrize("late_ticks", [0, 3])
    def test_late_reply_fits_the_same_rows_as_a_prompt_one(self, monkeypatch, late_ticks):
        # while the reply is in flight, each tick's drain gives own keyframe 11
        # a further point: a queued point that lists it as an observer
        fits = recording_fits(monkeypatch)
        sim = Simulation(coop_loops(True, drop_prob=0.0), seed=1)
        rt, leader = follower_due(sim)
        mine = [point(200 + i, float(i), [11], word=10 + i) for i in range(12)]
        rt.db.shared_map.insert_keyframe(keyframe(11, 1, [p.id for p in mine]), mine)
        theirs = [point(p.id, 2 * p.position[0] + 1, [11], word=p.word) for p in mine]
        leader.db.shared_map.insert_keyframe(keyframe(11, 1, [p.id for p in theirs]), theirs)
        for i in range(3):
            pid = 400 + i
            rt.sharing.queue.append(QueueEntry(0, keyframe(20 + i, 0, [pid]), [
                point(pid, 50.0 + i, [20 + i, 11], word=50 + i)]))
            leader.db.shared_map.insert_keyframe(
                keyframe(20 + i, 0, [pid]), [point(pid, 101.0 + 2 * i, [20 + i])])
        rt.sharing.drain = lambda m, budget, drain=rt.sharing.drain: drain(m, 1)
        sent = recording_sends(sim)
        rt._alignment_tick(10.0)
        for k in range(late_ticks):
            rt.end_of_tick(10.0 + 0.1 * k)
        assert len(rt._own_points()) == 12 + late_ticks
        sim._run_queue()
        [request, _] = (msg for _, _, msg in sent)
        assert request.ids == [p.id for p in mine]
        [(src, dst)] = fits
        assert src.tolist() == [[float(i), 0.0, 0.0] for i in range(12)]
        assert dst.tolist() == [[2.0 * i + 1, 0.0, 0.0] for i in range(12)]


def recording_fits(monkeypatch):
    """Record the (src, dst) rows of every alignment fit, and still fit them."""
    fits = []
    fit = simulation.ransac_sim3

    def record(src, dst, params):
        fits.append((src.copy(), dst.copy()))
        return fit(src, dst, params)
    monkeypatch.setattr(simulation, "ransac_sim3", record)
    return fits


def own_present_points(rt):
    """The present points `rt`'s own keyframes observe, ascending."""
    m = rt.db.shared_map
    return sorted({pid for kf in m.keyframes.values() if kf.origin_agent == rt.id
                   for pid in kf.observed_points if pid in m.points})


def test_round_trips_above_dt_keep_the_maps_whole():
    """Latencies up to 190 ms, so a reply can come after the follower's next
    tick (dt = 100 ms): the maps stay whole, the ledger balances, the agents
    end in one group, and every request names its follower's own points."""
    sim = Simulation(coop_loops(True, latency=(10.0, 190.0)), seed=3, check_invariants=True)
    requests, send = [], sim.send_message

    def record(src, dst, msg, framed=None):
        if isinstance(msg, AlignmentRequest):
            requests.append((sim.now, src, msg.ids, own_present_points(sim.runtimes[src])))
        send(src, dst, msg, framed)
    sim.send_message = record
    res = sim.run()
    for rt in res.runtimes.values():
        for m in rt.db.maps:
            m.check_integrity()
        assert rt.manager.registry.group_of(rt.id) == frozenset({0, 1, 2})
    led = res.net.ledger
    sent, received, dropped = (led.totals(x) for x in (led.sent, led.received, led.dropped))
    for cat in CATEGORIES:
        assert sent[cat] == received[cat] + dropped[cat]
    assert len(requests) >= 10
    assert all(ids == own for _, _, ids, own in requests)
    rounds = res.log.named("alignment_round")
    assert len(rounds) >= 10
    # some reply came more than one tick after its request
    assert any(r["time"] - max(t for t, src, _, _ in requests
                               if src == r["agent"] and t <= r["time"]) > 0.1
               for r in rounds)


@pytest.fixture(scope="module")
def shipped_rounds():
    """The shipped 25 s `coop_loops` run at seed 7, recording each request
    sent with its follower's own present points; each request answered with
    the positions its leader held of the requested ids, and the reply; each
    round with the reply it fits, the follower's point positions and own
    points at that moment; and the rows each round fitted."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "coop_loops.yaml")
    sim = Simulation(load_scenario(path), seed=7)
    requests, replies, tagged, rounds, fits = [], [], [], [], []
    send = sim.send_message

    def record_send(src, dst, msg, framed=None):
        if isinstance(msg, AlignmentRequest):
            requests.append((msg, own_present_points(sim.runtimes[src])))
        elif isinstance(msg, TaggedPoints):
            tagged.append(msg)
        send(src, dst, msg, framed)
    sim.send_message = record_send

    for rt in sim.runtimes.values():
        def answer(msg, rt=rt, answer_=rt.on_alignment_request):
            m = rt.db.shared_map
            replies.append((msg.ids, {pid: m.points[pid].position.copy()
                                      for pid in msg.ids if pid in m.points}))
            answer_(msg)

        def fit(msg, now, rt=rt, fit_=rt.on_tagged_points):
            if rt._align_request_time is not None and msg.sender == rt._align_leader:
                points = rt.db.shared_map.points
                rounds.append((msg.points, {pid: points[pid].position.copy() for pid in points},
                               set(own_present_points(rt))))
            fit_(msg, now)
        rt.on_alignment_request, rt.on_tagged_points = answer, fit

    fit_rows = simulation.ransac_sim3

    def record_fit(src, dst, params):
        fits.append((src.copy(), dst.copy()))
        return fit_rows(src, dst, params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "ransac_sim3", record_fit)
        result = sim.run()
    return requests, list(zip(replies, tagged, strict=True)), rounds, fits, result


class TestShippedAlignmentRounds:
    def test_every_request_names_the_own_present_points(self, shipped_rounds):
        requests = shipped_rounds[0]
        assert len(requests) >= 10
        for msg, own in requests:
            assert msg.ids == own

    def test_every_reply_carries_the_requested_points_its_leader_holds(self, shipped_rounds):
        replies = shipped_rounds[1]
        assert len(replies) >= 10
        for (requested, held), msg in replies:
            ids, positions = msg.points
            assert ids == [pid for pid in requested if pid in held]
            assert positions.tobytes() == np.array(
                [held[pid] for pid in ids]).reshape(-1, 3).tobytes()

    def test_every_round_fits_own_points_of_the_reply_still_held(self, shipped_rounds):
        _, _, rounds, fits, result = shipped_rounds
        assert len(rounds) == len(fits) == len(result.log.named("alignment_round")) >= 10
        for ((ids, dst), points, own), (src_fit, dst_fit) in zip(rounds, fits):
            kept = [i for i, pid in enumerate(ids) if pid in points]
            assert {ids[i] for i in kept} <= own
            assert src_fit.tobytes() == np.array(
                [points[ids[i]] for i in kept]).reshape(-1, 3).tobytes()
            assert dst_fit.tobytes() == dst[kept].tobytes()
        assert sum(len(src) > 0 for src, _ in fits) >= 10


class TestMessageDispatch:
    def test_every_message_class_has_one_receiver(self):
        classes = [cls for cls, _, _ in wire._PAYLOADS.values()]
        assert len(set(classes)) == len(classes)
        assert set(_RECEIVERS) == set(classes)

    def test_unknown_message_class_raises(self):
        @dataclass
        class Unknown:
            sender: int

        class Subclassed(wire.BowAnnounce):
            pass

        rt = Simulation(fig3_replay(), seed=1).runtimes[0]
        with pytest.raises(KeyError, match="Unknown"):
            rt.on_message(Unknown(1), now=0.0)
        with pytest.raises(KeyError, match="Subclassed"):
            rt.on_message(Subclassed(1, 5, {}), now=0.0)

    def test_undecodable_frames_are_dropped_and_logged(self, monkeypatch):
        """A cut frame and a frame with a flipped bit reach their receiver,
        which logs and drops them: no handler runs, the run goes on, and the
        ledger still balances."""
        cfg = blackout_recovery()  # a lossless network: both frames arrive
        cfg.run.duration = 5.0
        sim = Simulation(cfg, seed=7)
        real_send = sim.net.send
        bows, tampered = [], []

        def send(env):
            if env.msg_type == wire.MessageType.BOW_ANNOUNCE:
                bows.append(env)
                if len(tampered) < 2:
                    if tampered:
                        # the payload's last varint now runs past its end
                        mt, src, payload, _ = wire.decode_envelope(env.data)
                        env.data = wire.encode_envelope(
                            mt, src, payload[:-1] + bytes([payload[-1] ^ 0x80]))
                    else:
                        env.data = env.data[:-1]  # the header's length no longer matches
                    tampered.append(env)
            return real_send(env)

        handled = []
        receive = _RECEIVERS[wire.BowAnnounce]
        monkeypatch.setattr(sim.net, "send", send)
        monkeypatch.setitem(_RECEIVERS, wire.BowAnnounce,
                            lambda rt, msg, now: (handled.append(msg), receive(rt, msg, now)))
        res = sim.run()

        cut, flipped = tampered
        length = len(cut.data) - 13 + 1
        rejected = sorted(res.log.named("frame_rejected"), key=lambda e: e["detail"]["type"] or 0)
        assert [(e["agent"], e["detail"]["sender"], e["detail"]["type"]) for e in rejected] == [
            (cut.dst, cut.src, None),
            (flipped.dst, flipped.src, int(wire.MessageType.BOW_ANNOUNCE))]
        assert rejected[0]["detail"]["error"] == (
            f"payload length field {length} does not match {length - 1} bytes present (offset 9)")
        assert rejected[1]["detail"]["error"].startswith("truncated payload: ")
        assert not any(env.dropped for env in bows)
        assert len(handled) == len(bows) - 2
        assert res.log.named("group_merged")
        assert res.log.entries[-1]["time"] > max(e["time"] for e in rejected)
        led = res.net.ledger
        sent, received, dropped = (led.totals(t) for t in (led.sent, led.received, led.dropped))
        assert all(sent[c] == received[c] + dropped[c] for c in CATEGORIES)

    @pytest.mark.parametrize("seed", range(8))
    def test_reordered_and_repeated_localization_states(self, seed):
        """The runtime hands every state to the manager, which keeps the newest."""
        sim = Simulation(fig3_replay(), seed=1)
        rt = sim.runtimes[0]
        states = [LocalizationState(a, epoch) for a in (1, 2) for epoch in range(1, 7)]
        rng = random.Random(seed)
        deliveries = states + rng.sample(states, len(states) // 2)  # some twice
        rng.shuffle(deliveries)
        newest = {1: 0, 2: 0}
        for msg in deliveries:
            rt.on_message(msg, now=0.0)
            newest[msg.sender] = max(newest[msg.sender], msg.epoch)
            assert rt.manager.lost_agents == {a for a, e in newest.items() if e % 2}
            for other in sim.runtimes.values():
                other.manager.check_invariants()
        assert rt.manager.lost_agents == set()
        rt.on_message(LocalizationState(2, 5), now=0.0)  # stale: 6 is known
        assert rt.manager.lost_agents == set()
        rt.on_message(LocalizationState(2, 7), now=0.0)
        assert rt.manager.lost_agents == {2}

    @pytest.mark.parametrize("fixture", ["lossy_result", "failover_result"])
    def test_event_log_never_steps_back_in_time(self, fixture, request):
        times = [e["time"] for e in request.getfixturevalue(fixture).log.entries]
        assert times == sorted(times)


TURN = Sim3Transform(1.2, Rotation.from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.3),
                     np.array([0.5, -1.0, 0.2]))


def deliver(sim, msg, src=0, dst=1):
    """Deliver `msg` from `src` to `dst` in a frame whose header names ``msg.sender``."""
    mt, payload, f64_bytes = encode_message(msg)
    sim._deliver(Envelope(src, dst, int(mt), encode_envelope(mt, msg.sender, payload, f64_bytes),
                          sim.now))


def replica(sim, aid=1):
    """What a message could change at agent `aid`: its groups, epochs, map, keyframe
    queue and sends."""
    rt = sim.runtimes[aid]
    mgr, m = rt.manager, rt.db.shared_map
    return (sorted(map(sorted, mgr.registry.groups())), sorted(mgr.aligned), dict(mgr._epochs),
            set(mgr.lost_agents), set(mgr._applied_merge_ids),
            {k: (kf.pose.rotation.q.tobytes(), kf.pose.translation.tobytes())
             for k, kf in m.keyframes.items()},
            {k: p.position.tobytes() for k, p in m.points.items()},
            len(rt.sharing.queue), sim.net.ledger.totals(sim.net.ledger.sent))


# a keyframe and its point from agent 99, which no scenario here has
STRAY_KF = KeyFrame(777, 99, 1.0, Se3Pose.identity(), {3: 1}, {888})
STRAY_POINT = MapPoint(888, np.array([1.0, 2.0, 0.5]), 3, {777})


class TestFramesNamingUnknownAgents:
    """A frame that decodes but names an agent it may not is logged as
    ``frame_rejected`` and dropped before any state changes; a later valid
    message still applies."""

    @pytest.mark.parametrize("msg, error", [
        (GroupUpdate(0, [0, 99]), "roster names agent 99, which is not in the scenario"),
        (MergeNotify(0, TURN, [0, 1, 99], [1], 5),
         "roster names agent 99, which is not in the scenario"),
        (MergeNotify(0, TURN, [0, 1], [1, 99], 5),
         "transform_roster names agent 99, which is not in the scenario"),
        (LocalizationState(99, 1), "header sender 99 is not the envelope's source 0"),
        (BowAnnounce(99, 4, {3: 1, 8: 2}), "header sender 99 is not the envelope's source 0"),
        (AlignmentRequest(99, [1, 2, 3]), "header sender 99 is not the envelope's source 0"),
        (KeyFramePacket(0, [STRAY_KF], [STRAY_POINT]),
         "keyframe origin names agent 99, which is not in the scenario"),
    ], ids=["group-update", "merge-notify-roster", "merge-notify-transform-roster",
            "localization-state", "bow-announce", "alignment-request", "keyframe-packet"])
    def test_rejected_before_any_state_changes(self, msg, error):
        # cooperation off: three unmerged maps, and nothing left in flight
        sim = Simulation(coop_loops(cooperative=False, duration=2.0), seed=7)
        sim.run()
        assert sim.runtimes[1].db.shared_map.keyframes
        before = replica(sim)
        logged = len(sim.log_book.entries)
        deliver(sim, msg)
        assert replica(sim) == before
        assert sim.log_book.entries[logged:] == [
            {"time": round(sim.now, 9), "agent": 1, "event": "frame_rejected",
             "detail": {"sender": 0, "type": int(encode_message(msg)[0]), "error": error}}]
        # the same merge id, now with a valid roster, still applies
        deliver(sim, MergeNotify(0, TURN, [0, 1], [1], 5))
        after = replica(sim)
        assert after[0] == [[0, 1], [2]]
        assert after[4] == {5}
        assert all(after[5][k] != pose for k, pose in before[5].items())
        assert [e["event"] for e in sim.log_book.entries[logged + 1:]] == [
            "merge_transform_applied"]


# one process's short runs at seed 7: each scenario's ground truth, ledger
# and (time, agent, event) sequence
CORE_RUN = """
import dataclasses, json, sys
from meshslam import ate
from meshslam.config import load_scenario
from meshslam.simulation import Simulation
out = {}
for path in sys.argv[1:]:
    cfg = load_scenario(path)
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, duration=8.0))
    result = Simulation(cfg, 7).run()
    out[path] = {
        "trajectory_gt.csv": ate.trajectory_to_csv(result.gt_rows),
        "ledger.csv": result.net.ledger.to_csv(result.duration),
        "events": "".join(f"{e['time']} {e['agent']} {e['event']}\\n"
                          for e in map(json.loads, result.log.to_jsonl().splitlines()))}
print(json.dumps(out))
"""


class TestDeterminism:
    def test_same_seed_same_event_trace(self):
        cfg = fig3_replay()
        r1 = Simulation(cfg, seed=11).run()
        r2 = Simulation(fig3_replay(), seed=11).run()
        assert r1.log.to_jsonl() == r2.log.to_jsonl()
        assert len(r1.est_rows) == len(r2.est_rows)
        for a, b in zip(r1.est_rows, r2.est_rows):
            assert a[0] == b[0] and a[1] == b[1]
            assert np.array_equal(a[2], b[2])
            assert np.array_equal(a[3], b[3])

    def test_ground_truth_and_protocol_do_not_depend_on_the_blas_core(self):
        """Short coop_loops and leader_failover runs at seed 7 write the same
        trajectory_gt.csv and ledger.csv, and log the same (time, agent,
        event) sequence, under OpenBLAS's own core and three forced ones.

        The tracker and the world set-up add every sum of products in one
        fixed order, so the ground truth has no BLAS call in it at all; the
        protocol's decisions do not move with the last bits of the poses.
        The forced cores are ones any x86-64 CPU with AVX2 can run (a forced
        core whose instructions the CPU lacks can crash).
        ``OPENBLAS_CORETYPE`` does nothing on a numpy built without OpenBLAS,
        where this test compares identical runs.
        """
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
        paths = [os.path.join(root, "scenarios", f"{name}.yaml")
                 for name in ("coop_loops", "leader_failover")]
        outputs = {}
        for core in ("default", "Prescott", "Sandybridge", "Haswell"):
            run_env = env if core == "default" else dict(env, OPENBLAS_CORETYPE=core)
            run = subprocess.run([sys.executable, "-c", CORE_RUN, *paths], env=run_env,
                                 capture_output=True, text=True, check=True)
            outputs[core] = json.loads(run.stdout)
        for core in ("Prescott", "Sandybridge", "Haswell"):
            for path, files in outputs["default"].items():
                for name, text in files.items():
                    assert outputs[core][path][name] == text, (core, path, name)
        for files in outputs["default"].values():
            assert files["events"].count("group_merged") >= 1

    def test_different_seed_differs(self):
        r1 = Simulation(coop_loops(True, duration=8.0), seed=1).run()
        r2 = Simulation(coop_loops(True, duration=8.0), seed=2).run()
        assert r1.log.to_jsonl() != r2.log.to_jsonl()


def test_a_message_to_several_agents_is_framed_once(monkeypatch):
    """Each message is encoded and compressed once, and every copy sent
    carries that one frame."""
    frames = []
    real = simulation.encode_envelope

    def framing(*args):
        frames.append(real(*args))
        return frames[-1]
    monkeypatch.setattr(simulation, "encode_envelope", framing)
    sim = Simulation(coop_loops(True, duration=8.0), seed=7)
    sent = []
    send = sim.net.send
    monkeypatch.setattr(sim.net, "send", lambda env: (sent.append(env.data), send(env))[1])
    sim.run()
    built = {id(frame) for frame in frames}
    assert all(id(data) in built for data in sent)
    assert len(frames) < len(sent)

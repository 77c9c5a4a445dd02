from dataclasses import dataclass

import numpy as np
import pytest

from meshslam import wire
from meshslam.ate import compute_ate
from meshslam.group_protocol import PeerState
from meshslam.net_sim import CATEGORIES
from meshslam.simulation import _RECEIVERS, Simulation
from meshslam.wire import TaggedPoints

from scenario_defs import (
    blackout_at_end,
    blackout_recovery,
    coop_loops,
    fig3_replay,
    leader_failover,
)


@pytest.fixture(scope="module")
def fig3_result():
    return Simulation(fig3_replay(), seed=42, check_invariants=True).run()


@pytest.fixture(scope="module")
def blackout_result():
    return Simulation(blackout_recovery(), seed=3, check_invariants=True).run()


@pytest.fixture(scope="module")
def lossy_result():
    # every manager's invariants are checked after every event
    return Simulation(coop_loops(True, drop_prob=0.2), seed=3,
                      check_invariants=True).run()


@pytest.fixture(scope="module")
def failover_result():
    return Simulation(leader_failover(), seed=5, check_invariants=True).run()


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
        remerges = []  # the outboxes just before and just after the remerge
        spawn, remerge = rt.tracker.spawn_keyframe, rt._try_private_remerge

        def outboxes():
            return {peer: (list(box.unsent_keyframes), list(box.unsent_points))
                    for peer, box in rt.sharing.outboxes.items()}

        def record_spawn(*args):
            out = spawn(*args)
            if out is not None and not rt.tracker.localized:
                created.append((out[0].id, [p.id for p in out[1]]))
            return out

        def watch_remerge(kf):
            before = outboxes()
            remerge(kf)
            if rt.db.private_map is None:
                remerges.append((before, outboxes()))

        rt.tracker.spawn_keyframe = record_spawn
        rt._try_private_remerge = watch_remerge
        sim.run()
        assert len(remerges) == 1 and created
        before, after = remerges[0]
        kf_ids = [kid for kid, _ in created]
        assert kf_ids == sorted(kf_ids)
        assert set(after) == {0}
        kfs_before, points_before = before.get(0, ([], []))
        assert after[0] == (kfs_before + kf_ids,
                            points_before + [pid for _, pids in created for pid in pids])

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
    def test_cooperative_beats_solo_frames(self):
        res = Simulation(coop_loops(True), seed=9).run()
        rep = compute_ate(res.est_rows, res.gt_rows)
        resn = Simulation(coop_loops(False), seed=9).run()
        repn = compute_ate(resn.est_rows, resn.gt_rows)
        assert rep.rms_m <= repn.rms_m
        assert rep.rms_m < 0.5  # merged frame, drift-level error

    def test_lossless_run_converges_keyframe_sets(self):
        res = Simulation(coop_loops(True, drop_prob=0.0), seed=4).run()
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

    def test_ledger_conserved_and_categorized(self):
        res = Simulation(coop_loops(True), seed=6).run()
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


class TestAlignmentScheduling:
    def test_unreachable_leader_skips_and_reschedules(self):
        sim = Simulation(coop_loops(True, drop_prob=0.0), seed=1)
        rt = sim.runtimes[1]
        rt.manager._absorb_roster([0, 1])
        sim.now = 10.0
        rt._alignment_tick(10.0)          # first call arms the schedule
        assert rt.aimd is not None
        rt.aimd.next_due = 10.0
        interval_before = rt.aimd.interval
        sim.reachable = lambda a, b: False
        rt._alignment_tick(10.0)
        assert rt._align_request_time is None  # no request went out
        assert rt.aimd.interval == interval_before
        assert rt.aimd.next_due == 10.0 + interval_before
        assert sim.log_book.named("alignment_skipped")


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
            rt.on_message(Unknown(1), sequence=1, now=0.0)
        with pytest.raises(KeyError, match="Subclassed"):
            rt.on_message(Subclassed(1, 5, {}), sequence=2, now=0.0)

    @pytest.mark.parametrize("fixture", ["lossy_result", "failover_result"])
    def test_event_log_never_steps_back_in_time(self, fixture, request):
        times = [e["time"] for e in request.getfixturevalue(fixture).log.entries]
        assert times == sorted(times)


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

    def test_different_seed_differs(self):
        r1 = Simulation(coop_loops(True, duration=8.0), seed=1).run()
        r2 = Simulation(coop_loops(True, duration=8.0), seed=2).run()
        assert r1.log.to_jsonl() != r2.log.to_jsonl()

"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import contextlib
import os
import time

import numpy as np

from meshslam.alignment import RansacParams, aimd_next, kabsch_umeyama, ransac_sim3
from meshslam.ate import compute_ate
from meshslam.cli import run_scenario
from meshslam.geometry import Rotation, Se3Pose, Sim3Transform, se3_exp
from meshslam.map_sharing import QueueEntry, insert_external_keyframe
from meshslam.map_store import AgentMap, KeyFrame, MapPoint, normalize_histogram
from meshslam.merge_detection import calculate_merge_score
from meshslam.net_sim import CATEGORIES
from meshslam.pose_graph import OptimizerParams, graph_cost, optimize
from meshslam.simulation import Simulation

from scenario_defs import (
    blackout_recovery,
    coop_loops,
    fig3_replay,
    leader_failover,
)
from test_merge_detection import exhaustive_merge_score, random_map
from test_pose_graph import consistent_chain, pose, random_graph


@contextlib.contextmanager
def verdict(num, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {title}")
        raise
    print(f"[criterion {num:2d}] PASS  {title}")


def random_sim3(rng):
    q = rng.normal(size=4)
    return Sim3Transform(float(rng.uniform(0.5, 2.0)),
                         Rotation.from_quat(*q), rng.uniform(-5, 5, 3))


def test_criterion_1_umeyama_exactness():
    with verdict(1, "similarity fit exact on 100 noiseless instances, < 1 s"):
        start = time.perf_counter()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            true = random_sim3(rng)
            pts = rng.uniform(-4, 4, size=(50, 3))
            est = kabsch_umeyama(pts, true.apply(pts))
            assert est.rotation.angle_to(true.rotation) < 1e-9
            assert abs(est.scale / true.scale - 1.0) < 1e-9
            assert np.linalg.norm(est.translation - true.translation) < 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_2_ransac_robustness():
    with verdict(2, "RANSAC rejects 30% gross outliers over 50 seeds, < 5 s"):
        start = time.perf_counter()
        params = RansacParams(iterations=200, inlier_threshold=0.05,
                              min_inliers=12, seed=0)
        total_outliers = 0
        total_included = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            true = random_sim3(rng)
            n = 60
            n_out = 18  # 30 percent
            pts = rng.uniform(-4, 4, size=(n, 3))
            dst = true.apply(pts) + rng.normal(0, 0.01, size=(n, 3))
            out_idx = rng.choice(n, size=n_out, replace=False)
            dst[out_idx] += (rng.uniform(1.0, 5.0, size=(n_out, 3))
                             * rng.choice([-1.0, 1.0], size=(n_out, 3)))
            fit, inliers = ransac_sim3(
                pts, dst,
                RansacParams(iterations=200, inlier_threshold=0.05,
                             min_inliers=12, seed=seed))
            included = len(set(inliers) & {int(i) for i in out_idx})
            total_outliers += n_out
            total_included += included
            probes = rng.uniform(-4, 4, size=(20, 3))
            err = np.max(np.linalg.norm(fit.apply(probes) - true.apply(probes),
                                        axis=1))
            assert err < 10 * params.inlier_threshold
        assert total_included <= 0.05 * total_outliers
        assert time.perf_counter() - start < 5.0


def test_criterion_3_merge_score_oracle_equivalence():
    with verdict(3, "merge scoring bit-equal to exhaustive oracle on 200 maps"):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = random_map(rng, max_kf=50, max_words=100)
            words = {int(w): float(rng.uniform(0.1, 1.0))
                     for w in rng.choice(100, size=int(rng.integers(1, 7)),
                                         replace=False)}
            got_score, got_kf = calculate_merge_score(m, words)
            want_score, want_kf = exhaustive_merge_score(m, words)
            assert got_score == want_score
            assert got_kf == want_kf


def test_criterion_4_fig3_protocol_replay():
    with verdict(4, "staged 3-agent merge: {1,2} then {0,1,2}, closure holds"):
        res = Simulation(fig3_replay(), seed=42, check_invariants=True).run()
        rosters = [e["detail"]["roster"] for e in res.log.named("group_merged")]
        assert rosters == [[1, 2], [0, 1, 2]]
        for aid in (0, 1, 2):
            mgr = res.runtimes[aid].manager
            assert mgr.registry.leader_of(aid) == 0
            mgr.check_invariants()


def test_criterion_5_aimd_schedule():
    with verdict(5, "AIMD sequence (2,3,4,2) and clamping over 10k verdicts"):
        t = 1.0
        seq = []
        for ok in (True, True, True, False):
            t = aimd_next(t, ok, 1.0, 60.0)
            seq.append(t)
        assert seq == [2.0, 3.0, 4.0, 2.0]
        rng = np.random.default_rng(2)
        t = 5.0
        for _ in range(10_000):
            t = aimd_next(t, bool(rng.random() < 0.5), 1.0, 60.0)
            assert 1.0 <= t <= 60.0


def test_criterion_6_pose_graph_optimizer():
    with verdict(6, "PGO monotone, 3-node recovery 1e-6, gauge exact, FD grad"):
        rng = np.random.default_rng(3)
        # accepted-step cost monotonicity on 100 random windows
        for _ in range(100):
            g = random_graph(rng, n_nodes=int(rng.integers(3, 8)),
                             extra_edges=int(rng.integers(0, 4)))
            fixed_before = {i: (g.nodes[i].pose.rotation.q.copy(),
                                g.nodes[i].pose.translation.copy())
                            for i in g.nodes if g.nodes[i].fixed}
            report = optimize(g)
            for c0, c1 in zip(report.cost_history, report.cost_history[1:]):
                assert c1 < c0
            for i, (q, t) in fixed_before.items():
                assert np.array_equal(report.poses[i].rotation.q, q)
                assert np.array_equal(report.poses[i].translation, t)
        # perturbed middle node returns to the consistent interpolant
        g = consistent_chain([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        g.nodes[1].pose = pose([1.1, 0, 0])
        report = optimize(g, OptimizerParams(max_iters=25, tol=1e-14))
        assert np.linalg.norm(report.poses[1].translation - [1, 0, 0]) < 1e-6
        # finite-difference gradient self-consistency
        for _ in range(5):
            g = random_graph(rng, n_nodes=4, extra_edges=2, noise=0.1)
            free = [n for n in sorted(g.nodes) if not g.nodes[n].fixed]

            def cost_at(nid, delta):
                poses = {}
                for node_id in g.nodes:
                    p = g.nodes[node_id].pose
                    if node_id == nid:
                        poses[node_id] = p.compose(se3_exp(delta))
                    else:
                        poses[node_id] = p
                return graph_cost(g, poses)

            for nid in free:
                for k in range(6):
                    d = np.zeros(6)
                    d[k] = 1e-6
                    g_solver = (cost_at(nid, d) - cost_at(nid, -d)) / 2e-6
                    d[k] = 1e-5
                    g_ref = (cost_at(nid, d) - cost_at(nid, -d)) / 2e-5
                    denom = max(abs(g_ref), abs(g_solver), 1e-2)
                    assert abs(g_solver - g_ref) / denom < 1e-5


def test_criterion_7_end_to_end_cooperation():
    with verdict(7, "coop ATE <= non-coop ATE for 5/5 seeds, < 60 s total"):
        start = time.perf_counter()
        for seed in range(7, 12):
            res = Simulation(coop_loops(True), seed=seed).run()
            coop = compute_ate(res.est_rows, res.gt_rows).rms_m
            merged = res.runtimes[0].manager.registry.group_of(0)
            assert merged == frozenset({0, 1, 2}), f"seed {seed}: no full merge"
            resn = Simulation(coop_loops(False), seed=seed).run()
            noncoop = compute_ate(resn.est_rows, resn.gt_rows).rms_m
            assert coop <= noncoop, f"seed {seed}: {coop:.3f} > {noncoop:.3f}"
        assert time.perf_counter() - start < 60.0


def test_criterion_8_localization_loss_recovery():
    with verdict(8, "3 s blackout: one private map, merged back, backlog flushed"):
        res = Simulation(blackout_recovery(), seed=3, check_invariants=True).run()
        assert len(res.log.named("localization_lost")) == 1
        assert len(res.log.named("private_map_merged")) == 1
        assert len(res.log.named("localization_regained")) == 1
        rt1 = res.runtimes[1]
        assert len(rt1.db.maps) == 1
        spawned = {int(e["detail"]["kf"])
                   for e in res.log.named("keyframe_spawned") if e["agent"] == 1}
        assert spawned <= set(rt1.db.shared_map.keyframes)
        private = {int(e["detail"]["kf"])
                   for e in res.log.named("keyframe_spawned")
                   if e["agent"] == 1 and e["detail"]["private"]}
        assert private and private <= set(res.runtimes[0].db.shared_map.keyframes)


def test_criterion_9_leader_failover():
    with verdict(9, "leader isolation re-elects next lowest; later merge works"):
        res = Simulation(leader_failover(), seed=5, check_invariants=True).run()
        parts = res.log.named("partition_change")
        assert parts and parts[0]["detail"]["components"] == [[0], [1, 2]]
        rosters = [e["detail"]["roster"] for e in res.log.named("group_merged")]
        assert rosters == [[0, 1], [1, 2]]
        assert res.log.named("group_merged")[1]["time"] > parts[0]["time"]
        for aid in (1, 2):
            assert res.runtimes[aid].manager.registry.leader_of(1) == 1


def test_criterion_10_bandwidth_ledger():
    with verdict(10, "byte conservation per category; Fig-6 style categories"):
        res = Simulation(coop_loops(True), seed=6).run()
        led = res.net.ledger
        sent = led.totals(led.sent)
        received = led.totals(led.received)
        dropped = led.totals(led.dropped)
        assert sum(dropped.values()) > 0
        for cat in CATEGORIES:
            assert sent[cat] == received[cat] + dropped[cat]
        csv_head = led.to_csv(res.duration).splitlines()[0]
        assert csv_head == ("agent,category,bytes_sent,bytes_received,"
                            "bytes_dropped,avg_kbps")
        cats = {r["category"] for r in led.rows(res.duration)}
        assert {"BoWs", "Full Map", "Key Frames", "Alignment Data"} <= cats


def test_criterion_11_determinism(tmp_path):
    with verdict(11, "same seed reruns produce byte-identical output files"):
        scen = os.path.join(os.path.dirname(__file__), os.pardir,
                            "scenarios", "leader_failover.yaml")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_scenario(scen, seed=5, out_dir=str(out_a)) == 0
        assert run_scenario(scen, seed=5, out_dir=str(out_b)) == 0
        names = ["trajectory_est.csv", "trajectory_gt.csv", "ledger.csv",
                 "events.jsonl", "ate.json"]
        for name in names:
            a = (out_a / name).read_bytes()
            b = (out_b / name).read_bytes()
            assert a == b, f"{name} differs between reruns"


def test_criterion_12_idempotency_and_convergence():
    with verdict(12, "duplicate packets no-op; lossless sync equalizes maps"):
        # duplicate delivery leaves the map state identical
        m = AgentMap()
        local = MapPoint(1500, np.array([1.0, 0, 0]), word=7, observers={10})
        m.insert_keyframe(
            KeyFrame(10, 0, 0.0, Se3Pose.identity(),
                     normalize_histogram({7: 1.0}), {1500}), [local])
        ext_kf = KeyFrame(
            id=2000, origin_agent=1, timestamp=1.0,
            pose=Se3Pose(Rotation.identity(), np.array([0.5, 0, 0])),
            words=normalize_histogram({7: 1.0}), observed_points={2500})
        ext_pt = MapPoint(2500, np.array([1.01, 0, 0]), 7, {2000})
        insert_external_keyframe(m, QueueEntry(1, ext_kf, [ext_pt]), 0.05)
        snap = (sorted(m.keyframes), sorted(m.points),
                {k: sorted(p.observers) for k, p in m.points.items()},
                {k: p.position.copy() for k, p in m.points.items()})
        assert insert_external_keyframe(
            m, QueueEntry(1, ext_kf, [ext_pt]), 0.05) is None
        assert snap[0] == sorted(m.keyframes)
        assert snap[1] == sorted(m.points)
        assert snap[2] == {k: sorted(p.observers) for k, p in m.points.items()}
        for k, pos in snap[3].items():
            assert np.array_equal(pos, m.points[k].position)
        # lossless cooperative run: identical keyframe id sets everywhere
        res = Simulation(coop_loops(True, drop_prob=0.0), seed=4).run()
        sets = [frozenset(res.runtimes[a].db.shared_map.keyframes)
                for a in (0, 1, 2)]
        assert sets[0] == sets[1] == sets[2]
        assert len(sets[0]) > 100

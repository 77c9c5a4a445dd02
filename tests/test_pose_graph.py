import numpy as np
import pytest

from meshslam.geometry import Rotation, Se3Pose, se3_exp
from meshslam.map_store import AgentMap, KeyFrame, MapPoint, normalize_histogram
from meshslam.pose_graph import (
    OptimizerParams,
    PoseGraph,
    build_local_window,
    edge_residual,
    graph_cost,
    optimize,
)


def pose(t, rotvec=(0, 0, 0)):
    return Se3Pose(Rotation.from_rotvec(np.asarray(rotvec, dtype=float)),
                   np.asarray(t, dtype=float))


def consistent_chain(positions, fixed_ends=True):
    """Chain graph whose measurements exactly match the given positions."""
    g = PoseGraph()
    poses = [pose(p) for p in positions]
    n = len(poses)
    for i, p in enumerate(poses):
        g.add_node(i, p, fixed=fixed_ends and i in (0, n - 1))
    for i in range(n - 1):
        meas = poses[i].inverse().compose(poses[i + 1])
        g.add_edge(i, i + 1, meas)
    return g


def random_graph(rng, n_nodes=6, extra_edges=3, noise=0.05):
    g = PoseGraph()
    truth = []
    for i in range(n_nodes):
        p = Se3Pose(Rotation.from_rotvec(rng.uniform(-0.4, 0.4, 3)),
                    rng.uniform(-2, 2, 3))
        truth.append(p)
        g.add_node(i, p, fixed=(i == 0))
    pairs = [(i, i + 1) for i in range(n_nodes - 1)]
    for _ in range(extra_edges):
        a, b = sorted(rng.choice(n_nodes, size=2, replace=False))
        pairs.append((int(a), int(b)))  # parallel measurements are fine
    for a, b in pairs:
        meas = truth[a].inverse().compose(truth[b])
        noisy = meas.compose(se3_exp(rng.normal(0, noise, 6)))
        g.add_edge(a, b, noisy, weight=float(rng.uniform(0.5, 3.0)))
    return g


class TestEdgeResidual:
    def test_consistent_chain_zero(self):
        g = consistent_chain([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        poses = {i: g.nodes[i].pose for i in g.nodes}
        for e in g.edges:
            assert np.linalg.norm(edge_residual(e, poses)) < 1e-12

    def test_identity_everything_zero(self):
        g = PoseGraph()
        g.add_node(0, Se3Pose.identity(), fixed=True)
        g.add_node(1, Se3Pose.identity())
        g.add_edge(0, 1, Se3Pose.identity())
        poses = {0: Se3Pose.identity(), 1: Se3Pose.identity()}
        assert np.linalg.norm(edge_residual(g.edges[0], poses)) == 0

    def test_translation_perturbation_first_order(self):
        eps = 1e-4
        g = consistent_chain([[0, 0, 0], [1, 0, 0]], fixed_ends=False)
        poses = {0: g.nodes[0].pose,
                 1: pose([1 + eps, 0, 0])}
        r = edge_residual(g.edges[0], poses)
        assert np.allclose(r[:3], 0, atol=1e-12)
        assert np.allclose(r[3:], [eps, 0, 0], atol=1e-8)


class TestBuildLocalWindow:
    def build_map_chain(self, n):
        m = AgentMap()
        for i in range(n):
            pid = 1000 + i
            pt = MapPoint(pid, np.array([i + 0.5, 0, 0]), word=i, observers=set())
            obs = {pid} | ({999 + i} if i > 0 else set())
            kf = KeyFrame(
                id=i, origin_agent=0, timestamp=float(i),
                pose=pose([i, 0, 0]),
                words=normalize_histogram({i: 1.0}),
                observed_points=obs,
            )
            pt.observers.add(i)
            m.insert_keyframe(kf, [pt])
        return m

    def test_isolated_singleton(self):
        m = AgentMap()
        kf = KeyFrame(id=0, origin_agent=0, timestamp=0.0, pose=Se3Pose.identity(),
                      words=normalize_histogram({1: 1.0}), observed_points=set())
        m.insert_keyframe(kf, [])
        g = build_local_window(m, 0, depth=2)
        assert set(g.nodes) == {0}
        assert g.nodes[0].fixed
        assert g.edges == []

    def test_chain_depth_one(self):
        m = self.build_map_chain(3)
        g = build_local_window(m, 1, depth=1)
        assert set(g.nodes) == {0, 1, 2}
        assert g.nodes[0].fixed and g.nodes[2].fixed
        assert not g.nodes[1].fixed
        assert len(g.edges) == 2

    def test_depth_zero_singleton(self):
        m = self.build_map_chain(3)
        g = build_local_window(m, 1, depth=0)
        assert set(g.nodes) == {1}
        assert g.nodes[1].fixed


class TestOptimize:
    def test_consistent_graph_unchanged(self):
        g = consistent_chain([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        report = optimize(g)
        assert report.iterations == 0
        assert report.final_cost == report.initial_cost
        assert report.initial_cost < 1e-20

    def test_three_node_recovery_consistent(self):
        g = consistent_chain([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        g.nodes[1].pose = pose([1.1, 0, 0])  # perturb middle by 0.1 m
        report = optimize(g, OptimizerParams(max_iters=20, tol=1e-14))
        # consistent measurements: optimum is the original interpolant
        assert np.linalg.norm(report.poses[1].translation - [1, 0, 0]) < 1e-6

    def test_three_node_weighted_inconsistent_matches_closed_form(self):
        # identity rotations, A=(0,0,0) and C=(2,0,0) fixed, measurements
        # disagree: edge A->B says (1.2,0,0), edge B->C says (0.9,0,0).
        # least squares optimum: B* = (w1*(A+d1) + w2*(C-d2)) / (w1+w2)
        g = PoseGraph()
        g.add_node(0, pose([0, 0, 0]), fixed=True)
        g.add_node(1, pose([0.5, 0, 0]))
        g.add_node(2, pose([2, 0, 0]), fixed=True)
        w1, w2 = 2.0, 3.0
        g.add_edge(0, 1, pose([1.2, 0, 0]), weight=w1)
        g.add_edge(1, 2, pose([0.9, 0, 0]), weight=w2)
        expected = (w1 * 1.2 + w2 * (2 - 0.9)) / (w1 + w2)
        report = optimize(g, OptimizerParams(max_iters=30, tol=1e-14))
        assert abs(report.poses[1].translation[0] - expected) < 1e-6

    def test_fixed_nodes_bit_unchanged(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            g = random_graph(rng)
            before = {i: (g.nodes[i].pose.rotation.q.copy(),
                          g.nodes[i].pose.translation.copy())
                      for i in g.nodes if g.nodes[i].fixed}
            report = optimize(g)
            for i, (q, t) in before.items():
                assert np.array_equal(report.poses[i].rotation.q, q)
                assert np.array_equal(report.poses[i].translation, t)

    def test_input_poses_bit_unchanged(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            g = random_graph(rng)
            before = {i: (n.pose.rotation.q.copy(), n.pose.translation.copy())
                      for i, n in g.nodes.items()}
            report = optimize(g)
            assert report.iterations > 0
            for i, (q, t) in before.items():
                assert np.array_equal(g.nodes[i].pose.rotation.q, q)
                assert np.array_equal(g.nodes[i].pose.translation, t)
                if g.nodes[i].fixed:
                    assert report.poses[i] is g.nodes[i].pose

    def test_cost_monotone_over_accepted_steps(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            g = random_graph(rng, n_nodes=int(rng.integers(3, 8)))
            report = optimize(g)
            for c0, c1 in zip(report.cost_history, report.cost_history[1:]):
                assert c1 < c0
            assert report.final_cost <= report.initial_cost

    def test_gauge_required(self):
        g = PoseGraph()
        g.add_node(0, pose([0, 0, 0]))
        g.add_node(1, pose([1, 0, 0]))
        g.add_edge(0, 1, pose([1, 0, 0]))
        with pytest.raises(ValueError):
            optimize(g)

    def test_gradient_matches_cost_finite_difference(self):
        # residual-Jacobian products must agree with direct differentiation of
        # the scalar cost: grad = 2 J^T W r
        rng = np.random.default_rng(22)

        for _ in range(5):
            g = random_graph(rng, n_nodes=4, extra_edges=2, noise=0.1)
            free = [n for n in sorted(g.nodes) if not g.nodes[n].fixed]

            def cost_at(perturbs):
                poses = {}
                for nid in g.nodes:
                    p = g.nodes[nid].pose
                    if nid in perturbs:
                        poses[nid] = p.compose(se3_exp(perturbs[nid]))
                    else:
                        poses[nid] = p
                return graph_cost(g, poses)

            # gradient via per-edge residual FD (same scheme the solver uses)
            h = 1e-6
            grad_resid = {}
            for nid in free:
                gvec = np.zeros(6)
                for k in range(6):
                    d = np.zeros(6)
                    d[k] = h
                    cp = cost_at({nid: d})
                    d[k] = -h
                    cm = cost_at({nid: d})
                    gvec[k] = (cp - cm) / (2 * h)
                grad_resid[nid] = gvec
            # reference: coarser central differences of the cost
            href = 1e-5
            for nid in free:
                for k in range(6):
                    d = np.zeros(6)
                    d[k] = href
                    cp = cost_at({nid: d})
                    d[k] = -href
                    cm = cost_at({nid: d})
                    ref = (cp - cm) / (2 * href)
                    got = grad_resid[nid][k]
                    denom = max(abs(ref), abs(got), 1e-6)
                    assert abs(got - ref) / denom < 1e-4

    def test_random_noise_reduces_cost(self):
        rng = np.random.default_rng(23)
        improved = 0
        for _ in range(20):
            g = random_graph(rng, n_nodes=6, extra_edges=4, noise=0.08)
            report = optimize(g, OptimizerParams(max_iters=15))
            if report.final_cost < report.initial_cost * 0.9:
                improved += 1
        assert improved >= 15

"""Local pose graph optimization.

A covisibility neighborhood of keyframes is optimized as a small nonlinear
least squares problem: nodes are keyframe poses, edges carry the relative
pose of their endpoints, weighted by the shared-point count.  Nodes on the
window boundary are held fixed so a local solve cannot deform the distant
map.

External keyframe insertion does not run this optimizer: keyframe poses in
this simulator only move through whole-map SIM(3) transforms, so relative
poses never drift apart and there is nothing to correct.  Accordingly a
window built by :func:`build_local_window` takes each edge measurement from
the current poses (``inv(T_a) * T_b``) and starts at zero cost.

The solver is damped Gauss-Newton (Levenberg-Marquardt) on the 6-dof tangent
with a right-multiplicative retraction ``T <- T * exp(delta)``.  Jacobians
come from central finite differences per edge block; at window sizes of a few
dozen nodes this is cheap and avoids a hand-derived linearization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Rotation,
    Se3Pose,
    quat_canonical,
    quat_conjugate,
    quat_from_rotvec,
    quat_mul,
    quat_rotate,
    quat_to_rotvec,
)
from .map_store import AgentMap, UnknownObjectError


@dataclass
class OptimizerParams:
    max_iters: int = 10
    tol: float = 1e-6          # stop when an accepted step decreases cost less than this
    damping: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 0.1
    damping_max: float = 1e8
    fd_step: float = 1e-6

    def __post_init__(self):
        for name in ("max_iters", "tol", "damping", "damping_up", "damping_down",
                     "damping_max", "fd_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class PoseGraphNode:
    pose: Se3Pose
    fixed: bool = False


@dataclass
class PoseGraphEdge:
    a: int
    b: int
    measurement: Se3Pose  # relative pose of b in a's frame
    weight: float = 1.0


@dataclass
class OptimizeReport:
    poses: dict[int, Se3Pose]
    initial_cost: float
    final_cost: float
    iterations: int
    cost_history: list[float] = field(default_factory=list)
    no_progress: bool = False


class PoseGraph:
    def __init__(self):
        self.nodes: dict[int, PoseGraphNode] = {}
        self.edges: list[PoseGraphEdge] = []

    def add_node(self, node_id: int, pose: Se3Pose, fixed: bool = False) -> None:
        self.nodes[node_id] = PoseGraphNode(pose.copy(), fixed)

    def add_edge(self, a: int, b: int, measurement: Se3Pose, weight: float = 1.0) -> None:
        if a not in self.nodes or b not in self.nodes:
            raise UnknownObjectError("edge references missing node")
        self.edges.append(PoseGraphEdge(a, b, measurement, weight))

    def components(self) -> list[set[int]]:
        adj: dict[int, set[int]] = {n: set() for n in self.nodes}
        for e in self.edges:
            adj[e.a].add(e.b)
            adj[e.b].add(e.a)
        seen: set[int] = set()
        comps = []
        for n in sorted(self.nodes):
            if n in seen:
                continue
            comp = {n}
            stack = [n]
            while stack:
                cur = stack.pop()
                for nxt in adj[cur]:
                    if nxt not in comp:
                        comp.add(nxt)
                        stack.append(nxt)
            seen |= comp
            comps.append(comp)
        return comps

    def check_gauge(self) -> None:
        for comp in self.components():
            if not any(self.nodes[n].fixed for n in comp):
                raise ValueError(
                    f"component {sorted(comp)[:4]}... has no fixed node (gauge unfixed)"
                )


def build_local_window(
    m: AgentMap, center_id: int, depth: int, max_edges_per_node: int = 10,
    max_nodes: int = 50,
) -> PoseGraph:
    """Covisibility window around a keyframe, boundary ring fixed.

    Each edge measures the relative pose of its endpoints as they stand now.

    Nodes at the largest BFS distance in the window act as gauge anchors; an
    isolated center is its own anchor.  The window is bounded: breadth-first
    expansion stops at `max_nodes` (in deterministic id order) and each node
    keeps at most its `max_edges_per_node` strongest links.
    """
    if center_id not in m.keyframes:
        raise UnknownObjectError(f"keyframe {center_id} not in map")
    dist = {center_id: 0}
    frontier = [center_id]
    for d in range(1, depth + 1):
        if len(dist) >= max_nodes:
            break
        nxt = []
        for kid in frontier:
            for nid in sorted(m.keyframes[kid].covisibility):
                if nid not in dist:
                    dist[nid] = d
                    nxt.append(nid)
                    if len(dist) >= max_nodes:
                        break
            if len(dist) >= max_nodes:
                break
        frontier = nxt
    max_d = max(dist.values())
    graph = PoseGraph()
    for kid in sorted(dist):
        graph.add_node(kid, m.keyframes[kid].pose, fixed=(dist[kid] == max_d))
    kept: set[tuple[int, int]] = set()
    for kid in sorted(dist):
        ranked = sorted(
            ((nid, w) for nid, w in m.keyframes[kid].covisibility.items()
             if nid in dist),
            key=lambda kv: (-kv[1], kv[0]),
        )
        for nid, _ in ranked[:max_edges_per_node]:
            kept.add((min(kid, nid), max(kid, nid)))
    for a, b in sorted(kept):
        meas = m.keyframes[a].pose.inverse().compose(m.keyframes[b].pose)
        weight = float(m.keyframes[a].covisibility[b])
        graph.add_edge(a, b, meas, weight)
    # edge trimming may strand nodes or split the window; anchor every
    # component that lost its boundary ring (farthest node, ties by low id)
    for comp in graph.components():
        if not any(graph.nodes[n].fixed for n in comp):
            anchor = max(comp, key=lambda n: (dist[n], -n))
            graph.nodes[anchor].fixed = True
    return graph


# ---------------------------------------------------------------------------
# Residuals on raw (q, t) pairs for speed
# ---------------------------------------------------------------------------

def _raw_residual(qa, ta, qb, tb, qm, tm) -> np.ndarray:
    # rel = inv(Ta) * Tb
    qa_c = quat_conjugate(qa)
    q_rel = quat_mul(qa_c, qb)
    t_rel = quat_rotate(qa_c, tb - ta)
    # d = inv(M) * rel
    qm_c = quat_conjugate(qm)
    q_d = quat_canonical(quat_mul(qm_c, q_rel))
    t_d = quat_rotate(qm_c, t_rel - tm)
    w = quat_to_rotvec(q_d)
    angle = math.sqrt(float(np.dot(w, w)))
    if angle < 1e-5:
        a2 = angle * angle
        dcoef = 1.0 / 12.0 + a2 / 720.0
    else:
        dcoef = 1.0 / (angle * angle) - (1.0 + math.cos(angle)) / (
            2.0 * angle * math.sin(angle)
        )
    k = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    vinv = np.eye(3) - 0.5 * k + dcoef * (k @ k)
    return np.concatenate([w, vinv @ t_d])


def edge_residual(edge: PoseGraphEdge, poses: dict[int, Se3Pose]) -> np.ndarray:
    """log( M^-1 * Ta^-1 * Tb ); zero iff the poses match the measurement."""
    pa, pb = poses[edge.a], poses[edge.b]
    return _raw_residual(
        pa.rotation.q, pa.translation,
        pb.rotation.q, pb.translation,
        edge.measurement.rotation.q, edge.measurement.translation,
    )


def _retract(q, t, delta):
    """Right-multiplicative update of a raw pose by a 6-vector."""
    dw, dv = delta[:3], delta[3:]
    angle = math.sqrt(float(np.dot(dw, dw)))
    if angle < 1e-5:
        a2 = angle * angle
        b = 0.5 - a2 / 24.0
        c = 1.0 / 6.0 - a2 / 120.0
    else:
        b = (1.0 - math.cos(angle)) / (angle * angle)
        c = (angle - math.sin(angle)) / (angle ** 3)
    k = np.array([[0.0, -dw[2], dw[1]], [dw[2], 0.0, -dw[0]], [-dw[1], dw[0], 0.0]])
    vmat = np.eye(3) + b * k + c * (k @ k)
    dq = quat_from_rotvec(dw)
    dt = vmat @ dv
    return quat_canonical(quat_mul(q, dq)), quat_rotate(q, dt) + t


def graph_cost(graph: PoseGraph, poses: dict[int, Se3Pose]) -> float:
    total = 0.0
    for e in graph.edges:
        r = edge_residual(e, poses)
        total += e.weight * float(np.dot(r, r))
    return total


# -- batched residual norms over all edges (cost checks dominate runtime) ------

def _bq_conj(q):
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def _bq_mul(a, b):
    aw, ax, ay, az = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    bw, bx, by, bz = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=1)


def _bcross(a, b):
    ax, ay, az = a[:, 0], a[:, 1], a[:, 2]
    bx, by, bz = b[:, 0], b[:, 1], b[:, 2]
    return np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx], axis=1)


def _bq_rotate(q, p):
    qv = q[:, 1:]
    t = 2.0 * _bcross(qv, p)
    return p + q[:, :1] * t + _bcross(qv, t)


def _batched_cost(q_all, t_all, ia, ib, q_meas_conj, t_meas, weights) -> float:
    qa, ta = q_all[ia], t_all[ia]
    qb, tb = q_all[ib], t_all[ib]
    qa_c = _bq_conj(qa)
    q_rel = _bq_mul(qa_c, qb)
    t_rel = _bq_rotate(qa_c, tb - ta)
    q_d = _bq_mul(q_meas_conj, q_rel)
    t_d = _bq_rotate(q_meas_conj, t_rel - t_meas)
    q_d = np.where(q_d[:, :1] < 0, -q_d, q_d)  # canonical w >= 0
    # rotation vector of q_d
    vn = np.linalg.norm(q_d[:, 1:], axis=1)
    angle = 2.0 * np.arctan2(vn, q_d[:, 0])
    factor = np.where(vn > 1e-12, angle / np.where(vn > 1e-12, vn, 1.0), 2.0)
    w_vec = q_d[:, 1:] * factor[:, None]
    # translational part: Vinv(w) @ t_d expanded through cross products
    a2 = angle * angle
    small = angle < 1e-5
    with np.errstate(invalid="ignore", divide="ignore"):
        dcoef = np.where(
            small,
            1.0 / 12.0 + a2 / 720.0,
            1.0 / np.where(small, 1.0, a2)
            - (1.0 + np.cos(angle)) / (2.0 * np.where(small, 1.0, angle * np.sin(angle))),
        )
    wxt = _bcross(w_vec, t_d)
    wxwxt = _bcross(w_vec, wxt)
    v_part = t_d - 0.5 * wxt + dcoef[:, None] * wxwxt
    sq = np.sum(w_vec ** 2, axis=1) + np.sum(v_part ** 2, axis=1)
    return float(np.sum(weights * sq))


def optimize(graph: PoseGraph, params: OptimizerParams | None = None) -> OptimizeReport:
    """LM over the free nodes; accepted steps strictly decrease the cost."""
    params = params or OptimizerParams()
    graph.check_gauge()

    raw = {nid: (n.pose.rotation.q.copy(), n.pose.translation.copy())
           for nid, n in graph.nodes.items()}
    free = [nid for nid in sorted(graph.nodes) if not graph.nodes[nid].fixed]
    col = {nid: 6 * i for i, nid in enumerate(free)}
    n_params = 6 * len(free)

    node_ids = sorted(graph.nodes)
    node_row = {nid: i for i, nid in enumerate(node_ids)}
    edge_ia = np.array([node_row[e.a] for e in graph.edges], dtype=int)
    edge_ib = np.array([node_row[e.b] for e in graph.edges], dtype=int)
    if graph.edges:
        q_meas_conj = np.array([quat_conjugate(e.measurement.rotation.q)
                                for e in graph.edges])
        t_meas = np.array([e.measurement.translation for e in graph.edges])
        weights = np.array([e.weight for e in graph.edges])

    def state_arrays(state):
        q_all = np.array([state[nid][0] for nid in node_ids])
        t_all = np.array([state[nid][1] for nid in node_ids])
        return q_all, t_all

    def residual(eidx, state):
        e = graph.edges[eidx]
        qa, ta = state[e.a]
        qb, tb = state[e.b]
        return _raw_residual(qa, ta, qb, tb,
                             e.measurement.rotation.q, e.measurement.translation)

    def total_cost(state):
        if not graph.edges:
            return 0.0
        q_all, t_all = state_arrays(state)
        return _batched_cost(q_all, t_all, edge_ia, edge_ib,
                             q_meas_conj, t_meas, weights)

    def to_pose_dict(state):
        return {
            nid: Se3Pose(Rotation(state[nid][0].copy()), state[nid][1].copy())
            if nid in col else graph.nodes[nid].pose
            for nid in graph.nodes
        }

    cost = total_cost(raw)
    history = [cost]
    report = OptimizeReport(
        poses=to_pose_dict(raw), initial_cost=cost, final_cost=cost,
        iterations=0, cost_history=history,
    )
    if not graph.edges or n_params == 0 or cost < params.tol:
        return report

    h = params.fd_step
    lam = params.damping
    accepted_any = False
    converged = False

    for _ in range(params.max_iters):
        nrows = 6 * len(graph.edges)
        jac = np.zeros((nrows, n_params))
        rvec = np.zeros(nrows)
        for ei, e in enumerate(graph.edges):
            sw = math.sqrt(e.weight)
            rows = slice(6 * ei, 6 * ei + 6)
            rvec[rows] = sw * residual(ei, raw)
            for nid in (e.a, e.b):
                if nid not in col:
                    continue
                q0, t0 = raw[nid]
                for k in range(6):
                    delta = np.zeros(6)
                    delta[k] = h
                    raw[nid] = _retract(q0, t0, delta)
                    rp = residual(ei, raw)
                    delta[k] = -h
                    raw[nid] = _retract(q0, t0, delta)
                    rm = residual(ei, raw)
                    raw[nid] = (q0, t0)
                    jac[rows, col[nid] + k] = sw * (rp - rm) / (2 * h)
        grad = jac.T @ rvec
        hess = jac.T @ jac

        stepped = False
        while lam <= params.damping_max:
            try:
                delta = np.linalg.solve(hess + lam * np.eye(n_params), -grad)
            except np.linalg.LinAlgError:
                lam *= params.damping_up
                continue
            trial = dict(raw)
            for nid in free:
                q0, t0 = raw[nid]
                trial[nid] = _retract(q0, t0, delta[col[nid]:col[nid] + 6])
            new_cost = total_cost(trial)
            if new_cost < cost:
                decrease = cost - new_cost
                raw = trial
                cost = new_cost
                history.append(cost)
                report.iterations += 1
                lam = max(lam * params.damping_down, 1e-12)
                stepped = True
                accepted_any = True
                if decrease < params.tol:
                    converged = True
                break
            lam *= params.damping_up
        if not stepped or converged:
            break

    report.poses = to_pose_dict(raw)
    report.final_cost = cost
    report.no_progress = not accepted_any
    return report

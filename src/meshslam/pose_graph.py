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

The solver is damped Gauss-Newton (Levenberg-Marquardt) on ``Se3Pose``
values.  An edge residual is ``se3_log(inv(M) * inv(T_a) * T_b)``, and a
node moves by the right-multiplicative retraction ``T <- T * se3_exp(delta)``
on the 6-dof tangent.  Jacobians come from central finite differences per
edge block; at window sizes of a few dozen nodes this is cheap and avoids a
hand-derived linearization.  :func:`graph_cost` is the only cost path: it
scores the initial state and every trial step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Se3Pose, se3_exp, se3_log
from .map_store import AgentMap, UnknownObjectError
from .net_sim import components


DAMPING = 1e-3         # initial LM damping
DAMPING_UP = 10.0      # factor after a rejected step
DAMPING_DOWN = 0.1     # factor after an accepted step
DAMPING_MAX = 1e8      # give up the iteration beyond this damping
FD_STEP = 1e-6         # central-difference step on the tangent


@dataclass
class OptimizerParams:
    max_iters: int = 10
    tol: float = 1e-6          # stop when an accepted step decreases cost less than this

    def __post_init__(self):
        for name in ("max_iters", "tol"):
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

    def check_gauge(self) -> None:
        for comp in components(self.nodes, ((e.a, e.b) for e in self.edges)):
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
    for comp in components(graph.nodes, kept):
        if not any(graph.nodes[n].fixed for n in comp):
            anchor = max(comp, key=lambda n: (dist[n], -n))
            graph.nodes[anchor].fixed = True
    return graph


def edge_residual(edge: PoseGraphEdge, poses: dict[int, Se3Pose]) -> np.ndarray:
    """log( M^-1 * Ta^-1 * Tb ); zero iff the poses match the measurement."""
    relative = poses[edge.a].inverse().compose(poses[edge.b])
    return se3_log(edge.measurement.inverse().compose(relative))


def graph_cost(graph: PoseGraph, poses: dict[int, Se3Pose]) -> float:
    total = 0.0
    for e in graph.edges:
        r = edge_residual(e, poses)
        total += e.weight * float(np.dot(r, r))
    return total


def _linearize(
    graph: PoseGraph, poses: dict[int, Se3Pose], col: dict[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted residual vector and its central-difference Jacobian."""
    nrows = 6 * len(graph.edges)
    jac = np.zeros((nrows, 6 * len(col)))
    rvec = np.zeros(nrows)
    for ei, e in enumerate(graph.edges):
        sw = math.sqrt(e.weight)
        rows = slice(6 * ei, 6 * ei + 6)
        rvec[rows] = sw * edge_residual(e, poses)
        for nid in (e.a, e.b):
            if nid not in col:
                continue
            ends = {e.a: poses[e.a], e.b: poses[e.b]}
            for k in range(6):
                delta = np.zeros(6)
                delta[k] = FD_STEP
                ends[nid] = poses[nid].compose(se3_exp(delta))
                rp = edge_residual(e, ends)
                ends[nid] = poses[nid].compose(se3_exp(-delta))
                rm = edge_residual(e, ends)
                jac[rows, col[nid] + k] = sw * (rp - rm) / (2 * FD_STEP)
    return jac, rvec


def optimize(graph: PoseGraph, params: OptimizerParams | None = None) -> OptimizeReport:
    """LM over the free nodes; accepted steps strictly decrease the cost."""
    params = params or OptimizerParams()
    graph.check_gauge()

    poses = {nid: n.pose for nid, n in graph.nodes.items()}
    free = [nid for nid in sorted(graph.nodes) if not graph.nodes[nid].fixed]
    col = {nid: 6 * i for i, nid in enumerate(free)}
    n_params = 6 * len(free)

    cost = graph_cost(graph, poses)
    history = [cost]
    report = OptimizeReport(
        poses=poses, initial_cost=cost, final_cost=cost,
        iterations=0, cost_history=history,
    )
    if n_params == 0 or cost < params.tol:
        return report

    lam = DAMPING
    converged = False
    for _ in range(params.max_iters):
        jac, rvec = _linearize(graph, poses, col)
        grad = jac.T @ rvec
        hess = jac.T @ jac

        stepped = False
        while lam <= DAMPING_MAX:
            try:
                delta = np.linalg.solve(hess + lam * np.eye(n_params), -grad)
            except np.linalg.LinAlgError:
                lam *= DAMPING_UP
                continue
            trial = dict(poses)
            for nid in free:
                trial[nid] = poses[nid].compose(se3_exp(delta[col[nid]:col[nid] + 6]))
            new_cost = graph_cost(graph, trial)
            if new_cost < cost:
                decrease = cost - new_cost
                poses = trial
                cost = new_cost
                history.append(cost)
                report.iterations += 1
                lam = max(lam * DAMPING_DOWN, 1e-12)
                stepped = True
                if decrease < params.tol:
                    converged = True
                break
            lam *= DAMPING_UP
        if not stepped or converged:
            break

    report.poses = poses
    report.final_cost = cost
    return report

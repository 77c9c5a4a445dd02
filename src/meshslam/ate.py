"""Absolute trajectory error over the combined multi-agent trajectory.

Estimated and ground-truth poses are associated per agent by nearest
timestamp within a 20 ms window, then a single similarity transform aligns
the combined estimated positions onto the ground truth (monocular maps have
arbitrary scale, so evaluation must absorb one global SIM(3)).  The reported
RMS is over the post-alignment translational errors; the trajectory length
is the summed ground-truth segment length.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .alignment import kabsch_umeyama
from .geometry import Sim3Transform

ASSOCIATION_WINDOW = 0.02  # seconds


class TooFewAssociationsError(ValueError):
    pass


class TrajectoryFormatError(ValueError):
    pass


TRAJECTORY_HEADER = ["timestamp", "agent_id", "x", "y", "z", "qw", "qx", "qy", "qz"]


@dataclass
class AteReport:
    rms_m: float
    errors: np.ndarray
    alignment: Sim3Transform
    length_m: float
    n_pairs: int

    def to_json_dict(self) -> dict:
        return {
            "rms_m": self.rms_m,
            "length_m": self.length_m,
            "n_pairs": self.n_pairs,
            "alignment": {
                "scale": self.alignment.scale,
                "quat": [float(v) for v in self.alignment.rotation.q],
                "trans": [float(v) for v in self.alignment.translation],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _group_by_agent(rows):
    out: dict[int, list] = {}
    for row in rows:
        out.setdefault(int(row[1]), []).append(row)
    for agent, lst in out.items():
        lst.sort(key=lambda r: r[0])
    return out


def associate(est_rows, gt_rows, window: float = ASSOCIATION_WINDOW):
    """Nearest-timestamp pairs per agent within the window."""
    est_by_agent = _group_by_agent(est_rows)
    gt_by_agent = _group_by_agent(gt_rows)
    pairs = []
    for agent in sorted(est_by_agent):
        gt = gt_by_agent.get(agent)
        if not gt:
            continue
        gt_times = np.array([r[0] for r in gt])
        for row in est_by_agent[agent]:
            idx = int(np.searchsorted(gt_times, row[0]))
            best, best_dt = None, window
            for j in (idx - 1, idx):
                if 0 <= j < len(gt_times):
                    dt = abs(gt_times[j] - row[0])
                    if dt <= best_dt:
                        best, best_dt = j, dt
            if best is not None:
                pairs.append((np.asarray(row[2], dtype=float),
                              np.asarray(gt[best][2], dtype=float)))
    return pairs


def trajectory_length(gt_rows) -> float:
    total = 0.0
    for agent, rows in sorted(_group_by_agent(gt_rows).items()):
        pts = np.array([np.asarray(r[2], dtype=float) for r in rows])
        if len(pts) > 1:
            total += float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    return total


def compute_ate(est_rows, gt_rows, window: float = ASSOCIATION_WINDOW) -> AteReport:
    """Align the combined estimate with one SIM(3) and report RMS error.

    Rows are (timestamp, agent_id, position, quaternion); the quaternion is
    carried for file round-trips but only positions enter the metric.
    """
    pairs = associate(est_rows, gt_rows, window)
    if len(pairs) < 3:
        raise TooFewAssociationsError(
            f"only {len(pairs)} associated pose pairs, need at least 3")
    est = np.array([p[0] for p in pairs])
    gt = np.array([p[1] for p in pairs])
    transform = kabsch_umeyama(est, gt)
    errors = np.linalg.norm(gt - transform.apply(est), axis=1)
    rms = float(np.sqrt(np.mean(errors ** 2)))
    return AteReport(
        rms_m=rms, errors=errors, alignment=transform,
        length_m=trajectory_length(gt_rows), n_pairs=len(pairs),
    )


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def trajectory_to_csv(rows) -> str:
    lines = [",".join(TRAJECTORY_HEADER)]
    for t, agent, pos, quat in rows:
        fields = [repr(float(t)), str(int(agent))]
        fields += [repr(float(v)) for v in pos]
        fields += [repr(float(v)) for v in quat]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text: str, source: str = "<string>"):
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise TrajectoryFormatError(f"{source}: empty file") from None
    if header != TRAJECTORY_HEADER:
        missing = [c for c in TRAJECTORY_HEADER if c not in header]
        raise TrajectoryFormatError(
            f"{source}: bad header, missing columns {missing or header}")
    rows = []
    for i, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != len(TRAJECTORY_HEADER):
            raise TrajectoryFormatError(
                f"{source}: line {i}: expected {len(TRAJECTORY_HEADER)} fields")
        try:
            t = float(rec[0])
            agent = int(rec[1])
            pos = np.array([float(v) for v in rec[2:5]])
            quat = np.array([float(v) for v in rec[5:9]])
        except ValueError as exc:
            raise TrajectoryFormatError(f"{source}: line {i}: {exc}") from None
        if not (math.isfinite(t) and np.isfinite(pos).all() and np.isfinite(quat).all()):
            raise TrajectoryFormatError(f"{source}: line {i}: non-finite field")
        rows.append((t, agent, pos, quat))
    return rows


def load_trajectory_csv(path: str):
    with open(path) as fh:
        return trajectory_from_csv(fh.read(), source=path)

"""Incremental peer-to-peer map sharing.

Each agent keeps, per merged peer, an outbox of keyframe and map point ids it
has not sent yet.  Once the outbox reaches the batch threshold the map's own
keyframes and points are packed into a keyframe packet, which is encoded the
moment it is sent, and the outbox is cleared.  Received packets are queued
and drained when the agent has spare cycles; insertion of one external
keyframe runs the four-step pipeline: pop, move into the local map (same
coordinate frame), relink by id, then merge duplicate map points by word and
radius.  No pose is refined on insertion: every agent holds the same
keyframe poses up to a whole-map SIM(3), so a pose graph over the new
keyframe's covisibility window has zero residual by construction.

Insertion is idempotent: a redelivered packet finds its keyframe ids already
present and skips them.  Nothing resends a lost packet, so a keyframe whose
packet was dropped stays missing from the receiver's map.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .map_store import AgentMap, KeyFrame, MapPoint
from .wire import KeyFramePacket
# unused here; kept bound so perfbench/layers.py can still wrap them by name
from .pose_graph import build_local_window, optimize  # noqa: F401
from .wire import decode_frame  # noqa: F401

__all__ = ["Outbox", "SharingState", "insert_external_keyframe"]


@dataclass
class Outbox:
    unsent_keyframes: list[int] = field(default_factory=list)
    unsent_points: list[int] = field(default_factory=list)

    def add(self, kf_id: int, point_ids: list[int]) -> None:
        if kf_id not in self.unsent_keyframes:
            self.unsent_keyframes.append(kf_id)
        for pid in point_ids:
            if pid not in self.unsent_points:
                self.unsent_points.append(pid)

    def clear(self) -> None:
        self.unsent_keyframes = []
        self.unsent_points = []


@dataclass
class QueueEntry:
    sender: int
    keyframe: KeyFrame
    points: list[MapPoint]


class SharingState:
    """Outboxes toward merged peers plus the inbound external keyframe queue."""

    def __init__(self):
        self.outboxes: dict[int, Outbox] = {}
        self.queue: deque[QueueEntry] = deque()

    def outbox(self, peer: int) -> Outbox:
        return self.outboxes.setdefault(peer, Outbox())

    def record_new_keyframe(self, kf_id: int, new_point_ids: list[int],
                            peers: list[int]) -> None:
        for peer in sorted(peers):
            self.outbox(peer).add(kf_id, new_point_ids)

    def flush_outbox(self, agent_id: int, peer: int, m: AgentMap,
                     batch_size: int, force: bool = False) -> KeyFramePacket | None:
        box = self.outboxes.get(peer)
        if box is None or not box.unsent_keyframes:
            return None
        if not force and len(box.unsent_keyframes) < batch_size:
            return None
        # the map's own objects: the packet is encoded as soon as it is sent
        kfs = [m.keyframes[k] for k in box.unsent_keyframes if k in m.keyframes]
        pts = [m.points[p] for p in box.unsent_points if p in m.points]
        box.clear()
        if not kfs:
            return None
        return KeyFramePacket(sender=agent_id, keyframes=kfs, points=pts)

    def enqueue_packet(self, packet: KeyFramePacket) -> None:
        """Split a packet into per-keyframe entries, preserving sender order.

        Each point travels with the first packet keyframe that observes it;
        points observed by no packet keyframe ride with the last entry so
        nothing is silently dropped.
        """
        by_id = {p.id: p for p in packet.points}
        claimed: set[int] = set()
        entries = []
        for kf in packet.keyframes:
            mine = [by_id[pid] for pid in sorted(kf.observed_points)
                    if pid in by_id and pid not in claimed]
            claimed.update(p.id for p in mine)
            entries.append(QueueEntry(packet.sender, kf, mine))
        leftovers = [p for p in packet.points if p.id not in claimed]
        if leftovers and entries:
            entries[-1].points.extend(leftovers)
        self.queue.extend(entries)

    def drain(self, m: AgentMap, budget: int, dup_radius: float) -> list[int]:
        """Insert up to `budget` queued keyframes; returns the inserted ids."""
        inserted = []
        for _ in range(min(budget, len(self.queue))):
            entry = self.queue.popleft()
            kid = insert_external_keyframe(m, entry, dup_radius)
            if kid is not None:
                inserted.append(kid)
        return inserted


def _merge_duplicate_points(m: AgentMap, new_point_ids: list[int],
                            dup_radius: float) -> int:
    """Fold arriving points into nearby local points with the same word id.

    The surviving point is always the lower id, making the choice identical
    on every agent.  Returns the number of merges performed.
    """
    merges = 0
    for pid in sorted(new_point_ids):
        if pid not in m.points:
            continue  # already merged away by an earlier entry
        p = m.points[pid]
        best = None
        for cand_id in sorted(m.points_by_word.get(p.word, ())):
            if cand_id == pid:
                continue
            cand = m.points[cand_id]
            d = float(np.linalg.norm(cand.position - p.position))
            if d <= dup_radius and (best is None or d < best[0]
                                    or (d == best[0] and cand_id < best[1])):
                best = (d, cand_id)
        if best is not None:
            keep, discard = sorted((pid, best[1]))
            m.merge_map_points(keep, discard)
            merges += 1
    return merges


def insert_external_keyframe(m: AgentMap, entry: QueueEntry,
                             dup_radius: float) -> int | None:
    """Run the insertion pipeline for one queued external keyframe.

    The entry's objects were decoded for this agent alone, so they move into
    the map as they are.  Returns the keyframe id, or None when it was
    already present (redelivery).
    """
    kf = entry.keyframe
    if kf.id in m.keyframes:
        return None
    new_ids = [p.id for p in entry.points if p.id not in m.points]
    # steps 2 and 3: move into the local frame unchanged, relink by id
    # (insert_keyframe resolves references and parks the rest as pending)
    m.insert_keyframe(kf, entry.points)
    # step 4: duplicate map point merge by word id and spatial locality
    _merge_duplicate_points(m, new_ids, dup_radius)
    return kf.id

"""Per-agent map database.

An :class:`AgentMap` holds keyframes, map points, the inverted visual-word
index used for place recognition, and the covisibility graph (edge weight =
number of shared map points).  A :class:`MapDatabase` holds one shared map
plus any private maps created while localization is lost.

Object ids are 128-bit integers derived deterministically from
(run seed, agent id, per-agent counter) so that reruns are bit-identical.
Cross-references that cannot be resolved yet (the referenced object has not
arrived over the network) are parked in pending-link tables and resolved when
the object shows up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Se3Pose, Sim3Transform


class DuplicateObjectError(KeyError):
    pass


class UnknownObjectError(KeyError):
    pass


class WordMismatchError(ValueError):
    pass


# uuid layout: [seed:64][agent:16][counter:48], compared as plain ints
_UUID_BYTES = 16


def make_uuid(seed: int, agent_id: int, counter: int) -> int:
    if not 0 <= agent_id < (1 << 16):
        raise ValueError("agent id out of range")
    if not 0 <= counter < (1 << 48):
        raise ValueError("uuid counter exhausted")
    return ((seed & 0xFFFFFFFFFFFFFFFF) << 64) | (agent_id << 48) | counter


class UuidGenerator:
    def __init__(self, seed: int, agent_id: int):
        self.seed = seed
        self.agent_id = agent_id
        self.counter = 0

    def next(self) -> int:
        uid = make_uuid(self.seed, self.agent_id, self.counter)
        self.counter += 1
        return uid


def normalize_histogram(counts: dict[int, float]) -> dict[int, float]:
    """Term-frequency normalize word counts to sum 1, dropping zeros."""
    total = float(sum(counts.values()))
    if total <= 0:
        raise ValueError("histogram must have positive total weight")
    return {w: c / total for w, c in sorted(counts.items()) if c > 0}


@dataclass
class KeyFrame:
    id: int
    origin_agent: int
    timestamp: float
    pose: Se3Pose
    words: dict[int, float]
    observed_points: set[int] = field(default_factory=set)
    covisibility: dict[int, int] = field(default_factory=dict)


@dataclass
class MapPoint:
    id: int
    position: np.ndarray
    word: int
    observers: set[int] = field(default_factory=set)


class AgentMap:
    """One coordinate frame's worth of keyframes and map points."""

    def __init__(self):
        self.keyframes: dict[int, KeyFrame] = {}
        self.points: dict[int, MapPoint] = {}
        self.word_index: dict[int, set[int]] = {}
        self.points_by_word: dict[int, set[int]] = {}
        # point id -> keyframes waiting to observe it
        self.pending_point_links: dict[int, set[int]] = {}
        # keyframe id -> points waiting for it as an observer
        self.pending_kf_links: dict[int, set[int]] = {}
        # duplicate-merge redirects: discarded point id -> surviving id
        self.merged_into: dict[int, int] = {}

    # -- insertion -----------------------------------------------------

    def insert_keyframe(self, kf: KeyFrame, observed: list[MapPoint] = ()) -> None:
        """Insert a keyframe together with the point records it carries.

        Points already present gain an observer; new points are created.
        Covisibility edges are created to every keyframe sharing at least one
        map point.  References to absent objects become pending links.
        """
        if kf.id in self.keyframes:
            raise DuplicateObjectError(f"keyframe {kf.id} already present")
        for p in observed:
            self.upsert_point(p)
        self.keyframes[kf.id] = kf
        for w in kf.words:
            self.word_index.setdefault(w, set()).add(kf.id)
        # references may use ids that were locally folded into another point
        kf.observed_points = {self.resolve_point_id(pid)
                              for pid in kf.observed_points}
        for pid in sorted(kf.observed_points):
            if pid in self.points:
                self.points[pid].observers.add(kf.id)
            else:
                self.pending_point_links.setdefault(pid, set()).add(kf.id)
        # points that arrived earlier already listing this keyframe
        for pid in sorted(self.pending_kf_links.pop(kf.id, set())):
            if pid in self.points:
                self.points[pid].observers.add(kf.id)
                kf.observed_points.add(pid)
        self._refresh_edges_for(kf.id)

    def upsert_point(self, p: MapPoint) -> None:
        """Insert a point record, or union its observers into an existing one.

        A record whose id was folded into another point locally contributes
        its observers to the surviving point instead.
        """
        claimed = set(p.observers)
        rid = self.resolve_point_id(p.id)
        if rid in self.points:
            existing = self.points[rid]
            for kid in sorted(claimed):
                if kid in self.keyframes:
                    existing.observers.add(kid)
                    self.keyframes[kid].observed_points.add(rid)
                else:
                    self.pending_kf_links.setdefault(kid, set()).add(rid)
            self._refresh_edges_among(sorted(existing.observers))
            return
        resolved = {kid for kid in claimed if kid in self.keyframes}
        p.observers = resolved
        self.points[p.id] = p
        self.points_by_word.setdefault(p.word, set()).add(p.id)
        for kid in sorted(resolved):
            self.keyframes[kid].observed_points.add(p.id)
        for kid in sorted(claimed - resolved):
            self.pending_kf_links.setdefault(kid, set()).add(p.id)
        # keyframes that listed this point before it arrived
        for kid in sorted(self.pending_point_links.pop(p.id, set())):
            if kid in self.keyframes:
                p.observers.add(kid)
                self.keyframes[kid].observed_points.add(p.id)
        self._refresh_edges_among(sorted(p.observers))

    def add_observation(self, kf_id: int, point_id: int) -> None:
        kf = self.keyframes[kf_id]
        point_id = self.resolve_point_id(point_id)
        point = self.points[point_id]
        kf.observed_points.add(point_id)
        point.observers.add(kf_id)
        self._refresh_edges_among(sorted(point.observers))

    # -- queries ---------------------------------------------------------

    def query_visual_word_set(self, words: dict[int, float]) -> set[int]:
        """Keyframes whose histogram shares at least one word id with the query."""
        out: set[int] = set()
        for w in words:
            out |= self.word_index.get(w, set())
        return out

    def top_covisible(self, kf_id: int, k: int) -> list[int]:
        """Up to k neighbors by descending shared-point count, ties by id."""
        if kf_id not in self.keyframes:
            raise UnknownObjectError(f"keyframe {kf_id} not in map")
        neighbors = self.keyframes[kf_id].covisibility
        ranked = sorted(neighbors.items(), key=lambda kv: (-kv[1], kv[0]))
        return [kid for kid, _ in ranked[:k]]

    def covisibility_neighborhood(self, kf_id: int, depth: int) -> set[int]:
        """Keyframes within `depth` covisibility hops of kf_id (inclusive)."""
        if kf_id not in self.keyframes:
            raise UnknownObjectError(f"keyframe {kf_id} not in map")
        seen = {kf_id}
        frontier = [kf_id]
        for _ in range(depth):
            nxt = []
            for kid in frontier:
                for nid in sorted(self.keyframes[kid].covisibility):
                    if nid not in seen:
                        seen.add(nid)
                        nxt.append(nid)
            frontier = nxt
        return seen

    # -- mutation ----------------------------------------------------------

    def merge_map_points(self, keep_id: int, discard_id: int) -> None:
        """Fold `discard` into `keep`: observers union, references rewritten."""
        if keep_id == discard_id:
            return
        if keep_id not in self.points or discard_id not in self.points:
            raise UnknownObjectError("merge_map_points requires both points present")
        keep = self.points[keep_id]
        discard = self.points[discard_id]
        if keep.word != discard.word:
            raise WordMismatchError(
                f"cannot merge word {discard.word} into word {keep.word}"
            )
        for kid in sorted(discard.observers):
            kf = self.keyframes[kid]
            kf.observed_points.discard(discard_id)
            kf.observed_points.add(keep_id)
            keep.observers.add(kid)
        waiting = self.pending_point_links.pop(discard_id, set())
        if waiting:
            self.pending_point_links.setdefault(keep_id, set()).update(waiting)
        for pts in self.pending_kf_links.values():
            if discard_id in pts:
                pts.discard(discard_id)
                pts.add(keep_id)
        self.points_by_word[discard.word].discard(discard_id)
        del self.points[discard_id]
        self.merged_into[discard_id] = keep_id
        self._refresh_edges_among(sorted(keep.observers))

    def resolve_point_id(self, pid: int) -> int:
        """Follow duplicate-merge redirects to the surviving point id."""
        seen = []
        while pid in self.merged_into:
            seen.append(pid)
            pid = self.merged_into[pid]
        for s in seen:
            self.merged_into[s] = pid
        return pid

    def apply_sim3(self, t: Sim3Transform) -> None:
        """Re-express the whole map in a new frame.

        Point positions and camera centers move like points.
        """
        for p in self.points.values():
            p.position = t.apply(p.position)
        for kf in self.keyframes.values():
            kf.pose = t.transform_pose(kf.pose)

    def absorb(self, other: "AgentMap") -> None:
        """Move all contents of `other` into this map (ids never collide)."""
        overlap = set(other.keyframes) & set(self.keyframes)
        if overlap:
            raise DuplicateObjectError(f"maps share keyframe ids {sorted(overlap)[:3]}")
        self.keyframes.update(other.keyframes)
        self.points.update(other.points)
        for w, kids in other.word_index.items():
            self.word_index.setdefault(w, set()).update(kids)
        for w, pids in other.points_by_word.items():
            self.points_by_word.setdefault(w, set()).update(pids)
        self.merged_into.update(other.merged_into)
        for pid, kids in other.pending_point_links.items():
            self.pending_point_links.setdefault(pid, set()).update(kids)
        for kid, pids in other.pending_kf_links.items():
            self.pending_kf_links.setdefault(kid, set()).update(pids)
        self._resolve_pending()

    def _resolve_pending(self) -> None:
        for pid in sorted(self.pending_point_links):
            if pid not in self.points:
                continue
            point = self.points[pid]
            for kid in sorted(self.pending_point_links.pop(pid)):
                if kid in self.keyframes:
                    point.observers.add(kid)
                    self.keyframes[kid].observed_points.add(pid)
            self._refresh_edges_among(sorted(point.observers))
        for kid in sorted(self.pending_kf_links):
            if kid not in self.keyframes:
                continue
            kf = self.keyframes[kid]
            touched = []
            for pid in sorted(self.pending_kf_links.pop(kid)):
                if pid in self.points:
                    self.points[pid].observers.add(kid)
                    kf.observed_points.add(pid)
                    touched.extend(sorted(self.points[pid].observers))
            if touched:
                self._refresh_edges_among(sorted(set(touched)))

    # -- covisibility maintenance -------------------------------------------

    def _shared_count(self, a: int, b: int) -> int:
        pa = self.keyframes[a].observed_points
        pb = self.keyframes[b].observed_points
        resolved = {p for p in (pa & pb) if p in self.points}
        return len(resolved)

    def _refresh_edge(self, a: int, b: int) -> None:
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        w = self._shared_count(lo, hi)
        kfa, kfb = self.keyframes[lo], self.keyframes[hi]
        if w > 0:
            kfa.covisibility[hi] = w
            kfb.covisibility[lo] = w
        else:
            kfa.covisibility.pop(hi, None)
            kfb.covisibility.pop(lo, None)

    def _refresh_edges_for(self, kf_id: int) -> None:
        kf = self.keyframes[kf_id]
        partners: set[int] = set()
        for pid in kf.observed_points:
            if pid in self.points:
                partners |= self.points[pid].observers
        partners.discard(kf_id)
        for other in sorted(partners):
            self._refresh_edge(kf_id, other)

    def _refresh_edges_among(self, kf_ids: list[int]) -> None:
        ids = sorted(set(kf_ids))
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                self._refresh_edge(a, b)

    # -- integrity (used by tests and debug runs) ---------------------------

    def check_integrity(self) -> None:
        rebuilt: dict[int, set[int]] = {}
        for kid, kf in self.keyframes.items():
            for w in kf.words:
                rebuilt.setdefault(w, set()).add(kid)
        live_index = {w: s for w, s in self.word_index.items() if s}
        assert rebuilt == live_index, "inverted index out of sync"
        for pid, p in self.points.items():
            assert p.observers or pid in {
                x for s in self.pending_kf_links.values() for x in s
            }, f"point {pid} has no observers"
            for kid in p.observers:
                assert pid in self.keyframes[kid].observed_points
        for kid, kf in self.keyframes.items():
            for nid, w in kf.covisibility.items():
                assert self.keyframes[nid].covisibility.get(kid) == w, "asymmetric edge"
                expected = self._shared_count(kid, nid)
                assert w == expected, f"edge {kid}-{nid} weight {w} != {expected}"
            for pid in kf.observed_points:
                assert (
                    pid in self.points or kid in self.pending_point_links.get(pid, set())
                ), f"dangling observation {pid}"


class MapDatabase:
    """Shared map plus private maps spawned while localization is lost."""

    def __init__(self):
        self.maps: list[AgentMap] = [AgentMap()]
        self.active: int = 0

    @property
    def shared_map(self) -> AgentMap:
        return self.maps[0]

    @property
    def active_map(self) -> AgentMap:
        return self.maps[self.active]

    @property
    def has_private_map(self) -> bool:
        return len(self.maps) > 1

    def spawn_private_map(self) -> AgentMap:
        m = AgentMap()
        self.maps.append(m)
        self.active = len(self.maps) - 1
        return m

    def merge_private_map(self, t: Sim3Transform) -> None:
        """Transform the active private map into the shared frame and fold it in."""
        if self.active == 0:
            raise UnknownObjectError("no active private map to merge")
        private = self.maps.pop(self.active)
        private.apply_sim3(t)
        self.shared_map.absorb(private)
        self.active = 0

    def apply_frame_transform(self, t: Sim3Transform) -> None:
        """Apply a group-frame change to the shared map (private maps keep their own frames)."""
        self.shared_map.apply_sim3(t)

"""Per-agent map database.

An :class:`AgentMap` holds keyframes, map points and the inverted visual-word
index used for place recognition.  The covisibility graph is derived, not
counted: ``KeyFrame.covisibility`` is recomputed on every read from the
keyframe's observed points and their observers, through a back-reference to
the map that holds the keyframe.  ``AgentMap.top_covisible`` keeps each
keyframe's last ranking and reuses it while its validity key is unchanged:
``(k, unlinks, len(observed_points), sum of observer counts over the present
observed points)``, where ``unlinks`` counts the map's ``_unlink`` calls.  The
key is exact because outside ``_unlink`` these sets only grow (``_link`` adds,
``upsert_point`` creates fresh records, ``absorb`` adds disjoint ids), so
equal sizes mean equal sets and so the same counts.  A :class:`MapDatabase`
holds one shared map plus any private maps created while localization is lost.

Object ids are 128-bit integers derived deterministically from
(run seed, agent id, per-agent counter) so that reruns are bit-identical.
Cross-references that cannot be resolved yet (the referenced object has not
arrived over the network) are parked in pending-link tables and resolved when
the object shows up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .geometry import Rotation, Se3Pose, Sim3Transform, quat_canonical, quat_mul


class DuplicateObjectError(KeyError):
    pass


class UnknownObjectError(KeyError):
    pass


class WordMismatchError(ValueError):
    pass


# uuid layout: [seed:64][agent:16][counter:48], compared as plain ints
def make_uuid(seed: int, agent_id: int, counter: int) -> int:
    if not 0 <= agent_id < (1 << 16):
        raise ValueError("agent id out of range")
    if not 0 <= counter < (1 << 48):
        raise ValueError("uuid counter exhausted")
    return ((seed & 0xFFFFFFFFFFFFFFFF) << 64) | (agent_id << 48) | counter


def uuid_agent(uid: int) -> int:
    """The agent id field of a uuid made by `make_uuid`."""
    return (uid >> 48) & 0xFFFF


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
    # the AgentMap holding this keyframe; set on insertion and on absorb
    owner: AgentMap | None = field(default=None, init=False, repr=False, compare=False)
    # (validity key, ranking) of the last `AgentMap.top_covisible` read;
    # cleared wherever `owner` is set
    ranked: tuple[tuple, list[int]] | None = field(
        default=None, init=False, repr=False, compare=False)
    # `words` as (ascending ids, weights / total) arrays, filled by
    # `merge_detection.bow_similarities`; `words` is never mutated after
    # construction, so this never goes stale
    histogram: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def covisibility(self) -> Counter[int]:
        """Shared present map points per other keyframe of the owning map."""
        points = self.owner.points if self.owner is not None else {}
        counts = Counter(chain.from_iterable(
            points[pid].observers for pid in self.observed_points if pid in points))
        del counts[self.id]
        return counts


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
        # `_unlink` calls so far: part of `top_covisible`'s validity key
        self.unlinks = 0

    # -- insertion -----------------------------------------------------

    def insert_keyframe(self, kf: KeyFrame, observed: list[MapPoint] = ()) -> None:
        """Insert a keyframe together with the point records it carries.

        Points already present gain an observer; new points are created.
        References to absent objects become pending links.
        """
        if kf.id in self.keyframes:
            raise DuplicateObjectError(f"keyframe {kf.id} already present")
        for p in observed:
            self.upsert_point(p)
        self.keyframes[kf.id] = kf
        kf.owner, kf.ranked = self, None
        for w in kf.words:
            self.word_index.setdefault(w, set()).add(kf.id)
        # references may use ids that were locally folded into another point
        kf.observed_points = {self.resolve_point_id(pid)
                              for pid in kf.observed_points}
        for pid in kf.observed_points:
            if pid in self.points:
                self._link(kf.id, pid)
            else:
                self.pending_point_links.setdefault(pid, set()).add(kf.id)
        # points that arrived earlier already listing this keyframe
        for pid in self.pending_kf_links.pop(kf.id, set()):
            self._link(kf.id, pid)

    def upsert_point(self, p: MapPoint) -> None:
        """Insert a point record, or union its observers into an existing one.

        A record whose id was folded into another point locally contributes
        its observers to the surviving point instead.
        """
        claimed = set(p.observers)
        rid = self.resolve_point_id(p.id)
        waiting: set[int] = set()
        if rid not in self.points:
            p.observers = set()
            self.points[rid] = p
            self.points_by_word.setdefault(p.word, set()).add(rid)
            # keyframes that listed this point before it arrived
            waiting = self.pending_point_links.pop(rid, set())
        for kid in claimed | waiting:
            if kid in self.keyframes:
                self._link(kid, rid)
            else:
                self.pending_kf_links.setdefault(kid, set()).add(rid)

    # -- queries ---------------------------------------------------------

    def query_visual_word_set(self, words: dict[int, float]) -> set[int]:
        """Keyframes whose histogram shares at least one word id with the query."""
        out: set[int] = set()
        for w in words:
            out |= self.word_index.get(w, set())
        return out

    def top_covisible(self, kf_id: int, k: int) -> list[int]:
        """Up to k neighbors by descending shared-point count, ties by id.

        The ranking is reused until the keyframe's validity key changes (see
        the module docstring).
        """
        if k < 0:
            raise ValueError(f"top_covisible needs k >= 0, got k={k}")
        if kf_id not in self.keyframes:
            raise UnknownObjectError(f"keyframe {kf_id} not in map")
        kf = self.keyframes[kf_id]
        observations = 0
        for pid in kf.observed_points:
            p = self.points.get(pid)
            if p is not None:
                observations += len(p.observers)
        key = (k, self.unlinks, len(kf.observed_points), observations)
        if kf.ranked is None or kf.ranked[0] != key:
            ranked = sorted(kf.covisibility.items(), key=lambda kv: (-kv[1], kv[0]))
            kf.ranked = key, [kid for kid, _ in ranked[:k]]
        return list(kf.ranked[1])

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
        for kid in list(discard.observers):
            self._unlink(kid, discard_id)
            self._link(kid, keep_id)
        for pts in self.pending_kf_links.values():
            if discard_id in pts:
                pts.discard(discard_id)
                pts.add(keep_id)
        self.points_by_word[discard.word].discard(discard_id)
        del self.points[discard_id]
        self.merged_into[discard_id] = keep_id

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

        Point positions and camera centers move like points.  Each pose
        row equals ``t.transform_pose`` of that pose bit for bit.
        """
        points = list(self.points.values())
        moved = t.apply(np.array([p.position for p in points]).reshape(-1, 3))
        for p, row in zip(points, moved):
            p.position = row
        kfs = list(self.keyframes.values())
        quats = quat_canonical(quat_mul(
            t.rotation.q, np.array([kf.pose.rotation.q for kf in kfs]).reshape(-1, 4)))
        centers = t.apply(np.array([kf.pose.translation for kf in kfs]).reshape(-1, 3))
        for kf, q, c in zip(kfs, quats, centers):
            kf.pose = Se3Pose(Rotation(q), c)

    def absorb(self, other: "AgentMap") -> None:
        """Move all contents of `other` into this map (ids never collide)."""
        overlap = set(other.keyframes) & set(self.keyframes)
        if overlap:
            raise DuplicateObjectError(f"maps share keyframe ids {sorted(overlap)[:3]}")
        self.keyframes.update(other.keyframes)
        for kf in other.keyframes.values():
            kf.owner, kf.ranked = self, None
        self.points.update(other.points)
        self.merged_into.update(other.merged_into)
        for mine, theirs in ((self.word_index, other.word_index),
                             (self.points_by_word, other.points_by_word),
                             (self.pending_point_links, other.pending_point_links),
                             (self.pending_kf_links, other.pending_kf_links)):
            for key, ids in theirs.items():
                mine.setdefault(key, set()).update(ids)
        self._resolve_pending()

    def _resolve_pending(self) -> None:
        for pid in self.pending_point_links.keys() & self.points.keys():
            for kid in self.pending_point_links.pop(pid):
                self._link(kid, pid)
        for kid in self.pending_kf_links.keys() & self.keyframes.keys():
            for pid in self.pending_kf_links.pop(kid):
                self._link(kid, pid)

    # -- observations --------------------------------------------------------

    def _link(self, kid: int, pid: int) -> None:
        """Record that keyframe `kid` observes point `pid`."""
        self.keyframes[kid].observed_points.add(pid)
        self.points[pid].observers.add(kid)

    def _unlink(self, kid: int, pid: int) -> None:
        """Drop the observation of `pid` by `kid`.

        The only place observations shrink, so it invalidates every cached
        covisible ranking.
        """
        self.unlinks += 1
        self.keyframes[kid].observed_points.discard(pid)
        self.points[pid].observers.discard(kid)

    # -- integrity (used by tests and debug runs) ---------------------------

    def check_integrity(self) -> None:
        rebuilt: dict[int, set[int]] = {}
        for kid, kf in self.keyframes.items():
            for w in kf.words:
                rebuilt.setdefault(w, set()).add(kid)
        live_index = {w: s for w, s in self.word_index.items() if s}
        assert rebuilt == live_index, "inverted index out of sync"
        waiting = set().union(*self.pending_kf_links.values())
        for pid, p in self.points.items():
            assert p.observers or pid in waiting, f"point {pid} has no observers"
            for kid in p.observers:
                assert pid in self.keyframes[kid].observed_points
        for kid, kf in self.keyframes.items():
            assert kf.owner is self, f"keyframe {kid} points at another map"
            for pid in kf.observed_points:
                assert (
                    pid in self.points or kid in self.pending_point_links.get(pid, set())
                ), f"dangling observation {pid}"
                assert pid not in self.points or kid in self.points[pid].observers, (
                    f"keyframe {kid} lists point {pid} without being its observer"
                )
        for pid, kids in self.pending_point_links.items():
            assert pid not in self.points, f"pending link to present point {pid}"
            for kid in kids:
                kf = self.keyframes.get(kid)
                assert kf is not None and pid in kf.observed_points, (
                    f"keyframe {kid} waits on point {pid} without listing it"
                )
        for kid, pids in self.pending_kf_links.items():
            assert kid not in self.keyframes, f"pending link to present keyframe {kid}"
            for pid in pids:
                assert pid in self.points, f"absent point {pid} waits on keyframe {kid}"


class MapDatabase:
    """Shared map plus the private map spawned while localization is lost.

    A loss needs a localized tracker, so at most one private map exists.
    """

    def __init__(self):
        self.shared_map = AgentMap()
        self.private_map: AgentMap | None = None

    @property
    def maps(self) -> list[AgentMap]:
        """Every map held, the shared one first."""
        return [self.shared_map] + ([] if self.private_map is None else [self.private_map])

    @property
    def active_map(self) -> AgentMap:
        return self.shared_map if self.private_map is None else self.private_map

    def spawn_private_map(self) -> AgentMap:
        self.private_map = AgentMap()
        return self.private_map

    def merge_private_map(self, t: Sim3Transform) -> None:
        """Transform the private map into the shared frame and fold it in."""
        if self.private_map is None:
            raise UnknownObjectError("no active private map to merge")
        private, self.private_map = self.private_map, None
        private.apply_sim3(t)
        self.shared_map.absorb(private)

    def apply_frame_transform(self, t: Sim3Transform) -> None:
        """Apply a group-frame change to the shared map (private maps keep their own frames)."""
        self.shared_map.apply_sim3(t)

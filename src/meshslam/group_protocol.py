"""Decentralized system manager: peer states, groups, and the merge handshake.

Every agent keeps its own replica of the set of lost agents, the pairs whose
maps share a frame (grow-only) and the last reachability components, updated
only through protocol messages and reachability events, so the cluster has
no shared state.  Groups are not stored: after every change to the aligned
pairs or to reachability, `SystemManager._regroup` rebuilds them as the
connected components of the aligned pairs whose agents can reach each other,
and each group's leader is its minimum id.  Pair states are not stored
either: they are derived from the groups, localization loss, reachability
and the agent's own in-flight handshakes (`SystemManager.state`).  The
closure invariant reads through that derivation: a pair is in the merged
state (or its localization-lost variant) exactly when both agents sit in the
same group.

Merge handshake, driven by bag-of-words announcements between group leaders:

* a leader that detects a merge candidate in an announcement from a
  higher-id leader sends its own full map to that leader;
* a leader that detects one from a lower-id leader cannot push its map
  (full maps always flow lower to higher), so it answers with a targeted
  announcement of its best matching keyframe, which lets the lower leader
  detect the overlap and start the exchange from its side;
* the higher leader fits a similarity transform from word-matched map point
  correspondences, applies it to its own group's maps, tells its old group
  members to do the same, and broadcasts the new roster.

A handshake that loses its full map to the network times out and the pair
returns to unmerged; the next announcement retries it.

Localization is an epoch per agent that counts the losses and recoveries the
agent has declared; the agent is lost while its epoch is odd.  Only the owner
bumps its epoch, and each replica keeps the highest epoch it has seen for
every agent (a max-register), so states that arrive late, twice or out of
order leave the replica where the newest one put it.  `lost_agents` is
written by that merge alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from .alignment import NoModelError, RansacParams, ransac_sim3
from .geometry import Sim3Transform
from .map_store import AgentMap, MapPoint
from .merge_detection import detect_merge
from .net_sim import components
from .wire import (
    BowAnnounce,
    FullMapMsg,
    GroupUpdate,
    LocalizationState,
    MergeNotify,
)


# Correspondences come from the covisibility neighborhood of this depth
# around the hint keyframe.
NEIGHBORHOOD_DEPTH = 2
# Duplicate copies of one landmark within this spread still give a word
# correspondence.
CLUSTER_TOLERANCE = 0.15
# A full map exchange that has not merged after this many seconds times out.
HANDSHAKE_TIMEOUT = 5.0
# A merge notice is sent NOTIFY_REPEATS times, NOTIFY_SPACING seconds apart,
# so that losing one copy does not leave a member misaligned.
NOTIFY_REPEATS = 3
NOTIFY_SPACING = 0.4


class PeerState(Enum):
    UNMERGED = "unmerged"
    MERGE_IN_PROGRESS = "merge_in_progress"
    MERGED = "merged"
    PEER_UNREACHABLE = "peer_unreachable"
    PEER_LOCALIZATION_LOST = "peer_localization_lost"


# states in which the pair shares a coordinate frame
FRAME_SHARING_STATES = (PeerState.MERGED, PeerState.PEER_LOCALIZATION_LOST)


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class GroupRegistry:
    """One snapshot of the partition of all agents into groups; leaders are minimum ids."""

    def __init__(self, groups: Iterable[set[int]]):
        self._groups = [frozenset(g) for g in sorted(groups, key=min)]
        self._group_of = {a: g for g in self._groups for a in g}

    def groups(self) -> list[frozenset[int]]:
        return list(self._groups)

    def group_of(self, agent: int) -> frozenset[int]:
        return self._group_of[agent]

    def leader_of(self, agent: int) -> int:
        return min(self._group_of[agent])

    def leaders(self) -> list[int]:
        return [min(g) for g in self._groups]


# ---------------------------------------------------------------------------
# Geometric merge attempt
# ---------------------------------------------------------------------------

def points_by_word(points: Iterable[MapPoint]) -> dict[int, list[tuple[int, np.ndarray]]]:
    """Group (id, position) pairs by word id, each list in ascending id order."""
    out: dict[int, list[tuple[int, np.ndarray]]] = {}
    for p in sorted(points, key=lambda p: p.id):
        out.setdefault(p.word, []).append((p.id, p.position))
    return out


def _word_representative(points: list[tuple[int, np.ndarray]]) -> np.ndarray | None:
    """Single position standing for all of a word's points, or None.

    One point is unambiguous.  Several points still qualify when they sit
    within `CLUSTER_TOLERANCE` of each other: that is what unmerged duplicate
    copies of the same landmark look like, and the lowest-id copy stands in
    deterministically.  Genuinely distinct landmarks sharing a word are
    spread apart and disqualify the word.
    """
    if len(points) == 1:
        return points[0][1]
    positions = np.array([p for _, p in points])
    spread = np.max(np.linalg.norm(positions - positions[0], axis=1))
    if spread <= CLUSTER_TOLERANCE:
        return min(points, key=lambda up: up[0])[1]
    return None


def collect_word_correspondences(
    local_by_word: dict[int, list[tuple[int, np.ndarray]]],
    remote_by_word: dict[int, list[tuple[int, np.ndarray]]],
) -> tuple[np.ndarray, np.ndarray]:
    """Pair points through word ids that are unambiguous on both sides.

    Returns matched (n, 3) local and remote rows, one per such word, in
    ascending word order.  Ambiguous words (several well-separated points on
    a side) are skipped: without a transform there is no way to tell them
    apart, and RANSAC only has to reject what little ambiguity survives.
    """
    src, dst = [], []
    for word in sorted(set(local_by_word) & set(remote_by_word)):
        lrep = _word_representative(local_by_word[word])
        rrep = _word_representative(remote_by_word[word])
        if lrep is not None and rrep is not None:
            src.append(lrep)
            dst.append(rrep)
    return np.array(src).reshape(-1, 3), np.array(dst).reshape(-1, 3)


def attempt_full_merge(
    local_map: AgentMap,
    hint_kf_id: int,
    remote_by_word: dict[int, list[tuple[int, np.ndarray]]],
    ransac: RansacParams,
) -> tuple[Sim3Transform, int] | None:
    """Fit the transform taking the local frame onto the remote frame.

    Correspondences come from the covisibility neighborhood of the hint
    keyframe against the whole remote map, matched by unambiguous word ids.
    Returns (transform, inlier count), or None when no trustworthy model
    exists.
    """
    if hint_kf_id not in local_map.keyframes:
        return None
    kf_ids = local_map.covisibility_neighborhood(hint_kf_id, NEIGHBORHOOD_DEPTH)
    point_ids: set[int] = set()
    for kid in kf_ids:
        point_ids |= local_map.keyframes[kid].observed_points
    local_by_word = points_by_word(
        local_map.points[pid] for pid in point_ids if pid in local_map.points)
    src, dst = collect_word_correspondences(local_by_word, remote_by_word)
    if len(src) < 3:
        return None
    try:
        transform, inliers = ransac_sim3(src, dst, ransac)
    except NoModelError:
        return None
    return transform, len(inliers)


# ---------------------------------------------------------------------------
# The per-agent manager
# ---------------------------------------------------------------------------

@dataclass
class ManagerHooks:
    """The agent-side services a manager calls.

    A full map message carries copies of the shared map's points without
    observers, and none of its keyframes.  `send` delivers one message to
    each recipient in turn, so it encodes it once.

    Map history needs no hook: the agent's keyframe log goes to `merged_peers`
    (localized group members in a direct aligned pair with it), each from a
    cursor that starts at 0, so a peer that joins is sent the whole log.
    """

    send: Callable[[list[int], object], None]  # (recipients, message dataclass)
    log: Callable[..., None]                 # (event, **detail)
    schedule: Callable[[float, Callable[[], None]], None]
    apply_map_transform: Callable[[Sim3Transform], None]
    ransac_seed: Callable[[], int]


class SystemManager:
    def __init__(self, agent_id: int, agents: list[int], hooks: ManagerHooks,
                 shared_map: Callable[[], AgentMap]):
        self.agent_id = agent_id
        self.agents = sorted(agents)
        self.hooks = hooks
        self.shared_map = shared_map
        self.lost_agents: set[int] = set()
        # the highest localization epoch known per agent, this one's included
        self._epochs: dict[int, int] = {a: 0 for a in self.agents}
        # grow-only: pairs whose maps were brought into one frame
        self.aligned: set[tuple[int, int]] = set()
        # reachability component of each agent at the last partition change
        self._component_of: dict[int, int] = {a: 0 for a in self.agents}
        self._regroup()
        # this agent's full map exchanges awaiting a merge, pair -> epoch
        self._handshakes: dict[tuple[int, int], int] = {}
        self._handshake_counter = 0
        self._merge_counter = 0
        self._applied_merge_ids: set[int] = set()

    def _regroup(self) -> None:
        """Rebuild the groups: components of the aligned pairs within reachability."""
        comp = self._component_of
        self.registry = GroupRegistry(components(
            self.agents, (p for p in self.aligned if comp[p[0]] == comp[p[1]])))

    # -- views -----------------------------------------------------------

    def state(self, a: int, b: int) -> PeerState:
        """The pair's state, derived from this agent's replica."""
        if b in self.registry.group_of(a):
            lost = a in self.lost_agents or b in self.lost_agents
            return PeerState.PEER_LOCALIZATION_LOST if lost else PeerState.MERGED
        if _pair(a, b) in self._handshakes:
            return PeerState.MERGE_IN_PROGRESS
        if self._component_of[a] != self._component_of[b]:
            return PeerState.PEER_UNREACHABLE
        return PeerState.UNMERGED

    @property
    def self_lost(self) -> bool:
        return self.agent_id in self.lost_agents

    def is_leader(self) -> bool:
        return self.registry.leader_of(self.agent_id) == self.agent_id

    def other_leaders(self) -> list[int]:
        own = self.registry.group_of(self.agent_id)
        return [l for l in self.registry.leaders() if l not in own]

    def _reachable(self, agents: list[int]) -> list[int]:
        """The agents this replica knows to be in its own reachability component.

        A frame sent to any other agent is dropped by the partition, so it is
        not sent.
        """
        comp = self._component_of
        own = comp[self.agent_id]
        return [a for a in agents if comp[a] == own]

    def merged_peers(self) -> list[int]:
        """Where this agent's keyframe log goes: localized group members in a
        direct `aligned` pair with it.  A member joined only through a chain of
        merges is left out; ROADMAP item 19 widens this to the whole group, and
        CHANGES.md's FOUND line on widening `merged_peers()` measures its cost."""
        me = self.agent_id
        if self.self_lost:
            return []
        return sorted(p for p in self.registry.group_of(me) if p != me
                      and p not in self.lost_agents and _pair(me, p) in self.aligned)

    def _merge_busy(self) -> bool:
        """True while this agent has an outstanding merge handshake.

        A leader must not take part in two merges at once: completing one
        changes its coordinate frame and would invalidate the map already
        handed to the other peer.  Merge traffic is serialized per agent;
        the rejected side times out and retries on a later announcement.
        """
        return any(self.state(*key) == PeerState.MERGE_IN_PROGRESS
                   for key in self._handshakes)

    # -- announcements ------------------------------------------------------

    def announce_keyframe_bow(self, kf_id: int, words: dict[int, int]) -> list[int]:
        """Send the keyframe's word histogram to every other reachable group leader.

        Returns the recipients; empty when this agent is not a leader (merge
        traffic is delegated to leaders) or currently lost.
        """
        if not self.is_leader() or self.self_lost:
            return []
        recipients = self._reachable(self.other_leaders())
        self.hooks.send(recipients, BowAnnounce(self.agent_id, kf_id, dict(words)))
        return recipients

    def on_bow_announce(self, msg: BowAnnounce) -> None:
        sender = msg.sender
        if sender == self.agent_id or not self.is_leader() or self.self_lost:
            return
        if sender in self.registry.group_of(self.agent_id):
            return
        state = self.state(self.agent_id, sender)
        if state != PeerState.UNMERGED or self._merge_busy():
            return  # handshake running, already merged, or peer unavailable
        cand = detect_merge(self.shared_map(), msg.words)
        if cand is None:
            return
        self.hooks.log("merge_detected", peer=sender, score=cand.score,
                       baseline=cand.baseline, best_kf=str(cand.best_match_kf))
        if self.agent_id < sender:
            self._start_full_map_exchange(sender, hint_kf=msg.kf_id)
        else:
            # cannot push a full map uphill; answer with the overlapping
            # keyframe so the lower leader can detect and initiate
            best = self.shared_map().keyframes[cand.best_match_kf]
            self.hooks.send([sender], BowAnnounce(self.agent_id, best.id, dict(best.words)))

    def _start_full_map_exchange(self, peer: int, hint_kf: int) -> None:
        key = _pair(self.agent_id, peer)
        self._handshake_counter += 1
        epoch = self._handshakes[key] = self._handshake_counter

        def expire():
            if self._handshakes.get(key) != epoch:
                return  # dropped by a partition change or superseded
            timed_out = self.state(*key) == PeerState.MERGE_IN_PROGRESS
            del self._handshakes[key]
            if timed_out:
                self.hooks.log("merge_handshake_timeout", peer=peer)

        self.hooks.schedule(HANDSHAKE_TIMEOUT, expire)
        # what the peer's fit reads: each point's id, position and word
        m = self.shared_map()
        points = [MapPoint(p.id, p.position, p.word) for _, p in sorted(m.points.items())]
        self.hooks.send([peer], FullMapMsg(self.agent_id, hint_kf, points))
        self.hooks.log("full_map_sent", peer=peer, keyframes=len(m.keyframes))

    # -- full map reception (the higher-id leader merges) ---------------------

    def on_full_map(self, msg) -> None:
        sender = msg.sender
        if not self.is_leader() or self.self_lost:
            return
        if sender in self.registry.group_of(self.agent_id):
            return
        if self._merge_busy():
            return  # serialized at the leader; the sender times out and retries
        result = attempt_full_merge(
            self.shared_map(), msg.hint_kf, points_by_word(msg.points),
            RansacParams(seed=self.hooks.ransac_seed()),
        )
        if result is None:
            self.hooks.log("merge_attempt_failed", peer=sender)
            return
        transform, inlier_count = result
        self.complete_group_merge(sender, transform, inlier_count)

    def complete_group_merge(self, lower_leader: int, transform: Sim3Transform,
                             inlier_count: int) -> None:
        old_group = sorted(self.registry.group_of(self.agent_id))
        roster = sorted(self.registry.group_of(lower_leader).union(old_group))
        self.hooks.apply_map_transform(transform)
        self._absorb_roster(roster)
        self._merge_counter += 1
        merge_id = (self.agent_id << 32) | self._merge_counter
        self._applied_merge_ids.add(merge_id)
        notice = MergeNotify(self.agent_id, transform, roster, old_group, merge_id)
        members = sorted(set(old_group) - {self.agent_id}) + [lower_leader]
        update = GroupUpdate(self.agent_id, roster)
        others = [a for a in self.agents if a != self.agent_id]

        def broadcast():
            self.hooks.send(self._reachable(members), notice)
            self.hooks.send(self._reachable(others), update)

        # the notice carries the frame change; losing every copy would leave
        # a member permanently misaligned, so it is repeated a few times and
        # receivers deduplicate on the merge id; each repeat goes to the
        # agents reachable at its own time
        broadcast()
        for k in range(1, NOTIFY_REPEATS):
            self.hooks.schedule(k * NOTIFY_SPACING, broadcast)
        self.hooks.log("group_merged", roster=roster, leader=roster[0],
                       inliers=inlier_count, scale=transform.scale)

    def on_merge_notify(self, msg: MergeNotify) -> None:
        if msg.merge_id not in self._applied_merge_ids:
            self._applied_merge_ids.add(msg.merge_id)
            if self.agent_id in msg.transform_roster and self.agent_id != msg.sender:
                self.hooks.apply_map_transform(msg.transform)
                self.hooks.log("merge_transform_applied", source=msg.sender,
                               scale=msg.transform.scale)
        self._absorb_roster(msg.roster)

    def on_group_update(self, msg) -> None:
        self._absorb_roster(msg.roster)

    def _absorb_roster(self, roster) -> None:
        """Align the roster with every group it touches, then regroup.

        Merges may race over the same agents; a roster computed from a stale
        replica must never split an already-larger group, so absorption only
        ever grows groups.  Splits happen exclusively through reachability,
        which also keeps members cut off by a partition out of the group
        until the link heals.
        """
        union = set(roster)
        for g in self.registry.groups():
            if union & g:
                union |= g
        self.aligned.update(combinations(sorted(union), 2))
        self._regroup()

    # -- localization loss ------------------------------------------------------

    def declare_localization_lost(self) -> None:
        self._declare_localization("localization_lost")

    def declare_localization_regained(self) -> None:
        self._declare_localization("localization_regained")

    def _declare_localization(self, event: str) -> None:
        """Bump this agent's epoch (losses and recoveries alternate, so a loss
        makes it odd) and send the new state to every other agent."""
        state = LocalizationState(self.agent_id, self._epochs[self.agent_id] + 1)
        self.on_localization_state(state)
        self.hooks.send([a for a in self.agents if a != self.agent_id], state)
        self.hooks.log(event)

    def on_localization_state(self, msg: LocalizationState) -> None:
        """Keep the higher epoch; a state not above the known one is ignored."""
        if msg.epoch <= self._epochs[msg.sender]:
            return
        self._epochs[msg.sender] = msg.epoch
        if msg.epoch % 2:
            self.lost_agents.add(msg.sender)
        else:
            self.lost_agents.discard(msg.sender)

    # -- partitions ------------------------------------------------------------

    def on_partition_change(self, reachable: list[set[int]]) -> None:
        """Split groups along reachability; restore them when links return.

        Fragments of a merged group re-form their group the moment they can
        talk again, with no new handshake.  Handshakes with peers now in
        another component are dropped, so those pairs read unreachable and,
        once the link heals, unmerged.
        """
        comp_of = self._component_of = {a: i for i, c in enumerate(reachable) for a in c}
        self._regroup()
        self._handshakes = {key: epoch for key, epoch in self._handshakes.items()
                            if comp_of[key[0]] == comp_of[key[1]]}

    # -- invariants (exercised by tests and debug runs) --------------------------

    def check_invariants(self) -> None:
        groups = self.registry.groups()
        seen: set[int] = set()
        for g in groups:
            assert not (seen & g), "groups overlap"
            seen |= g
        assert seen == set(self.agents), "groups must cover all agents"
        for a, b in combinations(self.agents, 2):
            state = self.state(a, b)
            same_group = self.registry.group_of(a) == self.registry.group_of(b)
            sharing = state in FRAME_SHARING_STATES
            assert same_group == sharing, (
                f"closure violated at agent {self.agent_id}: pair ({a},{b}) "
                f"state={state.value} same_group={same_group}"
            )

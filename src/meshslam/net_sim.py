"""Deterministic discrete-event mesh network.

Messages are wire frames carried in envelopes.  Delivery samples a seeded
drop stream and a seeded uniform latency; a message sent while its endpoints
sit in different reachability components is dropped.  Reachability is the
transitive closure of the up links, which is what a mesh network provides.

Every byte is accounted per agent and per message category (declared with
each message type in ``wire``) in the bandwidth ledger; after the network
quiesces, ``sent == received + dropped`` holds exactly per category.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np

# re-exported: the ledger categories are declared with the message types
from .wire import (CATEGORIES, CATEGORY_ALIGNMENT, CATEGORY_BOWS,  # noqa: F401
                   CATEGORY_CONTROL, CATEGORY_FULL_MAP, CATEGORY_KEYFRAMES, category_of)


def components(nodes: Iterable[int], pairs: Iterable[tuple[int, int]]) -> list[set[int]]:
    """Connected components of the graph on `nodes` with edges `pairs`, ordered by least member."""
    adjacent: dict[int, set[int]] = {n: set() for n in nodes}
    for a, b in pairs:
        adjacent[a].add(b)
        adjacent[b].add(a)
    comps: list[set[int]] = []
    seen: set[int] = set()
    for n in sorted(adjacent):
        if n in seen:
            continue
        comp, stack = {n}, [n]
        while stack:
            for nxt in adjacent[stack.pop()]:
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        seen |= comp
        comps.append(comp)
    return comps


class UnknownAgentError(KeyError):
    pass


@dataclass
class Envelope:
    src: int
    dst: int
    msg_type: int
    data: bytes
    send_time: float
    deliver_time: float | None = None
    dropped: bool = False


@dataclass
class PartitionWindow:
    start: float
    end: float
    down_links: list[tuple[int, int]]  # unordered pairs


@dataclass
class NetworkConfig:
    latency_ms: tuple[float, float] = (10.0, 50.0)
    drop_prob: float = 0.0
    partitions: list[PartitionWindow] = field(default_factory=list)

    def __post_init__(self):
        lo, hi = self.latency_ms
        if lo < 0 or hi < lo:
            raise ValueError("latency bounds must satisfy 0 <= lo <= hi")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")


class BandwidthLedger:
    """Per-agent, per-category byte accounting."""

    def __init__(self, agents: list[int]):
        self.agents = sorted(agents)
        self.sent = {a: {c: 0 for c in CATEGORIES} for a in self.agents}
        self.received = {a: {c: 0 for c in CATEGORIES} for a in self.agents}
        self.dropped = {a: {c: 0 for c in CATEGORIES} for a in self.agents}

    def record_sent(self, agent: int, category: str, size: int) -> None:
        self.sent[agent][category] += size

    def record_received(self, agent: int, category: str, size: int) -> None:
        self.received[agent][category] += size

    def record_dropped(self, agent: int, category: str, size: int) -> None:
        """Dropped bytes are charged to the sending agent."""
        self.dropped[agent][category] += size

    def totals(self, table: dict[int, dict[str, int]]) -> dict[str, int]:
        out = {c: 0 for c in CATEGORIES}
        for per_cat in table.values():
            for c, v in per_cat.items():
                out[c] += v
        return out

    def rows(self, duration: float) -> list[dict]:
        """One row per (agent, category), as written to the ledger CSV."""
        rows = []
        for agent in self.agents:
            for cat in CATEGORIES:
                sent = self.sent[agent][cat]
                rows.append({
                    "agent": agent,
                    "category": cat,
                    "bytes_sent": sent,
                    "bytes_received": self.received[agent][cat],
                    "bytes_dropped": self.dropped[agent][cat],
                    "avg_kbps": (sent / 1000.0) / duration if duration > 0 else 0.0,
                })
        return rows

    def to_csv(self, duration: float) -> str:
        lines = ["agent,category,bytes_sent,bytes_received,bytes_dropped,avg_kbps"]
        for r in self.rows(duration):
            lines.append(
                f"{r['agent']},{r['category']},{r['bytes_sent']},"
                f"{r['bytes_received']},{r['bytes_dropped']},{r['avg_kbps']!r}"
            )
        return "\n".join(lines) + "\n"


class MeshNetwork:
    """Schedules envelope deliveries onto a caller-owned (time, seq) heap."""

    def __init__(self, agents: list[int], config: NetworkConfig, seed: int):
        self.agent_ids = sorted(agents)
        self.config = config
        self.ledger = BandwidthLedger(self.agent_ids)
        self._drop_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=[seed, 0x6E65742D64726F70]))
        self._lat_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=[seed, 0x6E65742D6C6174]))
        # the down links are constant between consecutive partition boundaries,
        # so reachability is computed once per interval (the windows are read
        # here, once): interval index -> agent -> component index
        self._boundaries = self.partition_boundaries()
        self._component_of: dict[int, dict[int, int]] = {}

    # -- reachability ----------------------------------------------------

    def down_links_at(self, t: float) -> set[tuple[int, int]]:
        down: set[tuple[int, int]] = set()
        for w in self.config.partitions:
            if w.start <= t < w.end:
                for a, b in w.down_links:
                    down.add((min(a, b), max(a, b)))
        return down

    def reachability(self, t: float) -> list[set[int]]:
        """Connected components of the mesh with scheduled-down links removed."""
        down = self.down_links_at(t)
        return components(self.agent_ids, (link for link in combinations(self.agent_ids, 2)
                                           if link not in down))

    def partition_boundaries(self) -> list[float]:
        times = set()
        for w in self.config.partitions:
            times.add(w.start)
            times.add(w.end)
        return sorted(times)

    def same_component(self, a: int, b: int, t: float) -> bool:
        interval = bisect_right(self._boundaries, t)
        label = self._component_of.get(interval)
        if label is None:
            label = self._component_of[interval] = {
                n: i for i, comp in enumerate(self.reachability(t)) for n in comp}
        return a in label and label[a] == label.get(b)

    # -- transmission ---------------------------------------------------------

    def send(self, env: Envelope) -> Envelope:
        """Account the envelope and stamp its fate (drop or delivery time)."""
        if env.src == env.dst:
            raise ValueError("src and dst must differ")
        if env.src not in self.ledger.sent or env.dst not in self.ledger.sent:
            raise UnknownAgentError(f"unknown agent in {env.src}->{env.dst}")
        cat, size = category_of(env.msg_type), len(env.data)
        self.ledger.record_sent(env.src, cat, size)
        partitioned = not self.same_component(env.src, env.dst, env.send_time)
        if partitioned or self._drop_rng.random() < self.config.drop_prob:
            env.dropped = True
            self.ledger.record_dropped(env.src, cat, size)
            return env
        lo, hi = self.config.latency_ms
        latency = self._lat_rng.uniform(lo, hi) / 1000.0
        env.deliver_time = env.send_time + latency
        return env

    def deliver(self, env: Envelope) -> None:
        self.ledger.record_received(env.dst, category_of(env.msg_type), len(env.data))


class EventQueue:
    """(time, seq) ordered heap; seq breaks ties so replay is deterministic."""

    def __init__(self):
        self._heap: list[tuple[float, int, object]] = []
        self._seq = 0

    def push(self, time: float, item: object) -> None:
        heapq.heappush(self._heap, (time, self._seq, item))
        self._seq += 1

    def pop(self) -> tuple[float, int, object]:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

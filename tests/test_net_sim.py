import numpy as np
import pytest

from meshslam.net_sim import (
    CATEGORIES,
    CATEGORY_ALIGNMENT,
    CATEGORY_BOWS,
    CATEGORY_FULL_MAP,
    CATEGORY_KEYFRAMES,
    BandwidthLedger,
    Envelope,
    EventQueue,
    MeshNetwork,
    NetworkConfig,
    PartitionWindow,
    UnknownAgentError,
    category_of,
)
from meshslam.wire import MessageType


def env(src=0, dst=1, size=100, t=0.0, mt=MessageType.KEYFRAME_PACKET):
    return Envelope(src=src, dst=dst, msg_type=int(mt), data=b"x" * size, send_time=t)


class TestSend:
    def test_zero_drop_always_delivers(self):
        net = MeshNetwork([0, 1], NetworkConfig(drop_prob=0.0), seed=1)
        for i in range(100):
            e = net.send(env(t=float(i)))
            assert not e.dropped and e.deliver_time is not None

    def test_full_drop_never_delivers(self):
        net = MeshNetwork([0, 1], NetworkConfig(drop_prob=1.0), seed=1)
        for i in range(50):
            e = net.send(env(t=float(i)))
            assert e.dropped
        assert net.ledger.dropped[0][CATEGORY_KEYFRAMES] == 50 * 100
        assert net.ledger.sent[0][CATEGORY_KEYFRAMES] == 50 * 100

    def test_degenerate_latency(self):
        net = MeshNetwork([0, 1], NetworkConfig(latency_ms=(10, 10)), seed=1)
        e = net.send(env(t=2.0))
        assert e.deliver_time == pytest.approx(2.010)

    def test_unknown_agent(self):
        net = MeshNetwork([0, 1], NetworkConfig(), seed=1)
        with pytest.raises(UnknownAgentError):
            net.send(env(dst=9))

    def test_self_send_rejected(self):
        net = MeshNetwork([0, 1], NetworkConfig(), seed=1)
        with pytest.raises(ValueError):
            net.send(env(src=0, dst=0))

    def test_fates_do_not_depend_on_size(self):
        """Drops and latencies are drawn per message, whatever its size, so a
        codec that changes sizes changes the ledger and nothing else."""
        cfg = NetworkConfig(latency_ms=(5.0, 80.0), drop_prob=0.3,
                            partitions=[PartitionWindow(1.0, 2.0, [(0, 2), (1, 2)])])
        small, large = (MeshNetwork([0, 1, 2], cfg, seed=11) for _ in range(2))
        rng = np.random.default_rng(5)
        fates = ([], [])
        for i in range(400):
            src, dst = (int(a) for a in rng.choice(3, size=2, replace=False))
            mt = MessageType(int(rng.choice(list(MessageType))))
            size = int(rng.integers(1, 2000))
            for net, fate, n in zip((small, large), fates, (size, 3 * size + 7)):
                e = net.send(env(src=src, dst=dst, size=n, t=i * 0.01, mt=mt))
                fate.append((e.dropped, e.deliver_time))
        assert fates[0] == fates[1]
        dropped = [d for d, _ in fates[0]]
        assert any(dropped) and not all(dropped)
        assert small.ledger.sent != large.ledger.sent


class TestReachability:
    def test_no_partitions_single_component(self):
        net = MeshNetwork([0, 1, 2], NetworkConfig(), seed=1)
        assert net.reachability(0.0) == [{0, 1, 2}]

    def test_closure_over_up_links(self):
        # direct link 0-1 down, but 0-2 and 1-2 are up: still one component
        cfg = NetworkConfig(partitions=[PartitionWindow(0.0, 10.0, [(0, 1)])])
        net = MeshNetwork([0, 1, 2], cfg, seed=1)
        assert net.reachability(5.0) == [{0, 1, 2}]
        # union-find oracle agrees
        assert net.same_component(0, 1, 5.0)

    def test_isolated_agent(self):
        cfg = NetworkConfig(partitions=[PartitionWindow(0.0, 10.0, [(0, 2), (1, 2)])])
        net = MeshNetwork([0, 1, 2], cfg, seed=1)
        assert net.reachability(5.0) == [{0, 1}, {2}]
        assert net.reachability(10.0) == [{0, 1, 2}]  # window end exclusive

    def test_components_ordered_by_least_member(self):
        # {0, 5, 9} joins only through 9, and {1, 2} is cut off from it
        agents = [0, 1, 2, 5, 9]
        up = {(0, 9), (5, 9), (1, 2)}
        down = [(a, b) for i, a in enumerate(agents) for b in agents[i + 1:]
                if (a, b) not in up]
        cfg = NetworkConfig(partitions=[PartitionWindow(0.0, 10.0, down)])
        net = MeshNetwork(agents, cfg, seed=1)
        assert net.reachability(5.0) == [{0, 5, 9}, {1, 2}]

    def test_partition_drop_accounted(self):
        cfg = NetworkConfig(partitions=[PartitionWindow(0.0, 10.0, [(0, 2), (1, 2)])])
        net = MeshNetwork([0, 1, 2], cfg, seed=1)
        e = net.send(env(src=0, dst=2, t=1.0))
        assert e.dropped
        assert net.ledger.dropped[0][CATEGORY_KEYFRAMES] == 100

    def test_random_partitions_match_union_find_oracle(self):
        rng = np.random.default_rng(3)
        agents = list(range(6))
        for _ in range(20):
            n_down = int(rng.integers(0, 10))
            down = set()
            while len(down) < n_down:
                a, b = sorted(rng.choice(6, size=2, replace=False))
                down.add((int(a), int(b)))
            cfg = NetworkConfig(partitions=[PartitionWindow(0, 1, sorted(down))])
            net = MeshNetwork(agents, cfg, seed=1)
            comps = net.reachability(0.5)
            # naive BFS oracle
            adj = {a: set() for a in agents}
            for i in agents:
                for j in agents:
                    if i < j and (i, j) not in down:
                        adj[i].add(j)
                        adj[j].add(i)
            seen, oracle = set(), []
            for a in agents:
                if a in seen:
                    continue
                comp, stack = {a}, [a]
                while stack:
                    c = stack.pop()
                    for n in adj[c]:
                        if n not in comp:
                            comp.add(n)
                            stack.append(n)
                seen |= comp
                oracle.append(comp)
            assert comps == oracle



class TestSameComponentCache:
    """Components are computed once per interval between partition boundaries."""

    def test_matches_recomputation_around_every_boundary(self):
        rng = np.random.default_rng(5)
        agents = [0, 1, 2, 3, 4]
        pairs = [(a, b) for a in agents for b in agents if a < b]
        for _ in range(20):
            windows = []
            for _ in range(int(rng.integers(1, 4))):
                start = float(rng.integers(0, 6))
                end = start + float(rng.integers(1, 5))
                down = [pairs[i] for i in rng.choice(len(pairs), size=int(rng.integers(1, 8)),
                                                     replace=False)]
                windows.append(PartitionWindow(start, end, down))
            net = MeshNetwork(agents, NetworkConfig(partitions=windows), seed=1)
            times = [-1.0, 100.0]
            for b in net.partition_boundaries():
                times += [float(np.nextafter(b, -np.inf)), b, float(np.nextafter(b, np.inf))]
            for t in rng.permutation(times).tolist():
                comps = net.reachability(t)
                for a in agents:
                    for b in agents:
                        want = any(a in c and b in c for c in comps)
                        assert net.same_component(a, b, t) == want, (windows, t, a, b)

    def test_unknown_agent_is_unreachable(self):
        net = MeshNetwork([0, 1], NetworkConfig(), seed=1)
        assert not net.same_component(0, 9, 0.0)
        assert not net.same_component(9, 0, 0.0)


class TestLedger:
    def test_no_traffic_all_zero(self):
        led = BandwidthLedger([0, 1])
        assert led.totals(led.sent) == {c: 0 for c in CATEGORIES}

    def test_single_packet_both_sides(self):
        net = MeshNetwork([0, 1], NetworkConfig(drop_prob=0.0), seed=1)
        e = net.send(env(size=1000))
        net.deliver(e)
        assert net.ledger.sent[0][CATEGORY_KEYFRAMES] == 1000
        assert net.ledger.received[1][CATEGORY_KEYFRAMES] == 1000

    def test_category_mapping(self):
        assert category_of(int(MessageType.BOW_ANNOUNCE)) == CATEGORY_BOWS
        assert category_of(int(MessageType.FULL_MAP)) == CATEGORY_FULL_MAP
        assert category_of(int(MessageType.ALIGNMENT_REQUEST)) == CATEGORY_ALIGNMENT
        assert category_of(int(MessageType.TAGGED_POINTS)) == CATEGORY_ALIGNMENT

    def test_conservation_after_quiescence(self):
        rng = np.random.default_rng(4)
        net = MeshNetwork([0, 1, 2], NetworkConfig(drop_prob=0.3), seed=7)
        pending = []
        for i in range(300):
            src, dst = rng.choice(3, size=2, replace=False)
            mt = rng.choice(list(MessageType))
            e = net.send(env(src=int(src), dst=int(dst), size=int(rng.integers(10, 500)),
                             t=float(i) * 0.01, mt=MessageType(int(mt))))
            if not e.dropped:
                pending.append(e)
        for e in pending:
            net.deliver(e)
        sent = net.ledger.totals(net.ledger.sent)
        received = net.ledger.totals(net.ledger.received)
        dropped = net.ledger.totals(net.ledger.dropped)
        for cat in CATEGORIES:
            assert sent[cat] == received[cat] + dropped[cat]

    def test_csv_rows(self):
        net = MeshNetwork([0, 1], NetworkConfig(drop_prob=0.0), seed=1)
        e = net.send(env(size=1000))
        net.deliver(e)
        csv = net.ledger.to_csv(duration=10.0)
        lines = csv.strip().split("\n")
        assert lines[0] == "agent,category,bytes_sent,bytes_received,bytes_dropped,avg_kbps"
        assert len(lines) == 1 + 2 * len(CATEGORIES)
        cats = {line.split(",")[1] for line in lines[1:]}
        assert {"BoWs", "Full Map", "Key Frames", "Alignment Data"} <= cats


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        q.push(2.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [q.pop()[2] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_broken_by_sequence(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        q.push(1.0, "third")
        assert [q.pop()[2] for _ in range(3)] == ["first", "second", "third"]

    def test_deterministic_replay(self):
        def trace(seed):
            rng = np.random.default_rng(seed)
            q = EventQueue()
            out = []
            for i in range(100):
                q.push(float(rng.integers(0, 10)), i)
            while len(q):
                out.append(q.pop())
            return out
        assert trace(5) == trace(5)

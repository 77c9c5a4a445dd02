"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from meshslam.simulation import Simulation  # noqa: E402
from meshslam import ate  # noqa: E402
from spans import Tracer, percentile  # noqa: E402

SHORT = {
    "loops_long": lambda: workloads.loops_long(3.0),
    "swarm5": lambda: workloads.swarm(5, 3.0),
    "faults": lambda: workloads.faults(3.0),
}


# -- workload generators -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shortened_workload_runs_clean(name):
    scenario = SHORT[name]()
    result = Simulation(scenario, 7).run()
    report, files = worker.outputs(result, ate)
    assert worker.check_outputs(result, report) == []
    assert set(files) == {"trajectory_est.csv", "trajectory_gt.csv", "ledger.csv",
                          "events.jsonl", "ate.json"}
    q = worker.quality(result, report)
    assert 0.0 < q["map_completeness"] <= 1.0
    assert q["bandwidth_kbps"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_workload_is_sized_for_p99(name):
    cfg = workloads.build(name)
    agent_ticks = len(cfg.agents) * round(cfg.run.duration / cfg.run.dt)
    # one pass over the ensemble leaves at least 10 ticks beyond p99
    assert agent_ticks * workloads.ENSEMBLE[name] >= 1000


def test_swarm_layout_follows_formula():
    cfg = workloads.swarm(7, 5.0)
    assert [a.id for a in cfg.agents] == list(range(7))
    a6 = cfg.agents[6]
    cx = sum(w[0] for w in a6.waypoints) / len(a6.waypoints)
    radius = ((a6.waypoints[0][0] - cx) ** 2 + a6.waypoints[0][1] ** 2) ** 0.5
    assert radius == pytest.approx(3.4 + 0.1 * (6 % 5), abs=0.5)


def test_faults_derives_from_leader_failover():
    base, cfg = workloads.shipped("leader_failover"), workloads.build("faults")
    assert [a.waypoints for a in cfg.agents] == [a.waypoints for a in base.agents]
    assert cfg.net.drop_prob == 0.1
    (window,) = cfg.net.partitions
    assert (window.start, window.end) == (6.0, 18.0)
    assert {a.id: a.blackouts for a in cfg.agents} == {0: [], 1: [(22.0, 25.0)], 2: []}


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.build("nope")


# -- span arithmetic -----------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = Tracer(clock)
    outer = t.open("a.outer")           # 0
    clock.now = 10
    mid = t.open("b.mid")               # 10
    clock.now = 15
    leaf = t.open("c.leaf")             # 15
    clock.now = 45
    t.close(leaf)                       # leaf 30
    clock.now = 50
    t.close(mid)                        # mid 40, self 10
    clock.now = 60
    second = t.open("c.leaf")           # direct child of outer
    clock.now = 80
    t.close(second)                     # 20
    clock.now = 100
    t.close(outer)                      # outer 100, self 100 - 40 - 20 = 40
    assert t.durations() == [100, 40, 30, 20]
    assert t.self_times() == [40, 10, 30, 20]
    assert sum(t.self_times()) == t.root_time_ns(0, 100) == 100
    s = t.summary()
    assert s["c.leaf"] == {"calls": 2, "self_s": 50e-9, "incl_s": 50e-9}
    assert s["a.outer"]["incl_s"] == pytest.approx(100e-9)


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    t = Tracer(clock)
    a = t.open("f")
    clock.now = 5
    b = t.open("f")
    clock.now = 9
    t.close(b)
    clock.now = 12
    t.close(a)
    row = t.summary()["f"]
    assert row["calls"] == 2
    assert row["incl_s"] == pytest.approx(12e-9)
    assert row["self_s"] == pytest.approx(12e-9)


def test_split_by_ancestor_and_wrap_patch():
    t = Tracer()

    class Box:
        def inner(self):
            return 1

        def outer(self):
            return self.inner()

    t.patch(Box, "inner", "m.inner")
    t.patch(Box, "outer", "m.outer", observe=lambda c, r: c.update(seen=c["seen"] + r))
    box = Box()
    box.inner()
    box.outer()
    names = t.span_names({"m.inner": ("m.outer", "nested", "top")})
    assert names == ["m.inner.top", "m.outer", "m.inner.nested"]
    assert t.counters["seen"] == 1
    assert Box.inner.__name__ == "inner"


# -- digests and compare mode -------------------------------------------------------

def _result(digest: str) -> dict:
    return {
        "workload": "faults", "seed": 7, "trace": False,
        "metrics": {"run_s": {"value": 1.0, "unit": "s"}},
        "simulations": [{"seed": 7, "trace": False, "digests": {
            "ledger.csv": "aa", "events.jsonl": digest}}],
    }


def test_compare_flags_digest_mismatch(tmp_path, capsys):
    base, new = _result("x"), _result("y")
    new["metrics"]["run_s"]["value"] = 1.5
    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b.json").write_text(json.dumps(new))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    out = capsys.readouterr().out
    assert "DIGEST MISMATCH seed 7: events.jsonl differ" in out
    assert "+50.0%" in out and "worse" in out


def test_compare_accepts_identical_outputs(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "r.json").write_text(json.dumps(_result("x")))
    (tmp_path / "b" / "r.json").write_text(json.dumps(_result("x")))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "outputs identical" in capsys.readouterr().out


def test_rerun_with_other_digest_is_a_failure():
    first = dict(_result("x")["simulations"][0], problems=[], ok=True)
    same = copy.deepcopy(first)
    other_seed = dict(copy.deepcopy(first), seed=8)
    known = {}
    run.check_digests([first, same, other_seed], known)
    assert all(r["ok"] for r in (first, same, other_seed))
    assert set(known) == {"7", "8"}
    again = copy.deepcopy(first)
    again["digests"]["events.jsonl"] = "z"
    run.check_digests([again], known)  # differs from the earlier run kept in known
    assert not again["ok"]
    assert "events.jsonl" in again["problems"][0]


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([3.0], 99) == 3.0

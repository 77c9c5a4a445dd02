"""Run one simulation of one workload in this (fresh) process and report it.

    python3 perfbench/worker.py --workload faults --seed 7 [--trace] [--setup-only]

The last line of standard output is one JSON record.  An exception raised by
the simulator or a failed output check is reported in the record (``ok`` is
false) with exit code 0; a non-zero exit means the benchmark itself could not
run.  ``run.py`` starts this script once per simulation, one at a time, with
BLAS and OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="simulation seed")
    p.add_argument("--trace", action="store_true", help="record spans around layer calls")
    p.add_argument("--setup-only", action="store_true",
                   help="stop before the first tick; report set-up time only")
    p.add_argument("--spans-out", default=None, help="write the raw spans here (traced runs)")
    return p.parse_args(argv)


class TickClock:
    """Per agent per world tick: ``on_tick`` plus ``end_of_tick`` wall time."""

    def __init__(self, runtime_cls):
        self.samples_ns: list[int] = []
        self.queue_depth_max = 0
        self._pending: dict[int, int] = {}
        on_tick, end_of_tick = runtime_cls.on_tick, runtime_cls.end_of_tick
        clock = time.perf_counter_ns

        def timed_on_tick(rt, now):
            t = clock()
            on_tick(rt, now)
            self._pending[rt.id] = clock() - t

        def timed_end_of_tick(rt, now):
            t = clock()
            end_of_tick(rt, now)
            self.samples_ns.append(self._pending.pop(rt.id) + clock() - t)
            self.queue_depth_max = max(self.queue_depth_max, len(rt.sharing.queue))

        runtime_cls.on_tick = timed_on_tick
        runtime_cls.end_of_tick = timed_end_of_tick


def outputs(result, ate_mod):
    """The five files ``meshslam sim`` writes, as text, keyed by file name."""
    report = ate_mod.compute_ate(result.est_rows, result.gt_rows)
    return report, {
        "trajectory_est.csv": ate_mod.trajectory_to_csv(result.est_rows),
        "trajectory_gt.csv": ate_mod.trajectory_to_csv(result.gt_rows),
        "ledger.csv": result.net.ledger.to_csv(result.duration),
        "events.jsonl": result.log.to_jsonl(),
        "ate.json": report.to_json(),
    }


def check_outputs(result, report) -> list[str]:
    """Output checks that do not need a second run; returns failure messages."""
    problems = []
    ledger = result.net.ledger
    sent = ledger.totals(ledger.sent)
    received = ledger.totals(ledger.received)
    dropped = ledger.totals(ledger.dropped)
    for cat in sent:
        if sent[cat] != received[cat] + dropped[cat]:
            problems.append(f"ledger not conserved for {cat}: sent {sent[cat]} != "
                            f"received {received[cat]} + dropped {dropped[cat]}")
    for aid, rt in sorted(result.runtimes.items()):
        for i, m in enumerate(rt.db.maps):
            try:
                m.check_integrity()
            except AssertionError as exc:
                problems.append(f"agent {aid} map {i} integrity: {exc}")
    if not math.isfinite(report.rms_m):
        problems.append(f"ATE is not finite: {report.rms_m}")
    return problems


def quality(result, report) -> dict:
    """Simulated outcome metrics of one run (deterministic for a fixed seed)."""
    ledger = result.net.ledger
    sent = sum(sum(per_cat.values()) for per_cat in ledger.sent.values())
    completeness = []
    for aid, rt in sorted(result.runtimes.items()):
        union: set[int] = set()
        for member in rt.manager.registry.group_of(aid):
            union |= result.runtimes[member].db.shared_map.keyframes.keys()
        held = len(rt.db.shared_map.keyframes)
        completeness.append(held / len(union) if union else 1.0)
    merges = result.log.named("group_merged")
    return {
        "ate_rms_m": report.rms_m,
        "bandwidth_kbps": sent / 1000.0 / result.duration,
        "map_completeness": min(completeness),
        "merge_time_s": merges[-1]["time"] if merges else result.duration,
        "keyframes_held": [len(rt.db.shared_map.keyframes)
                           for _, rt in sorted(result.runtimes.items())],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy
    from meshslam import ate, simulation

    import workloads
    from spans import percentile
    tracer = None
    if args.trace:
        import layers
        tracer = layers.install()
    ticks = TickClock(simulation.AgentRuntime)
    scenario = workloads.build(args.workload)
    sim = simulation.Simulation(scenario, args.seed)
    setup_s = time.perf_counter() - t0
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "numpy": numpy.__version__, "ok": True, "problems": [],
    }
    if args.setup_only:
        print(json.dumps(record))
        return 0

    try:
        start = time.perf_counter_ns()
        result = sim.run()
        end = time.perf_counter_ns()
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["run_s"] = (end - start) / 1e9
        tick_ms = [ns / 1e6 for ns in ticks.samples_ns]
        record["tick_samples"] = len(tick_ms)
        record["tick_ms_p50"] = percentile(tick_ms, 50)
        record["tick_ms_p99"] = percentile(tick_ms, 99)
        report, files = outputs(result, ate)
        record["digests"] = {name: hashlib.sha256(text.encode()).hexdigest()
                             for name, text in files.items()}
        record["problems"] = check_outputs(result, report)
        record.update(quality(result, report))
        if tracer is not None:
            record["layers"] = layers.per_layer(tracer, sim, result, (start, end),
                                                ticks.queue_depth_max)
            if args.spans_out:
                with open(args.spans_out, "w") as fh:
                    json.dump(tracer.to_json_dict(layers.SPLIT), fh)
    except Exception:  # the program under test failed; report it, keep going
        record["problems"].append(traceback.format_exc())
    record["ok"] = not record["problems"]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

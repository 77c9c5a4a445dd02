"""Which meshslam calls the traced run wraps, and the per-layer numbers it derives.

Span names are ``<module>.<call>`` after the module that defines the callee.
A callee imported with ``from … import`` into another module is wrapped in
that namespace too, under the same span name.
"""

from __future__ import annotations

import statistics

from meshslam import (
    ate,
    config,
    group_protocol,
    map_sharing,
    map_store,
    merge_detection,
    net_sim,
    sim_world,
    simulation,
)

from spans import Tracer, percentile


def _accepted(prefix):
    """Count calls and non-None results, for ``accepted ÷ returns`` ratios."""
    def observe(counters, result):
        counters[f"{prefix}.returns"] += 1
        counters[f"{prefix}.accepted"] += result is not None
    return observe


def _iterating(counters, report):
    counters["pose_graph.optimize.returns"] += 1
    counters["pose_graph.optimize.iterating"] += report.iterations > 0


def _encoded(counters, result):
    counters["wire.bytes_encoded"] += len(result[1])


def targets():
    """(owner, attribute, span name, observe) for every wrapped call."""
    rt, mgr = simulation.AgentRuntime, group_protocol.SystemManager
    merge_found = _accepted("merge_detection.detect_merge")
    merge_fit = _accepted("group_protocol.attempt_full_merge")
    return [
        (rt, "on_tick", "simulation.on_tick", None),
        (rt, "end_of_tick", "simulation.end_of_tick", None),
        (rt, "on_message", "simulation.on_message", None),
        (simulation.Simulation, "send_message", "simulation.send_message", None),
        (simulation, "generate_world", "sim_world.generate_world", None),
        (simulation, "encode_message", "wire.encode_message", _encoded),
        (simulation, "decode_frame", "wire.decode_frame", None),
        (simulation, "ransac_sim3", "alignment.ransac_sim3", None),
        (simulation, "detect_merge", "merge_detection.detect_merge", merge_found),
        (simulation, "attempt_full_merge", "group_protocol.attempt_full_merge", merge_fit),
        (group_protocol, "ransac_sim3", "alignment.ransac_sim3", None),
        (group_protocol, "detect_merge", "merge_detection.detect_merge", merge_found),
        (group_protocol, "attempt_full_merge", "group_protocol.attempt_full_merge", merge_fit),
        (map_sharing, "decode_frame", "wire.decode_frame", None),
        (map_sharing, "build_local_window", "pose_graph.build_local_window", None),
        (map_sharing, "optimize", "pose_graph.optimize", _iterating),
        (map_sharing, "insert_external_keyframe", "map_sharing.insert_external_keyframe",
         _accepted("map_sharing.insert_external_keyframe")),
        (map_sharing.SharingState, "flush_outbox", "map_sharing.flush_outbox", None),
        (map_sharing.SharingState, "drain", "map_sharing.drain", None),
        (sim_world.AgentTracker, "step", "sim_world.step", None),
        (sim_world.AgentTracker, "spawn_keyframe", "sim_world.spawn_keyframe",
         _accepted("sim_world.spawn_keyframe")),
        (map_store.AgentMap, "insert_keyframe", "map_store.insert_keyframe", None),
        (map_store.AgentMap, "merge_map_points", "map_store.merge_map_points", None),
        (map_store.MapDatabase, "apply_frame_transform", "map_store.apply_frame_transform", None),
        (map_store.MapDatabase, "merge_private_map", "map_store.merge_private_map", None),
        (merge_detection, "calculate_merge_score", "merge_detection.calculate_merge_score", None),
        (mgr, "on_bow_announce", "group_protocol.on_bow_announce", None),
        (mgr, "on_full_map", "group_protocol.on_full_map", None),
        (mgr, "on_partition_change", "group_protocol.on_partition_change", None),
        (net_sim.MeshNetwork, "send", "net_sim.send", None),
        (net_sim.MeshNetwork, "deliver", "net_sim.deliver", None),
        (ate, "compute_ate", "ate.compute_ate", None),
        (config, "load_scenario", "config.load_scenario", None),
    ]


# own keyframes are inserted from the tick, remote ones by the external inserter
SPLIT = {"map_store.insert_keyframe":
         ("map_sharing.insert_external_keyframe", "external", "own")}


def install() -> Tracer:
    tracer = Tracer()
    for owner, attr, name, observe in targets():
        tracer.patch(owner, attr, name, observe)
    return tracer


# -- per-layer metrics ------------------------------------------------------------

TIMED = [
    "simulation.on_tick", "simulation.end_of_tick", "simulation.on_message",
    "simulation.send_message",
    "sim_world.step", "sim_world.spawn_keyframe",
    "map_store.insert_keyframe.own", "map_store.insert_keyframe.external",
    "map_store.merge_map_points", "map_store.apply_frame_transform",
    "map_store.merge_private_map",
    "pose_graph.build_local_window", "pose_graph.optimize",
    "alignment.ransac_sim3",
    "merge_detection.detect_merge", "merge_detection.calculate_merge_score",
    "group_protocol.on_bow_announce", "group_protocol.on_full_map",
    "group_protocol.attempt_full_merge", "group_protocol.on_partition_change",
    "map_sharing.insert_external_keyframe", "map_sharing.flush_outbox",
    "map_sharing.drain",
    "wire.encode_message", "wire.decode_frame",
    "net_sim.send", "net_sim.deliver",
]
PER_CALL_S = ["ate.compute_ate", "config.load_scenario", "sim_world.generate_world"]
BYTE_CATEGORIES = {
    "key_frames": net_sim.CATEGORY_KEYFRAMES, "bows": net_sim.CATEGORY_BOWS,
    "full_map": net_sim.CATEGORY_FULL_MAP, "alignment_data": net_sim.CATEGORY_ALIGNMENT,
    "control": net_sim.CATEGORY_CONTROL,
}
DERIVED = [
    "pose_graph.optimize.iterating_ratio",
    "map_store.covis_degree_mean", "map_store.keyframes_held",
    "map_store.points_held", "map_store.pending_links",
    "alignment.round_ok_ratio", "alignment.no_model", "alignment.timeouts",
    "map_sharing.redelivered_ratio", "map_sharing.queue_depth_max",
    "merge_detection.accept_ratio",
    "group_protocol.merge_success_ratio", "group_protocol.handshake_timeouts",
    "wire.bytes_encoded",
    "net_sim.drop_ratio", "net_sim.events",
    *[f"net_sim.bytes_sent.{k}" for k in BYTE_CATEGORIES],
    "sim_world.keyframes_spawned",
    "simulation.on_message.ms_p99",
    "trace.span_coverage", "trace.spans",
]
UNITS = {"calls": "count", "self_s": "s", "incl_s": "s"}
# useful outcomes over attempts, and completeness; every other number is a cost
HIGHER_IS_BETTER = {
    "pose_graph.optimize.iterating_ratio", "alignment.round_ok_ratio",
    "merge_detection.accept_ratio", "group_protocol.merge_success_ratio",
    "map_store.keyframes_held", "trace.span_coverage",
}


def _unit(name: str) -> str:
    if name.endswith("_ratio") or name == "trace.span_coverage":
        return "ratio"
    if name.endswith("ms_p99"):
        return "ms"
    return "bytes" if "bytes" in name else "count"


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(f"{n}.{stat}", unit) for n in TIMED for stat, unit in UNITS.items()]
    out += [(f"{n}.s", "s") for n in PER_CALL_S]
    out += [(name, _unit(name)) for name in DERIVED]
    return [(n, u, "higher" if n in HIGHER_IS_BETTER else "lower") for n, u in out]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, sim, result, run_window: tuple[int, int],
              queue_depth_max: int) -> dict:
    """Per-layer numbers of one traced simulation."""
    summary = tracer.summary(SPLIT)
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    out: dict[str, float] = {}
    for name in TIMED:
        row = summary.get(name, empty)
        for stat in UNITS:
            out[f"{name}.{stat}"] = row[stat]
    for name in PER_CALL_S:
        row = summary.get(name, empty)
        out[f"{name}.s"] = _ratio(row["incl_s"], row["calls"])

    c = tracer.counters
    out["pose_graph.optimize.iterating_ratio"] = _ratio(
        c["pose_graph.optimize.iterating"], c["pose_graph.optimize.returns"])
    maps = [rt.db.shared_map for rt in result.runtimes.values()]
    degrees = [len(kf.covisibility) for m in maps for kf in m.keyframes.values()]
    out["map_store.covis_degree_mean"] = statistics.fmean(degrees) if degrees else 0.0
    out["map_store.keyframes_held"] = sum(len(m.keyframes) for m in maps)
    out["map_store.points_held"] = sum(len(m.points) for m in maps)
    out["map_store.pending_links"] = sum(
        len(ids) for m in maps
        for table in (m.pending_point_links, m.pending_kf_links) for ids in table.values())
    rounds = result.log.named("alignment_round")
    out["alignment.round_ok_ratio"] = _ratio(sum(e["detail"]["ok"] for e in rounds), len(rounds))
    out["alignment.no_model"] = sum(e["detail"].get("reason") == "no_model" for e in rounds)
    out["alignment.timeouts"] = len(result.log.named("alignment_timeout"))
    inserted = c["map_sharing.insert_external_keyframe.returns"]
    out["map_sharing.redelivered_ratio"] = _ratio(
        inserted - c["map_sharing.insert_external_keyframe.accepted"], inserted)
    out["map_sharing.queue_depth_max"] = queue_depth_max
    out["merge_detection.accept_ratio"] = _ratio(
        c["merge_detection.detect_merge.accepted"], c["merge_detection.detect_merge.returns"])
    out["group_protocol.merge_success_ratio"] = _ratio(
        c["group_protocol.attempt_full_merge.accepted"],
        c["group_protocol.attempt_full_merge.returns"])
    out["group_protocol.handshake_timeouts"] = len(result.log.named("merge_handshake_timeout"))
    out["wire.bytes_encoded"] = c["wire.bytes_encoded"]
    ledger = result.net.ledger
    sent = ledger.totals(ledger.sent)
    out["net_sim.drop_ratio"] = _ratio(sum(ledger.totals(ledger.dropped).values()),
                                       sum(sent.values()))
    out["net_sim.events"] = sim.queue._seq  # events ever pushed on the global queue
    for key, cat in BYTE_CATEGORIES.items():
        out[f"net_sim.bytes_sent.{key}"] = sent[cat]
    out["sim_world.keyframes_spawned"] = c["sim_world.spawn_keyframe.accepted"]
    msg_ms = [(e - s) / 1e6 for n, s, e in zip(tracer.names, tracer.starts, tracer.ends)
              if n == "simulation.on_message"]
    out["simulation.on_message.ms_p99"] = percentile(msg_ms, 99) if msg_ms else 0.0
    start, end = run_window
    out["trace.span_coverage"] = _ratio(tracer.root_time_ns(start, end), end - start)
    out["trace.spans"] = len(tracer.names)
    return out

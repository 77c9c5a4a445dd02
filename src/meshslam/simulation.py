"""Deterministic multi-agent simulation.

One global (time, sequence) event queue drives everything: world ticks,
message deliveries, protocol timers, and partition boundary events.  All
randomness comes from named streams derived from the run seed, so a rerun
with the same scenario and seed reproduces the exact event trace.

Per tick, in ascending agent id order, each agent advances its tracker,
handles localization loss, spawns keyframes (into the shared or private
map), announces, schedules alignment rounds, and flushes outboxes.  At the
end of the tick every agent drains a bounded number of queued external
keyframes, modeling spare compute.

After the scripted duration ends, a quiescence barrier force-flushes the
remaining outboxes toward merged peers and runs the event queue dry so that
evaluation sees converged maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .alignment import (
    AimdState,
    NoModelError,
    RansacParams,
    alignment_residuals,
    ransac_sim3,
    well_aligned,
)
from .config import ScenarioConfig
from .geometry import Sim3Transform
from .group_protocol import (
    ManagerHooks,
    SystemManager,
    attempt_full_merge,
    points_by_word_from_map,
)
from .map_sharing import SharingState, keyframe_to_record, point_to_record
from .map_store import MapDatabase, UuidGenerator
from .merge_detection import detect_merge
from .net_sim import Envelope, EventQueue, MeshNetwork
from .sim_world import AgentTracker, generate_world
from .wire import (
    AlignmentRequest,
    BowAnnounce,
    FullMapMsg,
    GroupUpdate,
    KeyFramePacket,
    LocalizationLost,
    LocalizationRegained,
    MergeNotify,
    MessageType,
    TaggedPoints,
    decode_frame,
    encode_envelope,
    encode_message,
)

# only localization flips need ordering protection; merge notices carry
# their own dedupe key and roster absorption is union-idempotent
_ORDERED_TYPES = (LocalizationLost, LocalizationRegained)


class EventLog:
    def __init__(self):
        self.entries: list[dict] = []

    def append(self, time: float, agent: int, event: str, detail: dict) -> None:
        self.entries.append(
            {"time": round(time, 9), "agent": agent, "event": event, "detail": detail}
        )

    def named(self, event: str) -> list[dict]:
        return [e for e in self.entries if e["event"] == event]

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e, sort_keys=False) + "\n" for e in self.entries)


@dataclass
class SimulationResult:
    est_rows: list[tuple[float, int, np.ndarray, np.ndarray]]  # t, agent, pos, quat
    gt_rows: list[tuple[float, int, np.ndarray, np.ndarray]]
    log: EventLog
    net: MeshNetwork
    duration: float
    runtimes: dict[int, "AgentRuntime"]


class AgentRuntime:
    """One agent: tracker, map database, protocol manager, sharing, alignment."""

    def __init__(self, sim: "Simulation", cfg, scenario: ScenarioConfig,
                 landmarks, run_seed: int):
        self.sim = sim
        self.id = cfg.id
        self.scenario = scenario
        self.uuids = UuidGenerator(run_seed, cfg.id)
        self.tracker = AgentTracker(cfg, scenario.track, landmarks, run_seed, self.uuids)
        self.db = MapDatabase()
        self.sharing = SharingState()
        self._seq = 0
        self._ransac_calls = 0
        self._run_seed = run_seed
        self._last_control_seq: dict[int, int] = {}
        self.aimd: AimdState | None = None
        self._align_request_time: float | None = None
        self.private_backlog: list[tuple[int, list[int]]] = []

        hooks = ManagerHooks(
            send=lambda dst, msg: sim.send_message(self.id, dst, msg),
            log=lambda event, **detail: sim.log(self.id, event, detail),
            now=lambda: sim.now,
            schedule=sim.schedule_timer,
            apply_map_transform=self.apply_frame_transform,
            serialize_shared_map=self._serialize_shared_map,
            ransac_seed=self._next_ransac_seed,
            on_peers_merged=self._queue_history_for_new_peers,
        )
        self.manager = SystemManager(
            self.id, [a.id for a in scenario.agents], hooks,
            acceptance_factor=scenario.merge.acceptance_factor,
            min_inliers=scenario.merge.min_inliers,
            neighborhood_depth=scenario.merge.neighborhood_depth,
            handshake_timeout=scenario.merge.handshake_timeout,
            ransac_iterations=scenario.align.ransac_iterations,
            ransac_threshold=scenario.align.inlier_threshold,
            shared_map=lambda: self.db.shared_map,
            notify_repeats=scenario.merge.notify_repeats,
            notify_spacing=scenario.merge.notify_spacing,
            cluster_tolerance=scenario.merge.cluster_tolerance,
        )

    # -- small helpers --------------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _next_ransac_seed(self) -> int:
        self._ransac_calls += 1
        return (self._run_seed * 1_000_003 + self.id * 10_007
                + self._ransac_calls) % (1 << 63)

    def _serialize_shared_map(self):
        m = self.db.shared_map
        return (
            [keyframe_to_record(m.keyframes[k]) for k in sorted(m.keyframes)],
            [point_to_record(m.points[p]) for p in sorted(m.points)],
        )

    def _ransac_params(self, min_inliers: int) -> RansacParams:
        return RansacParams(
            iterations=self.scenario.align.ransac_iterations,
            inlier_threshold=self.scenario.align.inlier_threshold,
            min_inliers=min_inliers,
            seed=self._next_ransac_seed(),
        )

    def apply_frame_transform(self, t: Sim3Transform) -> None:
        """Shared-map frame change: move the map and, if tracking in it, the tracker."""
        self.db.apply_frame_transform(t)
        if self.tracker.localized:
            self.tracker.apply_frame_transform(t)

    def _queue_history_for_new_peers(self, peers: list[int]) -> None:
        """Queue this agent's own map history toward agents that just joined.

        The full map exchange moves only the lower leader's map to the
        merging leader; everything this agent originated must still reach
        the rest of the newly joined group through regular keyframe sharing.
        """
        if not self.scenario.run.cooperative or not peers:
            return
        m = self.db.shared_map
        own_kfs = sorted(
            (kf.timestamp, kf.id) for kf in m.keyframes.values()
            if kf.origin_agent == self.id
        )
        agent_bits = self.id
        for _, kf_id in own_kfs:
            kf = m.keyframes[kf_id]
            own_points = [pid for pid in sorted(kf.observed_points)
                          if pid in m.points
                          and ((pid >> 48) & 0xFFFF) == agent_bits]
            self.sharing.record_new_keyframe(kf_id, own_points, peers)

    # -- tick ----------------------------------------------------------------

    def on_tick(self, now: float) -> None:
        frame = self.tracker.step(now)
        if frame.lost_transition:
            self._handle_localization_loss()
        spawn = self.tracker.spawn_keyframe(self.id, now, frame, self.db.active_map)
        if spawn is not None:
            kf, new_points = spawn
            self.db.active_map.insert_keyframe(kf, new_points)
            self.sim.log(self.id, "keyframe_spawned", {
                "kf": str(kf.id), "points": len(new_points),
                "private": not self.tracker.localized,
            })
            if self.tracker.localized:
                if self.scenario.run.cooperative:
                    self.sharing.record_new_keyframe(
                        kf.id, [p.id for p in new_points],
                        self.manager.frame_aligned_peers(),
                    )
                    self.manager.announce_keyframe_bow(kf.id, kf.words)
            else:
                self.private_backlog.append((kf.id, [p.id for p in new_points]))
                self._try_private_remerge(kf)
        self._alignment_tick(now)
        self._flush_outboxes(now)

    def end_of_tick(self, now: float) -> None:
        self.sharing.drain(
            self.db.shared_map, self.scenario.share.drain_budget,
            self.scenario.share.dup_radius,
        )

    # -- localization loss and recovery ----------------------------------------

    def _handle_localization_loss(self) -> None:
        self.manager.declare_localization_lost()
        self.db.spawn_private_map()
        self.tracker.enter_private_frame()
        self.private_backlog = []
        self._align_request_time = None

    def _try_private_remerge(self, kf) -> None:
        shared = self.db.shared_map
        if not shared.keyframes:
            return
        cand = detect_merge(shared, kf.words,
                            self.scenario.merge.acceptance_factor, self.id)
        if cand is None:
            return
        result = attempt_full_merge(
            self.db.active_map, kf.id, points_by_word_from_map(shared),
            self.scenario.merge.neighborhood_depth,
            self._ransac_params(self.scenario.merge.min_inliers),
            self.scenario.merge.cluster_tolerance,
        )
        if result is None:
            return
        transform, inliers = result
        backlog = list(self.private_backlog)
        self.db.merge_private_map(transform)
        self.tracker.rejoin_shared_frame(transform)
        self.manager.declare_localization_regained()
        if self.scenario.run.cooperative:
            peers = self.manager.frame_aligned_peers()
            for kf_id, pids in backlog:
                self.sharing.record_new_keyframe(kf_id, pids, peers)
        self.private_backlog = []
        self.sim.log(self.id, "private_map_merged", {
            "keyframes": len(backlog), "inliers": inliers,
            "scale": transform.scale,
        })

    # -- alignment refinement -----------------------------------------------------

    def _alignment_tick(self, now: float) -> None:
        if not self.scenario.run.cooperative or not self.tracker.localized:
            return
        group = self.manager.registry.group_of(self.id)
        if len(group) < 2 or self.manager.is_leader():
            return
        align = self.scenario.align
        if self.aimd is None:
            # first round soon after merging to catch early-merge error; the
            # interval itself starts at its configured initial value
            self.aimd = AimdState(align.t_initial, now + align.t_min,
                                  align.t_min, align.t_max)
            return
        if self._align_request_time is not None:
            if now - self._align_request_time > align.response_timeout:
                self._align_request_time = None
                self.aimd.skip(now)
                self.sim.log(self.id, "alignment_timeout", {})
            return
        if now < self.aimd.next_due:
            return
        lead = self.manager.registry.leader_of(self.id)
        if not self.sim.reachable(self.id, lead):
            self.aimd.skip(now)
            self.sim.log(self.id, "alignment_skipped", {"leader": lead})
            return
        self.sim.send_message(self.id, lead, AlignmentRequest(self.id))
        self._align_request_time = now

    def on_alignment_request(self, msg: AlignmentRequest) -> None:
        m = self.db.shared_map
        points = [(pid, m.points[pid].position) for pid in sorted(m.points)]
        self.sim.send_message(self.id, msg.sender, TaggedPoints(self.id, points))

    def on_tagged_points(self, msg: TaggedPoints, now: float) -> None:
        if self._align_request_time is None or self.aimd is None:
            return  # no round in flight; stale response
        self._align_request_time = None
        m = self.db.shared_map
        # restrict the local side to points this agent's own keyframes observe:
        # those carry this agent's live position estimates, whereas copies of
        # never-revisited remote points are byte-identical to the leader's and
        # would vote for the identity no matter how misaligned the frames are
        own_ids: set[int] = set()
        for kf in m.keyframes.values():
            if kf.origin_agent == self.id:
                own_ids |= kf.observed_points
        local = [(pid, m.points[pid].position)
                 for pid in sorted(own_ids) if pid in m.points]
        common = len({u for u, _ in local} & {u for u, _ in msg.points})
        align = self.scenario.align
        try:
            transform, inliers = ransac_sim3(
                local, msg.points, self._ransac_params(align.min_inliers))
        except NoModelError:
            self.aimd.record(False, now)
            self.sim.log(self.id, "alignment_round", {
                "ok": False, "reason": "no_model", "shared_points": common})
            return
        res = alignment_residuals(transform, local, msg.points, inliers)
        rmse = float(np.sqrt(np.mean(res ** 2)))
        ratio = len(inliers) / common if common else 0.0
        verdict = well_aligned(ratio, rmse, align.ok_ratio, align.rmse_limit)
        self.apply_frame_transform(transform)
        self.aimd.record(verdict, now)
        self.sim.log(self.id, "alignment_round", {
            "ok": verdict, "inlier_ratio": round(ratio, 6),
            "rmse": round(rmse, 9), "scale": transform.scale,
            "next_interval": self.aimd.interval,
        })

    # -- sharing ----------------------------------------------------------------

    def _flush_outboxes(self, now: float, force: bool = False) -> None:
        if not self.scenario.run.cooperative:
            return
        for peer in self.manager.merged_peers():
            pkt = self.sharing.flush_outbox(
                self.id, peer, self.next_seq(), self.db.shared_map,
                self.scenario.share.batch_size, force=force,
            )
            if pkt is not None:
                self.sim.send_message(self.id, peer, pkt, sequence=pkt.sequence)

    # -- message dispatch -----------------------------------------------------------

    def on_message(self, msg, sequence: int, now: float) -> None:
        if isinstance(msg, _ORDERED_TYPES):
            last = self._last_control_seq.get(msg.sender, -1)
            if sequence <= last:
                return  # duplicate or out-of-date localization flip
            self._last_control_seq[msg.sender] = sequence
        if isinstance(msg, BowAnnounce):
            self.manager.on_bow_announce(msg)
        elif isinstance(msg, FullMapMsg):
            self.manager.on_full_map(msg)
        elif isinstance(msg, MergeNotify):
            self.manager.on_merge_notify(msg)
        elif isinstance(msg, GroupUpdate):
            self.manager.on_group_update(msg)
        elif isinstance(msg, LocalizationLost):
            self.manager.on_loc_lost(msg)
        elif isinstance(msg, LocalizationRegained):
            self.manager.on_loc_regained(msg)
        elif isinstance(msg, KeyFramePacket):
            self.sharing.enqueue_packet(msg)
        elif isinstance(msg, AlignmentRequest):
            self.on_alignment_request(msg)
        elif isinstance(msg, TaggedPoints):
            self.on_tagged_points(msg, now)


class Simulation:
    def __init__(self, scenario: ScenarioConfig, seed: int,
                 check_invariants: bool = False):
        scenario.validate()
        self.scenario = scenario
        self.seed = seed
        self.check_invariants = check_invariants
        self.landmarks = generate_world(seed, scenario.world)
        self.agent_ids = sorted(a.id for a in scenario.agents)
        self.net = MeshNetwork(self.agent_ids, scenario.net, seed)
        self.queue = EventQueue()
        self.log_book = EventLog()
        self.now = 0.0
        self.runtimes: dict[int, AgentRuntime] = {}
        for cfg in sorted(scenario.agents, key=lambda a: a.id):
            self.runtimes[cfg.id] = AgentRuntime(self, cfg, scenario,
                                                 self.landmarks, seed)
        self.gt_rows: list[tuple[float, int, np.ndarray, np.ndarray]] = []

    # -- services used by runtimes ------------------------------------------------

    def log(self, agent: int, event: str, detail: dict) -> None:
        self.log_book.append(self.now, agent, event, detail)

    def schedule_timer(self, delay: float, fn) -> None:
        self.queue.push(self.now + delay, ("timer", fn))

    def reachable(self, a: int, b: int) -> bool:
        return self.net.same_component(a, b, self.now)

    # control-plane sends recorded in the event log; bulk data omitted
    _LOGGED_SENDS = {
        int(MessageType.BOW_ANNOUNCE): "bow_announce",
        int(MessageType.FULL_MAP): "full_map",
        int(MessageType.MERGE_NOTIFY): "merge_notify",
        int(MessageType.GROUP_UPDATE): "group_update",
        int(MessageType.LOC_LOST): "loc_lost",
        int(MessageType.LOC_REGAINED): "loc_regained",
    }

    def send_message(self, src: int, dst: int, msg, sequence: int | None = None) -> None:
        seq = sequence if sequence is not None else self.runtimes[src].next_seq()
        msg_type, payload = encode_message(msg)
        data = encode_envelope(msg_type, src, seq, payload)
        env = Envelope(src=src, dst=dst, msg_type=int(msg_type), data=data,
                       size=len(data), send_time=self.now, app_seq=seq)
        self.net.send(env)
        name = self._LOGGED_SENDS.get(int(msg_type))
        if name is not None:
            self.log(src, "send", {"type": name, "dst": dst,
                                   "dropped": env.dropped})
        if not env.dropped:
            self.queue.push(env.deliver_time, ("deliver", env))

    # -- main loop -------------------------------------------------------------

    def _process(self, kind: str, item) -> None:
        if kind == "tick":
            t = item
            for aid in self.agent_ids:
                self.runtimes[aid].on_tick(t)
            for aid in self.agent_ids:
                self.runtimes[aid].end_of_tick(t)
            for aid in self.agent_ids:
                pose = self.runtimes[aid].tracker.true_pose
                self.gt_rows.append((t, aid, pose.translation.copy(),
                                     pose.rotation.q.copy()))
        elif kind == "deliver":
            env = item
            self.net.deliver(env)
            msg = decode_frame(env.data)
            self.runtimes[env.dst].on_message(msg, sequence=env.app_seq, now=self.now)
        elif kind == "timer":
            item()
        elif kind == "partition":
            components = self.net.reachability(self.now)
            self.log(-1, "partition_change",
                     {"components": [sorted(c) for c in components]})
            for aid in self.agent_ids:
                self.runtimes[aid].manager.on_partition_change(components)
        if self.check_invariants:
            for aid in self.agent_ids:
                self.runtimes[aid].manager.check_invariants()

    def run(self) -> SimulationResult:
        run = self.scenario.run
        n_ticks = int(round(run.duration / run.dt))
        for t in self.net.partition_boundaries():
            if 0.0 <= t <= run.duration:
                self.queue.push(t, ("partition", t))
        for i in range(1, n_ticks + 1):
            self.queue.push(i * run.dt, ("tick", i * run.dt))
        while len(self.queue):
            time, _, (kind, item) = self.queue.pop()
            self.now = time
            self._process(kind, item)
        self._finalize(run.duration)
        est_rows = self._estimated_trajectories()
        return SimulationResult(
            est_rows=est_rows, gt_rows=self.gt_rows, log=self.log_book,
            net=self.net, duration=run.duration, runtimes=self.runtimes,
        )

    def _finalize(self, duration: float) -> None:
        """Quiescence barrier: flush outstanding shares and run the queue dry."""
        self.now = duration
        for aid in self.agent_ids:
            self.runtimes[aid]._flush_outboxes(self.now, force=True)
        while len(self.queue):
            time, _, (kind, item) = self.queue.pop()
            self.now = max(self.now, time)
            self._process(kind, item)
        for aid in self.agent_ids:
            rt = self.runtimes[aid]
            while rt.sharing.queue:
                rt.sharing.drain(
                    rt.db.shared_map, len(rt.sharing.queue),
                    self.scenario.share.dup_radius,
                )

    def _estimated_trajectories(self):
        rows = []
        for aid in self.agent_ids:
            m = self.runtimes[aid].db.shared_map
            own = sorted(
                (kf.timestamp, kf.id) for kf in m.keyframes.values()
                if kf.origin_agent == aid
            )
            for ts, kid in own:
                kf = m.keyframes[kid]
                rows.append((ts, aid, kf.pose.translation.copy(),
                             kf.pose.rotation.q.copy()))
        return rows

"""Deterministic multi-agent simulation.

One global (time, sequence) queue of callables drives everything: world
ticks, message deliveries (dispatched through ``_RECEIVERS``), protocol
timers, and partition boundary events.  One loop, ``_run_queue``, drains it
for the scripted run and the quiescence barrier alike.  All randomness comes
from named streams derived from the run seed, so a rerun with the same
scenario and seed reproduces the exact event trace.

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
from functools import partial

import numpy as np

from .alignment import (
    AimdState,
    NoModelError,
    RansacParams,
    inlier_rmse,
    match_tagged,
    ransac_sim3,
    well_aligned,
)
from .config import ScenarioConfig
from .geometry import Sim3Transform
from .group_protocol import (
    ManagerHooks,
    SystemManager,
    attempt_full_merge,
    points_by_word,
)
from .map_sharing import SharingState
from .map_store import MapDatabase, UuidGenerator, uuid_agent
from .merge_detection import detect_merge
from .net_sim import Envelope, EventQueue, MeshNetwork
from .sim_world import AgentTracker, generate_world
from .wire import (
    CATEGORY_ALIGNMENT,
    CATEGORY_KEYFRAMES,
    AlignmentRequest,
    BowAnnounce,
    FullMapMsg,
    GroupUpdate,
    KeyFramePacket,
    LocalizationLost,
    LocalizationRegained,
    MergeNotify,
    TaggedPoints,
    category_of,
    decode_frame,
    encode_envelope,
    encode_message,
)

# only localization flips need ordering protection; merge notices carry
# their own dedupe key and roster absorption is union-idempotent
_ORDERED_TYPES = (LocalizationLost, LocalizationRegained)
# bulk data is left out of the event log; every other send is recorded
_UNLOGGED_CATEGORIES = (CATEGORY_KEYFRAMES, CATEGORY_ALIGNMENT)


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
        self._align_leader: int | None = None  # the agent the last request went to

        hooks = ManagerHooks(
            send=lambda dst, msg: sim.send_message(self.id, dst, msg),
            log=lambda event, **detail: sim.log(self.id, event, detail),
            schedule=sim.schedule_timer,
            apply_map_transform=self.apply_frame_transform,
            ransac_seed=self._next_ransac_seed,
            on_peers_merged=self._queue_history_for_new_peers,
        )
        self.manager = SystemManager(
            self.id, [a.id for a in scenario.agents], hooks,
            scenario.merge, scenario.align,
            shared_map=lambda: self.db.shared_map,
        )

    # -- small helpers --------------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _next_ransac_seed(self) -> int:
        self._ransac_calls += 1
        return (self._run_seed * 1_000_003 + self.id * 10_007
                + self._ransac_calls) % (1 << 63)

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
        m = self.db.shared_map
        self._queue_own_keyframes(
            [kid for kid, kf in m.keyframes.items() if kf.origin_agent == self.id], peers)

    def _queue_own_keyframes(self, kf_ids, peers: list[int]) -> None:
        """Queue own keyframes of the shared map toward `peers`, in ascending id
        (spawn) order, each with its own present points in ascending order."""
        if not self.scenario.run.cooperative or not peers:
            return
        m = self.db.shared_map
        for kf_id in sorted(kf_ids):
            own_points = [pid for pid in sorted(m.keyframes[kf_id].observed_points)
                          if pid in m.points and uuid_agent(pid) == self.id]
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
                self._try_private_remerge(kf)
        self._alignment_tick(now)
        self._flush_outboxes()

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
            self.db.active_map, kf.id, points_by_word(shared.points.values()),
            self.scenario.merge.neighborhood_depth,
            self._ransac_params(self.scenario.merge.min_inliers),
            self.scenario.merge.cluster_tolerance,
        )
        if result is None:
            return
        transform, inliers = result
        private_kfs = list(self.db.private_map.keyframes)
        self.db.merge_private_map(transform)
        self.tracker.rejoin_shared_frame(transform)
        self.manager.declare_localization_regained()
        self._queue_own_keyframes(private_kfs, self.manager.frame_aligned_peers())
        self.sim.log(self.id, "private_map_merged", {
            "keyframes": len(private_kfs), "inliers": inliers,
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
        self._align_leader = lead

    def on_alignment_request(self, msg: AlignmentRequest) -> None:
        m = self.db.shared_map
        ids = sorted(m.points)
        positions = np.array([m.points[pid].position for pid in ids]).reshape(-1, 3)
        self.sim.send_message(self.id, msg.sender, TaggedPoints(self.id, (ids, positions)))

    def on_tagged_points(self, msg: TaggedPoints, now: float) -> None:
        if self._align_request_time is None or self.aimd is None:
            return  # no round in flight; stale response
        if msg.sender != self._align_leader:
            return  # a late answer from an agent this round did not ask
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
        local_ids = [pid for pid in sorted(own_ids) if pid in m.points]
        local = np.array([m.points[pid].position for pid in local_ids]).reshape(-1, 3)
        src, dst = match_tagged((local_ids, local), msg.points)
        align = self.scenario.align
        try:
            transform, inliers = ransac_sim3(
                src, dst, self._ransac_params(align.min_inliers))
        except NoModelError:
            self.aimd.record(False, now)
            self.sim.log(self.id, "alignment_round", {
                "ok": False, "reason": "no_model", "shared_points": len(src)})
            return
        rmse = inlier_rmse(transform, src[inliers], dst[inliers])
        ratio = len(inliers) / len(src)
        verdict = well_aligned(ratio, rmse, align.ok_ratio, align.rmse_limit)
        self.apply_frame_transform(transform)
        self.aimd.record(verdict, now)
        self.sim.log(self.id, "alignment_round", {
            "ok": verdict, "inlier_ratio": round(ratio, 6),
            "rmse": round(rmse, 9), "scale": transform.scale,
            "next_interval": self.aimd.interval,
        })

    # -- sharing ----------------------------------------------------------------

    def _flush_outboxes(self, force: bool = False) -> None:
        if not self.scenario.run.cooperative:
            return
        for peer in self.manager.merged_peers():
            pkt = self.sharing.flush_outbox(
                self.id, peer, self.db.shared_map,
                self.scenario.share.batch_size, force=force,
            )
            if pkt is not None:
                self.sim.send_message(self.id, peer, pkt)

    # -- message dispatch -----------------------------------------------------------

    def on_message(self, msg, sequence: int, now: float) -> None:
        if isinstance(msg, _ORDERED_TYPES):
            last = self._last_control_seq.get(msg.sender, -1)
            if sequence <= last:
                return  # duplicate or out-of-date localization flip
            self._last_control_seq[msg.sender] = sequence
        _RECEIVERS[type(msg)](self, msg, now)  # KeyError for a class with no receiver


# What the receiving agent does with each message class.  Handlers are looked
# up when the message arrives, so one replaced on its class is the one called.
_RECEIVERS = {
    BowAnnounce: lambda rt, msg, now: rt.manager.on_bow_announce(msg),
    FullMapMsg: lambda rt, msg, now: rt.manager.on_full_map(msg),
    MergeNotify: lambda rt, msg, now: rt.manager.on_merge_notify(msg),
    GroupUpdate: lambda rt, msg, now: rt.manager.on_group_update(msg),
    LocalizationLost: lambda rt, msg, now: rt.manager.on_loc_lost(msg),
    LocalizationRegained: lambda rt, msg, now: rt.manager.on_loc_regained(msg),
    KeyFramePacket: lambda rt, msg, now: rt.sharing.enqueue_packet(msg),
    AlignmentRequest: lambda rt, msg, now: rt.on_alignment_request(msg),
    TaggedPoints: lambda rt, msg, now: rt.on_tagged_points(msg, now),
}


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
        self.queue.push(self.now + delay, fn)

    def reachable(self, a: int, b: int) -> bool:
        return self.net.same_component(a, b, self.now)

    def send_message(self, src: int, dst: int, msg) -> None:
        seq = self.runtimes[src].next_seq()
        msg_type, payload = encode_message(msg)
        data = encode_envelope(msg_type, src, seq, payload)
        env = Envelope(src=src, dst=dst, msg_type=int(msg_type), data=data,
                       size=len(data), send_time=self.now, app_seq=seq)
        self.net.send(env)
        if category_of(msg_type) not in _UNLOGGED_CATEGORIES:
            self.log(src, "send", {"type": msg_type.name.lower(), "dst": dst,
                                   "dropped": env.dropped})
        if not env.dropped:
            self.queue.push(env.deliver_time, partial(self._deliver, env))

    # -- events and the main loop ----------------------------------------------

    def _tick(self, t: float) -> None:
        for aid in self.agent_ids:
            self.runtimes[aid].on_tick(t)
        for aid in self.agent_ids:
            self.runtimes[aid].end_of_tick(t)
        for aid in self.agent_ids:
            pose = self.runtimes[aid].tracker.true_pose
            self.gt_rows.append((t, aid, pose.translation.copy(),
                                 pose.rotation.q.copy()))

    def _deliver(self, env: Envelope) -> None:
        self.net.deliver(env)
        msg = decode_frame(env.data)
        self.runtimes[env.dst].on_message(msg, sequence=env.app_seq, now=self.now)

    def _partition_change(self) -> None:
        components = self.net.reachability(self.now)
        self.log(-1, "partition_change",
                 {"components": [sorted(c) for c in components]})
        for aid in self.agent_ids:
            self.runtimes[aid].manager.on_partition_change(components)

    def _run_queue(self) -> None:
        """Run events in (time, sequence) order until the queue is empty."""
        while len(self.queue):
            self.now, _, event = self.queue.pop()
            event()
            if self.check_invariants:
                for aid in self.agent_ids:
                    self.runtimes[aid].manager.check_invariants()

    def run(self) -> SimulationResult:
        run = self.scenario.run
        n_ticks = int(round(run.duration / run.dt))
        for t in self.net.partition_boundaries():
            if 0.0 <= t <= run.duration:
                self.queue.push(t, self._partition_change)
        for i in range(1, n_ticks + 1):
            self.queue.push(i * run.dt, partial(self._tick, i * run.dt))
        self._run_queue()
        self._finalize(run.duration)
        return SimulationResult(
            est_rows=self._estimated_trajectories(), gt_rows=self.gt_rows, log=self.log_book,
            net=self.net, duration=run.duration, runtimes=self.runtimes,
        )

    def _finalize(self, duration: float) -> None:
        """Quiescence barrier: flush outstanding shares and run the queue dry."""
        self.now = duration
        for aid in self.agent_ids:
            self.runtimes[aid]._flush_outboxes(force=True)
        self._run_queue()
        for aid in self.agent_ids:
            rt = self.runtimes[aid]
            rt.sharing.drain(rt.db.shared_map, len(rt.sharing.queue),
                             self.scenario.share.dup_radius)

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

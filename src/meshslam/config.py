"""Scenario configuration: dataclasses, defaults, and the YAML loader.

Every tunable in the system lives here so scenarios are reproducible from a
single file.  Validation errors name the offending key path; YAML syntax
errors carry the parser's line/column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .net_sim import NetworkConfig, PartitionWindow


class ConfigError(ValueError):
    pass


@dataclass
class WorldConfig:
    landmarks: int = 300
    # axis-aligned boxes [xmin, ymin, zmin, xmax, ymax, zmax]
    regions: list[list[float]] = field(
        default_factory=lambda: [[-8.0, -8.0, 0.0, 8.0, 8.0, 2.5]]
    )
    vocab_size: int = 400
    cell_size: float = 1.0


@dataclass
class AgentConfig:
    id: int
    waypoints: list[list[float]]
    speed: float = 1.0
    fov_deg: float = 90.0
    range_m: float = 8.0
    sigma_t: float = 0.0   # translation noise intensity, m per sqrt(m) traveled
    sigma_r: float = 0.0   # rotation noise intensity, rad per sqrt(m) traveled
    scale_offset: float | None = None   # None: draw uniformly from [0.5, 2]
    frame_offset: str = "random"        # "random" | "identity"
    blackouts: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class RunConfig:
    duration: float = 30.0
    dt: float = 0.1
    cooperative: bool = True


@dataclass
class MergeConfig:
    acceptance_factor: float = 0.75
    min_inliers: int = 12
    neighborhood_depth: int = 2
    handshake_timeout: float = 5.0
    notify_repeats: int = 3      # merge notices re-sent for drop tolerance
    notify_spacing: float = 0.4  # seconds between repeats
    cluster_tolerance: float = 0.15  # duplicate copies of one landmark within this
                                     # spread still give a word correspondence


@dataclass
class ShareConfig:
    batch_size: int = 5       # outbox keyframes before a packet is cut
    dup_radius: float = 0.05  # duplicate map point merge radius, map units
    drain_budget: int = 3     # external keyframes inserted per tick


@dataclass
class AlignConfig:
    ransac_iterations: int = 200
    inlier_threshold: float = 0.05
    min_inliers: int = 12
    ok_ratio: float = 0.9
    ok_rmse: float | None = None   # None: inlier_threshold / 2
    t_initial: float = 5.0
    t_min: float = 1.0
    t_max: float = 60.0
    response_timeout: float = 5.0

    @property
    def rmse_limit(self) -> float:
        return self.ok_rmse if self.ok_rmse is not None else self.inlier_threshold / 2


@dataclass
class TrackConfig:
    spawn_distance: float = 0.3    # keyframe gap in agent-frame units
    spawn_angle_deg: float = 15.0
    lost_frames: int = 5           # consecutive weak frames before loss declared
    min_word_matches: int = 10
    point_update_blend: float = 0.3  # re-observation pull toward the new estimate


@dataclass
class ScenarioConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    agents: list[AgentConfig] = field(default_factory=list)
    net: NetworkConfig = field(default_factory=NetworkConfig)
    run: RunConfig = field(default_factory=RunConfig)
    merge: MergeConfig = field(default_factory=MergeConfig)
    share: ShareConfig = field(default_factory=ShareConfig)
    align: AlignConfig = field(default_factory=AlignConfig)
    track: TrackConfig = field(default_factory=TrackConfig)

    def validate(self) -> None:
        if not self.agents:
            raise ConfigError("agents: at least one agent is required")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"agents: duplicate ids {sorted(ids)}")
        for i, a in enumerate(self.agents):
            where = f"agents[{i}]"
            if a.id < 0 or a.id >= 1 << 16:
                raise ConfigError(f"{where}.id: out of range")
            if not a.waypoints:
                raise ConfigError(f"{where}.waypoints: must not be empty")
            for j, wp in enumerate(a.waypoints):
                if len(wp) != 3:
                    raise ConfigError(f"{where}.waypoints[{j}]: need [x, y, z]")
            if a.speed <= 0:
                raise ConfigError(f"{where}.speed: must be positive")
            if not 0 < a.fov_deg < 180:
                raise ConfigError(f"{where}.fov_deg: must be in (0, 180)")
            if a.range_m <= 0:
                raise ConfigError(f"{where}.range_m: must be positive")
            if a.scale_offset is not None and not 0.5 <= a.scale_offset <= 2.0:
                raise ConfigError(f"{where}.scale_offset: must be in [0.5, 2]")
            if a.frame_offset not in ("random", "identity"):
                raise ConfigError(f"{where}.frame_offset: 'random' or 'identity'")
        if self.world.landmarks < 1:
            raise ConfigError("world.landmarks: must be >= 1")
        if self.world.vocab_size < 1:
            raise ConfigError("world.vocab_size: must be >= 1")
        if self.world.cell_size <= 0:
            raise ConfigError("world.cell_size: must be positive")
        for i, box in enumerate(self.world.regions):
            if len(box) != 6 or not all(box[k] < box[k + 3] for k in range(3)):
                raise ConfigError(f"world.regions[{i}]: need [x0,y0,z0,x1,y1,z1] with min < max")
        if self.run.duration <= 0 or self.run.dt <= 0:
            raise ConfigError("run: duration and dt must be positive")
        if not 0 < self.merge.acceptance_factor <= 1:
            raise ConfigError("merge.acceptance_factor: must be in (0, 1]")
        if self.share.batch_size < 1 or self.share.drain_budget < 1:
            raise ConfigError("share: batch_size and drain_budget must be >= 1")


def _expect(mapping: dict, key: str, where: str) -> object:
    if key not in mapping:
        raise ConfigError(f"{where}.{key}: missing required key")
    return mapping[key]


def _build(section: dict | None, cls, where: str, **overrides):
    section = dict(section or {})
    section.update(overrides)
    fields = {f for f in cls.__dataclass_fields__}
    unknown = set(section) - fields
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a mapping")
    known = {"world", "agents", "net", "run", "merge", "share", "align", "track"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"top level: unknown sections {sorted(unknown)}")

    agents = []
    for i, a in enumerate(raw.get("agents") or []):
        where = f"agents[{i}]"
        if not isinstance(a, dict):
            raise ConfigError(f"{where}: expected a mapping")
        a = dict(a)
        _expect(a, "id", where[:-len(f"[{i}]")] + f"[{i}]")
        _expect(a, "waypoints", where)
        blackouts = [tuple(b) for b in a.pop("blackouts", [])]
        for j, b in enumerate(blackouts):
            if len(b) != 2 or b[0] >= b[1]:
                raise ConfigError(f"{where}.blackouts[{j}]: need [start, end] with start < end")
        agents.append(_build(a, AgentConfig, where, blackouts=blackouts))

    net_raw = dict(raw.get("net") or {})
    partitions = []
    for i, p in enumerate(net_raw.pop("partitions", [])):
        where = f"net.partitions[{i}]"
        if not isinstance(p, dict):
            raise ConfigError(f"{where}: expected a mapping")
        links = [tuple(l) for l in p.get("links", [])]
        for j, l in enumerate(links):
            if len(l) != 2:
                raise ConfigError(f"{where}.links[{j}]: need [a, b]")
        try:
            partitions.append(PartitionWindow(float(p["start"]), float(p["end"]), links))
        except KeyError as exc:
            raise ConfigError(f"{where}.{exc.args[0]}: missing required key") from exc
    if "latency_ms" in net_raw:
        net_raw["latency_ms"] = tuple(net_raw["latency_ms"])
    net = _build(net_raw, NetworkConfig, "net", partitions=partitions)

    cfg = ScenarioConfig(
        world=_build(raw.get("world"), WorldConfig, "world"),
        agents=agents,
        net=net,
        run=_build(raw.get("run"), RunConfig, "run"),
        merge=_build(raw.get("merge"), MergeConfig, "merge"),
        share=_build(raw.get("share"), ShareConfig, "share"),
        align=_build(raw.get("align"), AlignConfig, "align"),
        track=_build(raw.get("track"), TrackConfig, "track"),
    )
    cfg.validate()
    return cfg


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"{path}: YAML parse error{loc}: {exc}") from exc
    if raw is None:
        raise ConfigError(f"{path}: file is empty")
    try:
        return scenario_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

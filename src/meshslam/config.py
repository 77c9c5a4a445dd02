"""Scenario configuration: dataclasses, defaults, and the YAML loader.

A scenario file sets what differs between runs: the world, the agents, the
network and the run.  The protocol's own constants (merge, sharing,
alignment and tracking thresholds) are declared once, in the module that
uses them.  Validation errors name the offending key path; YAML syntax
errors carry the parser's line/column.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import yaml

from .net_sim import NetworkConfig, PartitionWindow
from .wire import MAX_WORD_TOTAL


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
class ScenarioConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    agents: list[AgentConfig] = field(default_factory=list)
    net: NetworkConfig = field(default_factory=NetworkConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def validate(self) -> None:
        for section in dataclasses.fields(self):
            _check_finite(getattr(self, section.name), section.name)
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
            for key in ("sigma_t", "sigma_r"):
                if not getattr(a, key) >= 0:
                    raise ConfigError(f"{where}.{key}: must be >= 0")
            if a.scale_offset is not None and not 0.5 <= a.scale_offset <= 2.0:
                raise ConfigError(f"{where}.scale_offset: must be in [0.5, 2]")
            if a.frame_offset not in ("random", "identity"):
                raise ConfigError(f"{where}.frame_offset: 'random' or 'identity'")
        for i, window in enumerate(self.net.partitions):
            if not window.start < window.end:
                raise ConfigError(f"net.partitions[{i}]: need start < end")
            for j, link in enumerate(window.down_links):
                where = f"net.partitions[{i}].links[{j}]"
                if any(isinstance(x, bool) or not isinstance(x, int) for x in link):
                    raise ConfigError(f"{where}: expected two agent ids, got {list(link)!r}")
                if not all(x in ids for x in link):
                    raise ConfigError(f"{where}: unknown agent")
                if link[0] == link[1]:
                    raise ConfigError(f"{where}: links agent {link[0]} to itself")
        for ok, need, paths in _RANGES:
            for path in paths:
                section, key = path.split(".")
                if not ok(getattr(getattr(self, section), key)):
                    raise ConfigError(f"{path}: {need}")
        if not self.world.regions:
            raise ConfigError("world.regions: at least one region is required")
        for i, box in enumerate(self.world.regions):
            if len(box) != 6 or not all(box[k] < box[k + 3] for k in range(3)):
                raise ConfigError(f"world.regions[{i}]: need [x0,y0,z0,x1,y1,z1] with min < max")


# (test, the requirement its error names, the key paths it applies to) for
# every scalar setting with a range
_RANGES = (
    (lambda v: v > 0, "must be positive", ("world.cell_size", "run.duration", "run.dt")),
    (lambda v: v >= 1, "must be >= 1", ("world.vocab_size",)),
    # a view counts each landmark at most once, so a keyframe's word counts
    # add up to at most the landmark count, which the wire bounds
    (lambda v: 1 <= v <= MAX_WORD_TOTAL, f"must be in [1, {MAX_WORD_TOTAL}]",
     ("world.landmarks",)),
)


def _check_finite(value: object, where: str) -> None:
    """Reject NaN and infinities in any float a config holds, naming its key path.

    The range checks compare with ``<`` and ``<=``, which NaN passes.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{where}: must be finite, got {value}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_finite(item, f"{where}[{i}]")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _check_finite(getattr(value, f.name), f"{where}.{f.name}")


def _mapping(section: object, where: str) -> dict:
    if not isinstance(section, (dict, type(None))):
        raise ConfigError(f"{where}: expected a mapping")
    return dict(section or {})


def _list(value: object, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list")
    return value


def _number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return value


def _pair(value: object, where: str, need: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where}: need {need}")
    return tuple(value)


def _build(section: object, cls, where: str, **overrides):
    section = _mapping(section, where)
    section.update(overrides)
    fields = cls.__dataclass_fields__
    unknown = set(section) - set(fields)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for key, value in section.items():
        kind = fields[key].type  # a string: annotations are postponed in both modules
        if kind == "int" and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
        if kind == "float" or (kind == "float | None" and value is not None):
            _number(value, f"{where}.{key}")
        elif kind == "bool" and not isinstance(value, bool):
            raise ConfigError(f"{where}.{key}: expected true or false, got {value!r}")
        elif kind == "list[list[float]]":
            for j, row in enumerate(_list(value, f"{where}.{key}")):
                for x in _list(row, f"{where}.{key}[{j}]"):
                    _number(x, f"{where}.{key}[{j}]")
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a mapping")
    unknown = set(raw) - {"world", "agents", "net", "run"}
    if unknown:
        raise ConfigError(f"top level: unknown sections {sorted(unknown)}")

    agents = []
    for i, a in enumerate(_list(raw.get("agents") or [], "agents")):
        where = f"agents[{i}]"
        a = _mapping(a, where)
        blackouts = []
        for j, b in enumerate(_list(a.pop("blackouts", []), f"{where}.blackouts")):
            at, need = f"{where}.blackouts[{j}]", "[start, end] with start < end"
            blackouts.append(_pair(b, at, need))
            if _number(b[0], at) >= _number(b[1], at):
                raise ConfigError(f"{at}: need {need}")
        agents.append(_build(a, AgentConfig, where, blackouts=blackouts))

    net_raw = _mapping(raw.get("net"), "net")
    partitions = []
    for i, p in enumerate(_list(net_raw.pop("partitions", []), "net.partitions")):
        where = f"net.partitions[{i}]"
        p = _mapping(p, where)
        unknown = set(p) - {"start", "end", "links"}
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        start, end = (float(_number(p.get(key), f"{where}.{key}")) for key in ("start", "end"))
        links = [_pair(link, f"{where}.links[{j}]", "[a, b]")
                 for j, link in enumerate(_list(p.get("links", []), f"{where}.links"))]
        partitions.append(PartitionWindow(start, end, links))
    if "latency_ms" in net_raw:
        latency = _pair(net_raw["latency_ms"], "net.latency_ms", "[lo, hi]")
        net_raw["latency_ms"] = tuple(_number(v, "net.latency_ms") for v in latency)
    net = _build(net_raw, NetworkConfig, "net", partitions=partitions)

    cfg = ScenarioConfig(
        world=_build(raw.get("world"), WorldConfig, "world"),
        agents=agents,
        net=net,
        run=_build(raw.get("run"), RunConfig, "run"),
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

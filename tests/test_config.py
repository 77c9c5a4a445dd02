import glob
import math
import os

import pytest
import yaml

from meshslam.cli import main
from meshslam.config import ConfigError, load_scenario, scenario_from_dict

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
MINIMAL = {"agents": [{"id": 0, "waypoints": [[0, 0, 0], [1, 0, 0]]}]}
THREE_AGENTS = {"agents": [{"id": i, "waypoints": [[0, 0, 0], [1, 0, 0]]} for i in range(3)]}


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SCENARIOS, "*.yaml"))),
                         ids=os.path.basename)
def test_shipped_scenarios_load(path):
    assert load_scenario(path).agents


def test_minimal_scenario_builds():
    assert [a.id for a in scenario_from_dict(MINIMAL).agents] == [0]


@pytest.mark.parametrize("section", ["pgo", "merge", "share", "align", "track"])
def test_former_pose_graph_section_is_unknown(section):
    with pytest.raises(ConfigError, match=f"unknown sections.*{section}"):
        scenario_from_dict({**MINIMAL, section: {"depth": 2}})


def _with(agent=None, net=None, **sections):
    raw = {**MINIMAL, **sections}
    if agent:
        raw["agents"] = [{**MINIMAL["agents"][0], **agent}]
    if net:
        raw["net"] = net
    return raw


NON_FINITE = (math.nan, math.inf, -math.inf)


def _partition(**window):
    return {"partitions": [{"start": 1.0, "end": 2.0, **window}]}


# (section, key, value out of range, the bound the error names)
BOUNDS = (
    ("world", "landmarks", 0, r"must be in \[1, 65535\]"),
    ("world", "landmarks", 65536, r"must be in \[1, 65535\]"),
)


@pytest.mark.parametrize("raw, where", [
    (_with(agent={"blackouts": 5}), r"agents\[0\]\.blackouts: expected a list"),
    (_with(agent={"blackouts": [5]}), r"agents\[0\]\.blackouts\[0\]: need"),
    (_with(net={"latency_ms": 5}), r"net\.latency_ms: need"),
    (_with(net={"partitions": 3}), r"net\.partitions: expected a list"),
    (_with(net=_partition(links=[1])), r"net\.partitions\[0\]\.links\[0\]: need"),
    (_with(net=_partition(start="abc")), r"net\.partitions\[0\]\.start: expected a number"),
    (_with(world="x"), r"world: expected a mapping"),
    (_with(agent={"speed": "fast"}), r"agents\[0\]\.speed: expected a number"),
    (_with(net=_partition(links=[[0, 9]])),
     r"net\.partitions\[0\]\.links\[0\]: unknown agent"),
    ({**THREE_AGENTS, "net": _partition(links=[[0.0, 1.0], [0.0, 2.0]])},
     r"net\.partitions\[0\]\.links\[0\]: expected two agent ids, got \[0\.0, 1\.0\]"),
    ({**THREE_AGENTS, "net": _partition(links=[[True, 2]])},
     r"net\.partitions\[0\]\.links\[0\]: expected two agent ids, got \[True, 2\]"),
    ({**THREE_AGENTS, "net": _partition(links=[[1, 2], [0, 0]])},
     r"net\.partitions\[0\]\.links\[1\]: links agent 0 to itself"),
    (_with(agent={"waypoints": 5}), r"agents\[0\]\.waypoints: expected a list"),
    (_with(agent={"waypoints": ["abc"]}), r"agents\[0\]\.waypoints\[0\]: expected a list"),
    (_with(agent={"waypoints": [[0, 0, "z"]]}),
     r"agents\[0\]\.waypoints\[0\]: expected a number"),
    (_with(world={"regions": 5}), r"world\.regions: expected a list"),
    (_with(run={"cooperative": "maybe"}), r"run\.cooperative: expected true or false"),
    (_with(world={"regions": []}), r"world\.regions: at least one region"),
    (_with(agent={"sigma_t": -0.1}), r"agents\[0\]\.sigma_t: must be >= 0"),
    (_with(agent={"sigma_r": -0.1}), r"agents\[0\]\.sigma_r: must be >= 0"),
    (_with(net=_partition(end=1.0)), r"net\.partitions\[0\]: need start < end"),
    (_with(net=_partition(end=0.5)), r"net\.partitions\[0\]: need start < end"),
    (_with(world={"landmarks": 420.5}), r"world\.landmarks: expected an integer"),
    (_with(world={"landmarks": 420.0}), r"world\.landmarks: expected an integer"),
    (_with(world={"vocab_size": 1500.5}), r"world\.vocab_size: expected an integer"),
    (_with(world={"vocab_size": True}), r"world\.vocab_size: expected an integer"),
    (_with(agent={"id": 2.5}), r"agents\[0\]\.id: expected an integer"),
] + [
    (_with(**{section: {key: value}}), rf"{section}\.{key}: must be finite")
    for section, key in (("run", "dt"), ("run", "duration"), ("world", "cell_size"))
    for value in NON_FINITE
] + [
    (_with(agent={key: value}), rf"agents\[0\]\.{key}: must be finite")
    for key in ("speed", "range_m") for value in NON_FINITE
] + [
    (_with(**{section: {key: value}}), rf"{section}\.{key}: {bound}")
    for section, key, value, bound in BOUNDS
], ids=["blackouts-scalar", "blackouts-item", "latency-scalar", "partitions-scalar",
        "link-scalar", "partition-start-text", "world-scalar", "speed-text",
        "link-unknown-agent", "link-float-ids", "link-bool-id", "link-self",
        "waypoints-scalar", "waypoint-text", "waypoint-coordinate-text",
        "regions-scalar", "cooperative-text", "regions-empty", "sigma-t-negative",
        "sigma-r-negative", "partition-empty-window", "partition-reversed-window",
        "landmarks-fraction", "landmarks-float", "vocab-size-fraction", "vocab-size-bool",
        "agent-id-fraction"] + [
    f"{key}-{name}" for key in ("dt", "duration", "cell-size", "speed", "range-m")
    for name in ("nan", "inf", "-inf")
] + [
    f"{key}-{value}" for _, key, value, _ in BOUNDS
])
def test_malformed_values_fail_closed(raw, where, tmp_path, capsys):
    with pytest.raises(ConfigError, match=where):
        scenario_from_dict(raw)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["sim", "--scenario", str(path), "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_bounds_are_inclusive_where_stated():
    cfg = scenario_from_dict(_with(world={"landmarks": 65535}))
    assert cfg.world.landmarks == 65535

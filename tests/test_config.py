import glob
import math
import os

import pytest
import yaml

from meshslam.cli import main
from meshslam.config import ConfigError, load_scenario, scenario_from_dict

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
MINIMAL = {"agents": [{"id": 0, "waypoints": [[0, 0, 0], [1, 0, 0]]}]}


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SCENARIOS, "*.yaml"))),
                         ids=os.path.basename)
def test_shipped_scenarios_load(path):
    assert load_scenario(path).agents


def test_minimal_scenario_builds():
    assert [a.id for a in scenario_from_dict(MINIMAL).agents] == [0]


def test_former_pose_graph_section_is_unknown():
    with pytest.raises(ConfigError, match="unknown sections.*pgo"):
        scenario_from_dict({**MINIMAL, "pgo": {"depth": 2}})


def _with(agent=None, net=None, **sections):
    raw = {**MINIMAL, **sections}
    if agent:
        raw["agents"] = [{**MINIMAL["agents"][0], **agent}]
    if net:
        raw["net"] = net
    return raw


NON_FINITE = (math.nan, math.inf, -math.inf)


# every delay the protocol schedules a timer or a deadline with
TIMER_DELAYS = (("merge", "handshake_timeout"), ("merge", "notify_spacing"),
                ("align", "response_timeout"), ("align", "t_initial"),
                ("align", "t_min"), ("align", "t_max"))


def _partition(**window):
    return {"partitions": [{"start": 1.0, "end": 2.0, **window}]}


# (section, key, value out of range, the bound the error names)
BOUNDS = (
    ("world", "landmarks", 0, r"must be in \[1, 65535\]"),
    ("world", "landmarks", 65536, r"must be in \[1, 65535\]"),
    ("track", "lost_frames", 0, "must be >= 1"),
    ("merge", "notify_repeats", 0, "must be >= 1"),
    ("track", "point_update_blend", -0.1, r"must be in \[0, 1\]"),
    ("track", "point_update_blend", 1.5, r"must be in \[0, 1\]"),
    ("align", "ok_ratio", 0.0, r"must be in \(0, 1\]"),
    ("align", "ok_ratio", 1.01, r"must be in \(0, 1\]"),
    ("align", "ok_rmse", 0.0, "must be positive or null"),
    ("align", "ok_rmse", -0.01, "must be positive or null"),
    ("merge", "neighborhood_depth", -1, "must be >= 0"),
    ("merge", "cluster_tolerance", -0.1, "must be >= 0"),
    ("share", "dup_radius", -0.05, "must be >= 0"),
    ("track", "min_word_matches", -1, "must be >= 0"),
    ("track", "spawn_distance", -0.3, "must be >= 0"),
    ("track", "spawn_angle_deg", -15.0, "must be >= 0"),
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
    (_with(agent={"waypoints": 5}), r"agents\[0\]\.waypoints: expected a list"),
    (_with(agent={"waypoints": ["abc"]}), r"agents\[0\]\.waypoints\[0\]: expected a list"),
    (_with(agent={"waypoints": [[0, 0, "z"]]}),
     r"agents\[0\]\.waypoints\[0\]: expected a number"),
    (_with(world={"regions": 5}), r"world\.regions: expected a list"),
    (_with(run={"cooperative": "maybe"}), r"run\.cooperative: expected true or false"),
    (_with(world={"regions": []}), r"world\.regions: at least one region"),
    (_with(agent={"sigma_t": -0.1}), r"agents\[0\]\.sigma_t: must be >= 0"),
    (_with(agent={"sigma_r": -0.1}), r"agents\[0\]\.sigma_r: must be >= 0"),
    (_with(align={"ransac_iterations": 0}), r"align\.ransac_iterations: must be positive"),
    (_with(align={"inlier_threshold": 0}), r"align\.inlier_threshold: must be positive"),
    (_with(align={"min_inliers": 0}), r"align\.min_inliers: must be positive"),
    (_with(merge={"min_inliers": 0}), r"merge\.min_inliers: must be positive"),
    (_with(net=_partition(end=1.0)), r"net\.partitions\[0\]: need start < end"),
    (_with(net=_partition(end=0.5)), r"net\.partitions\[0\]: need start < end"),
    (_with(align={"t_min": 8.0, "t_max": 4.0}), r"align\.t_min: must not exceed align\.t_max"),
] + [
    (_with(**{section: {key: value}}), rf"{section}\.{key}: must be positive")
    for section, key in TIMER_DELAYS for value in (0.0, -5.0)
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
        "link-unknown-agent", "waypoints-scalar", "waypoint-text", "waypoint-coordinate-text",
        "regions-scalar", "cooperative-text", "regions-empty", "sigma-t-negative",
        "sigma-r-negative", "ransac-iterations-zero", "inlier-threshold-zero",
        "align-min-inliers-zero", "merge-min-inliers-zero", "partition-empty-window",
        "partition-reversed-window", "t-min-above-t-max"] + [
    f"{key}-{value}" for _, key in TIMER_DELAYS for value in ("zero", "negative")
] + [
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
    cfg = scenario_from_dict(_with(
        world={"landmarks": 65535},
        track={"lost_frames": 1, "point_update_blend": 1.0, "min_word_matches": 0,
               "spawn_distance": 0.0, "spawn_angle_deg": 0.0},
        merge={"notify_repeats": 1, "neighborhood_depth": 0, "cluster_tolerance": 0.0},
        share={"dup_radius": 0.0},
        align={"ok_ratio": 1.0, "ok_rmse": None}))
    assert cfg.world.landmarks == 65535 and cfg.align.ok_rmse is None
    assert scenario_from_dict(_with(track={"point_update_blend": 0.0},
                                    align={"ok_rmse": 1e-9})).align.ok_rmse == 1e-9

import glob
import os

import pytest

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

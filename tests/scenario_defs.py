"""Scenario configurations shared by the integration and acceptance tests."""

import math
import os

from meshslam.config import (
    AgentConfig,
    RunConfig,
    ScenarioConfig,
    WorldConfig,
    load_scenario,
)
from meshslam.net_sim import NetworkConfig

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def loop(cx, cy, r, n=8, z=0.5):
    return [[cx + r * math.cos(2 * math.pi * k / n),
             cy + r * math.sin(2 * math.pi * k / n), z] for k in range(n)]


def coop_loops(cooperative=True, duration=25.0, drop_prob=0.05,
               latency=(10.0, 50.0)):
    """Three agents on overlapping loops in one room, lossy network."""
    return ScenarioConfig(
        world=WorldConfig(landmarks=260, regions=[[-7, -7, 0, 7, 7, 2.2]],
                          vocab_size=800, cell_size=0.9),
        agents=[
            AgentConfig(id=0, waypoints=loop(0, 0, 4.0), speed=1.0,
                        sigma_t=0.01, sigma_r=0.002, fov_deg=100, range_m=7.0),
            AgentConfig(id=1, waypoints=loop(0.5, 0.5, 3.6), speed=1.0,
                        sigma_t=0.01, sigma_r=0.002, fov_deg=100, range_m=7.0),
            AgentConfig(id=2, waypoints=loop(-0.5, -0.3, 3.8), speed=1.0,
                        sigma_t=0.01, sigma_r=0.002, fov_deg=100, range_m=7.0),
        ],
        net=NetworkConfig(latency_ms=latency, drop_prob=drop_prob),
        run=RunConfig(duration=duration, dt=0.1, cooperative=cooperative),
    )


def shipped(name):
    """The scenario shipped as ``scenarios/<name>.yaml``."""
    return load_scenario(os.path.join(SCENARIOS, f"{name}.yaml"))


def fig3_replay():
    """Two agents sharing the center room merge first; the third wanders in.

    Expected merge order: roster {1, 2} with leader 1, then {0, 1, 2} with
    final leader 0.
    """
    return shipped("fig3_replay")


def blackout_recovery():
    """Two merged agents; one goes blind for three seconds mid-run."""
    return shipped("blackout_recovery")


def blackout_at_end():
    """Blackout with no revisit before the run ends: the private map persists."""
    cfg = blackout_recovery()
    cfg.run = RunConfig(duration=14.0, dt=0.1)
    return cfg


def leader_failover():
    """Lowest-id agent isolated mid-run; the others merge without it."""
    return shipped("leader_failover")

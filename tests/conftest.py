"""Simulation runs that several test modules read, each run once per session.

Tests treat these results as read-only: they look at logs, maps, managers
and ledgers, and run only checks that change nothing.
"""

import pytest

from meshslam.simulation import Simulation

from scenario_defs import blackout_recovery, coop_loops, fig3_replay, leader_failover


@pytest.fixture(scope="session")
def fig3_result():
    return Simulation(fig3_replay(), seed=42, check_invariants=True).run()


@pytest.fixture(scope="session")
def blackout_result():
    return Simulation(blackout_recovery(), seed=3, check_invariants=True).run()


@pytest.fixture(scope="session")
def failover_result():
    return Simulation(leader_failover(), seed=5, check_invariants=True).run()


@pytest.fixture(scope="session")
def coop_result():
    """The cooperative coop_loops run at its default loss, seed 6."""
    return Simulation(coop_loops(True), seed=6).run()


@pytest.fixture(scope="session")
def lossless_result():
    """The cooperative coop_loops run with no loss, seed 4."""
    return Simulation(coop_loops(True, drop_prob=0.0), seed=4).run()

"""Each protocol constant lies in the range its use needs.

These values are declared once, in the module that uses them, and no
scenario sets them; a value outside its range would break every run
(for example, a loss threshold of 0 frames declares every agent lost at
the first tick), so the ranges are checked here.
"""

import pytest

from meshslam import alignment, group_protocol, map_sharing, merge_detection, sim_world
from meshslam import simulation
from meshslam.alignment import RansacParams


def positive(v):
    return v > 0


def at_least_one(v):
    return v >= 1


def non_negative(v):
    return v >= 0


def fraction(v):
    return 0 < v <= 1


def unit_interval(v):
    return 0 <= v <= 1


# (owner, name, range test, whether the value counts something)
CONSTANTS = (
    (RansacParams, "iterations", positive, True),
    (RansacParams, "inlier_threshold", positive, False),
    (RansacParams, "min_inliers", positive, True),
    (alignment, "OK_RATIO", fraction, False),
    (alignment, "OK_RMSE", positive, False),
    (alignment, "AIMD_T_INITIAL", positive, False),
    (alignment, "AIMD_T_MIN", positive, False),
    (alignment, "AIMD_T_MAX", positive, False),
    (simulation, "ALIGN_RESPONSE_TIMEOUT", positive, False),
    (merge_detection, "ACCEPTANCE_FACTOR", fraction, False),
    (group_protocol, "NEIGHBORHOOD_DEPTH", non_negative, True),
    (group_protocol, "CLUSTER_TOLERANCE", non_negative, False),
    (group_protocol, "HANDSHAKE_TIMEOUT", positive, False),
    (group_protocol, "NOTIFY_REPEATS", at_least_one, True),
    (group_protocol, "NOTIFY_SPACING", positive, False),
    (map_sharing, "BATCH_SIZE", at_least_one, True),
    (map_sharing, "DUP_RADIUS", non_negative, False),
    (map_sharing, "DRAIN_BUDGET", at_least_one, True),
    (sim_world, "SPAWN_DISTANCE", non_negative, False),
    (sim_world, "SPAWN_ANGLE_DEG", non_negative, False),
    (sim_world, "MIN_WORD_MATCHES", non_negative, True),
    (sim_world, "LOST_FRAMES", at_least_one, True),
    (sim_world, "POINT_UPDATE_BLEND", unit_interval, False),
)


@pytest.mark.parametrize("owner, name, in_range, counts", CONSTANTS,
                         ids=[f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
                              for owner, name, _, _ in CONSTANTS])
def test_protocol_constant_in_range(owner, name, in_range, counts):
    value = getattr(owner, name)
    if counts:
        assert type(value) is int, f"{name} = {value!r} must be an integer"
    else:
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
    assert in_range(value), f"{name} = {value!r} fails {in_range.__name__}"


def test_aimd_interval_starts_within_its_bounds():
    assert alignment.AIMD_T_MIN <= alignment.AIMD_T_INITIAL <= alignment.AIMD_T_MAX


def test_ok_rmse_is_half_the_inlier_threshold():
    assert alignment.OK_RMSE == RansacParams().inlier_threshold / 2

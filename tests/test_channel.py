"""Trajectory generation and CSI synthesis."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evobeam.arrays import ArrayConstraints, DoASet, steering_vector
from evobeam.channel import (
    ANGLE_BOUNDS,
    DEFAULT_SNAPSHOTS,
    MAX_SNAPSHOTS,
    MAX_STEPS,
    CsiSnapshotBatch,
    RandomWalkDrift,
    ScriptedDrift,
    TrajectoryConfig,
    generate_trajectory,
    noise_power,
    synthesize_csi,
)
from evobeam.errors import ValidationError

GEOMETRY = ArrayConstraints().uniform_geometry()


def walk_config(sigma, steps=50, seed=0, initial=(60.0, 90.0, 120.0)):
    return TrajectoryConfig(
        num_steps=steps,
        initial_angles=DoASet(initial),
        drift=RandomWalkDrift(sigma_deg_per_step=sigma),
        seed=seed,
    )


# ---------------------------------------------------------------- trajectories


def test_zero_sigma_walk_never_moves():
    traj = generate_trajectory(walk_config(0.0))
    assert len(traj) == 50
    for step in traj:
        assert step.angles_deg == (60.0, 90.0, 120.0)


def test_walk_is_deterministic_under_seed():
    t1 = generate_trajectory(walk_config(2.0, seed=123))
    t2 = generate_trajectory(walk_config(2.0, seed=123))
    assert all(a.angles_deg == b.angles_deg for a, b in zip(t1, t2))
    t3 = generate_trajectory(walk_config(2.0, seed=124))
    assert any(a.angles_deg != b.angles_deg for a, b in zip(t1, t3))


def test_huge_sigma_saturates_at_bounds_and_stays_valid():
    traj = generate_trajectory(walk_config(1000.0, steps=30, seed=7))
    for step in traj:
        for a in step.angles_deg:
            assert 5.0 <= a <= 175.0
        # DoASet construction already enforces distinctness; be explicit
        assert len(set(step.angles_deg)) == 3


def test_walk_step_sizes_stay_within_six_sigma():
    sigma = 2.0
    traj = generate_trajectory(walk_config(sigma, steps=4000, seed=11))
    arr = np.array([s.angles_deg for s in traj])
    deltas = np.abs(np.diff(arr, axis=0))
    assert deltas.size >= 10000
    assert np.max(deltas) <= 6 * sigma


def test_step_count_at_the_cap_is_accepted():
    assert walk_config(1.0, steps=MAX_STEPS).num_steps == MAX_STEPS


@pytest.mark.parametrize("steps", [0, MAX_STEPS + 1, 10**9])
def test_step_count_outside_its_range_is_rejected_naming_the_field(steps):
    # the whole trajectory is built before step 0, so the count is capped
    with pytest.raises(ValidationError, match=r"trajectory\.num_steps"):
        walk_config(1.0, steps=steps)


def test_scripted_trajectory_plays_waypoints_verbatim():
    waypoints = ((60.0, 90.0), (61.0, 91.0), (62.0, 92.0))
    cfg = TrajectoryConfig(
        num_steps=3,
        initial_angles=DoASet((60.0, 90.0)),
        drift=ScriptedDrift(waypoints=waypoints),
    )
    traj = generate_trajectory(cfg)
    assert tuple(s.angles_deg for s in traj) == waypoints


def test_scripted_length_mismatch_is_rejected():
    with pytest.raises(ValidationError):
        TrajectoryConfig(
            num_steps=5,
            initial_angles=DoASet((60.0,)),
            drift=ScriptedDrift(waypoints=((60.0,), (61.0,))),
        )


def test_scripted_first_waypoint_must_match_initial():
    with pytest.raises(ValidationError):
        TrajectoryConfig(
            num_steps=2,
            initial_angles=DoASet((60.0,)),
            drift=ScriptedDrift(waypoints=((59.0,), (61.0,))),
        )


def test_initial_angles_outside_bounds_are_rejected():
    with pytest.raises(ValidationError):
        walk_config(1.0, initial=(3.0, 90.0, 120.0))


@pytest.mark.parametrize("outside", [ANGLE_BOUNDS[0] - 0.5, ANGLE_BOUNDS[1] + 0.5])
def test_scripted_waypoints_outside_bounds_are_rejected(outside):
    with pytest.raises(ValidationError, match=r"^trajectory\.drift\.waypoints\[1\]: "):
        TrajectoryConfig(
            num_steps=2,
            initial_angles=DoASet((60.0, 90.0)),
            drift=ScriptedDrift(waypoints=((60.0, 90.0), (outside, 90.0))),
        )


@pytest.mark.parametrize("initial", [(ANGLE_BOUNDS[0], 90.0), (90.0, ANGLE_BOUNDS[1])])
def test_initial_angles_at_the_bounds_are_accepted(initial):
    assert walk_config(1.0, initial=initial).initial_angles.angles_deg == initial


# ---------------------------------------------------------------- CSI


def test_noiseless_single_source_snapshot_is_scaled_steering():
    doas = DoASet((74.0,))
    batch = synthesize_csi(GEOMETRY, doas, snr_db=300.0, num_snapshots=1, seed=5)
    y = batch.snapshots[0]
    a = steering_vector(GEOMETRY, 74.0)
    scale = y[0] / a[0]
    assert_allclose(y, scale * a, rtol=1e-6)


def test_csi_is_bit_identical_under_seed():
    doas = DoASet((40.0, 100.0))
    b1 = synthesize_csi(GEOMETRY, doas, 10.0, 200, seed=9)
    b2 = synthesize_csi(GEOMETRY, doas, 10.0, 200, seed=9)
    assert np.array_equal(b1.snapshots, b2.snapshots)
    b3 = synthesize_csi(GEOMETRY, doas, 10.0, 200, seed=10)
    assert not np.array_equal(b1.snapshots, b3.snapshots)


def test_two_sources_yield_two_dominant_eigenvalues():
    doas = DoASet((60.0, 120.0))
    batch = synthesize_csi(GEOMETRY, doas, snr_db=10.0, num_snapshots=200, seed=21)
    y = batch.snapshots
    cov = y.T @ np.conj(y) / y.shape[0]
    vals = np.linalg.eigvalsh(cov)  # ascending
    noise_mean = np.mean(vals[:-2])
    assert np.all(vals[-2:] > 3 * noise_mean)
    assert np.all(vals[:-2] <= 3 * noise_mean)


def test_average_snapshot_power_matches_k_plus_noise():
    doas = DoASet((50.0, 95.0, 140.0))
    snr = 10.0
    batch = synthesize_csi(GEOMETRY, doas, snr, num_snapshots=2000, seed=3)
    power = float(np.mean(np.abs(batch.snapshots) ** 2))
    expected = 3 + 10 ** (-snr / 10)
    assert abs(power - expected) / expected < 0.05


def test_batch_is_read_only():
    batch = synthesize_csi(GEOMETRY, DoASet((88.0,)), 10.0, 50, seed=1)
    assert batch.num_snapshots == 50
    with pytest.raises(ValueError):
        batch.snapshots[0, 0] = 0.0


@pytest.mark.parametrize("value", [0, -1, -(10**12)])
def test_csi_rejects_bad_snapshot_count(value):
    with pytest.raises(ValidationError, match=r"^num_snapshots\b"):
        synthesize_csi(GEOMETRY, DoASet((90.0,)), 10.0, value, seed=1)


def test_snapshot_count_at_the_cap_is_accepted():
    batch = synthesize_csi(GEOMETRY, DoASet((90.0,)), 10.0, MAX_SNAPSHOTS, seed=1)
    assert batch.snapshots.shape == (MAX_SNAPSHOTS, GEOMETRY.num_elements)


def test_default_snapshot_count_is_the_reported_one():
    # DataCollection reports "collected 200 snapshots" in its routing summary
    assert DEFAULT_SNAPSHOTS == 200
    assert synthesize_csi(GEOMETRY, DoASet((90.0,)), 10.0, seed=1).num_snapshots == 200


@pytest.mark.parametrize("value", [MAX_SNAPSHOTS + 1, 10**12, float(10**12), 1.5, True])
def test_snapshot_count_above_the_cap_is_rejected_with_its_path(value):
    # the count is checked before the draw, so a huge one costs nothing
    with pytest.raises(ValidationError, match=r"^num_snapshots\b"):
        synthesize_csi(GEOMETRY, DoASet((90.0,)), 10.0, value, seed=1)


@pytest.mark.parametrize("snr_db", [-1e308, -3100.0, float("-inf"), float("nan")])
def test_csi_rejects_an_snr_without_a_finite_noise_power(snr_db):
    with pytest.raises(ValidationError, match=r"^snr_db\b"):
        synthesize_csi(GEOMETRY, DoASet((70.0,)), snr_db, num_snapshots=1)


def test_noise_power_is_finite_down_to_the_float_range():
    assert noise_power(10.0) == 0.1
    assert noise_power(-3000.0) == 1e300
    assert noise_power(1e308) == 0.0
    with pytest.raises(ValidationError, match=r"^csi\.snr_db\b"):
        noise_power(-3090.0, "csi.snr_db")

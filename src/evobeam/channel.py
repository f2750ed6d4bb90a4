"""User direction trajectories and synthetic CSI snapshots.

The channel model is narrowband line of sight: each snapshot is
y_r = sum_k s_{k,r} a(theta_k) + n_r with unit-variance circular complex
Gaussian symbols and white circular Gaussian noise. SNR is per element
relative to a single unit-power source. All randomness flows from explicit
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .arrays import ArrayGeometry, DoASet, steering_matrix
from .errors import ValidationError, check_count, check_finite

DEFAULT_SNAPSHOTS = 200
# every snapshot is a row of N complex samples, 1.6 MB per element at this
# cap; an unbounded count would fail only inside the draw, with an
# allocation error
MAX_SNAPSHOTS = 100_000
# users drift, and the estimator scans, inside these directions (degrees)
ANGLE_BOUNDS = (5.0, 175.0)
DEFAULT_NUM_STEPS = 50
# generate_trajectory builds the whole trajectory before step 0, so an
# unbounded step count would hold memory and time before any work is done
MAX_STEPS = 100_000
DEFAULT_DRIFT_SIGMA = 1.0
# lowest SNR (dB) whose CSI the estimator can use: below about -3055 dB
# the noise power 10^(-snr_db/10) is still a finite float, but the
# covariance of a snapshot batch overflows and every scan fails
MIN_SNR_DB = -3000.0

# Inward offset used to keep clamped angles pairwise distinct.
_SEPARATION_EPS = 1e-6


@dataclass(frozen=True)
class RandomWalkDrift:
    """Per-user Gaussian angle increments, clamped to the angle bounds."""

    sigma_deg_per_step: float = DEFAULT_DRIFT_SIGMA

    def __post_init__(self):
        sigma = check_finite("sigma_deg_per_step", self.sigma_deg_per_step, 0)
        object.__setattr__(self, "sigma_deg_per_step", sigma)


@dataclass(frozen=True)
class ScriptedDrift:
    """Fully scheduled trajectory: one angle list per step, played verbatim."""

    waypoints: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "waypoints",
            tuple(tuple(float(a) for a in w) for w in self.waypoints),
        )


DriftModel = Union[RandomWalkDrift, ScriptedDrift]


def _check_in_bounds(path, angles):
    lo, hi = ANGLE_BOUNDS
    for a in angles:
        if not (lo <= a <= hi):
            raise ValidationError(f"{path}: {a} outside bounds {ANGLE_BOUNDS}")


@dataclass(frozen=True)
class TrajectoryConfig:
    initial_angles: DoASet
    num_steps: int = DEFAULT_NUM_STEPS
    drift: DriftModel = field(default_factory=RandomWalkDrift)
    seed: int = 0

    def __post_init__(self):
        num_steps = check_count("trajectory.num_steps", self.num_steps, 1, MAX_STEPS)
        object.__setattr__(self, "num_steps", num_steps)
        _check_in_bounds("trajectory.initial_angles", self.initial_angles.angles_deg)
        if isinstance(self.drift, ScriptedDrift):
            path = "trajectory.drift.waypoints"
            if len(self.drift.waypoints) != self.num_steps:
                raise ValidationError(
                    f"{path}: {len(self.drift.waypoints)} waypoints "
                    f"for {self.num_steps} steps"
                )
            for i, w in enumerate(self.drift.waypoints):
                try:
                    DoASet(w)  # each step must be a valid direction set
                except ValidationError as exc:
                    raise ValidationError(f"{path}[{i}]: {exc}") from exc
                if len(w) != len(self.initial_angles):
                    raise ValidationError(
                        f"{path}[{i}]: source count differs from initial_angles"
                    )
                _check_in_bounds(f"{path}[{i}]", w)
            if self.drift.waypoints[0] != self.initial_angles.angles_deg:
                raise ValidationError(f"{path}[0]: first waypoint must equal initial_angles")
        elif not isinstance(self.drift, RandomWalkDrift):
            raise ValidationError(f"trajectory.drift: unknown drift model {self.drift!r}")


@dataclass(frozen=True)
class CsiSnapshotBatch:
    """R snapshots of array outputs, one row of N samples each, read-only."""

    snapshots: np.ndarray

    def __post_init__(self):
        snaps = np.asarray(self.snapshots, dtype=complex)
        if snaps.ndim != 2 or snaps.shape[0] < 1:
            raise ValidationError("snapshots must be a nonempty R x N matrix")
        snaps.setflags(write=False)
        object.__setattr__(self, "snapshots", snaps)

    @property
    def num_snapshots(self) -> int:
        return self.snapshots.shape[0]


def generate_trajectory(config: TrajectoryConfig) -> list:
    """DoA sets for steps 0 .. T-1; step 0 equals initial_angles."""
    if isinstance(config.drift, ScriptedDrift):
        return [DoASet(w) for w in config.drift.waypoints]
    lo, hi = ANGLE_BOUNDS
    sigma = config.drift.sigma_deg_per_step
    rng = np.random.default_rng(config.seed)
    angles = np.asarray(config.initial_angles.angles_deg, dtype=float)
    out = [config.initial_angles]
    for _ in range(1, config.num_steps):
        angles = np.clip(angles + rng.normal(0.0, sigma, angles.shape[0]), lo, hi)
        angles = np.asarray(_separate(angles.tolist(), lo, hi), dtype=float)
        out.append(DoASet(tuple(angles.tolist())))
    return out


def _separate(angles, lo, hi):
    """Break exact ties (bound pile-ups) by deterministic inward nudges."""
    mid = (lo + hi) / 2
    taken = set()
    result = []
    for a in angles:
        v, k = a, 0
        while v in taken:
            k += 1
            v = a - k * _SEPARATION_EPS if a >= mid else a + k * _SEPARATION_EPS
        taken.add(v)
        result.append(v)
    return result


def synthesize_csi(
    geometry: ArrayGeometry,
    doas: DoASet,
    snr_db: float,
    num_snapshots: int = DEFAULT_SNAPSHOTS,
    seed: int = 0,
) -> CsiSnapshotBatch:
    """Simulate R array-output snapshots for the given directions.

    Args:
        geometry: receiving array.
        doas: true source directions.
        snr_db: per-element SNR against one unit-power source.
        num_snapshots: R, number of snapshots to draw, at most MAX_SNAPSHOTS.
        seed: generator seed; equal seeds give bit-identical batches.
    """
    r = check_count("num_snapshots", num_snapshots, 1, MAX_SNAPSHOTS)
    noise_var = noise_power(snr_db)
    rng = np.random.default_rng(seed)
    k = len(doas)
    s = steering_matrix(geometry, doas.angles_deg)
    symbols = (rng.standard_normal((r, k)) + 1j * rng.standard_normal((r, k))) / np.sqrt(2)
    noise = np.sqrt(noise_var / 2) * (
        rng.standard_normal((r, geometry.num_elements))
        + 1j * rng.standard_normal((r, geometry.num_elements))
    )
    snapshots = symbols @ s.T + noise
    return CsiSnapshotBatch(snapshots)


def noise_power(snr_db, name="snr_db") -> float:
    """Per-element noise variance 10^(-snr_db / 10) at this SNR.

    Raises ValidationError naming the field unless snr_db is finite and at
    least MIN_SNR_DB, the floor at which a batch's covariance stays finite.
    """
    return 10.0 ** (-check_finite(name, snr_db, MIN_SNR_DB) / 10.0)

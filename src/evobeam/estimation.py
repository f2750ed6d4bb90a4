"""Direction-of-arrival estimation from CSI snapshots via Bartlett beamscan."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, DoASet, check_hermitian, steering_matrix
from .channel import DEFAULT_ANGLE_BOUNDS, CsiSnapshotBatch
from .errors import ValidationError

DEFAULT_GRID_RESOLUTION_DEG = 0.5

# Two peaks closer than this are treated as one.
MIN_PEAK_SEPARATION_DEG = 2.0


@dataclass(frozen=True)
class DoaEstimate:
    """Estimated directions plus the spectrum they were read from.

    angles are sorted ascending, always num_sources of them, each on the
    scan grid. low_confidence is set when the spectrum did not contain
    enough separated peaks and the result was padded with the next-largest
    grid points.
    """

    angles: DoASet
    grid_deg: np.ndarray
    spectrum: np.ndarray
    grid_resolution_deg: float
    peak_values: tuple
    low_confidence: bool

    def __post_init__(self):
        grid = np.asarray(self.grid_deg, dtype=float)
        spec = np.asarray(self.spectrum, dtype=float)
        grid.setflags(write=False)
        spec.setflags(write=False)
        object.__setattr__(self, "grid_deg", grid)
        object.__setattr__(self, "spectrum", spec)


def sample_covariance(batch: CsiSnapshotBatch) -> np.ndarray:
    """Sample covariance (1/R) sum_r y_r y_r^H of a snapshot batch."""
    y = batch.snapshots
    cov = y.T @ np.conj(y) / y.shape[0]
    return (cov + cov.conj().T) / 2


def estimate_doas(
    covariance,
    geometry: ArrayGeometry,
    num_sources: int,
    grid_resolution_deg: float = DEFAULT_GRID_RESOLUTION_DEG,
    angle_bounds: tuple = DEFAULT_ANGLE_BOUNDS,
) -> DoaEstimate:
    """Scan the Bartlett spectrum and pick the strongest separated peaks.

    The spectrum is P(theta) = a(theta)^H R a(theta) / N on a regular grid
    over angle_bounds. Peaks are strict local maxima, taken greedily by
    descending value (ties broken toward lower angles) subject to a minimum
    separation of MIN_PEAK_SEPARATION_DEG. If fewer than num_sources
    separated peaks exist, the remainder are the largest leftover grid
    points and the estimate is flagged low confidence.

    Args:
        covariance: Hermitian N x N snapshot covariance.
        geometry: array that produced the snapshots.
        num_sources: K, number of directions to return; must be < N.
        grid_resolution_deg: scan step in degrees.
        angle_bounds: (lo, hi) scan interval in degrees.

    Returns:
        DoaEstimate with K angles sorted ascending.
    """
    n = geometry.num_elements
    if not 1 <= num_sources < n:
        raise ValidationError(f"num_sources must be in [1, {n - 1}], got {num_sources}")
    if not grid_resolution_deg > 0:
        raise ValidationError("grid_resolution_deg must be positive")
    lo, hi = angle_bounds
    if not (0.0 < lo < hi < 180.0):
        raise ValidationError(f"angle_bounds {angle_bounds} must satisfy 0 < lo < hi < 180")
    cov = check_hermitian(covariance)
    if cov.shape[0] != n:
        raise ValidationError(
            f"covariance is {cov.shape[0]}x{cov.shape[0]} but the array has {n} elements"
        )

    count = int(np.floor((hi - lo) / grid_resolution_deg + 1e-9)) + 1
    grid = lo + grid_resolution_deg * np.arange(count)
    a = steering_matrix(geometry, grid)
    spectrum = np.real(np.einsum("ng,nm,mg->g", a.conj(), cov, a)) / n

    peak_idx = _local_maxima(spectrum)
    order = sorted(peak_idx, key=lambda i: (-spectrum[i], grid[i]))
    chosen: list[int] = []
    for i in order:
        if len(chosen) == num_sources:
            break
        if all(abs(grid[i] - grid[j]) >= MIN_PEAK_SEPARATION_DEG - 1e-12 for j in chosen):
            chosen.append(i)
    low_confidence = len(chosen) < num_sources
    if low_confidence:
        filler = sorted(
            (i for i in range(len(grid)) if i not in set(chosen)),
            key=lambda i: (-spectrum[i], grid[i]),
        )
        chosen.extend(filler[: num_sources - len(chosen)])

    chosen.sort(key=lambda i: grid[i])
    angles = DoASet(tuple(float(grid[i]) for i in chosen))
    return DoaEstimate(
        angles=angles,
        grid_deg=grid,
        spectrum=spectrum,
        grid_resolution_deg=float(grid_resolution_deg),
        peak_values=tuple(float(spectrum[i]) for i in chosen),
        low_confidence=low_confidence,
    )


def _local_maxima(values: np.ndarray) -> list:
    """Indices of strict local maxima, one-sided at the ends."""
    above_left = np.ones(values.shape[0], dtype=bool)
    above_right = above_left.copy()
    above_left[1:] = values[1:] > values[:-1]
    above_right[:-1] = values[:-1] > values[1:]
    return np.flatnonzero(above_left & above_right).tolist()

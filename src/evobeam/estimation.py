"""Direction-of-arrival estimation from CSI snapshots via Bartlett beamscan."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .arrays import ArrayGeometry, DoASet, check_hermitian, steering_matrix
from .channel import ANGLE_BOUNDS, CsiSnapshotBatch
from .errors import ValidationError, check_count

GRID_RESOLUTION_DEG = 0.5

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
    peak_values: tuple
    low_confidence: bool

    def __post_init__(self):
        grid = np.asarray(self.grid_deg, dtype=float)
        spec = np.asarray(self.spectrum, dtype=float)
        grid.setflags(write=False)
        spec.setflags(write=False)
        object.__setattr__(self, "grid_deg", grid)
        object.__setattr__(self, "spectrum", spec)


class _Scan(NamedTuple):
    """The scan of one geometry: the grid, its N x G steering matrix and
    that matrix's conjugate, all read-only."""

    grid: np.ndarray
    steering: np.ndarray
    steering_conj: np.ndarray


def _scan(geometry: ArrayGeometry) -> _Scan:
    """The geometry's scan, built on its first estimate and kept on it.

    The sensing geometry changes only at deployment, so an episode builds
    one scan per deployed array. Kept on the instance, the scan is freed
    with its geometry; a module-level cache would keep every array alive.
    """
    scan = getattr(geometry, "_scan", None)
    if scan is None:
        lo, hi = ANGLE_BOUNDS
        count = int(np.floor((hi - lo) / GRID_RESOLUTION_DEG + 1e-9)) + 1
        grid = lo + GRID_RESOLUTION_DEG * np.arange(count)
        a = steering_matrix(geometry, grid)
        scan = _Scan(grid, a, a.conj())
        for array in scan:
            array.setflags(write=False)
        object.__setattr__(geometry, "_scan", scan)
    return scan


def sample_covariance(batch: CsiSnapshotBatch) -> np.ndarray:
    """Sample covariance (1/R) sum_r y_r y_r^H of a snapshot batch."""
    y = batch.snapshots
    cov = y.T @ np.conj(y) / y.shape[0]
    return (cov + cov.conj().T) / 2


def estimate_doas(covariance, geometry: ArrayGeometry, num_sources: int) -> DoaEstimate:
    """Scan the Bartlett spectrum and pick the strongest separated peaks.

    The spectrum is P(theta) = a(theta)^H R a(theta) / N on a fixed grid
    of GRID_RESOLUTION_DEG steps over channel.ANGLE_BOUNDS. With A the
    N x G steering matrix of the grid, the whole scan is one matmul: the
    column sums of conj(A) * (R A), a quadratic form per grid point.
    Peaks are strict local maxima, taken greedily by descending value
    (ties broken toward lower angles) subject to a minimum separation of
    MIN_PEAK_SEPARATION_DEG. If fewer than num_sources separated peaks
    exist, the remainder are the largest leftover grid points and the
    estimate is flagged low confidence.

    Args:
        covariance: Hermitian N x N snapshot covariance.
        geometry: array that produced the snapshots.
        num_sources: K, number of directions to return; an integer in
            [1, N - 1].

    Returns:
        DoaEstimate with K angles sorted ascending.
    """
    n = geometry.num_elements
    num_sources = check_count("num_sources", num_sources, 1, n - 1)
    cov = check_hermitian(covariance)
    if cov.shape[0] != n:
        raise ValidationError(
            f"covariance is {cov.shape[0]}x{cov.shape[0]} but the array has {n} elements"
        )

    grid, a, a_conj = _scan(geometry)
    spectrum = np.real(np.sum(a_conj * (cov @ a), axis=0)) / n
    chosen, low_confidence = _pick_peaks(grid, spectrum, num_sources)
    angles = DoASet(tuple(float(grid[i]) for i in chosen))
    return DoaEstimate(
        angles=angles,
        grid_deg=grid,
        spectrum=spectrum,
        peak_values=tuple(float(spectrum[i]) for i in chosen),
        low_confidence=low_confidence,
    )


def _pick_peaks(grid: np.ndarray, spectrum: np.ndarray, num_sources: int):
    """The grid indices of num_sources directions, ascending, and whether
    any had to be filled in from outside the separated peaks.

    Candidates go by descending spectrum, then ascending grid angle; the
    grid points are distinct, so this is a total order.
    """
    peaks = np.array(_local_maxima(spectrum), dtype=np.intp)
    chosen: list[int] = []
    for i in peaks[np.lexsort((grid[peaks], -spectrum[peaks]))].tolist():
        if len(chosen) == num_sources:
            break
        if all(abs(grid[i] - grid[j]) >= MIN_PEAK_SEPARATION_DEG - 1e-12 for j in chosen):
            chosen.append(i)
    low_confidence = len(chosen) < num_sources
    if low_confidence:
        taken = set(chosen)
        filler = (i for i in np.lexsort((grid, -spectrum)).tolist() if i not in taken)
        chosen.extend(islice(filler, num_sources - len(chosen)))
    chosen.sort(key=lambda i: grid[i])
    return chosen, low_confidence


def _local_maxima(values: np.ndarray) -> list:
    """Indices of strict local maxima, one-sided at the ends."""
    above_left = np.ones(values.shape[0], dtype=bool)
    above_right = above_left.copy()
    above_left[1:] = values[1:] > values[:-1]
    above_right[:-1] = values[:-1] > values[1:]
    return np.flatnonzero(above_left & above_right).tolist()

"""Linear movable antenna arrays: geometry, steering vectors, and beam gain.

Element positions live on a line and are expressed in meters. Angles are in
degrees, measured from the array axis, and must lie strictly inside
(0, 180) so that every direction maps to a distinct spatial frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, ValidationError, check_count, check_positive_finite

# Linear gains below this floor are reported as -inf dB.
GAIN_FLOOR = 1e-300

# Slack used when validating geometry against its own constraints, per
# meter of position bound above 1 m, since rounding grows with the positions.
_GEOMETRY_SLACK = 1e-12

# every element adds a row to each steering matrix, a row and a column to
# the estimator's covariance, and num_snapshots complex samples to a step's
# CSI batch (1.6 MB per element at channel.MAX_SNAPSHOTS); an unbounded
# count would fail only inside a run, with an allocation error
MAX_ELEMENTS = 128


@dataclass(frozen=True)
class ArrayGeometry:
    """Element positions of a linear array together with its constraints.

    The direction estimator keeps its scan of the array on the instance
    (estimation._scan), so the scan is freed with the geometry.

    Attributes:
        wavelength: carrier wavelength in meters.
        positions: element positions in meters, strictly increasing.
        min_spacing: smallest allowed gap between adjacent elements.
        position_bound: elements must satisfy |x| <= position_bound.
    """

    wavelength: float
    positions: tuple[float, ...]
    min_spacing: float
    position_bound: float

    def __post_init__(self):
        pos = tuple(float(p) for p in self.positions)
        object.__setattr__(self, "positions", pos)
        # checks the wavelength, spacing and bound, and that the elements fit
        c = ArrayConstraints(self.wavelength, len(pos), self.min_spacing, self.position_bound)
        slack = _GEOMETRY_SLACK * max(1.0, c.position_bound)
        for p in pos:
            if not math.isfinite(p):
                raise ValidationError("positions must be finite")
            if abs(p) > c.position_bound + slack:
                raise ValidationError(f"position {p} outside +-{c.position_bound}")
        for a, b in zip(pos, pos[1:]):
            if b - a < c.min_spacing - slack:
                raise ValidationError(
                    f"adjacent spacing {b - a} below minimum {c.min_spacing}"
                )

    @property
    def num_elements(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class ArrayConstraints:
    """Movable-array design envelope: how many elements fit where.

    Defaults describe an 8-element array at 2.4 GHz (wavelength 0.125 m)
    with half-wavelength minimum spacing inside +-5 wavelengths.
    """

    wavelength: float = 0.125
    num_elements: int = 8
    min_spacing: float | None = None
    position_bound: float | None = None

    def __post_init__(self):
        check_positive_finite("wavelength", self.wavelength)
        count = check_count("num_elements", self.num_elements, 1, MAX_ELEMENTS)
        object.__setattr__(self, "num_elements", count)
        if self.min_spacing is None:
            object.__setattr__(self, "min_spacing", self.wavelength / 2)
        if self.position_bound is None:
            object.__setattr__(self, "position_bound", 5 * self.wavelength)
        check_positive_finite("min_spacing", self.min_spacing)
        check_positive_finite("position_bound", self.position_bound)
        n, d, b = self.num_elements, self.min_spacing, self.position_bound
        if n * d > 2 * b + d:
            raise ConfigurationError(
                f"{n} elements with min spacing {d} cannot fit in [-{b}, {b}]"
            )

    def geometry(self, positions: Sequence[float]) -> ArrayGeometry:
        if len(positions) != self.num_elements:
            raise ValidationError(
                f"expected {self.num_elements} positions, got {len(positions)}"
            )
        return ArrayGeometry(
            wavelength=self.wavelength,
            positions=tuple(float(p) for p in positions),
            min_spacing=self.min_spacing,
            position_bound=self.position_bound,
        )

    def uniform_geometry(self) -> ArrayGeometry:
        """Array at the minimum spacing, centered on the origin.

        Built once per constraints instance and shared by every caller:
        the fixed baseline asks for it at every Monitoring step.
        """
        return self._uniform_geometry

    @cached_property
    def _uniform_geometry(self) -> ArrayGeometry:
        n = self.num_elements
        offsets = (np.arange(n) - (n - 1) / 2) * self.min_spacing
        return self.geometry(offsets.tolist())


@dataclass(frozen=True)
class DoASet:
    """Directions of arrival in degrees, each strictly inside (0, 180)."""

    angles_deg: tuple[float, ...]

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles_deg)
        object.__setattr__(self, "angles_deg", angles)
        if len(angles) < 1:
            raise ValidationError("DoASet needs at least one angle")
        for a in angles:
            if not (0.0 < a < 180.0) or not math.isfinite(a):
                raise ValidationError(f"angle {a} outside open interval (0, 180)")
        if len(set(angles)) != len(angles):
            raise ValidationError(f"angles must be pairwise distinct: {angles}")

    def __len__(self) -> int:
        return len(self.angles_deg)


class BeamGain(NamedTuple):
    linear: float
    db: float


class EigenPair(NamedTuple):
    eigenvalue: float
    eigenvector: np.ndarray
    # Always 1 (one direct solve); kept because the benchmark's trace reads it.
    iterations: int


def spatial_frequencies(wavelength: float, angles_deg) -> np.ndarray:
    """Per-direction phase rates alpha = (2 pi / wavelength) cos(theta)."""
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    return 2.0 * np.pi / wavelength * np.cos(np.deg2rad(angles))


def steering_vector(geometry: ArrayGeometry, angle_deg: float) -> np.ndarray:
    """Array response for a single direction.

    Entry n is exp(+j (2 pi / wavelength) x_n cos(theta)), so every entry
    has unit magnitude.
    """
    angle = float(angle_deg)
    if not (0.0 < angle < 180.0):
        raise ValidationError(f"angle {angle} outside open interval (0, 180)")
    return steering_matrix(geometry, [angle])[:, 0]


def steering_matrix(geometry: ArrayGeometry, angles_deg) -> np.ndarray:
    """Stacked steering vectors, one column per direction (N x K)."""
    alpha = spatial_frequencies(geometry.wavelength, angles_deg)
    return np.exp(1j * np.asarray(geometry.positions, dtype=float)[:, None] * alpha)


def gain_matrix(geometry: ArrayGeometry, doas: DoASet) -> np.ndarray:
    """Sum of steering outer products a_k a_k^H over all directions.

    Hermitian positive semidefinite with trace K * N, since each steering
    vector contributes ||a_k||^2 = N.
    """
    s = steering_matrix(geometry, doas.angles_deg)
    a = s @ s.conj().T
    return (a + a.conj().T) / 2


def sum_beam_gain(geometry: ArrayGeometry, weights, doas: DoASet) -> BeamGain:
    """Total received gain of one weight vector across all directions.

    G = sum_k |w^H a(theta_k)|^2, for weights checked to be a complex vector
    of unit L2 norm (within 1e-9). Returns BeamGain(G, 10 log10(G)), the dB
    value -inf once G falls below GAIN_FLOOR.
    """
    return beam_gain(geometry, check_weights(weights, geometry.num_elements), doas)


def beam_gain(geometry: ArrayGeometry, weights: np.ndarray, doas: DoASet) -> BeamGain:
    """sum_beam_gain without the weight check, for weights the package built
    itself: the lifecycle scores its own solutions through it."""
    responses = weights.conj() @ steering_matrix(geometry, doas.angles_deg)
    linear = float(np.sum(np.abs(responses) ** 2))
    return BeamGain(linear, to_db(linear))


def to_db(linear: float) -> float:
    """10 log10 of a linear gain, -inf below GAIN_FLOOR."""
    if linear < GAIN_FLOOR:
        return float("-inf")
    return 10.0 * math.log10(linear)


def check_weights(weights, num_elements: int) -> np.ndarray:
    """Validate a finite weight vector of unit L2 norm (within 1e-9) and
    return it as a complex array."""
    w = np.asarray(weights, dtype=complex)
    if w.shape != (num_elements,):
        raise ValidationError(f"weights shape {w.shape} does not match {num_elements} elements")
    if not (np.all(np.isfinite(w.real)) and np.all(np.isfinite(w.imag))):
        raise ValidationError("weights must be finite")
    norm = np.linalg.norm(w)
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError(f"weights must have unit norm, got {norm}")
    return w


def check_hermitian(matrix: np.ndarray, tolerance: float = 1e-12) -> np.ndarray:
    """Validate a square Hermitian matrix and return it as a complex array."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValidationError("matrix entries must be finite")
    if np.max(np.abs(m - m.conj().T)) > tolerance * scale:
        raise ValidationError("matrix is not Hermitian within tolerance")
    return m


def principal_eigenpair(matrix) -> EigenPair:
    """Dominant eigenvalue and eigenvector of a Hermitian matrix.

    One dense Hermitian eigensolve (LAPACK via numpy.linalg.eigh), so the
    cost does not depend on the gap between the top two eigenvalues. The
    returned eigenvector has unit norm and its first entry of magnitude
    above 1e-9 is made real nonnegative, which pins the otherwise free
    global phase.
    """
    a = check_hermitian(matrix)
    values, vectors = np.linalg.eigh(a)
    return EigenPair(float(values[-1]), _fix_phase(vectors[:, -1]), 1)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    for k in range(v.shape[0]):
        if abs(v[k]) > 1e-9:
            v = v * np.exp(-1j * np.angle(v[k]))
            v[k] = abs(v[k])
            break
    return v

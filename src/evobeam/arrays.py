"""Linear movable antenna arrays: geometry, steering vectors, and beam gain.

Element positions live on a line and are expressed in meters. Angles are in
degrees, measured from the array axis, and must lie strictly inside
(0, 180) so that every direction maps to a distinct spatial frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, ValidationError

# Linear gains below this floor are reported as -inf dB.
GAIN_FLOOR = 1e-300

# Slack used when validating geometry against its own constraints.
_GEOMETRY_SLACK = 1e-12


@dataclass(frozen=True)
class ArrayGeometry:
    """Element positions of a linear array together with its constraints.

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
        if not (self.wavelength > 0 and math.isfinite(self.wavelength)):
            raise ValidationError(f"wavelength must be positive, got {self.wavelength}")
        if not (self.min_spacing > 0 and math.isfinite(self.min_spacing)):
            raise ValidationError(f"min_spacing must be positive, got {self.min_spacing}")
        if not (self.position_bound > 0 and math.isfinite(self.position_bound)):
            raise ValidationError(
                f"position_bound must be positive, got {self.position_bound}"
            )
        pos = tuple(float(p) for p in self.positions)
        object.__setattr__(self, "positions", pos)
        if len(pos) < 1:
            raise ValidationError("geometry needs at least one element")
        n = len(pos)
        if n * self.min_spacing > 2 * self.position_bound + self.min_spacing:
            raise ConfigurationError(
                f"{n} elements with spacing {self.min_spacing} cannot fit in "
                f"[-{self.position_bound}, {self.position_bound}]"
            )
        for p in pos:
            if not math.isfinite(p):
                raise ValidationError("positions must be finite")
            if abs(p) > self.position_bound + _GEOMETRY_SLACK:
                raise ValidationError(
                    f"position {p} outside +-{self.position_bound}"
                )
        for a, b in zip(pos, pos[1:]):
            if b - a < self.min_spacing - _GEOMETRY_SLACK:
                raise ValidationError(
                    f"adjacent spacing {b - a} below minimum {self.min_spacing}"
                )

    @property
    def num_elements(self) -> int:
        return len(self.positions)

    @property
    def constraints(self) -> "ArrayConstraints":
        return ArrayConstraints(
            wavelength=self.wavelength,
            num_elements=self.num_elements,
            min_spacing=self.min_spacing,
            position_bound=self.position_bound,
        )

    def with_positions(self, positions: Sequence[float]) -> "ArrayGeometry":
        """Same constraints, different element positions."""
        return ArrayGeometry(
            wavelength=self.wavelength,
            positions=tuple(float(p) for p in positions),
            min_spacing=self.min_spacing,
            position_bound=self.position_bound,
        )


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
        if not (self.wavelength > 0 and math.isfinite(self.wavelength)):
            raise ValidationError(f"wavelength must be positive, got {self.wavelength}")
        if int(self.num_elements) != self.num_elements or self.num_elements < 1:
            raise ValidationError(f"num_elements must be a positive integer, got {self.num_elements}")
        object.__setattr__(self, "num_elements", int(self.num_elements))
        if self.min_spacing is None:
            object.__setattr__(self, "min_spacing", self.wavelength / 2)
        if self.position_bound is None:
            object.__setattr__(self, "position_bound", 5 * self.wavelength)
        if not (self.min_spacing > 0 and math.isfinite(self.min_spacing)):
            raise ValidationError(f"min_spacing must be positive, got {self.min_spacing}")
        if not (self.position_bound > 0 and math.isfinite(self.position_bound)):
            raise ValidationError(f"position_bound must be positive, got {self.position_bound}")
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
        """Array at the minimum spacing, centered on the origin."""
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
    pos = np.asarray(geometry.positions, dtype=float)
    return np.exp(1j * np.outer(pos, alpha))


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

    G = sum_k |w^H a(theta_k)|^2 for unit-norm w. The dB value is
    10 log10(G), with -inf once the linear gain falls below GAIN_FLOOR.

    Args:
        geometry: array layout.
        weights: complex weight vector, unit L2 norm within 1e-9.
        doas: directions to sum over.

    Returns:
        BeamGain(linear, db).
    """
    w = np.asarray(weights, dtype=complex)
    if w.shape != (geometry.num_elements,):
        raise ValidationError(
            f"weights shape {w.shape} does not match {geometry.num_elements} elements"
        )
    if not (np.all(np.isfinite(w.real)) and np.all(np.isfinite(w.imag))):
        raise ValidationError("weights must be finite")
    norm = np.linalg.norm(w)
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError(f"weights must have unit norm, got {norm}")
    s = steering_matrix(geometry, doas.angles_deg)
    responses = w.conj() @ s
    linear = float(np.sum(np.abs(responses) ** 2))
    if linear < GAIN_FLOOR:
        return BeamGain(linear, float("-inf"))
    return BeamGain(linear, 10.0 * math.log10(linear))


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

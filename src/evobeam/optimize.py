"""Joint optimization of element positions and beamforming weights.

The objective is the sum beam gain over a set of directions. For fixed
positions the optimal unit-norm weights are the dominant eigenvector of the
gain matrix, so the position search alternates exact weight updates with
projected position updates and the whole problem reduces to pushing up the
dominant eigenvalue.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .arrays import (
    ArrayConstraints,
    ArrayGeometry,
    DoASet,
    gain_matrix,
    principal_eigenpair,
    spatial_frequencies,
    steering_matrix,
    sum_beam_gain,
)
from .errors import ConfigurationError, ValidationError


class Strategy(str, Enum):
    """Position search strategies."""

    GRADIENT = "gradient"
    COORDINATE = "coordinate"
    BASELINE = "baseline"


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for optimize_movable.

    step_size and grid_resolution are expressed in wavelengths.
    gain_tolerance_db is the stopping threshold on per-iteration dB
    improvement.
    """

    strategy: Strategy = Strategy.GRADIENT
    restarts: int = 16
    step_size: float = 0.05
    grid_resolution: float = 0.01
    max_outer_iterations: int = 500
    gain_tolerance_db: float = 1e-6
    max_step_halvings: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in (Strategy.GRADIENT, Strategy.COORDINATE):
            raise ValidationError(
                f"optimizer.strategy must be gradient or coordinate, got {self.strategy}"
            )
        for name, minimum in (
            ("restarts", 1),
            ("max_outer_iterations", 1),
            ("max_step_halvings", 0),
        ):
            value = getattr(self, name)
            whole = isinstance(value, numbers.Integral) or (
                isinstance(value, float) and value.is_integer()
            )
            if isinstance(value, bool) or not whole or value < minimum:
                raise ValidationError(
                    f"optimizer.{name} must be an integer >= {minimum}, got {value!r}"
                )
            object.__setattr__(self, name, int(value))
        if not self.step_size > 0:
            raise ValidationError("optimizer.step_size must be positive")
        if not self.grid_resolution > 0:
            raise ValidationError("optimizer.grid_resolution must be positive")
        if not self.gain_tolerance_db > 0:
            raise ValidationError("optimizer.gain_tolerance_db must be positive")


@dataclass(frozen=True)
class BeamformingSolution:
    """One optimized array configuration.

    gain_linear always equals sum_beam_gain(geometry, weights, doas) for
    the directions the solution was computed against.
    """

    geometry: ArrayGeometry
    weights: np.ndarray
    gain_linear: float
    gain_db: float
    converged: bool
    iterations: int
    strategy_used: Strategy
    restart_index: int = 0
    gain_history_db: tuple = field(default=())


def optimal_weights(geometry: ArrayGeometry, doas: DoASet) -> np.ndarray:
    """Unit-norm weights maximizing the sum beam gain for fixed positions.

    The maximizer of w^H A w over unit vectors is the dominant eigenvector
    of the gain matrix A.
    """
    return principal_eigenpair(gain_matrix(geometry, doas)).eigenvector


def project_positions(positions, constraints: ArrayConstraints) -> np.ndarray:
    """Euclidean projection onto the feasible position set.

    Feasible means adjacent gaps of at least min_spacing and every element
    within +-position_bound. Substituting y_n = x_n - n * min_spacing turns
    the spacing constraints into monotonicity, and for a monotone vector
    the per-element boxes collapse to the constant box
    [-bound, bound - (N-1) * min_spacing]; the projection is then isotonic
    regression followed by a clip.
    """
    x = np.asarray(positions, dtype=float)
    if x.shape != (constraints.num_elements,):
        raise ValidationError(
            f"expected {constraints.num_elements} positions, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValidationError("positions must be finite")
    n = x.shape[0]
    d = constraints.min_spacing
    b = constraints.position_bound
    if n * d > 2 * b + d:
        raise ConfigurationError(
            f"{n} elements with min spacing {d} cannot fit in [-{b}, {b}]"
        )
    offsets = np.arange(n) * d
    y = _isotonic(x - offsets)
    np.clip(y, -b, b - (n - 1) * d, out=y)
    return y + offsets


def _isotonic(y: np.ndarray) -> np.ndarray:
    """Nondecreasing least-squares fit via pool-adjacent-violators."""
    values: list[float] = []
    weights: list[int] = []
    for v in y:
        values.append(float(v))
        weights.append(1)
        while len(values) > 1 and values[-2] > values[-1]:
            v2, w2 = values.pop(), weights.pop()
            v1, w1 = values.pop(), weights.pop()
            values.append((w1 * v1 + w2 * v2) / (w1 + w2))
            weights.append(w1 + w2)
    out = np.empty_like(y)
    i = 0
    for v, w in zip(values, weights):
        out[i : i + w] = v
        i += w
    return out


def position_gradient(geometry: ArrayGeometry, weights, doas: DoASet) -> np.ndarray:
    """Gradient of the sum beam gain with respect to element positions.

    With responses g_k = w^H a(theta_k) and spatial frequencies alpha_k,
    dG/dx_n = sum_k 2 Re{ conj(g_k) conj(w_n) j alpha_k e^{j alpha_k x_n} }.
    Weights are held fixed; when they are the optimal weights this is also
    the gradient of the eigenvalue objective.
    """
    w = np.asarray(weights, dtype=complex)
    if w.shape != (geometry.num_elements,):
        raise ValidationError(
            f"weights shape {w.shape} does not match {geometry.num_elements} elements"
        )
    if abs(np.linalg.norm(w) - 1.0) > 1e-9:
        raise ValidationError("weights must have unit norm")
    s = steering_matrix(geometry, doas.angles_deg)
    alpha = spatial_frequencies(geometry.wavelength, doas.angles_deg)
    g = w.conj() @ s
    terms = (1j * alpha * g.conj())[None, :] * s * w.conj()[:, None]
    return 2.0 * np.sum(terms.real, axis=1)


def fixed_baseline(doas: DoASet, constraints: ArrayConstraints) -> BeamformingSolution:
    """Best the immovable reference array can do against these directions.

    Uniform minimum-spacing layout centered on the origin, with weights
    re-optimized for the given directions.
    """
    geometry = constraints.uniform_geometry()
    pair = principal_eigenpair(gain_matrix(geometry, doas))
    gain = sum_beam_gain(geometry, pair.eigenvector, doas)
    return BeamformingSolution(
        geometry=geometry,
        weights=pair.eigenvector,
        gain_linear=gain.linear,
        gain_db=gain.db,
        converged=True,
        iterations=pair.iterations,
        strategy_used=Strategy.BASELINE,
        restart_index=0,
        gain_history_db=(gain.db,),
    )


def optimize_movable(
    doas: DoASet,
    config: OptimizerConfig,
    constraints: ArrayConstraints,
) -> BeamformingSolution:
    """Search element positions and weights for maximum sum beam gain.

    Multi-start: restart 0 begins at the uniform centered layout, so the
    result can never fall below the fixed baseline; the remaining restarts
    begin at seeded random feasible layouts. Each restart alternates an
    exact weight update with one position update (a projected gradient step
    or one round of per-coordinate grid search) and stops once the dB gain
    improves by less than gain_tolerance_db. The best restart wins; at
    equal gain the lowest restart index wins.

    Returns:
        BeamformingSolution for the winning restart, with the recorded
        per-iteration dB gains of that restart in gain_history_db.
    """
    alpha = spatial_frequencies(constraints.wavelength, doas.angles_deg)
    b = constraints.position_bound
    n = constraints.num_elements

    best = None  # (objective, restart_index, positions, history, iters, converged)
    for restart in range(config.restarts):
        if restart == 0:
            x0 = np.asarray(constraints.uniform_geometry().positions, dtype=float)
        else:
            rng = np.random.default_rng(config.seed + restart)
            x0 = project_positions(np.sort(rng.uniform(-b, b, n)), constraints)
        x, obj, history, iters, converged = _search_from(
            x0, alpha, config, constraints
        )
        if best is None or obj > best[0]:
            best = (obj, restart, x, history, iters, converged)

    obj, restart, x, history, iters, converged = best
    geometry = constraints.geometry(x.tolist())
    weights = optimal_weights(geometry, doas)
    gain = sum_beam_gain(geometry, weights, doas)
    return BeamformingSolution(
        geometry=geometry,
        weights=weights,
        gain_linear=gain.linear,
        gain_db=gain.db,
        converged=converged,
        iterations=iters,
        strategy_used=config.strategy,
        restart_index=restart,
        gain_history_db=tuple(history),
    )


def _search_from(x0, alpha, config, constraints):
    """One restart of the alternating search. Returns final state."""
    x = np.array(x0, dtype=float)
    obj = _eig_objective(x, alpha)
    history = [_to_db(obj)]
    iterations = 0
    converged = False
    for iterations in range(1, config.max_outer_iterations + 1):
        if config.strategy is Strategy.GRADIENT:
            x, obj = _gradient_step(x, obj, alpha, config, constraints)
        else:
            x, obj = _coordinate_round(x, obj, alpha, config, constraints)
        history.append(_to_db(obj))
        if history[-1] - history[-2] < config.gain_tolerance_db:
            converged = True
            break
    return x, obj, history, iterations, converged


def _gradient_step(x, obj, alpha, config, constraints):
    """One projected gradient ascent step with step halving."""
    lam, u, s = _eig_weights(x, alpha)
    w = s @ u
    w = w / np.linalg.norm(w)
    g = (1j * alpha * (w.conj() @ s).conj())[None, :] * s * w.conj()[:, None]
    grad = 2.0 * np.sum(g.real, axis=1)
    step = config.step_size * constraints.wavelength
    for _ in range(config.max_step_halvings + 1):
        candidate = project_positions(x + step * grad, constraints)
        cand_obj = _eig_objective(candidate, alpha)
        if cand_obj > obj:
            return candidate, cand_obj
        step /= 2
    return x, obj


def _coordinate_round(x, obj, alpha, config, constraints):
    """One Gauss-Seidel sweep: grid line search coordinate by coordinate."""
    d = constraints.min_spacing
    b = constraints.position_bound
    res = config.grid_resolution * constraints.wavelength
    n = x.shape[0]
    x = np.array(x, dtype=float)
    for i in range(n):
        lo = x[i - 1] + d if i > 0 else -b
        hi = x[i + 1] - d if i < n - 1 else b
        lo = max(lo, -b)
        hi = min(hi, b)
        if hi < lo:
            continue
        count = int(math.floor((hi - lo) / res)) + 1
        candidates = lo + res * np.arange(count)
        if candidates[-1] < hi - 1e-15:
            candidates = np.append(candidates, hi)
        trial = np.tile(x, (candidates.shape[0], 1))
        trial[:, i] = candidates
        values = _eig_objective_batch(trial, alpha)
        k = int(np.argmax(values))
        if values[k] > obj:
            x[i] = candidates[k]
            obj = float(values[k])
    return x, obj


def _eig_objective(positions, alpha):
    """Largest eigenvalue of the gain matrix, via the K x K Gram form."""
    s = np.exp(1j * np.outer(positions, alpha))
    gram = s.conj().T @ s
    return float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1])


def _eig_objective_batch(position_rows, alpha):
    s = np.exp(1j * position_rows[:, :, None] * alpha[None, None, :])
    gram = np.einsum("mnk,mnl->mkl", s.conj(), s)
    gram = (gram + np.conj(np.swapaxes(gram, 1, 2))) / 2
    return np.linalg.eigvalsh(gram)[:, -1]


def _eig_weights(positions, alpha):
    """Dominant Gram eigenpair plus the steering matrix it came from."""
    s = np.exp(1j * np.outer(positions, alpha))
    gram = s.conj().T @ s
    vals, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    return float(vals[-1]), vecs[:, -1], s


def _to_db(linear: float) -> float:
    if linear < 1e-300:
        return float("-inf")
    return 10.0 * math.log10(linear)

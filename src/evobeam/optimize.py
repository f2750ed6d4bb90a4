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

# Batched temporaries (the candidate Gram matrices of a coordinate sweep,
# the block-mean tables of the projection) are built in blocks of at most
# this many entries (256 KiB of complex numbers), so their memory
# does not grow with the number of restarts or the grid size.
_BLOCK_ENTRIES = 1 << 14


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
        for name in ("step_size", "grid_resolution", "gain_tolerance_db"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValidationError(
                    f"optimizer.{name} must be a positive finite number, got {value!r}"
                )


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

    positions is one layout of shape (N,) or a stack of shape (..., N);
    each layout is projected on its own, and layouts that are already
    feasible are returned unchanged.
    """
    x = np.asarray(positions, dtype=float)
    n = constraints.num_elements
    if x.ndim == 0 or x.shape[-1] != n:
        raise ValidationError(f"expected {n} positions, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("positions must be finite")
    d = constraints.min_spacing
    b = constraints.position_bound
    if n * d > 2 * b + d:
        raise ConfigurationError(
            f"{n} elements with min spacing {d} cannot fit in [-{b}, {b}]"
        )
    rows = x.reshape(-1, n).copy()
    infeasible = np.flatnonzero(
        np.any(np.diff(rows, axis=1) < d, axis=1) | np.any(np.abs(rows) > b, axis=1)
    )
    offsets = np.arange(n) * d
    block = max(1, _BLOCK_ENTRIES // (n * n))
    for start in range(0, infeasible.size, block):
        chosen = infeasible[start : start + block]
        y = _isotonic_rows(rows[chosen] - offsets)
        np.clip(y, -b, b - (n - 1) * d, out=y)
        rows[chosen] = y + offsets
    return rows.reshape(x.shape)


def _isotonic_rows(y: np.ndarray) -> np.ndarray:
    """Nondecreasing least-squares fit of each row of y.

    Uses the min-max formula fit_i = max_{j<=i} min_{k>=i} mean(y[j..k]),
    with every block mean taken from one prefix sum: O(N^2) per row.
    """
    n = y.shape[1]
    first = np.arange(n)[:, None]
    last = np.arange(n)[None, :]
    prefix = np.concatenate((np.zeros((y.shape[0], 1)), np.cumsum(y, axis=1)), axis=1)
    means = (prefix[:, None, 1:] - prefix[:, :-1, None]) / np.maximum(last - first + 1, 1)
    means[:, first > last] = np.inf
    # suffix minimum over the block end k >= i, for every block start j
    upper = np.minimum.accumulate(means[:, :, ::-1], axis=2)[:, :, ::-1]
    upper[:, first > last] = -np.inf
    return upper.max(axis=1)


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
    return _gradient(s, w, alpha)


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
    improves by less than gain_tolerance_db. The restarts advance in
    lockstep as one batch, and every update is vectorized over the restarts
    still running, projection included. The best restart wins; at equal
    gain the lowest restart index wins.

    Returns:
        BeamformingSolution for the winning restart, with the recorded
        per-iteration dB gains of that restart in gain_history_db.
    """
    alpha = spatial_frequencies(constraints.wavelength, doas.angles_deg)
    b = constraints.position_bound
    n = constraints.num_elements
    x = np.empty((config.restarts, n))
    x[0] = constraints.uniform_geometry().positions
    for restart in range(1, config.restarts):
        x[restart] = np.sort(np.random.default_rng(config.seed + restart).uniform(-b, b, n))
    x[1:] = project_positions(x[1:], constraints)
    update = _gradient_steps if config.strategy is Strategy.GRADIENT else _coordinate_sweeps

    obj = _lambda_max(_gram(_steering(x, alpha)))
    histories = [[_to_db(v)] for v in obj]
    iterations = np.zeros(config.restarts, dtype=int)
    converged = np.zeros(config.restarts, dtype=bool)
    active = np.arange(config.restarts)
    for iteration in range(1, config.max_outer_iterations + 1):
        x_active, obj_active = x[active], obj[active]
        update(x_active, obj_active, alpha, config, constraints)
        x[active], obj[active] = x_active, obj_active
        iterations[active] = iteration
        for restart, value in zip(active, obj_active):
            history = histories[restart]
            history.append(_to_db(value))
            converged[restart] = history[-1] - history[-2] < config.gain_tolerance_db
        active = active[~converged[active]]
        if active.size == 0:
            break

    restart = int(np.argmax(obj))
    geometry = constraints.geometry(x[restart].tolist())
    weights = optimal_weights(geometry, doas)
    gain = sum_beam_gain(geometry, weights, doas)
    return BeamformingSolution(
        geometry=geometry,
        weights=weights,
        gain_linear=gain.linear,
        gain_db=gain.db,
        converged=bool(converged[restart]),
        iterations=int(iterations[restart]),
        strategy_used=config.strategy,
        restart_index=restart,
        gain_history_db=tuple(histories[restart]),
    )


def _gradient_steps(x, obj, alpha, config, constraints):
    """One projected gradient ascent step with step halving, per row.

    x (rows, N) and obj (rows,) are updated in place. Every row starts at
    the same step; a row leaves the halving loop once its projected step
    raises its objective, and keeps its position if no step does.
    """
    s = _steering(x, alpha)
    _, vecs = np.linalg.eigh(_gram(s))
    w = np.einsum("rnk,rk->rn", s, vecs[:, :, -1])
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    grad = _gradient(s, w, alpha)
    step = config.step_size * constraints.wavelength
    pending = np.arange(x.shape[0])
    for _ in range(config.max_step_halvings + 1):
        candidate = project_positions(x[pending] + step * grad[pending], constraints)
        value = _lambda_max(_gram(_steering(candidate, alpha)))
        better = value > obj[pending]
        x[pending[better]] = candidate[better]
        obj[pending[better]] = value[better]
        pending = pending[~better]
        if pending.size == 0:
            break
        step /= 2


def _coordinate_sweeps(x, obj, alpha, config, constraints):
    """One Gauss-Seidel sweep of grid line searches, coordinate by coordinate.

    x (rows, N) and obj (rows,) are updated in place. For coordinate i each
    row scans a grid from its lower to its upper feasible limit, with the
    upper limit appended when the grid misses it, and moves to the first
    best candidate if that beats its objective. Moving element i replaces
    row s_i of the steering matrix, so a candidate at c scores
    lambda_max(G - s_i^H s_i + s_c^H s_c): O(K^2) per candidate.
    """
    d = constraints.min_spacing
    b = constraints.position_bound
    res = config.grid_resolution * constraints.wavelength
    rows, n = x.shape
    k = alpha.shape[0]
    block = max(1, _BLOCK_ENTRIES // (k * k))
    for i in range(n):
        lo = np.maximum(x[:, i - 1] + d, -b) if i > 0 else np.full(rows, -b)
        hi = np.minimum(x[:, i + 1] - d, b) if i < n - 1 else np.full(rows, b)
        valid = hi >= lo
        grid = np.where(valid, np.floor((hi - lo) / res) + 1, 0).astype(int)
        counts = grid + (valid & (lo + res * (grid - 1) < hi - 1e-15))
        ends = np.cumsum(counts)
        s = _steering(x, alpha)
        # recomputed from the positions for every coordinate, so rank-2
        # updates never accumulate rounding error
        rest = _gram(s) - s[:, i, :, None].conj() * s[:, i, None, :]
        best = obj.copy()
        best_at = x[:, i].copy()
        for start in range(0, int(ends[-1]), block):
            pair = np.arange(start, min(start + block, int(ends[-1])))
            row = np.searchsorted(ends, pair, side="right")
            index = pair - (ends[row] - counts[row])
            candidate = np.where(index == grid[row], hi[row], lo[row] + res * index)
            sc = _steering(candidate, alpha)
            gram = rest[row]
            gram += sc[:, :, None].conj() * sc[:, None, :]
            value = _lambda_max(gram)
            # first maximum of every row's run of pairs in this block
            opens = np.diff(row, prepend=-1) != 0
            head = np.flatnonzero(opens)
            peak = np.maximum.reduceat(value, head)[np.cumsum(opens) - 1]
            at_peak = np.where(value == peak, np.arange(pair.size), pair.size)
            pick = np.minimum.reduceat(at_peak, head)
            owner = row[head]
            better = value[pick] > best[owner]
            best[owner[better]] = value[pick[better]]
            best_at[owner[better]] = candidate[pick[better]]
        x[:, i] = best_at
        obj[:] = best


def _steering(positions, alpha):
    """Steering matrices exp(j x_n alpha_k), shape (..., N, K)."""
    return np.exp(1j * positions[..., None] * alpha)


def _gram(s):
    """K x K Gram matrices S^H S, whose eigenvalues are the gain matrix's nonzero ones."""
    return np.matmul(np.swapaxes(s, -1, -2).conj(), s)


def _lambda_max(gram):
    return np.linalg.eigvalsh(gram)[..., -1]


def _gradient(s, w, alpha):
    """position_gradient for stacked steering matrices (..., N, K) and weights (..., N)."""
    g = np.einsum("...n,...nk->...k", w.conj(), s)
    return 2.0 * (w.conj() * np.einsum("...nk,...k->...n", s, 1j * alpha * g.conj())).real


def _to_db(linear: float) -> float:
    if linear < 1e-300:
        return float("-inf")
    return 10.0 * math.log10(linear)

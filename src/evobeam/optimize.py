"""Joint optimization of element positions and beamforming weights.

The objective is the sum beam gain over a set of directions. For fixed
positions the optimal unit-norm weights are the dominant eigenvector of the
gain matrix, so the position search alternates exact weight updates with
projected position updates and the whole problem reduces to pushing up the
dominant eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrays import (
    ArrayConstraints,
    ArrayGeometry,
    DoASet,
    check_weights,
    gain_matrix,
    principal_eigenpair,
    spatial_frequencies,
    stacked_steering,
    steering_matrix,
    sum_beam_gain,
    to_db,
)
from .errors import ValidationError, check_count

# Entries a batched update builds at a time (128 KiB of floats), so its
# memory does not grow with the number of restarts: the projection builds
# its N x N block-mean tables for at most this many entries at once, and
# the halving ladder adds step levels to a batch only while its steering
# matrices (levels x rows x N x K entries) stay within it. One level of
# rows always goes in one batch.
_BLOCK_ENTRIES = 1 << 14

# every restart adds a row of positions and a K x N complex steering matrix
# to each batched update (up to 0.25 MB at arrays.MAX_ELEMENTS); an
# unbounded count would fail only inside the solve, with an allocation error
MAX_RESTARTS = 1024

# The search schedule: each gradient step first tries STEP_SIZE wavelengths
# and halves it up to MAX_STEP_HALVINGS times until the gain rises; a
# restart stops once an iteration adds less than GAIN_TOLERANCE_DB, or
# after MAX_OUTER_ITERATIONS iterations.
STEP_SIZE = 0.05
MAX_STEP_HALVINGS = 20
GAIN_TOLERANCE_DB = 1e-6
MAX_OUTER_ITERATIONS = 500


@dataclass(frozen=True)
class OptimizerConfig:
    """The budget of optimize_movable: how many restarts, seeded how.

    Restart r > 0 starts at a random layout drawn from seed + r.
    """

    restarts: int = 16
    seed: int = 0

    def __post_init__(self):
        restarts = check_count("optimizer.restarts", self.restarts, 1, MAX_RESTARTS)
        object.__setattr__(self, "restarts", restarts)
        object.__setattr__(self, "seed", check_count("optimizer.seed", self.seed, 0))


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
    w = check_weights(weights, geometry.num_elements)
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
    exact weight update with one projected gradient step on the positions
    and stops once the dB gain improves by less than GAIN_TOLERANCE_DB.
    The restarts advance in lockstep as one batch, and every update is
    vectorized over the restarts still running, projection included. Each
    iteration first scores, in one batch, as many step halvings as the
    previous one needed (see _gradient_steps); this changes how steps are
    batched, never which step is taken. The best restart wins; at equal
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

    obj = _lambda_max(_gram(stacked_steering(x, alpha)))
    histories = [[to_db(v)] for v in obj]
    iterations = np.zeros(config.restarts, dtype=int)
    converged = np.zeros(config.restarts, dtype=bool)
    active = np.arange(config.restarts)
    depth = 0
    for iteration in range(1, MAX_OUTER_ITERATIONS + 1):
        x_active, obj_active = x[active], obj[active]
        depth = _gradient_steps(x_active, obj_active, alpha, constraints, depth)
        x[active], obj[active] = x_active, obj_active
        iterations[active] = iteration
        for restart, value in zip(active, obj_active):
            history = histories[restart]
            history.append(to_db(value))
            converged[restart] = history[-1] - history[-2] < GAIN_TOLERANCE_DB
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
        restart_index=restart,
        gain_history_db=tuple(histories[restart]),
    )


def _gradient_steps(x, obj, alpha, constraints, depth):
    """One projected gradient ascent step with step halving, per row.

    x (rows, N) and obj (rows,) are updated in place. Every row tries the
    steps STEP_SIZE * wavelength * 2^-j for j = 0..MAX_STEP_HALVINGS in
    turn and takes the first whose projection raises its objective, or
    keeps its position if none does. The first batch scores levels
    0..depth for every row through one projection and one eigen-solve
    (fewer if that would exceed _BLOCK_ENTRIES); rows with no improving
    level there go on one level per batch. Taking each row's first
    improving level makes the result the same for any depth.

    Returns the deepest level any row accepted, the depth hint for the
    next call.
    """
    s = stacked_steering(x, alpha)
    _, vecs = np.linalg.eigh(_gram(s))
    w = np.einsum("rnk,rk->rn", s, vecs[:, :, -1])
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    grad = _gradient(s, w, alpha)
    # halving is exact in binary floating point, so level j is bit for bit
    # the step after j halvings
    steps = STEP_SIZE * constraints.wavelength * 0.5 ** np.arange(MAX_STEP_HALVINGS + 1)
    width = max(1, min(depth + 1, _BLOCK_ENTRIES // (x.size * alpha.size)))
    pending = np.arange(x.shape[0])
    level = deepest = 0
    while pending.size and level < steps.size:
        ladder = steps[level : level + width, None, None]
        candidate = project_positions(x[pending] + ladder * grad[pending], constraints)
        value = _lambda_max(_gram(stacked_steering(candidate, alpha)))
        better = value > obj[pending]
        hit = better.any(axis=0)
        first = better.argmax(axis=0)[hit]
        x[pending[hit]] = candidate[first, hit]
        obj[pending[hit]] = value[first, hit]
        if first.size:
            deepest = level + int(first.max())
        pending = pending[~hit]
        level += ladder.shape[0]
        width = 1
    return deepest


def _gram(s):
    """K x K Gram matrices S^H S, whose eigenvalues are the gain matrix's nonzero ones."""
    return np.matmul(np.swapaxes(s, -1, -2).conj(), s)


def _lambda_max(gram):
    return np.linalg.eigvalsh(gram)[..., -1]


def _gradient(s, w, alpha):
    """position_gradient for stacked steering matrices (..., N, K) and weights (..., N)."""
    g = np.einsum("...n,...nk->...k", w.conj(), s)
    return 2.0 * (w.conj() * np.einsum("...nk,...k->...n", s, 1j * alpha * g.conj())).real

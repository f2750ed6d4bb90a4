"""Joint optimization of element positions and beamforming weights.

For fixed positions the optimal unit-norm weights are the dominant
eigenvector of the gain matrix, so maximizing the sum beam gain means
pushing up lambda_max, the top eigenvalue of the K x K Gram S(x)^H S(x).
The position search is a majorize-maximize ascent (Sun, Babu & Palomar,
IEEE Trans. Signal Process. 2017). With u the top Gram eigenvector at x
and f(t) = |sum_k u_k exp(j alpha_k t)|^2, every layout x' has
lambda_max(x') >= ||S(x') u||^2 = sum_n f(x'_n), with equality at x' = x.
All elements share f, so the grid layout that maximizes the bound within
the spacing and position limits is a longest path with a minimum hop, which
dynamic programming finds exactly (as in Mei et al., IEEE Wireless Commun.
Lett. 2024). No step lowers lambda_max, and none needs a step size.
"""

from __future__ import annotations

import math
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
    steering_matrix,
    sum_beam_gain,
    to_db,
)
from .errors import ValidationError, check_count

# Entries a batched table holds at a time (128 KiB of floats), so memory
# does not grow with the number of restarts: the projection's N x N
# block-mean tables and the search's dynamic-programming tables (rows x N x
# grid points) take rows in batches within it, at least one row a batch.
_BLOCK_ENTRIES = 1 << 14

# every restart adds a row of grid scores and a K x N complex steering
# matrix to each step (up to 0.25 MB at arrays.MAX_ELEMENTS); an
# unbounded count would fail only inside the solve, with an allocation error
MAX_RESTARTS = 1024

# The search grid: GRID_PER_WAVELENGTH points per wavelength, coarsened so
# that it holds at most MAX_GRID_POINTS. A restart stops once a step adds
# no more than GAIN_TOLERANCE_DB, or after MAX_OUTER_ITERATIONS steps.
GRID_PER_WAVELENGTH = 32
MAX_GRID_POINTS = 4096
GAIN_TOLERANCE_DB = 1e-6
MAX_OUTER_ITERATIONS = 500


@dataclass(frozen=True)
class OptimizerConfig:
    """The budget of optimize_movable: how many restarts, seeded how.

    Restart r > 0 starts from a random eigenvector estimate drawn from
    seed + r.
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
    g = w.conj() @ s
    return 2.0 * (w.conj() * (s @ (1j * alpha * g.conj()))).real


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


def position_grid(constraints: ArrayConstraints) -> tuple[np.ndarray, int]:
    """The search grid's points in meters, and its hop: the grid steps in one
    min_spacing, so the uniform layout's elements sit hop points apart.

    The step is about 1 / GRID_PER_WAVELENGTH wavelengths; a grid that would
    exceed MAX_GRID_POINTS gets a smaller hop (at least 1), and then keeps
    the MAX_GRID_POINTS points centered on the uniform layout.
    """
    n, d, b = constraints.num_elements, constraints.min_spacing, constraints.position_bound
    cap = MAX_GRID_POINTS
    # either ratio may overflow to infinity, so cap before rounding
    fine, fit = d * GRID_PER_WAVELENGTH / constraints.wavelength, (cap - 1) * (d / b) / 2
    hop = max(1, min(math.ceil(min(fine, cap)), math.floor(min(fit, cap))))
    uniform = constraints.uniform_geometry().positions
    room = max(0.0, b - (uniform[-1] - uniform[0]) / 2)
    extra = min(math.floor(min(room * hop / d, cap)), (cap - 1 - (n - 1) * hop) // 2)
    return uniform[0] + (np.arange((n - 1) * hop + 1 + 2 * extra) - extra) * (d / hop), hop


def optimize_movable(
    doas: DoASet,
    config: OptimizerConfig,
    constraints: ArrayConstraints,
) -> BeamformingSolution:
    """Search element positions and weights for maximum sum beam gain.

    Multi-start majorize-maximize ascent on position_grid. Restart 0 begins
    at the uniform layout, so the result never falls below the fixed
    baseline; restart r > 0 begins from a random complex u drawn from
    seed + r. A restart keeps a step only if it raises the gain by more than
    GAIN_TOLERANCE_DB, and otherwise has converged. The restarts advance in
    lockstep as one batch. The best restart wins, the lowest index on ties;
    its steps are the solution's iterations, and the gains of the layouts
    it kept its gain_history_db.
    """
    alpha = spatial_frequencies(constraints.wavelength, doas.angles_deg)
    points, hop = position_grid(constraints)
    phases = np.exp(1j * points[:, None] * alpha)  # one steering row per grid point
    n, k, restarts = constraints.num_elements, alpha.size, config.restarts
    # each restart's layout as grid indices; restart 0 starts uniform
    layout = np.zeros((restarts, n), dtype=int)
    layout[0] = (points.size - 1 - (n - 1) * hop) // 2 + hop * np.arange(n)
    obj, u = np.full(restarts, -np.inf), np.empty((restarts, k), dtype=complex)
    obj[:1], u[:1] = _top_eigenpairs(phases[layout[:1]])
    for restart in range(1, restarts):
        rng = np.random.default_rng(config.seed + restart)
        u[restart] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    histories = [[to_db(obj[0])]] + [[] for _ in range(1, restarts)]
    iterations = np.zeros(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    for iteration in range(1, MAX_OUTER_ITERATIONS + 1):
        candidate = _best_layouts(np.abs(u[active] @ phases.T) ** 2, n, hop)
        value, vectors = _top_eigenpairs(phases[candidate])
        iterations[active] = iteration
        for row, restart in enumerate(active):
            history, gain_db = histories[restart], to_db(value[row])
            if history and gain_db - history[-1] <= GAIN_TOLERANCE_DB:
                converged[restart] = True
            else:
                history.append(gain_db)
                layout[restart], obj[restart], u[restart] = candidate[row], value[row], vectors[row]
        active = active[~converged[active]]
        if active.size == 0:
            break

    restart = int(np.argmax(obj))
    geometry = constraints.geometry(points[layout[restart]].tolist())
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


def _top_eigenpairs(s):
    """Top eigenpairs of the K x K Grams S^H S of steering matrices (rows, N, K)."""
    values, vectors = np.linalg.eigh(np.matmul(np.swapaxes(s, -1, -2).conj(), s))
    return values[:, -1], vectors[:, :, -1]


def _best_layouts(scores, n, hop):
    """Per row of scores (rows, G), the n indices with gaps of at least hop
    that maximize the summed score.

    With i_m = m * hop + j_m the gaps become j_0 <= ... <= j_{n-1}. Table m
    holds per j the best total of elements 0..m with j_m <= j, the running
    maximum of scores[m * hop + j] plus table m - 1; the backtrack takes,
    from the last element, the first j where a table reaches the value the
    next element built on. Tables hold at most _BLOCK_ENTRIES entries at once.
    """
    span = scores.shape[1] - (n - 1) * hop
    # window m of a row is its scores[m * hop : m * hop + span]
    windows = np.lib.stride_tricks.sliding_window_view(scores, span, axis=1)[:, ::hop]
    index = np.empty((len(scores), n), dtype=int)
    block = max(1, _BLOCK_ENTRIES // (n * span))
    buffer = np.empty((min(block, len(scores)), n, span))  # one block's tables
    for start in range(0, len(scores), block):
        w, picked = windows[start : start + block], index[start : start + block]
        tables, rows = buffer[: len(w)], np.arange(len(w))
        np.maximum.accumulate(w[:, 0], axis=1, out=tables[:, 0])
        for m in range(1, n):
            np.maximum.accumulate(w[:, m] + tables[:, m - 1], axis=1, out=tables[:, m])
        picked[:, -1] = np.argmax(tables[:, -1], axis=1)
        for m in range(n - 2, -1, -1):
            reached = tables[rows, m, picked[:, m + 1]]
            picked[:, m] = np.argmax(tables[:, m] >= reached[:, None], axis=1)
    return index + hop * np.arange(n)

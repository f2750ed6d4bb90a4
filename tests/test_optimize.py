"""Weight optimization, position projection, gradients, and the joint search."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evobeam.arrays import ArrayConstraints, DoASet, gain_matrix, steering_vector, sum_beam_gain
from evobeam.errors import ConfigurationError, ValidationError
from evobeam.optimize import (
    OptimizerConfig,
    Strategy,
    fixed_baseline,
    optimal_weights,
    optimize_movable,
    position_gradient,
    project_positions,
)

WAVELENGTH = 0.125


# ---------------------------------------------------------------- oracles


def lambda_max_2x2(a):
    """Closed-form dominant eigenvalue of a 2x2 Hermitian matrix."""
    tr = np.trace(a).real
    det = np.linalg.det(a).real
    return (tr + math.sqrt(max(tr * tr - 4 * det, 0.0))) / 2


def qp_projection_oracle(x, min_spacing, bound):
    """Brute-force active-set solve of the projection quadratic program."""
    x = np.asarray(x, float)
    n = x.shape[0]
    cons = []  # rows (a, b) meaning a . v >= b
    for i in range(n - 1):
        row = np.zeros(n)
        row[i], row[i + 1] = -1.0, 1.0
        cons.append((row, min_spacing))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cons.append((e, -bound))
        cons.append((-e, -bound))
    best = None
    for r in range(len(cons) + 1):
        for subset in itertools.combinations(range(len(cons)), r):
            a = np.array([cons[i][0] for i in subset]).reshape(len(subset), n)
            b = np.array([cons[i][1] for i in subset])
            if len(subset) == 0:
                v = x.copy()
            else:
                try:
                    lam = np.linalg.solve(a @ a.T, b - a @ x)
                except np.linalg.LinAlgError:
                    continue
                v = x + a.T @ lam
            if all(row @ v >= bb - 1e-9 for row, bb in cons):
                obj = float(np.sum((v - x) ** 2))
                if best is None or obj < best[0] - 1e-15:
                    best = (obj, v)
    return best[1]


def direct_gain(positions, weights, angles_deg, wavelength=WAVELENGTH):
    """Sum beam gain computed from first principles, bypassing the package."""
    alpha = 2 * np.pi / wavelength * np.cos(np.deg2rad(np.asarray(angles_deg)))
    s = np.exp(1j * np.outer(positions, alpha))
    return float(np.sum(np.abs(np.conj(weights) @ s) ** 2))


def central_difference_gradient(positions, weights, angles_deg, h):
    grad = np.zeros(len(positions))
    for i in range(len(positions)):
        xp = np.array(positions, float)
        xm = np.array(positions, float)
        xp[i] += h
        xm[i] -= h
        grad[i] = (
            direct_gain(xp, weights, angles_deg) - direct_gain(xm, weights, angles_deg)
        ) / (2 * h)
    return grad


def random_doas(rng, k, lo=10.0, hi=170.0, min_sep=2.0):
    angles = []
    while len(angles) < k:
        a = float(rng.uniform(lo, hi))
        if all(abs(a - b) >= min_sep for b in angles):
            angles.append(a)
    return DoASet(tuple(angles))


# ---------------------------------------------------------------- optimal_weights


def test_single_source_weights_are_the_matched_filter():
    c = ArrayConstraints()
    g = c.uniform_geometry()
    doas = DoASet((64.0,))
    w = optimal_weights(g, doas)
    a = steering_vector(g, 64.0) / np.sqrt(8)
    # equal up to a global phase
    overlap = abs(np.vdot(a, w))
    assert overlap > 1.0 - 1e-9
    assert abs(sum_beam_gain(g, w, doas).linear - 8.0) < 1e-9


def test_two_source_gain_matches_closed_form_eigenvalue():
    c = ArrayConstraints(num_elements=2)
    g = c.uniform_geometry()
    doas = DoASet((90.0, 60.0))
    w = optimal_weights(g, doas)
    achieved = sum_beam_gain(g, w, doas).linear
    assert_allclose(achieved, lambda_max_2x2(gain_matrix(g, doas)), rtol=1e-12)


def test_weights_dominate_random_sampling():
    rng = np.random.default_rng(101)
    c = ArrayConstraints(num_elements=4)
    g = c.uniform_geometry()
    doas = random_doas(rng, 3)
    best = sum_beam_gain(g, optimal_weights(g, doas), doas).linear
    w = rng.standard_normal((1000, 4)) + 1j * rng.standard_normal((1000, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    a = gain_matrix(g, doas)
    sampled = np.real(np.einsum("mi,ij,mj->m", w.conj(), a, w))
    assert best >= np.max(sampled) - 1e-9


# ---------------------------------------------------------------- projection


def test_projection_leaves_feasible_points_alone():
    c = ArrayConstraints()
    x = np.asarray(c.uniform_geometry().positions)
    assert_allclose(project_positions(x, c), x, rtol=0, atol=0)


def test_projection_two_element_analytic_case():
    c = ArrayConstraints(num_elements=2)
    out = project_positions([0.0, 0.01], c)
    assert_allclose(out, [-0.02625, 0.03625], atol=1e-12)


def test_projection_single_element_clamps_to_bound():
    c = ArrayConstraints(num_elements=1)
    assert_allclose(project_positions([0.7], c), [0.625], atol=1e-15)


def test_projection_matches_quadratic_program_oracle():
    rng = np.random.default_rng(7)
    c = ArrayConstraints(num_elements=3)
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, 3)
        ours = project_positions(x, c)
        oracle = qp_projection_oracle(x, c.min_spacing, c.position_bound)
        assert np.max(np.abs(ours - oracle)) <= 1e-6


def test_projection_is_idempotent():
    rng = np.random.default_rng(8)
    c = ArrayConstraints()
    for _ in range(50):
        p = project_positions(rng.uniform(-2.0, 2.0, 8), c)
        again = project_positions(p, c)
        assert np.max(np.abs(again - p)) <= 1e-12
        # and exactly feasible
        assert np.all(np.diff(p) >= c.min_spacing - 1e-12)
        assert np.max(np.abs(p)) <= c.position_bound + 1e-12


def test_projection_with_infeasible_constraints_raises():
    c = ArrayConstraints(num_elements=8)
    squeezed = ArrayConstraints(
        num_elements=8, min_spacing=0.0625, position_bound=0.625
    )
    assert squeezed  # defaults are feasible
    with pytest.raises(ConfigurationError):
        ArrayConstraints(num_elements=8, min_spacing=0.2, position_bound=0.6)
    with pytest.raises(ValidationError):
        project_positions([0.0, 1.0], c)  # wrong length


# ---------------------------------------------------------------- gradient


def test_gradient_is_zero_for_single_source_matched_weights():
    c = ArrayConstraints()
    g = c.uniform_geometry()
    doas = DoASet((48.0,))
    w = steering_vector(g, 48.0) / np.sqrt(8)
    grad = position_gradient(g, w, doas)
    assert np.max(np.abs(grad)) < 1e-9


def test_gradient_is_zero_at_broadside():
    c = ArrayConstraints()
    g = c.uniform_geometry()
    doas = DoASet((90.0,))
    w = optimal_weights(g, doas)
    grad = position_gradient(g, w, doas)
    # alpha = 0 at 90 degrees, so moving elements changes nothing
    assert np.max(np.abs(grad)) < 1e-9


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(999)
    h = 1e-6 * WAVELENGTH
    for _ in range(50):
        n = int(rng.integers(2, 9))
        c = ArrayConstraints(num_elements=n)
        # keep slack so finite differences stay feasible in spirit
        base = np.sort(rng.uniform(-c.position_bound + 0.01, c.position_bound - 0.01, n))
        for i in range(1, n):
            base[i] = max(base[i], base[i - 1] + c.min_spacing + 1e-3)
        base -= max(0.0, base[-1] - c.position_bound)
        g = c.geometry(base.tolist())
        doas = random_doas(rng, int(rng.integers(1, 4)))
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w /= np.linalg.norm(w)
        analytic = position_gradient(g, w, doas)
        numeric = central_difference_gradient(base, w, doas.angles_deg, h)
        denom = np.abs(analytic) + np.abs(numeric) + 1e-8
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


# ---------------------------------------------------------------- fixed baseline


def test_baseline_single_source_gain():
    sol = fixed_baseline(DoASet((112.0,)), ArrayConstraints())
    assert abs(sol.gain_db - 9.030900) < 1e-6
    assert sol.strategy_used is Strategy.BASELINE
    assert sol.converged


def test_baseline_is_deterministic():
    doas = DoASet((41.0, 95.0, 133.0))
    c = ArrayConstraints()
    s1 = fixed_baseline(doas, c)
    s2 = fixed_baseline(doas, c)
    assert s1.gain_linear == s2.gain_linear
    assert np.array_equal(s1.weights, s2.weights)


def test_baseline_gain_matches_dense_oracle():
    rng = np.random.default_rng(55)
    c = ArrayConstraints()
    for _ in range(20):
        doas = random_doas(rng, 3)
        sol = fixed_baseline(doas, c)
        oracle = np.linalg.eigvalsh(gain_matrix(sol.geometry, doas))[-1]
        assert_allclose(sol.gain_linear, oracle, rtol=1e-9)


def test_baseline_on_near_degenerate_pair_matches_dense_oracle():
    # Top two eigenvalues nearly coincide here, which once stalled the solve.
    doas = DoASet((75.5225 + 1e-5, 90.0))
    sol = fixed_baseline(doas, ArrayConstraints())
    oracle = np.linalg.eigvalsh(gain_matrix(sol.geometry, doas))[-1]
    assert abs(sol.gain_db - 10 * math.log10(oracle)) <= 1e-9
    assert abs(sol.gain_db - 9.030907) < 1e-6


# ---------------------------------------------------------------- joint search


def test_single_source_search_hits_the_matched_filter_bound():
    sol = optimize_movable(DoASet((77.0,)), OptimizerConfig(restarts=4), ArrayConstraints())
    assert abs(sol.gain_db - 9.030900) < 1e-6
    assert sol.converged


def test_two_element_search_matches_exhaustive_grid():
    # lambda_max for N=2 is 2 + |sum_k exp(j alpha_k (x1 - x2))|, a function
    # of the separation only; scan separations at the search grid resolution.
    c = ArrayConstraints(num_elements=2, position_bound=2 * WAVELENGTH)
    doas = DoASet((55.0, 100.0))
    alpha = 2 * np.pi / WAVELENGTH * np.cos(np.deg2rad(np.asarray(doas.angles_deg)))
    seps = np.arange(c.min_spacing, 2 * c.position_bound + 1e-12, 0.01 * WAVELENGTH)
    grid_best = np.max(2 + np.abs(np.sum(np.exp(1j * np.outer(seps, alpha)), axis=1)))
    for strategy in (Strategy.GRADIENT, Strategy.COORDINATE):
        sol = optimize_movable(doas, OptimizerConfig(strategy=strategy, seed=3), c)
        assert 10 * math.log10(grid_best) - sol.gain_db < 0.1


def test_search_dominates_fixed_baseline():
    rng = np.random.default_rng(77)
    c = ArrayConstraints()
    for _ in range(5):
        doas = random_doas(rng, 3)
        movable = optimize_movable(doas, OptimizerConfig(seed=5), c)
        fixed = fixed_baseline(doas, c)
        assert movable.gain_linear >= fixed.gain_linear - 1e-9


def test_search_is_deterministic():
    doas = DoASet((30.0, 90.0, 140.0))
    cfg = OptimizerConfig(seed=42)
    c = ArrayConstraints()
    s1 = optimize_movable(doas, cfg, c)
    s2 = optimize_movable(doas, cfg, c)
    assert s1.gain_linear == s2.gain_linear
    assert s1.restart_index == s2.restart_index
    assert np.array_equal(np.asarray(s1.geometry.positions), np.asarray(s2.geometry.positions))
    assert np.array_equal(s1.weights, s2.weights)


def test_search_history_is_monotone_and_feasible():
    rng = np.random.default_rng(13)
    c = ArrayConstraints()
    for strategy in (Strategy.GRADIENT, Strategy.COORDINATE):
        doas = random_doas(rng, 3)
        sol = optimize_movable(doas, OptimizerConfig(strategy=strategy, restarts=4, seed=9), c)
        hist = np.asarray(sol.gain_history_db)
        assert np.all(np.diff(hist) >= -1e-12)
        # geometry constructor re-validates feasibility; touching it suffices
        assert sol.geometry.num_elements == 8
        assert abs(np.linalg.norm(sol.weights) - 1.0) <= 1e-9


def test_solution_gain_fields_are_consistent():
    doas = DoASet((25.0, 80.0, 155.0))
    sol = optimize_movable(doas, OptimizerConfig(seed=1, restarts=4), ArrayConstraints())
    gain = sum_beam_gain(sol.geometry, sol.weights, doas)
    assert_allclose(sol.gain_linear, gain.linear, rtol=1e-9)
    assert_allclose(sol.gain_db, gain.db, rtol=1e-9)


def test_optimizer_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValidationError):
        OptimizerConfig(step_size=0.0)
    with pytest.raises(ValidationError):
        OptimizerConfig(strategy=Strategy.BASELINE)

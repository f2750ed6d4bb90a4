"""Weight optimization, position projection, gradients, and the joint search."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evobeam import optimize
from evobeam.arrays import (
    ArrayConstraints,
    DoASet,
    gain_matrix,
    spatial_frequencies,
    steering_vector,
    sum_beam_gain,
)
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


def pava_projection(x, constraints):
    """The projection as a pool-adjacent-violators loop over y = x - n*d."""
    x = np.asarray(x, float)
    n = x.shape[0]
    d, b = constraints.min_spacing, constraints.position_bound
    offsets = np.arange(n) * d
    values, weights = [], []
    for v in x - offsets:
        values.append(float(v))
        weights.append(1)
        while len(values) > 1 and values[-2] > values[-1]:
            v2, w2 = values.pop(), weights.pop()
            v1, w1 = values.pop(), weights.pop()
            values.append((w1 * v1 + w2 * v2) / (w1 + w2))
            weights.append(w1 + w2)
    y = np.repeat(values, weights)
    return np.clip(y, -b, b - (n - 1) * d) + offsets


def _reference_objective(positions, alpha):
    s = np.exp(1j * np.outer(positions, alpha))
    gram = s.conj().T @ s
    return float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[-1])


def _reference_gradient_step(x, obj, alpha, config, constraints, ties):
    s = np.exp(1j * np.outer(x, alpha))
    gram = s.conj().T @ s
    u = np.linalg.eigh((gram + gram.conj().T) / 2)[1][:, -1]
    w = s @ u
    w = w / np.linalg.norm(w)
    terms = (1j * alpha * (w.conj() @ s).conj())[None, :] * s * w.conj()[:, None]
    grad = 2.0 * np.sum(terms.real, axis=1)
    step = config.step_size * constraints.wavelength
    for _ in range(config.max_step_halvings + 1):
        candidate = pava_projection(x + step * grad, constraints)
        value = _reference_objective(candidate, alpha)
        if value > obj:
            return candidate, value
        step /= 2
    return x, obj


def _reference_coordinate_round(x, obj, alpha, config, constraints, ties):
    d, b = constraints.min_spacing, constraints.position_bound
    res = config.grid_resolution * constraints.wavelength
    n = x.shape[0]
    x = np.array(x, float)
    for i in range(n):
        lo = max(x[i - 1] + d if i > 0 else -b, -b)
        hi = min(x[i + 1] - d if i < n - 1 else b, b)
        if hi < lo:
            continue
        candidates = lo + res * np.arange(int(math.floor((hi - lo) / res)) + 1)
        if candidates[-1] < hi - 1e-15:
            candidates = np.append(candidates, hi)
        trial = np.tile(x, (candidates.shape[0], 1))
        trial[:, i] = candidates
        s = np.exp(1j * trial[:, :, None] * alpha[None, None, :])
        gram = np.einsum("mnk,mnl->mkl", s.conj(), s)
        values = np.linalg.eigvalsh((gram + np.conj(np.swapaxes(gram, 1, 2))) / 2)[:, -1]
        k = int(np.argmax(values))
        # the best and the next best outcome at another position, staying
        # put included; an exact tie between them is broken by rounding
        outcomes = np.append(values, obj)
        positions = np.append(candidates, x[i])
        top = k if values[k] > obj else -1
        rivals = outcomes[np.abs(positions - positions[top]) > 1e-12]
        if rivals.size and outcomes[top] - rivals.max() <= 1e-12 * outcomes[top]:
            ties.append(i)
        if values[k] > obj:
            x[i] = candidates[k]
            obj = float(values[k])
    return x, obj


def sequential_search(doas, config, constraints, shift=0.0):
    """The multi-start search one restart after another, full Gram per candidate.

    Returns (objective, positions, dB history, iterations, converged) per
    restart, and whether the coordinate search met an exact tie between
    grid outcomes at different positions. shift moves every start layout by
    that many meters; the gain does not depend on a common shift, so a tiny
    one only changes rounding.
    """
    alpha = spatial_frequencies(constraints.wavelength, doas.angles_deg)
    b, n = constraints.position_bound, constraints.num_elements
    update = (
        _reference_gradient_step
        if config.strategy is Strategy.GRADIENT
        else _reference_coordinate_round
    )
    results, ties = [], []
    for restart in range(config.restarts):
        if restart == 0:
            x = np.asarray(constraints.uniform_geometry().positions, float)
        else:
            rng = np.random.default_rng(config.seed + restart)
            x = pava_projection(np.sort(rng.uniform(-b, b, n)), constraints)
        x = x + shift
        obj = _reference_objective(x, alpha)
        history = [10 * math.log10(obj)]
        iterations, converged = 0, False
        for iterations in range(1, config.max_outer_iterations + 1):
            x, obj = update(x, obj, alpha, config, constraints, ties)
            history.append(10 * math.log10(obj))
            if history[-1] - history[-2] < config.gain_tolerance_db:
                converged = True
                break
        results.append((obj, x, history, iterations, converged))
    return results, bool(ties)


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


@st.composite
def projection_inputs(draw, feasible=False):
    """Constraints that admit a layout, plus a stack of 1-4 rows."""
    n = draw(st.integers(1, 12))
    d = draw(st.floats(0.01, 0.2))
    b = ((n - 1) * d + draw(st.floats(0.01, 1.0))) / 2
    constraints = ArrayConstraints(num_elements=n, min_spacing=d, position_bound=b)
    m = draw(st.integers(1, 4))
    if not feasible:
        values = st.floats(-3 * b, 3 * b, allow_nan=False)
        return constraints, np.array(draw(st.lists(values, min_size=m * n, max_size=m * n))).reshape(m, n)
    # gaps of d plus shares of the slack, with the first share before -b
    shares = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m * (n + 1), max_size=m * (n + 1))))
    shares = shares.reshape(m, n + 1) + 1e-3
    slack = 0.99 * (2 * b - (n - 1) * d) * shares / shares.sum(axis=1, keepdims=True)
    rows = -b + np.cumsum(slack[:, :n] + np.r_[0.0, np.full(n - 1, d)], axis=1)
    # rounding may still put a gap a hair under d; such draws are not feasible
    assume(np.all(np.diff(rows, axis=1) >= d) and np.max(np.abs(rows)) <= b)
    return constraints, rows


@given(projection_inputs())
def test_projection_matches_pool_adjacent_violators(case):
    constraints, rows = case
    ours = project_positions(rows, constraints)
    for row, projected in zip(rows, ours):
        assert np.max(np.abs(projected - pava_projection(row, constraints))) <= 1e-12


@given(projection_inputs())
def test_projection_output_is_feasible_and_idempotent(case):
    constraints, rows = case
    ours = project_positions(rows, constraints)
    assert np.all(np.diff(ours, axis=1) >= constraints.min_spacing - 1e-12)
    assert np.max(np.abs(ours)) <= constraints.position_bound + 1e-12
    assert np.max(np.abs(project_positions(ours, constraints) - ours)) <= 1e-12


@given(projection_inputs(feasible=True))
def test_projection_returns_feasible_rows_bit_for_bit(case):
    constraints, rows = case
    assert np.array_equal(project_positions(rows, constraints), rows)


@given(projection_inputs())
def test_stacked_projection_equals_row_by_row(case):
    constraints, rows = case
    n = constraints.num_elements
    # infeasible rows, then feasible ones, in one stack
    stack = np.concatenate((rows, project_positions(rows, constraints)))
    singles = np.array([project_positions(row, constraints) for row in stack])
    assert np.array_equal(project_positions(stack, constraints), singles)
    assert np.array_equal(
        project_positions(stack.reshape(2, -1, n), constraints), singles.reshape(2, -1, n)
    )


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


@pytest.mark.parametrize("strategy", [Strategy.GRADIENT, Strategy.COORDINATE])
def test_equal_restarts_pick_the_lowest_index(strategy):
    # at broadside every layout has the same gain, so all restarts tie
    sol = optimize_movable(
        DoASet((90.0,)), OptimizerConfig(strategy=strategy, restarts=5), ArrayConstraints()
    )
    assert sol.restart_index == 0
    assert abs(sol.gain_db - 10 * math.log10(8)) < 1e-12


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


# ---------------------------------------------------------------- lockstep search vs sequential reference

# Common shifts of the start layouts, in meters: they leave the gain
# landscape unchanged and only move the rounding of the reference.
ROUNDING_PROBES = (1e-15, -1e-15, 2e-15, -2e-15)


def _search_cases(strategy, count=40):
    rng = np.random.default_rng(4040 if strategy is Strategy.GRADIENT else 4041)
    for _ in range(count):
        constraints = ArrayConstraints(num_elements=int(rng.integers(2, 13)))
        doas = random_doas(rng, int(rng.integers(1, 5)))
        config = OptimizerConfig(
            strategy=strategy,
            restarts=int(rng.integers(1, 7)),
            seed=int(rng.integers(0, 1000)),
        )
        yield doas, config, constraints


def _reference_outcome(results):
    """(gain dB, restart, iterations, converged, positions, winner separated)."""
    objectives = np.array([r[0] for r in results])
    winner = int(np.argmax(objectives))
    obj, x, _, iterations, converged = results[winner]
    others = np.delete(objectives, winner)
    separated = others.size == 0 or obj > others.max() * (1 + 1e-9)
    return 10 * math.log10(obj), winner, iterations, converged, np.asarray(x), separated


def _solution_outcome(solution):
    return (
        solution.gain_db,
        solution.restart_index,
        solution.iterations,
        solution.converged,
        np.asarray(solution.geometry.positions),
    )


def _differences(outcome, expected):
    gain_db, restart, iterations, converged, positions = outcome[:5]
    found = []
    if abs(gain_db - expected[0]) > 1e-9:
        found.append("gain")
    if expected[5]:  # the winning restart beats the others: compare its path too
        if (restart, iterations, converged) != expected[1:4]:
            found.append("restart/iterations/converged")
        elif np.max(np.abs(positions - expected[4])) > 1e-9:
            found.append("positions")
    return found


@pytest.mark.parametrize("strategy", [Strategy.GRADIENT, Strategy.COORDINATE])
def test_lockstep_search_matches_sequential_reference(strategy):
    # A case may differ only where the reference breaks an exact tie by
    # rounding (grid candidates that mirror each other, restarts that
    # converge to shifted copies of one layout) or where the reference
    # itself differs under a rounding probe (a path through a saddle
    # amplifies rounding).
    differing = []
    for doas, config, constraints in _search_cases(strategy):
        results, tied = sequential_search(doas, config, constraints)
        expected = _reference_outcome(results)
        found = _differences(
            _solution_outcome(optimize_movable(doas, config, constraints)), expected
        )
        if not found or tied:
            differing += [found] if found else []
            continue
        probes = [
            _reference_outcome(sequential_search(doas, config, constraints, shift)[0])
            for shift in ROUNDING_PROBES
        ]
        assert any(_differences(p, expected) for p in probes), (doas, config, found)
        differing.append(found)
    assert len(differing) <= 10, differing


@pytest.mark.parametrize("strategy", [Strategy.GRADIENT, Strategy.COORDINATE])
def test_small_block_cap_bounds_every_batch_and_changes_nothing(monkeypatch, strategy):
    doas = DoASet((35.0, 80.0, 125.0))
    config = OptimizerConfig(strategy=strategy, restarts=4, seed=2)
    constraints = ArrayConstraints()
    expected = optimize_movable(doas, config, constraints)

    cap = 4 * 3 * 3  # four 3x3 Gram matrices; the 4 restarts' Grams also fit
    monkeypatch.setattr(optimize, "_BLOCK_ENTRIES", cap)
    eig_sizes, isotonic_rows = [], []
    eigvalsh, isotonic = np.linalg.eigvalsh, optimize._isotonic_rows

    def counting_eigvalsh(a, *args, **kwargs):
        eig_sizes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def counting_isotonic(y):
        isotonic_rows.append(y.shape[0])
        return isotonic(y)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(optimize, "_isotonic_rows", counting_isotonic)
    got = optimize_movable(doas, config, constraints)

    assert max(math.prod(shape) for shape in eig_sizes) <= cap
    if strategy is Strategy.COORDINATE:
        assert sum(shape[0] == 4 for shape in eig_sizes) > 4  # candidates were split
    assert isotonic_rows and max(isotonic_rows) == 1  # an 8x8 table exceeds the cap
    assert got.gain_history_db == expected.gain_history_db
    assert got.geometry.positions == expected.geometry.positions
    assert np.array_equal(got.weights, expected.weights)
    assert (got.restart_index, got.iterations, got.converged) == (
        expected.restart_index,
        expected.iterations,
        expected.converged,
    )

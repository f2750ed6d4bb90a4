"""Array geometry, steering, beam gain, and the dominant eigenpair solver."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evobeam.arrays import (
    ArrayConstraints,
    ArrayGeometry,
    GAIN_FLOOR,
    DoASet,
    MAX_ELEMENTS,
    check_hermitian,
    gain_matrix,
    principal_eigenpair,
    steering_matrix,
    steering_vector,
    sum_beam_gain,
    to_db,
)
from evobeam.errors import ConfigurationError, ValidationError

WAVELENGTH = 0.125


def small_geometry(positions, wavelength=WAVELENGTH):
    return ArrayGeometry(
        wavelength=wavelength,
        positions=tuple(positions),
        min_spacing=wavelength / 2,
        position_bound=5 * wavelength,
    )


def random_instance(rng, max_elements=4, max_sources=3):
    """Random feasible geometry and direction set."""
    n = int(rng.integers(2, max_elements + 1))
    k = int(rng.integers(1, max_sources + 1))
    c = ArrayConstraints(num_elements=n)
    base = np.sort(rng.uniform(-c.position_bound, c.position_bound, n))
    # stretch collisions apart, then recenter inside the bound
    for i in range(1, n):
        base[i] = max(base[i], base[i - 1] + c.min_spacing)
    base -= max(0.0, base[-1] - c.position_bound)
    geometry = c.geometry(base.tolist())
    angles = []
    while len(angles) < k:
        a = float(rng.uniform(1.0, 179.0))
        if all(abs(a - b) > 1e-6 for b in angles):
            angles.append(a)
    return geometry, DoASet(tuple(angles))


# ---------------------------------------------------------------- geometry


def test_default_constraints_describe_the_reference_array():
    c = ArrayConstraints()
    assert c.wavelength == 0.125
    assert c.num_elements == 8
    assert c.min_spacing == 0.0625
    assert c.position_bound == 0.625


def test_uniform_geometry_is_centered_at_min_spacing():
    g = ArrayConstraints().uniform_geometry()
    diffs = np.diff(g.positions)
    assert_allclose(diffs, 0.0625, rtol=0, atol=1e-15)
    assert_allclose(sum(g.positions), 0.0, atol=1e-15)


def test_uniform_geometry_is_built_once_per_constraints():
    c = ArrayConstraints()
    assert c.uniform_geometry() is c.uniform_geometry()
    other = ArrayConstraints()
    assert other.uniform_geometry() is not c.uniform_geometry()
    assert other.uniform_geometry() == c.uniform_geometry()


def test_geometry_rejects_spacing_violation():
    with pytest.raises(ValidationError):
        small_geometry([0.0, 0.01])


def test_geometry_rejects_out_of_bound_position():
    with pytest.raises(ValidationError):
        small_geometry([0.0, 0.7])


def test_geometry_rejects_decreasing_positions():
    with pytest.raises(ValidationError):
        small_geometry([0.1, 0.0])


def test_infeasible_constraint_set_is_a_configuration_error():
    # 22 elements x 0.0625 m cannot fit in [-0.625, 0.625]
    with pytest.raises(ConfigurationError):
        ArrayConstraints(num_elements=22)
    # 21 still fits exactly
    ArrayConstraints(num_elements=21).uniform_geometry()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 2.5, True, 0, 10**400])
def test_non_integer_element_count_is_a_validation_error(value):
    with pytest.raises(ValidationError, match=r"^num_elements must be an integer >= 1"):
        ArrayConstraints(num_elements=value)


def test_whole_float_element_count_becomes_int():
    constraints = ArrayConstraints(num_elements=4.0)
    assert constraints.num_elements == 4
    assert type(constraints.num_elements) is int


def test_element_count_above_the_cap_is_a_validation_error():
    ArrayConstraints(num_elements=MAX_ELEMENTS, position_bound=1e9)
    with pytest.raises(ValidationError, match=r"^num_elements must be an integer >= 1 and <= "):
        ArrayConstraints(num_elements=MAX_ELEMENTS + 1, position_bound=1e9)


@pytest.mark.parametrize(
    "overrides, error",
    [
        ({"wavelength": 0.0}, ValidationError),
        ({"wavelength": math.nan}, ValidationError),
        ({"min_spacing": -1.0}, ValidationError),
        ({"position_bound": math.inf}, ValidationError),
        ({"positions": ()}, ValidationError),
        ({"position_bound": 0.03}, ConfigurationError),  # two elements cannot fit
    ],
)
def test_geometry_rejects_an_envelope_its_constraints_reject(overrides, error):
    kwargs = dict(
        wavelength=WAVELENGTH,
        positions=(0.0, WAVELENGTH / 2),
        min_spacing=WAVELENGTH / 2,
        position_bound=5 * WAVELENGTH,
    )
    with pytest.raises(error):
        ArrayGeometry(**{**kwargs, **overrides})


def test_doa_set_validation():
    with pytest.raises(ValidationError):
        DoASet(())
    with pytest.raises(ValidationError):
        DoASet((0.0,))
    with pytest.raises(ValidationError):
        DoASet((180.0,))
    with pytest.raises(ValidationError):
        DoASet((45.0, 45.0))
    assert len(DoASet((0.0001, 179.9999))) == 2


# ---------------------------------------------------------------- steering


def test_steering_at_broadside_is_all_ones():
    g = small_geometry([0.0, WAVELENGTH / 2])
    assert_allclose(steering_vector(g, 90.0), [1.0, 1.0], atol=1e-15)


def test_steering_quarter_wavelength_at_60_degrees():
    g = ArrayGeometry(
        wavelength=WAVELENGTH,
        positions=(0.0, WAVELENGTH / 4),
        min_spacing=WAVELENGTH / 4,
        position_bound=5 * WAVELENGTH,
    )
    expected = [1.0, np.exp(1j * np.pi / 4)]
    assert_allclose(steering_vector(g, 60.0), expected, atol=1e-12)


def test_steering_near_endfire_approaches_alternation():
    g = small_geometry([0.0, WAVELENGTH / 2])
    assert_allclose(steering_vector(g, 0.0001), [1.0, -1.0], atol=1e-6)


def test_steering_rejects_axis_angles():
    g = small_geometry([0.0, WAVELENGTH / 2])
    for bad in (0.0, 180.0, -5.0, 185.0):
        with pytest.raises(ValidationError):
            steering_vector(g, bad)


def test_steering_entries_have_unit_magnitude():
    rng = np.random.default_rng(11)
    for _ in range(50):
        geometry, doas = random_instance(rng)
        s = steering_matrix(geometry, doas.angles_deg)
        assert_allclose(np.abs(s), 1.0, atol=1e-12)


# ---------------------------------------------------------------- gain matrix


def test_gain_matrix_two_elements_broadside_is_all_ones():
    g = small_geometry([0.0, WAVELENGTH / 2])
    assert_allclose(gain_matrix(g, DoASet((90.0,))), np.ones((2, 2)), atol=1e-15)


def test_gain_matrix_matches_outer_product_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        geometry, doas = random_instance(rng)
        a = gain_matrix(geometry, doas)
        oracle = np.zeros((geometry.num_elements,) * 2, dtype=complex)
        for angle in doas.angles_deg:
            v = steering_vector(geometry, angle)
            oracle += np.outer(v, v.conj())
        assert_allclose(a, oracle, atol=1e-12)


def test_gain_matrix_is_hermitian_psd_with_trace_kn():
    rng = np.random.default_rng(6)
    for _ in range(50):
        geometry, doas = random_instance(rng)
        a = gain_matrix(geometry, doas)
        assert np.max(np.abs(a - a.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(a)[0] >= -1e-9
        assert_allclose(np.trace(a).real, len(doas) * geometry.num_elements, atol=1e-9)


# ---------------------------------------------------------------- beam gain


def test_matched_filter_gain_is_element_count():
    g = ArrayConstraints().uniform_geometry()
    doas = DoASet((73.0,))
    a = steering_vector(g, 73.0)
    gain = sum_beam_gain(g, a / np.sqrt(8), doas)
    assert abs(gain.linear - 8.0) < 1e-9
    assert abs(gain.db - 9.030900) < 1e-6


def test_orthogonal_weights_give_zero_gain_without_raising():
    g = small_geometry([0.0, WAVELENGTH / 2])
    w = np.array([1.0, -1.0]) / np.sqrt(2)  # orthogonal to [1, 1]
    gain = sum_beam_gain(g, w, DoASet((90.0,)))
    assert gain.linear <= 1e-20
    # deep nulls stay representable: either -inf sentinel or a finite dB value
    assert gain.db < -100.0


def test_to_db_is_minus_inf_exactly_below_the_gain_floor():
    assert to_db(100.0) == 20.0
    assert to_db(GAIN_FLOOR) == 10.0 * math.log10(GAIN_FLOOR)
    assert to_db(GAIN_FLOOR / 2) == float("-inf")
    assert to_db(0.0) == float("-inf")


def test_sum_beam_gain_rejects_non_unit_weights():
    g = small_geometry([0.0, WAVELENGTH / 2])
    with pytest.raises(ValidationError):
        sum_beam_gain(g, np.array([1.0, 1.0]), DoASet((90.0,)))


def test_sum_beam_gain_matches_per_source_loop():
    rng = np.random.default_rng(17)
    for _ in range(50):
        geometry, doas = random_instance(rng)
        w = rng.standard_normal(geometry.num_elements) + 1j * rng.standard_normal(
            geometry.num_elements
        )
        w /= np.linalg.norm(w)
        gain = sum_beam_gain(geometry, w, doas)
        oracle = sum(
            abs(np.vdot(w, steering_vector(geometry, angle))) ** 2
            for angle in doas.angles_deg
        )
        assert_allclose(gain.linear, oracle, rtol=1e-12)


def test_sum_beam_gain_is_invariant_to_global_weight_phase():
    rng = np.random.default_rng(23)
    for _ in range(20):
        geometry, doas = random_instance(rng)
        w = rng.standard_normal(geometry.num_elements) + 1j * rng.standard_normal(
            geometry.num_elements
        )
        w /= np.linalg.norm(w)
        g1 = sum_beam_gain(geometry, w, doas)
        g2 = sum_beam_gain(geometry, w * np.exp(1j * 0.73), doas)
        assert_allclose(g1.linear, g2.linear, rtol=1e-12)


# ---------------------------------------------------------------- eigensolver


def test_principal_eigenpair_on_diagonal_matrix():
    pair = principal_eigenpair(np.diag([2.0, 1.0]).astype(complex))
    assert_allclose(pair.eigenvalue, 2.0, atol=1e-10)
    assert_allclose(np.abs(pair.eigenvector), [1.0, 0.0], atol=1e-6)
    assert pair.eigenvector[0].real > 0
    assert pair.eigenvector[0].imag == 0


def test_principal_eigenpair_on_rank_one_matrix():
    g = ArrayConstraints().uniform_geometry()
    a = steering_vector(g, 41.5)
    pair = principal_eigenpair(np.outer(a, a.conj()))
    assert_allclose(pair.eigenvalue, 8.0, rtol=1e-10)
    expected = a / np.sqrt(8)
    expected = expected * np.exp(-1j * np.angle(expected[0]))
    assert_allclose(pair.eigenvector, expected, atol=1e-8)


def test_principal_eigenpair_agrees_with_dense_oracle():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = b @ b.conj().T
        pair = principal_eigenpair(a)
        vals, vecs = np.linalg.eigh(a)
        assert_allclose(pair.eigenvalue, vals[-1], rtol=1e-9)
        overlap = abs(np.vdot(vecs[:, -1], pair.eigenvector))
        assert overlap > 1.0 - 1e-6
        assert abs(np.linalg.norm(pair.eigenvector) - 1.0) <= 1e-12


def test_principal_eigenpair_zero_matrix_converges_to_zero():
    pair = principal_eigenpair(np.zeros((3, 3), dtype=complex))
    assert pair.eigenvalue == 0.0
    assert pair.iterations == 1


def test_principal_eigenpair_resolves_tight_near_degeneracy():
    # Gap ratio 1 - 1e-5: the direct solve separates the top two exactly.
    a = np.diag([1.0, 1.0 - 1e-5]).astype(complex)
    pair = principal_eigenpair(a)
    assert pair.eigenvalue == 1.0
    assert_allclose(pair.eigenvector, [1.0, 0.0], atol=1e-12)


def test_principal_eigenpair_rejects_non_hermitian_input():
    with pytest.raises(ValidationError):
        principal_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_check_hermitian_rejects_non_square():
    with pytest.raises(ValidationError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        check_hermitian(np.zeros((2, 3)))


@pytest.mark.parametrize("check", [check_hermitian, principal_eigenpair])
def test_an_empty_matrix_is_refused_with_its_shape(check):
    # numpy's own reduction error once escaped instead
    with pytest.raises(ValidationError, match=r"^expected a nonempty matrix, got shape \(0, 0\)$"):
        check(np.zeros((0, 0)))


@pytest.mark.parametrize("bad", [complex(0.0, np.nan), complex(0.0, np.inf), complex(np.inf, 0.0)])
def test_check_hermitian_refuses_a_non_finite_entry(bad):
    m = np.eye(3, dtype=complex)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValidationError, match=r"^matrix entries must be finite$"):
        check_hermitian(m)


def test_check_hermitian_tolerance_scales_with_the_largest_entry():
    # asymmetry is allowed up to 1e-12 times the largest magnitude, here 2
    inside, past = 2e-12 * (1 - 1e-6), 2e-12 * (1 + 1e-6)
    for offset in (inside, 1j * inside):
        m = np.diag([2.0, 1.0]).astype(complex)
        m[0, 1] = offset
        assert np.array_equal(check_hermitian(m), m)
    for offset in (past, 1j * past):
        m = np.diag([2.0, 1.0]).astype(complex)
        m[0, 1] = offset
        with pytest.raises(ValidationError, match=r"^matrix is not Hermitian within tolerance$"):
            check_hermitian(m)


def test_random_weights_never_beat_the_dominant_eigenvalue():
    rng = np.random.default_rng(47)
    for _ in range(10):
        geometry, doas = random_instance(rng)
        a = gain_matrix(geometry, doas)
        lam = principal_eigenpair(a).eigenvalue
        n = geometry.num_elements
        w = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        quad = np.real(np.einsum("mi,ij,mj->m", w.conj(), a, w))
        assert np.max(quad) <= lam + 1e-9

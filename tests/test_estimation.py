"""Covariance estimation and Bartlett direction finding."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evobeam import estimation
from evobeam.arrays import ArrayConstraints, DoASet, steering_vector
from evobeam.channel import synthesize_csi
from evobeam.errors import ValidationError
from evobeam.estimation import (
    MIN_PEAK_SEPARATION_DEG,
    _local_maxima,
    _pick_peaks,
    estimate_doas,
    sample_covariance,
)

GEOMETRY = ArrayConstraints().uniform_geometry()


def analytic_covariance(geometry, angles, noise_var=0.0):
    cov = noise_var * np.eye(geometry.num_elements, dtype=complex)
    for a in angles:
        v = steering_vector(geometry, a)
        cov += np.outer(v, v.conj())
    return cov


# ---------------------------------------------------------------- covariance


def test_single_snapshot_covariance_is_the_outer_product():
    batch = synthesize_csi(GEOMETRY, DoASet((70.0,)), 10.0, 1, seed=2)
    y = batch.snapshots[0]
    assert_allclose(sample_covariance(batch), np.outer(y, y.conj()), atol=1e-14)


def test_zero_snapshots_give_zero_covariance():
    from evobeam.channel import CsiSnapshotBatch

    batch = CsiSnapshotBatch(snapshots=np.zeros((4, 8), dtype=complex))
    assert np.all(sample_covariance(batch) == 0)


def test_noiseless_dominant_eigenvalue_recovers_source_power():
    batch = synthesize_csi(GEOMETRY, DoASet((65.0,)), 300.0, 2000, seed=8)
    cov = sample_covariance(batch)
    assert np.max(np.abs(cov - cov.conj().T)) <= 1e-12
    lam = np.linalg.eigvalsh(cov)[-1]
    assert abs(lam / 8 - 1.0) < 0.05


def test_sample_covariance_is_hermitian_psd():
    batch = synthesize_csi(GEOMETRY, DoASet((30.0, 90.0)), 5.0, 100, seed=13)
    cov = sample_covariance(batch)
    assert np.max(np.abs(cov - cov.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(cov)[0] >= -1e-9


# ---------------------------------------------------------------- estimation


def test_noiseless_single_source_lands_on_nearest_grid_point():
    cov = analytic_covariance(GEOMETRY, [73.7])
    est = estimate_doas(cov, GEOMETRY, num_sources=1)
    assert abs(est.angles.angles_deg[0] - 73.7) <= 0.25
    assert not est.low_confidence


def test_two_well_separated_sources_recovered_within_a_cell():
    cov = analytic_covariance(GEOMETRY, [60.0, 120.0])
    est = estimate_doas(cov, GEOMETRY, num_sources=2)
    assert_allclose(est.angles.angles_deg, [60.0, 120.0], atol=0.5)
    assert not est.low_confidence


def test_identity_covariance_is_flat_and_low_confidence():
    est = estimate_doas(np.eye(8, dtype=complex), GEOMETRY, num_sources=3)
    spread = (np.max(est.spectrum) - np.min(est.spectrum)) / np.max(est.spectrum)
    assert spread < 0.01
    assert est.low_confidence
    assert len(est.angles.angles_deg) == 3


def test_estimates_are_sorted_on_grid_with_matching_peak_values():
    cov = analytic_covariance(GEOMETRY, [45.0, 110.0, 150.0], noise_var=0.01)
    est = estimate_doas(cov, GEOMETRY, num_sources=3)
    angles = np.asarray(est.angles.angles_deg)
    assert np.all(np.diff(angles) > 0)
    for a, v in zip(angles, est.peak_values):
        i = int(np.argmin(np.abs(est.grid_deg - a)))
        assert est.grid_deg[i] == a
        assert est.spectrum[i] == v


@pytest.mark.parametrize("num_sources", [8, 0, -1, 1.5, True])
def test_estimator_rejects_too_many_sources(num_sources):
    # a fraction once slipped past the range check and returned 6 angles
    cov = analytic_covariance(GEOMETRY, (60.0, 100.0, 140.0))
    with pytest.raises(ValidationError, match=r"^num_sources\b"):
        estimate_doas(cov, GEOMETRY, num_sources=num_sources)


def test_estimator_refuses_an_empty_covariance_with_its_shape():
    with pytest.raises(ValidationError, match=r"\(0, 0\)"):
        estimate_doas(np.zeros((0, 0)), GEOMETRY, 3)


def test_estimator_returns_num_sources_angles_at_the_top_of_the_range():
    estimate = estimate_doas(analytic_covariance(GEOMETRY, (60.0, 100.0, 140.0)), GEOMETRY, 7)
    assert len(estimate.angles) == 7
    assert len(estimate.peak_values) == 7


def test_estimator_scans_the_fixed_grid():
    estimate = estimate_doas(analytic_covariance(GEOMETRY, (70.0,)), GEOMETRY, 1)
    assert estimate.grid_deg.size == 341
    assert (estimate.grid_deg[0], estimate.grid_deg[-1]) == (5.0, 175.0)
    assert estimate.angles.angles_deg == (70.0,)


def test_spectrum_is_nonnegative():
    rng = np.random.default_rng(31)
    for _ in range(10):
        angles = DoASet(tuple(np.sort(rng.uniform(20, 160, 2)).tolist()))
        batch = synthesize_csi(GEOMETRY, angles, 0.0, 50, seed=int(rng.integers(1 << 30)))
        est = estimate_doas(sample_covariance(batch), GEOMETRY, 2)
        assert np.min(est.spectrum) >= -1e-9


def test_noiseless_consistency_across_the_scan_band():
    rng = np.random.default_rng(44)
    for _ in range(20):
        angle = float(rng.uniform(15.0, 165.0))
        batch = synthesize_csi(GEOMETRY, DoASet((angle,)), 300.0, 200, seed=int(rng.integers(1 << 30)))
        est = estimate_doas(sample_covariance(batch), GEOMETRY, 1)
        assert abs(est.angles.angles_deg[0] - angle) <= 0.5


def test_noisy_two_source_accuracy_on_a_wide_array():
    # Wide nonuniform aperture: half-wavelength multiples within +-5 lambda.
    c = ArrayConstraints()
    wide = c.geometry((np.array([-10, -9, -6, -2, 1, 4, 8, 10]) * 0.0625).tolist())
    rng = np.random.default_rng(42)
    errors = []
    for trial in range(20):
        while True:
            pair = np.sort(rng.uniform(20.0, 160.0, 2))
            if pair[1] - pair[0] >= 10.0:
                break
        doas = DoASet(tuple(pair.tolist()))
        batch = synthesize_csi(wide, doas, 10.0, 200, seed=900 + trial)
        est = estimate_doas(sample_covariance(batch), wide, 2)
        errors.extend((np.asarray(est.angles.angles_deg) - pair).tolist())
    rmse = float(np.sqrt(np.mean(np.square(errors))))
    assert rmse <= 1.0


# ---------------------------------------------------------------- scan reuse


@st.composite
def sensing_cases(draw):
    """A feasible layout of 2-10 elements within the default envelope, with
    gaps of min_spacing plus random shares of the slack, and a random
    Hermitian positive definite covariance for it."""
    n = draw(st.integers(2, 10))
    c = ArrayConstraints(num_elements=n)
    shares = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1)))
    shares += 1e-3
    slack = 0.99 * (2 * c.position_bound - (n - 1) * c.min_spacing) * shares / shares.sum()
    positions = -c.position_bound + np.cumsum(slack[:n] + np.r_[0.0, np.full(n - 1, c.min_spacing)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.normal(size=(n, 2 * n)) + 1j * rng.normal(size=(n, 2 * n))
    cov = y @ y.conj().T / (2 * n) + 0.1 * np.eye(n)
    return c.geometry(positions.tolist()), (cov + cov.conj().T) / 2


@settings(max_examples=60, deadline=None)
@given(sensing_cases())
def test_cached_scan_matches_a_per_angle_oracle(case):
    geometry, cov = case
    n = geometry.num_elements
    estimate_doas(cov, geometry, 1)  # builds the scan
    est = estimate_doas(cov, geometry, 1)
    oracle = np.array(
        [
            np.real(steering_vector(geometry, t).conj() @ cov @ steering_vector(geometry, t)) / n
            for t in est.grid_deg
        ]
    )
    assert np.max(np.abs(est.spectrum - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@settings(max_examples=30, deadline=None)
@given(sensing_cases(), sensing_cases())
def test_interleaved_geometries_match_fresh_calls(first, second):
    for geometry, cov in (first, second, first):
        k = geometry.num_elements - 1
        got = estimate_doas(cov, geometry, k)
        # an equal layout in a new instance has no scan yet
        fresh = estimate_doas(cov, replace(geometry), k)
        assert got.angles == fresh.angles
        assert np.array_equal(got.spectrum, fresh.spectrum)
        assert got.peak_values == fresh.peak_values


def test_scan_is_built_once_per_geometry_and_freed_with_it(monkeypatch):
    built = []
    real = estimation.steering_matrix

    def counting(geometry, angles):
        built.append(geometry)
        return real(geometry, angles)

    monkeypatch.setattr(estimation, "steering_matrix", counting)
    cov = analytic_covariance(GEOMETRY, (70.0,))
    geometry = ArrayConstraints().geometry(GEOMETRY.positions)
    first = estimate_doas(cov, geometry, 1)
    second = estimate_doas(cov, geometry, 1)
    assert len(built) == 1
    assert second.grid_deg is first.grid_deg
    with pytest.raises(ValueError):
        first.grid_deg[0] = 0.0
    estimate_doas(cov, replace(geometry), 1)
    assert len(built) == 2

    alive = weakref.ref(geometry)
    del geometry, built[:]
    gc.collect()
    assert alive() is None


# ---------------------------------------------------------------- peak picking


def local_maxima_loop(values):
    """Reference: strict local maxima, one-sided at the ends, by a loop."""
    g = values.shape[0]
    if g == 1:
        return [0]
    out = []
    for i in range(g):
        left_ok = i == 0 or values[i] > values[i - 1]
        right_ok = i == g - 1 or values[i] > values[i + 1]
        if left_ok and right_ok:
            out.append(i)
    return out


@given(
    st.one_of(
        # Few distinct values, so ties and plateaus are common.
        st.lists(st.integers(-2, 2).map(float), min_size=1, max_size=30),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
    )
)
@example([0.0])
@example([1.0, 1.0])
@example([1.0, 2.0])
@example([2.0, 1.0])
@example([0.0, 1.0, 1.0, 0.0, 2.0, 2.0])
def test_local_maxima_matches_loop_reference(values):
    spectrum = np.asarray(values, dtype=float)
    got = _local_maxima(spectrum)
    assert got == local_maxima_loop(spectrum)
    assert all(type(i) is int for i in got)


def pick_peaks_loop(grid, spectrum, num_sources):
    """Reference: the greedy picker by sorted keys, ties to lower angles,
    filled from the largest leftover grid points."""
    def key(i):
        return (-spectrum[i], grid[i])

    chosen = []
    for i in sorted(local_maxima_loop(spectrum), key=key):
        if len(chosen) == num_sources:
            break
        if all(abs(grid[i] - grid[j]) >= MIN_PEAK_SEPARATION_DEG - 1e-12 for j in chosen):
            chosen.append(i)
    low_confidence = len(chosen) < num_sources
    if low_confidence:
        filler = sorted((i for i in range(len(grid)) if i not in chosen), key=key)
        chosen.extend(filler[: num_sources - len(chosen)])
    chosen.sort(key=lambda i: grid[i])
    return chosen, low_confidence


@st.composite
def spectra_on_the_grid(draw):
    """A stretch of the scan grid, a spectrum over it and a source count.
    Few distinct values make ties, plateaus and flat spectra common, so
    the filler runs often."""
    grid = estimation._scan(GEOMETRY).grid
    start = draw(st.integers(0, grid.size - 1))
    size = draw(st.integers(1, min(60, grid.size - start)))
    values = st.one_of(
        st.just(1.0),
        st.integers(0, 2).map(float),
        st.floats(0.0, 1e3),
    )
    spectrum = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    return grid[start : start + size], spectrum, draw(st.integers(1, size))


@settings(max_examples=300)
@given(spectra_on_the_grid())
@example((np.array([5.0]), np.array([1.0]), 1))
@example((np.array([5.0, 5.5, 6.0, 6.5]), np.array([1.0, 1.0, 1.0, 1.0]), 3))
@example((5.0 + 0.5 * np.arange(9), np.array([0.0, 2, 0, 2, 0, 2, 0, 2, 0]), 4))
def test_peak_picker_matches_the_sorted_loop_reference(case):
    grid, spectrum, num_sources = case
    got, low_confidence = _pick_peaks(grid, spectrum, num_sources)
    expected, expected_low = pick_peaks_loop(grid, spectrum, num_sources)
    assert got == expected
    assert all(type(i) is int for i in got)
    assert [float(spectrum[i]) for i in got] == [float(spectrum[i]) for i in expected]
    assert low_confidence == expected_low

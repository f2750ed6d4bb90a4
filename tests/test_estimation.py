"""Covariance estimation and Bartlett direction finding."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evobeam.arrays import ArrayConstraints, DoASet, steering_vector
from evobeam.channel import synthesize_csi
from evobeam.errors import ValidationError
from evobeam.estimation import _local_maxima, estimate_doas, sample_covariance

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

    batch = CsiSnapshotBatch(
        snapshots=np.zeros((4, 8), dtype=complex),
        snr_db=0.0,
        true_angles=DoASet((90.0,)),
        seed=0,
    )
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


def test_estimator_rejects_too_many_sources():
    with pytest.raises(ValidationError):
        estimate_doas(np.eye(8, dtype=complex), GEOMETRY, num_sources=8)
    with pytest.raises(ValidationError):
        estimate_doas(np.eye(8, dtype=complex), GEOMETRY, num_sources=0)


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

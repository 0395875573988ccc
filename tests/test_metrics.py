import numpy as np
import pytest

from telekf.errors import ContractViolationError
from telekf.metrics import fit_aggregate, fit_percent, mse


def test_fit_exact_match_is_exactly_100():
    truth = np.array([[0.0], [1.0], [2.0], [3.0]])
    assert fit_percent(truth, truth.copy())[0] == 100.0


def test_fit_mean_estimate_is_exactly_zero():
    truth = np.array([1.0, 4.0, -2.0, 7.0]).reshape(-1, 1)
    estimate = np.full_like(truth, truth.mean())
    assert fit_percent(truth, estimate)[0] == 0.0


def test_fit_hand_computed_value():
    # ||e|| = 2, ||y - mean|| = sqrt(5): fit = 100 (1 - 2/sqrt(5)) = 10.5572809...
    truth = np.array([0.0, 1.0, 2.0, 3.0])
    estimate = np.array([0.0, 1.0, 2.0, 5.0])
    assert fit_percent(truth, estimate)[0] == pytest.approx(10.557280900008415, abs=1e-9)


def test_fit_shift_and_scale_invariance():
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((100, 2))
    estimate = truth + 0.1 * rng.standard_normal((100, 2))
    base = fit_percent(truth, estimate)
    shifted = fit_percent(truth + 3.7, estimate + 3.7)
    scaled = fit_percent(truth * -2.5, estimate * -2.5)
    np.testing.assert_allclose(shifted, base, rtol=1e-9)
    np.testing.assert_allclose(scaled, base, rtol=1e-9)


def test_fit_constant_truth_channel_is_nan_sentinel():
    truth = np.column_stack([np.ones(10), np.arange(10.0)])
    estimate = truth + 0.01
    fit = fit_percent(truth, estimate)
    assert np.isnan(fit[0])
    assert np.isfinite(fit[1])
    agg = fit_aggregate(fit)
    assert agg == pytest.approx(fit[1])
    assert np.isnan(fit_aggregate(np.array([np.nan, np.nan])))


def test_fit_never_exceeds_100():
    rng = np.random.default_rng(1)
    for _ in range(50):
        truth = rng.standard_normal((20, 3))
        estimate = rng.standard_normal((20, 3))
        fit = fit_percent(truth, estimate)
        assert np.all(fit[~np.isnan(fit)] <= 100.0)


def test_mse_identical_sequences():
    truth = np.arange(8.0).reshape(-1, 2)
    np.testing.assert_array_equal(mse(truth, truth.copy()), [0.0, 0.0])


def test_mse_unit_offset():
    np.testing.assert_array_equal(
        mse(np.zeros((2, 1)), np.ones((2, 1))), [1.0]
    )


def test_mse_matches_naive_loop():
    rng = np.random.default_rng(2)
    truth = rng.standard_normal((64, 3))
    estimate = rng.standard_normal((64, 3))
    naive = np.zeros(3)
    for c in range(3):
        acc = 0.0
        for t in range(64):
            acc += (truth[t, c] - estimate[t, c]) ** 2
        naive[c] = acc / 64
    np.testing.assert_allclose(mse(truth, estimate), naive, atol=1e-12)


def test_length_and_shape_errors():
    with pytest.raises(ContractViolationError, match=r"estimate must have shape \(3, 1\), got \(4, 1\)"):
        mse(np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(ContractViolationError, match=r"truth must have shape \(N, N\), got \(\)"):
        mse(0.0, 0.0)
    with pytest.raises(ContractViolationError, match="at least 2"):
        fit_percent(np.zeros((1, 1)), np.zeros((1, 1)))


def test_fit_100_iff_mse_zero():
    rng = np.random.default_rng(3)
    truth = rng.standard_normal((30, 2))
    assert np.all(fit_percent(truth, truth.copy()) == 100.0)
    assert np.all(mse(truth, truth.copy()) == 0.0)
    bumped = truth.copy()
    bumped[5, 1] += 1e-3
    assert fit_percent(truth, bumped)[1] < 100.0
    assert mse(truth, bumped)[1] > 0.0

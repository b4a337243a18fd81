import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import masked_sigmoid_unit, max_rel_err
from qusecnets import nn
from qusecnets.quantize import (
    Quantizer,
    linear_thresholds,
    quantize,
    quantize_grad_input,
    quantize_grad_threshold,
    sigmoid_unit,
    threshold_gradients,
    update_thresholds,
)


# ---------------------------------------------------------------------------
# sigmoid_unit
# ---------------------------------------------------------------------------

def test_sigmoid_center():
    assert sigmoid_unit(0.5, 0.5, 50.0) == 0.5


def test_sigmoid_near_saturation():
    expected_high = 1.0 / (1.0 + np.exp(-25.0))
    assert abs(sigmoid_unit(1.0, 0.5, 50.0) - expected_high) < 1e-15
    # symmetric tail
    assert abs(sigmoid_unit(0.0, 0.5, 50.0) - (1.0 - expected_high)) < 1e-15


def test_sigmoid_overflow_safe():
    for a in (1e4, -1e4):
        out = sigmoid_unit(a, 0.0, 1.0)
        assert np.isfinite(out)
        assert 0.0 <= out <= 1.0


SIGMOID_GRID = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 36.7, -36.7,
     709.0, -709.0, 745.2, -745.2, 1e3, -1e3, 1e300, -1e300, np.inf, -np.inf],
    np.linspace(-60.0, 60.0, 241),
    np.random.default_rng(0).normal(0.0, 20.0, 500),
])


def test_sigmoid_bytes_match_masked_reference():
    for x, t, z in [(SIGMOID_GRID, 0.0, 1.0),
                    (np.linspace(0.0, 1.0, 101)[:, None], linear_thresholds(4), 50.0),
                    (np.linspace(-0.5, 1.5, 64).reshape(4, 4, 4, 1), np.array([0.3, 0.6]), 2e3)]:
        out, ref = sigmoid_unit(x, t, z), masked_sigmoid_unit(x, t, z)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()


def test_sigmoid_scalar_path_returns_float_matching_reference():
    for a in SIGMOID_GRID[:20]:
        out = sigmoid_unit(a, 0.0, 1.0)
        assert type(out) is float
        assert np.float64(out).tobytes() == np.float64(masked_sigmoid_unit(a, 0.0, 1.0)).tobytes()


# ---------------------------------------------------------------------------
# linear_thresholds
# ---------------------------------------------------------------------------

def test_linear_thresholds_values():
    npt.assert_array_equal(linear_thresholds(2), [0.5])
    npt.assert_allclose(linear_thresholds(3), [1 / 3, 2 / 3], atol=1e-15)
    npt.assert_allclose(linear_thresholds(5), [0.2, 0.4, 0.6, 0.8], atol=1e-15)


def test_linear_thresholds_rejects_small_n():
    with pytest.raises(ValueError):
        linear_thresholds(1)


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------

def test_quantize_single_sigmoid_center():
    q = Quantizer(2, 50.0)
    assert quantize(np.array(0.5), q) == 0.5


def test_quantize_staircase_midpoint():
    q = Quantizer(3, 1e6)
    npt.assert_allclose(quantize(np.array([0.5]), q), [0.5], atol=1e-12)


def test_quantize_staircase_extremes():
    q = Quantizer(3, 1e6)
    out = quantize(np.array([0.9, 0.1]), q)
    npt.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_quantize_per_pixel_thresholds():
    t = np.array([[[[0.2]], [[0.8]]]])  # (1,2,1,1): two pixels, different t
    q = Quantizer(2, 1e6, t)
    out = quantize(np.full((1, 2, 1), 0.5), q)
    npt.assert_allclose(out, [[[1.0], [0.0]]], atol=1e-9)


def test_quantize_batch_broadcasts_over_leading_axis():
    q = Quantizer(4, 30.0)
    x = np.random.default_rng(0).random((5, 3, 3, 1))
    batched = quantize(x, q)
    for i in range(5):
        npt.assert_array_equal(batched[i], quantize(x[i], q))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.floats(1.0, 50.0),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20))
def test_quantize_open_interval_and_monotone(n, z, xs):
    q = Quantizer(n, z)
    x = np.sort(np.asarray(xs))
    y = quantize(x, q)
    assert np.all(y > 0.0) and np.all(y < 1.0)
    assert np.all(np.diff(y) >= 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 6), st.integers(0, 2 ** 31 - 1))
def test_quantize_threshold_permutation_invariant(n, seed):
    rng = np.random.default_rng(seed)
    thresholds = rng.random(n - 1)
    x = rng.random(8)
    q1 = Quantizer(n, 20.0, thresholds)
    q2 = Quantizer(n, 20.0, rng.permutation(thresholds))
    npt.assert_allclose(quantize(x, q1), quantize(x, q2), atol=1e-15)


def test_staircase_limit_hits_every_level():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 6):
        q = Quantizer(n, 1e6)
        x = rng.random(1000)
        far = np.all(np.abs(x[:, None] - q.thresholds) > 1e-4, axis=1)
        x = x[far]
        y = quantize(x, q)
        levels = np.linspace(0.0, 1.0, n)
        nearest = levels[np.abs(y[:, None] - levels).argmin(axis=1)]
        assert np.abs(y - nearest).max() < 1e-6


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_grad_input_at_center():
    q = Quantizer(2, 50.0)
    assert quantize_grad_input(np.array(0.5), q) == 50.0 * 0.25


def test_grad_input_saturated_is_tiny():
    q = Quantizer(2, 100.0, np.array([0.5]))
    vals = quantize_grad_input(np.array([0.0, 1.0]), q)  # |x-t|*z = 50
    assert np.all(np.abs(vals) < 1e-10)


def test_grad_input_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        q = Quantizer(n, float(rng.uniform(1, 50)), rng.random(n - 1))
        x = rng.random(6)
        analytic = quantize_grad_input(x, q)
        fd = np.array([
            nn.finite_difference_gradient(lambda v: float(quantize(v, q)[0]),
                                          np.array([xi]))[0]
            for xi in x
        ])
        assert max_rel_err(analytic, fd) < 1e-6


def test_grad_threshold_at_center():
    q = Quantizer(2, 50.0)
    assert quantize_grad_threshold(np.array(0.5), q, 0) == -50.0 * 0.25


def test_grad_threshold_saturated_is_tiny():
    q = Quantizer(2, 200.0, np.array([0.5]))
    val = quantize_grad_threshold(np.array(1.0), q, 0)  # (x-t)*z = 100
    assert abs(val) < 1e-10


def test_grad_threshold_out_of_range():
    q = Quantizer(3, 10.0)
    with pytest.raises(ValueError, match="out of range"):
        quantize_grad_threshold(np.array(0.5), q, 2)


def test_grad_threshold_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        thresholds = rng.random(n - 1)
        z = float(rng.uniform(1, 50))
        x = rng.random(4)
        for k in range(n - 1):
            q = Quantizer(n, z, thresholds)
            analytic = quantize_grad_threshold(x, q, k)

            def f(tk):
                t2 = thresholds.copy()
                t2[k] = tk[0]
                return float(quantize(x, Quantizer(n, z, t2)).sum())

            fd = nn.finite_difference_gradient(f, np.array([thresholds[k]]))[0]
            assert max_rel_err(analytic.sum(), fd) < 1e-6


def test_cost_threshold_gradient_end_to_end():
    """d(mse o quantize)/d t_k against finite differences over t_k."""
    rng = np.random.default_rng(9)
    n = 3
    thresholds = np.array([0.3, 0.7])
    z = 8.0
    x = rng.random(5)
    truth = rng.random(5)

    def cost_for(t):
        y = quantize(x, Quantizer(n, z, t))
        return nn.mse_cost(y, truth)[0]

    q = Quantizer(n, z, thresholds, mode="trainable")
    _, d_y = nn.mse_cost(quantize(x, q), truth)
    analytic = threshold_gradients(q, d_y, x)
    fd = nn.finite_difference_gradient(cost_for, thresholds)
    assert max_rel_err(analytic, fd, floor=1e-4) < 1e-4


# ---------------------------------------------------------------------------
# update_thresholds
# ---------------------------------------------------------------------------

def test_update_zero_delta_is_noop():
    q = Quantizer(3, 5.0, mode="trainable")
    before = q.thresholds.copy()
    update_thresholds(q, np.zeros(4), np.random.default_rng(0).random(4), 0.1)
    npt.assert_array_equal(q.thresholds, before)


def test_update_hand_example():
    q = Quantizer(2, 5.0, np.array([0.5]), mode="trainable")
    update_thresholds(q, np.array([1.0]), np.array([0.5]), 0.01)
    npt.assert_allclose(q.thresholds, [0.5125], atol=1e-15)


def test_update_clamps_to_zero():
    q = Quantizer(2, 5.0, np.array([0.01]), mode="trainable")
    # large positive gradient drives t below 0
    update_thresholds(q, np.array([-100.0]), np.array([0.01]), 1.0)
    assert q.thresholds[0] == 0.0


def test_update_rejects_constant_mode():
    q = Quantizer(2, 5.0)
    with pytest.raises(ValueError, match="constant"):
        update_thresholds(q, np.array([1.0]), np.array([0.5]), 0.1)


@pytest.mark.parametrize("lr", [0.0, -0.1])
def test_update_rejects_non_positive_lr_through_sgd_update(lr):
    q = Quantizer(2, 5.0, np.array([0.5]), mode="trainable")
    with pytest.raises(ValueError, match="learning rate"):
        update_thresholds(q, np.array([1.0]), np.array([0.5]), lr)
    npt.assert_array_equal(q.thresholds, [0.5])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 31 - 1), st.floats(0.001, 10.0))
def test_update_keeps_thresholds_in_unit_interval(n, seed, lr):
    rng = np.random.default_rng(seed)
    q = Quantizer(n, float(rng.uniform(1, 50)), rng.random(n - 1), mode="trainable")
    x = rng.random((3, 3))
    delta = rng.standard_normal((3, 3)) * 10
    update_thresholds(q, delta, x, lr)
    assert np.all(q.thresholds >= 0.0) and np.all(q.thresholds <= 1.0)


def test_quantizer_validation():
    with pytest.raises(ValueError):
        Quantizer(1, 5.0)
    with pytest.raises(ValueError):
        Quantizer(2, -1.0)
    with pytest.raises(ValueError):
        Quantizer(2, 5.0, np.array([1.5]))
    with pytest.raises(ValueError):
        Quantizer(2, 5.0, np.array([np.nan]))  # fails both bounds checks
    with pytest.raises(ValueError):
        Quantizer(3, 5.0, np.array([0.5]))  # wrong threshold count
    with pytest.raises(ValueError):
        Quantizer(2, 5.0, mode="sometimes")

import numpy as np
import numpy.testing as npt
import pytest

from helpers import conv2d_naive, max_rel_err
from qusecnets import nn


# ---------------------------------------------------------------------------
# finite_difference_gradient is the oracle for everything else: pin it first
# ---------------------------------------------------------------------------

def test_fd_gradient_of_sum_of_squares():
    grad = nn.finite_difference_gradient(lambda v: float((v ** 2).sum()),
                                         np.array([1.0, 2.0]), h=1e-5)
    npt.assert_allclose(grad, [2.0, 4.0], atol=1e-8)


def test_fd_gradient_of_constant_is_zero():
    grad = nn.finite_difference_gradient(lambda v: 3.5, np.ones((2, 3)), h=1e-5)
    npt.assert_array_equal(grad, np.zeros((2, 3)))


def test_fd_matches_analytic_chain_mse_softmax():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal(5)
    truth = np.zeros(5)
    truth[2] = 1.0

    def f(z):
        return nn.mse_cost(nn.softmax(z), truth)[0]

    fd = nn.finite_difference_gradient(f, logits, h=1e-5)
    p = nn.softmax(logits)
    _, d_p = nn.mse_cost(p, truth)
    analytic = nn.softmax(logits, upstream=d_p).d_input
    assert max_rel_err(analytic, fd) < 1e-6


def test_fd_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        nn.finite_difference_gradient(lambda v: 0.0, np.ones(2), h=0.0)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.random((4, 4, 1))
    kernels = np.ones((1, 1, 1, 1))
    out = nn.conv2d(x, kernels, np.zeros(1))
    npt.assert_array_equal(out, x)


def test_conv_counting_ones():
    out = nn.conv2d(np.ones((3, 3, 1)), np.ones((2, 2, 1, 1)), np.zeros(1))
    npt.assert_array_equal(out, np.full((2, 2, 1), 4.0))


def test_conv_matches_naive_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 5, 2))
    kernels = rng.standard_normal((3, 3, 2, 3))
    bias = rng.standard_normal(3)
    upstream = rng.standard_normal((3, 3, 3))

    npt.assert_allclose(nn.conv2d(x, kernels, bias),
                        conv2d_naive(x, kernels, bias), atol=1e-12)
    fast = nn.conv2d(x, kernels, bias, upstream=upstream)
    ref = conv2d_naive(x, kernels, bias, upstream=upstream)
    npt.assert_allclose(fast.d_input, ref.d_input, atol=1e-12)
    npt.assert_allclose(fast.d_params["kernels"], ref.d_params["kernels"], atol=1e-12)
    npt.assert_allclose(fast.d_params["bias"], ref.d_params["bias"], atol=1e-12)


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.random((5, 5, 2))
    kernels = rng.standard_normal((3, 3, 2, 3)) * 0.5
    bias = rng.standard_normal(3)
    proj = rng.standard_normal((3, 3, 3))
    grad = nn.conv2d(x, kernels, bias, upstream=proj)

    fd_x = nn.finite_difference_gradient(
        lambda v: float((nn.conv2d(v, kernels, bias) * proj).sum()), x)
    fd_k = nn.finite_difference_gradient(
        lambda v: float((nn.conv2d(x, v, bias) * proj).sum()), kernels)
    fd_b = nn.finite_difference_gradient(
        lambda v: float((nn.conv2d(x, kernels, v) * proj).sum()), bias)
    assert max_rel_err(grad.d_input, fd_x) < 1e-6
    assert max_rel_err(grad.d_params["kernels"], fd_k) < 1e-6
    assert max_rel_err(grad.d_params["bias"], fd_b) < 1e-6


@pytest.mark.parametrize("bad, message", [
    (dict(input=np.ones((4, 4)), kernels=np.ones((2, 2, 1, 1)), bias=np.zeros(1)), "rank 3"),
    (dict(input=np.ones((4, 4, 2)), kernels=np.ones((2, 2, 1, 1)), bias=np.zeros(1)), "Cin"),
    (dict(input=np.ones((2, 2, 1)), kernels=np.ones((3, 3, 1, 1)), bias=np.zeros(1)), "exceeds"),
    (dict(input=np.ones((4, 4, 1)), kernels=np.ones((2, 2, 1, 2)), bias=np.zeros(1)), "bias"),
])
def test_conv_shape_errors_name_the_dimension(bad, message):
    with pytest.raises(ValueError, match=message):
        nn.conv2d(**bad)


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def test_dense_identity():
    x = np.array([0.3, -1.2, 4.0])
    out = nn.dense(x, np.eye(3), np.zeros(3))
    npt.assert_array_equal(out, x)


def test_dense_hand_arithmetic():
    out = nn.dense(np.array([1.0, 2.0]),
                   np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2))
    npt.assert_array_equal(out, [3.0, 2.0])


def test_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(4)
    W = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    proj = rng.standard_normal(3)
    grad = nn.dense(x, W, b, upstream=proj)

    fd_x = nn.finite_difference_gradient(
        lambda v: float(np.dot(nn.dense(v, W, b), proj)), x)
    fd_W = nn.finite_difference_gradient(
        lambda v: float(np.dot(nn.dense(x, v, b), proj)), W)
    fd_b = nn.finite_difference_gradient(
        lambda v: float(np.dot(nn.dense(x, W, v), proj)), b)
    assert max_rel_err(grad.d_input, fd_x) < 1e-6
    assert max_rel_err(grad.d_params["W"], fd_W) < 1e-6
    assert max_rel_err(grad.d_params["b"], fd_b) < 1e-6


def test_dense_dimension_mismatch():
    with pytest.raises(ValueError, match="input"):
        nn.dense(np.ones(3), np.ones((2, 4)), np.zeros(2))


def test_batched_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 4))
    W = rng.standard_normal((2, 4))
    b = rng.standard_normal(2)
    proj = rng.standard_normal((3, 2))
    grad = nn.dense(x, W, b, upstream=proj)

    fd_x = nn.finite_difference_gradient(
        lambda v: float((nn.dense(v, W, b) * proj).sum()), x)
    fd_W = nn.finite_difference_gradient(
        lambda v: float((nn.dense(x, v, b) * proj).sum()), W)
    fd_b = nn.finite_difference_gradient(
        lambda v: float((nn.dense(x, W, v) * proj).sum()), b)
    assert max_rel_err(grad.d_input, fd_x) < 1e-6
    assert max_rel_err(grad.d_params["W"], fd_W) < 1e-6
    assert max_rel_err(grad.d_params["b"], fd_b) < 1e-6


def test_batched_dense_rows_match_single_row_calls():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((3, 5))
    W = rng.standard_normal((4, 5))
    b = rng.standard_normal(4)
    upstream = rng.standard_normal((3, 4))
    out = nn.dense(x, W, b)
    grad = nn.dense(x, W, b, upstream=upstream)
    rows = [nn.dense(x[i], W, b, upstream=upstream[i]) for i in range(3)]
    for i in range(3):
        npt.assert_allclose(out[i], nn.dense(x[i], W, b), atol=1e-12)
        npt.assert_allclose(grad.d_input[i], rows[i].d_input, atol=1e-12)
    npt.assert_allclose(grad.d_params["W"], sum(g.d_params["W"] for g in rows), atol=1e-12)
    npt.assert_allclose(grad.d_params["b"], sum(g.d_params["b"] for g in rows), atol=1e-12)


@pytest.mark.parametrize("upstream_shape", [(2,), (3, 3), (2, 2), (3, 2, 1)],
                         ids=["unbatched", "wrong-width", "wrong-batch", "extra-axis"])
def test_batched_dense_rejects_wrong_upstream_shape(upstream_shape):
    with pytest.raises(ValueError, match="upstream"):
        nn.dense(np.ones((3, 4)), np.ones((2, 4)), np.zeros(2), upstream=np.ones(upstream_shape))


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------

def test_relu_forward():
    npt.assert_array_equal(nn.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_relu_all_negative():
    x = -np.ones((3, 3))
    npt.assert_array_equal(nn.relu(x), np.zeros((3, 3)))
    grad = nn.relu(x, upstream=np.ones((3, 3)))
    npt.assert_array_equal(grad.d_input, np.zeros((3, 3)))


def test_relu_gradient_matches_fd_away_from_zero():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(40)
    x = x[np.abs(x) > 1e-3]
    proj = rng.standard_normal(x.shape)
    grad = nn.relu(x, upstream=proj)
    fd = nn.finite_difference_gradient(lambda v: float((nn.relu(v) * proj).sum()), x)
    assert max_rel_err(grad.d_input, fd) < 1e-6


def test_relu_subgradient_at_zero_is_zero():
    grad = nn.relu(np.zeros(3), upstream=np.ones(3))
    npt.assert_array_equal(grad.d_input, np.zeros(3))


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform():
    npt.assert_allclose(nn.softmax(np.full(10, 2.5)), np.full(10, 0.1), atol=1e-15)


def test_softmax_stabilized_no_overflow():
    out = nn.softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    npt.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_softmax_sums_to_one_and_stays_finite_for_huge_logits():
    rng = np.random.default_rng(4)
    for _ in range(20):
        logits = rng.uniform(-1e6, 1e6, size=6)
        out = nn.softmax(logits)
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_jacobian_matches_finite_differences():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal(5)
    proj = rng.standard_normal(5)
    grad = nn.softmax(logits, upstream=proj)
    fd = nn.finite_difference_gradient(
        lambda v: float((nn.softmax(v) * proj).sum()), logits)
    assert max_rel_err(grad.d_input, fd) < 1e-6


def test_softmax_needs_two_classes():
    with pytest.raises(ValueError):
        nn.softmax(np.array([1.0]))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_mse_perfect_prediction():
    p = np.array([0.2, 0.8])
    assert nn.mse_cost(p, p)[0] == 0.0


def test_mse_two_class_flip():
    cost, _ = nn.mse_cost(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert cost == 1.0


def test_mse_value_and_gradient():
    rng = np.random.default_rng(8)
    p = rng.random(6)
    truth = np.zeros(6)
    truth[3] = 1.0
    cost, grad = nn.mse_cost(p, truth)
    manual = sum((p[i] - truth[i]) ** 2 for i in range(6)) / 6
    assert abs(cost - manual) < 1e-15
    fd = nn.finite_difference_gradient(lambda v: nn.mse_cost(v, truth)[0], p)
    assert max_rel_err(grad, fd) < 1e-8


def test_mse_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        nn.mse_cost(np.ones(3), np.ones(4))


def test_batched_mse_is_the_mean_of_single_row_calls():
    rng = np.random.default_rng(17)
    p = rng.random((4, 6))
    truth = np.eye(6)[[0, 3, 5, 3]]
    cost, grad = nn.mse_cost(p, truth)
    rows = [nn.mse_cost(p[i], truth[i]) for i in range(4)]
    assert abs(cost - np.mean([c for c, _ in rows])) < 1e-12
    for i in range(4):
        npt.assert_allclose(grad[i], rows[i][1] / 4, atol=1e-12)
    fd = nn.finite_difference_gradient(lambda v: nn.mse_cost(v, truth)[0], p)
    assert max_rel_err(grad, fd) < 1e-8


def test_cross_entropy_certain_prediction():
    p = np.array([0.0, 1.0, 0.0])
    assert nn.cross_entropy(p, 1)[0] == 0.0


def test_cross_entropy_uniform():
    cost, _ = nn.cross_entropy(np.full(10, 0.1), 4)
    npt.assert_allclose(cost, np.log(10.0), atol=1e-12)


def test_cross_entropy_gradient_matches_fd():
    rng = np.random.default_rng(9)
    p = rng.uniform(0.05, 0.95, 5)
    _, grad = nn.cross_entropy(p, 2)
    fd = nn.finite_difference_gradient(lambda v: nn.cross_entropy(v, 2)[0], p)
    assert max_rel_err(grad, fd) < 1e-6


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        nn.cross_entropy(np.full(4, 0.25), 4)


# ---------------------------------------------------------------------------
# backprop_delta / sgd_update
# ---------------------------------------------------------------------------

def test_backprop_delta_identity():
    deltas = np.array([1.0, -2.0, 3.0])
    npt.assert_array_equal(nn.backprop_delta(deltas, np.eye(3)), deltas)


def test_backprop_delta_single_neuron():
    npt.assert_array_equal(
        nn.backprop_delta(np.array([3.0]), np.array([[2.0]])), [6.0])


def test_backprop_delta_equals_dense_d_input():
    rng = np.random.default_rng(10)
    W = rng.standard_normal((4, 6))
    for lead in [(), (3,)]:  # one delta vector, then a (B,M) batch of them
        deltas = rng.standard_normal(lead + (4,))
        via_dense = nn.dense(rng.standard_normal(lead + (6,)), W, np.zeros(4),
                             upstream=deltas).d_input
        npt.assert_array_equal(nn.backprop_delta(deltas, W), via_dense)


def test_sgd_zero_gradient():
    p = np.array([1.0, 2.0])
    npt.assert_array_equal(nn.sgd_update(p, np.zeros(2), 0.1), p)


def test_sgd_hand_value():
    assert nn.sgd_update(np.array([1.0]), np.array([0.5]), 0.1)[0] == 0.95


def test_sgd_two_steps_equal_one_double_step():
    p = np.array([0.7, -0.3])
    g = np.array([0.2, 0.4])
    twice = nn.sgd_update(nn.sgd_update(p, g, 0.05), g, 0.05)
    once = nn.sgd_update(p, 2.0 * g, 0.05)
    npt.assert_allclose(twice, once, atol=1e-15)


def test_sgd_rejects_bad_args():
    with pytest.raises(ValueError):
        nn.sgd_update(np.ones(2), np.ones(3), 0.1)
    with pytest.raises(ValueError):
        nn.sgd_update(np.ones(2), np.ones(2), -0.1)


# ---------------------------------------------------------------------------
# batched kernels agree with the single-image surface
# ---------------------------------------------------------------------------

def test_batched_conv_matches_per_image():
    rng = np.random.default_rng(12)
    xs = rng.random((4, 6, 6, 2))
    kernels = rng.standard_normal((3, 3, 2, 5))
    bias = rng.standard_normal(5)
    batch_out, _ = nn.conv_forward_batch(xs, kernels, bias)
    for i in range(4):
        npt.assert_allclose(batch_out[i], nn.conv2d(xs[i], kernels, bias), atol=1e-12)


def test_batched_conv_backward_sums_per_image_param_grads():
    rng = np.random.default_rng(13)
    xs = rng.random((3, 5, 5, 2))
    kernels = rng.standard_normal((2, 2, 2, 3))
    bias = rng.standard_normal(3)
    upstream = rng.standard_normal((3, 4, 4, 3))
    _, rows = nn.conv_forward_batch(xs, kernels, bias)
    d_k, d_b, d_in = nn.conv_backward_batch(rows, kernels, upstream, xs.shape)
    per_image = [nn.conv2d(xs[i], kernels, bias, upstream=upstream[i]) for i in range(3)]
    npt.assert_allclose(d_k, sum(g.d_params["kernels"] for g in per_image), atol=1e-12)
    npt.assert_allclose(d_b, sum(g.d_params["bias"] for g in per_image), atol=1e-12)
    for i in range(3):
        npt.assert_allclose(d_in[i], per_image[i].d_input, atol=1e-12)


# ---------------------------------------------------------------------------
# batched row-patch conv against the loop-nest oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("cin", [1, 3])
@pytest.mark.parametrize("h, w, k", [(5, 7, 1), (4, 6, 4), (6, 5, 3)],
                         ids=["k1", "k-equals-h", "h-above-w"])
def test_batched_conv_parity_matrix(n, cin, h, w, k):
    rng = np.random.default_rng([n, cin, h, w, k])
    cout = 2
    xs = rng.standard_normal((n, h, w, cin))
    kernels = rng.standard_normal((k, k, cin, cout))
    bias = rng.standard_normal(cout)
    upstream = rng.standard_normal((n, h - k + 1, w - k + 1, cout))
    out, rows = nn.conv_forward_batch(xs, kernels, bias)
    refs = [conv2d_naive(xs[i], kernels, bias, upstream=upstream[i]) for i in range(n)]
    for i in range(n):
        npt.assert_allclose(out[i], conv2d_naive(xs[i], kernels, bias), atol=1e-12)
    ref_k = sum(g.d_params["kernels"] for g in refs)
    ref_b = sum(g.d_params["bias"] for g in refs)
    results = {}
    for need_input in (True, False):
        for need_params in (True, False):
            d_k, d_b, d_in = nn.conv_backward_batch(
                rows, kernels, upstream, xs.shape, need_input=need_input,
                need_params=need_params)
            results[need_input, need_params] = d_in
            if need_params:
                npt.assert_allclose(d_k, ref_k, atol=1e-12)
                npt.assert_allclose(d_b, ref_b, atol=1e-12)
            else:
                assert d_k is None and d_b is None
            if need_input:
                for i in range(n):
                    npt.assert_allclose(d_in[i], refs[i].d_input, atol=1e-12)
            else:
                assert d_in is None
    assert results[True, False].tobytes() == results[True, True].tobytes()


def test_pooled_conv_matches_unpooled_across_shape_changes():
    rng = np.random.default_rng(14)
    kernels = rng.standard_normal((3, 3, 2, 4))
    bias = rng.standard_normal(4)
    pool = nn.BufferPool()
    for shape in [(2, 6, 5, 2), (3, 5, 7, 2), (2, 6, 5, 2)]:
        xs = rng.standard_normal(shape)
        upstream = rng.standard_normal((shape[0], shape[1] - 2, shape[2] - 2, 4))
        fresh_out, fresh_rows = nn.conv_forward_batch(xs, kernels, bias)
        fresh = nn.conv_backward_batch(fresh_rows, kernels, upstream, xs.shape)
        out, rows = nn.conv_forward_batch(xs, kernels, bias, pool=pool, key="c")
        npt.assert_array_equal(out, fresh_out)
        pooled = nn.conv_backward_batch(rows, kernels, upstream, xs.shape,
                                        pool=pool, key="c")
        for a, b in zip(pooled, fresh):
            npt.assert_array_equal(a, b)
        # an upstream already laid out H'-major (a lower layer's d_input) is used in place
        hmajor = np.ascontiguousarray(upstream.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        for a, b in zip(nn.conv_backward_batch(rows, kernels, hmajor, xs.shape), fresh):
            npt.assert_array_equal(a, b)

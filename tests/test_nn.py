import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    (dict(input=np.ones((4, 4, 1)), kernels=np.ones((2, 2, 1)), bias=np.zeros(1)), "rank 4"),
    (dict(input=np.ones((4, 4, 1)), kernels=np.ones((2, 3, 1, 1)), bias=np.zeros(1)), "square"),
    (dict(input=np.ones((4, 4, 1)), kernels=np.ones((2, 2, 1, 1)), bias=np.zeros(1),
          upstream=np.ones((2, 2, 1))), "upstream"),
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


def test_backprop_delta_identity():
    # the delta carried back through a dense layer is upstream @ W
    x = np.array([0.3, -1.2, 4.0])
    deltas = np.array([1.0, -2.0, 3.0])
    npt.assert_array_equal(
        nn.dense(x, np.eye(3), np.zeros(3), upstream=deltas).d_input, deltas)


def test_backprop_delta_single_neuron():
    # one neuron: d_input = W * delta
    grad = nn.dense(np.array([5.0]), np.array([[2.0]]), np.zeros(1),
                    upstream=np.array([3.0]))
    npt.assert_array_equal(grad.d_input, [6.0])


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


@pytest.mark.parametrize("W, b, message", [
    (np.ones(3), np.zeros(3), "rank 2"),
    (np.ones((2, 3)), np.zeros(3), "bias"),
], ids=["rank-1-W", "bias-shape"])
def test_dense_rejects_bad_weight_and_bias_shapes(W, b, message):
    with pytest.raises(ValueError, match=message):
        nn.dense(np.ones(3), W, b)


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
# sgd_update
# ---------------------------------------------------------------------------

# sgd_update steps param in place and consumes grad, so each call below gets
# copies and its result is compared with values saved before the call.

def test_sgd_zero_gradient():
    p = np.array([1.0, 2.0])
    npt.assert_array_equal(nn.sgd_update(p.copy(), np.zeros(2), 0.1), p)


def test_sgd_hand_value():
    assert nn.sgd_update(np.array([1.0]), np.array([0.5]), 0.1)[0] == 0.95


def test_sgd_two_steps_equal_one_double_step():
    p = np.array([0.7, -0.3])
    g = np.array([0.2, 0.4])
    twice = nn.sgd_update(nn.sgd_update(p.copy(), g.copy(), 0.05), g.copy(), 0.05)
    once = nn.sgd_update(p.copy(), 2.0 * g, 0.05)
    npt.assert_allclose(twice, once, atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("grad_layout", ["C", "transposed"])
def test_sgd_steps_param_itself_to_the_bytes_of_the_pure_step(dtype, grad_layout):
    """The result is param, holding param - lr * grad; grad is left holding
    lr * grad. A transposed grad is the layout of a conv's kernel gradient."""
    rng = np.random.default_rng(0)
    p0 = rng.standard_normal((5, 7)).astype(dtype)
    g0 = rng.standard_normal((5, 7)).astype(dtype)
    p = p0.copy()
    g = g0.copy() if grad_layout == "C" else np.ascontiguousarray(g0.T).T
    out = nn.sgd_update(p, g, 0.1)
    assert out is p and out.dtype == dtype and out.flags.c_contiguous
    assert out.tobytes() == (p0 - 0.1 * g0).tobytes()
    assert np.ascontiguousarray(g).tobytes() == (0.1 * g0).tobytes()


def test_sgd_step_allocates_nothing():
    p, g = np.ones(1 << 17), np.full(1 << 17, 0.5)  # 1 MiB each
    tracemalloc.start()
    try:
        nn.sgd_update(p, g, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024
    assert np.all(p == 0.95)


def test_sgd_rejects_bad_args():
    with pytest.raises(ValueError):
        nn.sgd_update(np.ones(2), np.ones(3), 0.1)
    with pytest.raises(ValueError):
        nn.sgd_update(np.ones(2), np.ones(2), -0.1)
    p = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="shares memory"):
        nn.sgd_update(p, p, 0.1)
    with pytest.raises(ValueError, match="shares memory"):
        nn.sgd_update(p, p[::-1], 0.1)
    npt.assert_array_equal(p, [1.0, 2.0])


# ---------------------------------------------------------------------------
# batched kernels agree with the single-image surface
# ---------------------------------------------------------------------------

def test_batched_conv_matches_per_image():
    rng = np.random.default_rng(12)
    xs = rng.random((4, 6, 6, 2))
    kernels = rng.standard_normal((3, 3, 2, 5))
    bias = rng.standard_normal(5)
    batch_out = nn.conv_forward_batch(xs, kernels, bias, nn.BufferPool())
    for i in range(4):
        npt.assert_allclose(batch_out[i], nn.conv2d(xs[i], kernels, bias), atol=1e-12)


def test_batched_conv_backward_sums_per_image_param_grads():
    rng = np.random.default_rng(13)
    xs = rng.random((3, 5, 5, 2))
    kernels = rng.standard_normal((2, 2, 2, 3))
    bias = rng.standard_normal(3)
    upstream = rng.standard_normal((3, 4, 4, 3))
    pool = nn.BufferPool()
    d_k, d_b, d_in = nn.conv_backward_batch(nn.row_patches(xs, 2, pool), kernels, upstream,
                                            xs.shape, True, pool,
                                            into=np.empty_like(xs).transpose(1, 0, 2, 3))
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
    out = nn.conv_forward_batch(xs, kernels, bias, nn.BufferPool())
    refs = [conv2d_naive(xs[i], kernels, bias, upstream=upstream[i]) for i in range(n)]
    for i in range(n):
        npt.assert_allclose(out[i], conv2d_naive(xs[i], kernels, bias), atol=1e-12)
    ref_k = sum(g.d_params["kernels"] for g in refs)
    ref_b = sum(g.d_params["bias"] for g in refs)
    results = {}
    for need_input in (True, False):
        for need_params in (True, False):
            pool = nn.BufferPool()  # rows, then the input gradient's scratch
            d_k, d_b, d_in = nn.conv_backward_batch(
                nn.row_patches(xs, k, pool), kernels, upstream, xs.shape, need_input=need_input,
                pool=pool, need_params=need_params, into=np.empty_like(xs).transpose(1, 0, 2, 3))
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


def test_pool_views_share_the_buffer_until_a_larger_request():
    pool = nn.BufferPool()
    first = pool.get("k", (4, 6))
    smaller = pool.get("k", (3, 5))
    assert smaller.shape == (3, 5) and np.shares_memory(first, smaller)
    larger = pool.get("k", (5, 6))
    assert larger.shape == (5, 6) and not np.shares_memory(first, larger)
    assert np.shares_memory(larger, pool.get("k", (2, 3, 5)))
    assert not np.shares_memory(larger, pool.get("other", (2,)))


def test_growing_a_pool_key_holds_one_buffer():
    """Growth frees the key's old buffer before it allocates the new one, so
    the growing get peaks at about the new size, not old plus new; a view a
    caller still holds keeps its old memory alive."""
    old, new = 2**20, 3 * 2**19  # float64s
    pool = nn.BufferPool()
    tracemalloc.start()
    try:
        pool.get("k", (old,))
        tracemalloc.reset_peak()
        pool.get("k", (new,))
        grown, peak = tracemalloc.get_traced_memory()
        held = pool.get("k", (4,))
        tracemalloc.reset_peak()
        pool.get("k", (2 * new,))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 8 * new <= grown <= peak < 8 * new + 2**16
    assert kept >= 8 * (new + 2 * new) and held.size == 4


def test_pooled_conv_matches_unpooled_across_shape_changes(monkeypatch):
    """Two stacked layers on one pool, called in model order, as batch and size change.

    Once in one tile a layer, and once in tiles of one image row,
    where each input-gradient tile's scratch lies inside the row patches
    the kernel gradient read before it.
    """
    rng = np.random.default_rng(14)
    ka, ba = rng.standard_normal((3, 3, 2, 4)), rng.standard_normal(4)
    kb, bb = rng.standard_normal((2, 2, 4, 3)), rng.standard_normal(3)
    taken = []

    class Pool(nn.BufferPool):  # records the key and the view of every request
        def get(self, key, shape):
            taken.append((key, super().get(key, shape)))
            return taken[-1][1]

    def fresh(rows, kernels, upstream, shape):  # on a pool and into memory of its own
        return nn.conv_backward_batch(rows, kernels, upstream, shape, True, nn.BufferPool(),
                                      into=np.empty(shape).transpose(1, 0, 2, 3))

    for tile_rows, split in ((nn.TILE_ROWS, False), (4, True)):
        monkeypatch.setattr(nn, "TILE_ROWS", tile_rows)
        pool = Pool()
        for shape in [(2, 6, 5, 2), (3, 5, 7, 2), (2, 6, 5, 2)]:
            xs = rng.standard_normal(shape)
            mid = (shape[0], shape[1] - 2, shape[2] - 2, 4)
            upstream = rng.standard_normal((shape[0], mid[1] - 1, mid[2] - 1, 3))
            assert (len(nn._tiles(shape[1], shape[0] * (shape[2] - 2))) > 1) == split
            fresh_a = nn.conv_forward_batch(xs, ka, ba, nn.BufferPool())
            fresh_b = nn.conv_forward_batch(fresh_a, kb, bb, nn.BufferPool())
            fresh_rows_a = nn.row_patches(xs, 3, nn.BufferPool())
            fresh_rows_b = nn.row_patches(fresh_a, 2, nn.BufferPool())
            fresh_grad_b = fresh(fresh_rows_b, kb, upstream, mid)
            fresh_grad_a = fresh(fresh_rows_a, ka, fresh_grad_b[2], shape)
            # forward A, forward B, backward B, backward A, as Model runs them: each
            # training backward refills the shared rows from its input, and B's
            # input gradient goes over A's output, dead by then
            out_a = nn.conv_forward_batch(xs, ka, ba, pool=pool, key="a")
            out_b = nn.conv_forward_batch(out_a, kb, bb, pool=pool, key="b")
            outs = (out_a.copy(), out_b.copy())
            # B's upstream lies H'-major in B's spent output, where the model's
            # dense layer leaves its d_input, and is read in place
            out_b[...] = upstream
            taken.clear()
            grad_b = nn.conv_backward_batch(nn.row_patches(out_a, 2, pool), kb, out_b, mid,
                                            True, pool, "b", into=out_a.transpose(1, 0, 2, 3))
            assert np.shares_memory(grad_b[2], out_a)
            assert {key for key, _ in taken} == {"rows"}
            npt.assert_array_equal(out_b, upstream)
            taken.clear()
            # A's input is dead once its rows are built: its d_input goes over it
            grad_a = nn.conv_backward_batch(nn.row_patches(xs, 3, pool), ka, grad_b[2], shape,
                                            True, pool, "a", into=xs.transpose(1, 0, 2, 3))
            # A's upstream is B's d_input, H'-major already: no copy
            assert {key for key, _ in taken} == {"rows"}
            assert np.shares_memory(grad_a[2], xs)
            if split:  # the tiles' scratch went into the row patches A's kernel gradient read
                patches, scratch = (v for key, v in taken if key == "rows")
                assert np.shares_memory(patches, scratch)
            for a, b in zip(outs + grad_b + grad_a,
                            (fresh_a, fresh_b) + fresh_grad_b + fresh_grad_a):
                assert a.tobytes() == b.tobytes()
            # an upstream already laid out H'-major (a lower layer's d_input) is used in place
            hmajor = np.ascontiguousarray(upstream.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
            for a, b in zip(fresh(fresh_rows_b, kb, hmajor, mid), fresh_grad_b):
                npt.assert_array_equal(a, b)
            # a C-ordered upstream is laid out H'-major in new memory: B's output
            # is left as it was
            out_b[...] = outs[1]
            taken.clear()
            into = np.empty(mid).transpose(1, 0, 2, 3)
            grad_b = nn.conv_backward_batch(fresh_rows_b, kb, upstream, mid, True, pool, "b",
                                            into=into)
            for a, b in zip(grad_b, fresh_grad_b):
                npt.assert_array_equal(a, b)
            assert {key for key, _ in taken} == {"rows"}
            assert np.shares_memory(grad_b[2], into)
            assert out_b.tobytes() == outs[1].tobytes()


@given(rows=st.integers(1, 80), stride=st.integers(1, 5000))
def test_tiles_cover_the_rows_in_near_equal_tiles_of_enough_gemm_rows(rows, stride):
    tiles = nn._tiles(rows, stride)
    assert tiles[0][0] == 0 and tiles[-1][1] == rows
    assert all(b == c for (_, b), (c, _) in zip(tiles, tiles[1:]))
    sizes = [b - a for a, b in tiles]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert len(tiles) <= rows
    assert (len(tiles) == 1) == (rows == 1 or rows * stride < 2 * nn.TILE_ROWS)
    if len(tiles) > 1:
        assert min(sizes) * stride > nn.TILE_ROWS - stride


@given(rows=st.integers(1, 80), stride=st.integers(1, 5000))
def test_split_input_gradient_tiles_take_at_most_the_row_patches_and_one_row(rows, stride):
    """An input-gradient tile takes two blocks of its rows: split, both fit in rows + 1."""
    tiles = nn._tiles(rows, 2 * stride)
    if len(tiles) > 1:
        assert 2 * max(b - a for a, b in tiles) <= rows + 1


@pytest.mark.parametrize("tile_rows", [nn.TILE_ROWS, 3000])
def test_a_conv_split_into_tiles_gives_the_bytes_of_one_tile(monkeypatch, tile_rows):
    """Forward, input-only backward and full backward of a (64,21,21,16) k=6 layer.

    Also of the quarter stack's conv0 at batch 64 (Cin 1, k 8, Cout 16),
    whose input gradient runs in 28 tiles of one row at the default
    TILE_ROWS.
    """
    rng = np.random.default_rng(15)
    for (n, h, w, cin), k, cout in (((64, 21, 21, 16), 6, 32), ((64, 28, 28, 1), 8, 16)):
        oh, ow = h - k + 1, w - k + 1
        xs = rng.random((n, h, w, cin))
        kernels = rng.standard_normal((k, k, cin, cout)) * 0.1
        bias = rng.standard_normal(cout)
        upstream = rng.standard_normal((n, oh, ow, cout))

        def run():  # as the model runs them: each backward's rows and scratch share a pool
            out = nn.conv_forward_batch(xs, kernels, bias, nn.BufferPool())
            pool = nn.BufferPool()
            _, _, d_in = nn.conv_backward_batch(
                nn.row_patches(xs, k, pool, fill=False), kernels, upstream, xs.shape, True, pool,
                need_params=False, into=np.empty_like(xs).transpose(1, 0, 2, 3))
            return [out, d_in, *nn.conv_backward_batch(
                nn.row_patches(xs, k, pool), kernels, upstream, xs.shape, True, pool,
                into=np.empty_like(xs).transpose(1, 0, 2, 3))]

        def counts():  # forward and input-gradient tiles
            return len(nn._tiles(oh, n * ow)), len(nn._tiles(h, 2 * n * ow))

        if cin == 1:
            assert counts()[1] == 28
        monkeypatch.setattr(nn, "TILE_ROWS", tile_rows)
        assert min(counts()) > 1
        tiled = run()
        monkeypatch.setattr(nn, "TILE_ROWS", 10**9)
        assert counts() == (1, 1)
        for a, b in zip(tiled, run(), strict=True):
            assert a.tobytes() == b.tobytes()
        monkeypatch.undo()


def _conv_layers(shape, stack):
    """(H, W, Cin, Cout, k) of each conv of a stack of (Cout, k) on an (H, W, Cin) input."""
    h, w, cin = shape
    for cout, k in stack:
        yield h, w, cin, cout, k
        h, w, cin = h - k + 1, w - k + 1, cout


# the default, quarter and tiny stacks, each on its dataset's input shape
STACKS = {
    "default-28x28x1": ((28, 28, 1), ((64, 8), (128, 6), (128, 5))),
    "quarter": ((28, 28, 1), ((16, 8), (32, 6), (32, 5))),
    "tiny": ((8, 8, 1), ((4, 3), (4, 2), (4, 2))),
}


@pytest.mark.parametrize("n", [1, 63])
@pytest.mark.parametrize("stack", STACKS)
def test_kernel_gradient_keeps_its_bytes_and_owns_its_memory(stack, n):
    """Each kernel row's GEMM, into a transposed view, gives the bytes of rows_block.T @ up."""
    rng = np.random.default_rng(n)
    pool = nn.BufferPool()
    for h, w, cin, cout, k in _conv_layers(*STACKS[stack]):
        xs = rng.random((n, h, w, cin))
        kernels = rng.standard_normal((k, k, cin, cout))
        oh, ow = h - k + 1, w - k + 1
        upstream = rng.standard_normal((n, oh, ow, cout))
        rows = nn.row_patches(xs, k, pool)
        d_k, _, _ = nn.conv_backward_batch(rows, kernels, upstream, xs.shape,
                                           need_input=False, pool=pool,
                                           into=np.empty_like(xs).transpose(1, 0, 2, 3))
        stride, m = n * ow, oh * n * ow
        up = np.ascontiguousarray(upstream.transpose(1, 0, 2, 3)).reshape(m, cout)
        ref = np.stack([rows[ki * stride:ki * stride + m].T @ up for ki in range(k)])
        assert d_k.tobytes() == ref.reshape(d_k.shape).tobytes()
        # a view of pooled scratch would be overwritten by the next layer's backward
        assert not any(np.shares_memory(d_k, buf) for buf in pool._bufs.values())


@pytest.mark.parametrize("layer, n, exact", [(1, 64, True), (2, 64, True), (2, 63, False)],
                         ids=["conv1-64", "conv2-64", "conv2-63"])
def test_a_wide_forward_gives_the_bytes_of_the_narrow_one_and_of_one_tile(
        monkeypatch, layer, n, exact):
    """The default stack's conv1/conv2 forward at batch 64 (train_tq's shapes), and conv2 at 63.

    At 63 each tile spans 2268 GEMM rows, not a multiple of 8, so BLAS runs
    its edge kernels on part of each (Cout, tile) GEMM: the wide forward may
    round apart from the narrow one, and from itself in one tile.
    """
    h, w, cin, cout, k = list(_conv_layers(*STACKS["default-28x28x1"]))[layer]
    rng = np.random.default_rng([layer, n])
    xs = rng.random((n, h, w, cin))
    kernels = rng.standard_normal((k, k, cin, cout)) * 0.1
    bias = rng.standard_normal(cout)
    assert k * cin >= nn.WIDE_DEPTH and len(nn._tiles(h - k + 1, n * (w - k + 1))) > 1
    wide = nn.conv_forward_batch(xs, kernels, bias, nn.BufferPool())
    # one tile without raising TILE_ROWS, which would make the layer narrow
    monkeypatch.setattr(nn, "_tiles", lambda rows, stride: [(0, rows)])
    one_tile = nn.conv_forward_batch(xs, kernels, bias, nn.BufferPool())
    monkeypatch.undo()
    monkeypatch.setattr(nn, "WIDE_DEPTH", 10**9)
    narrow = nn.conv_forward_batch(xs, kernels, bias, nn.BufferPool())
    for other in (one_tile, narrow):
        if exact:
            assert wide.tobytes() == other.tobytes()
        else:
            npt.assert_allclose(wide, other, rtol=1e-12)


@pytest.mark.parametrize("layout", ["cin1", "h-major-view"])
def test_row_patches_equal_a_copy_per_kernel_column(layout):
    rng = np.random.default_rng(16)
    if layout == "cin1":
        xs = rng.standard_normal((3, 9, 8, 1))
    else:  # a lower conv's output: an (N,H,W,C) view of H-major memory
        xs = rng.standard_normal((9, 3, 8, 4)).transpose(1, 0, 2, 3)
        assert not xs.flags.c_contiguous
    n, h, w, cin = xs.shape
    k = 3
    ow = w - k + 1
    ref = np.empty((h, n, ow, k, cin))
    for kj in range(k):
        ref[:, :, :, kj, :] = xs.transpose(1, 0, 2, 3)[:, :, kj:kj + ow, :]
    rows = nn.row_patches(xs, k, nn.BufferPool())
    assert rows.tobytes() == ref.reshape(h * n * ow, k * cin).tobytes()


def test_ops_compute_in_the_dtype_they_are_given():
    rng = np.random.default_rng(0)

    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    x, W, b, up = f32(3, 5), f32(4, 5), f32(4), f32(3, 4)
    p = nn.softmax(f32(3, 4))
    grad = nn.dense(x, W, b, upstream=up)
    outs = {
        "dense": nn.dense(x, W, b),
        "dense d_input": grad.d_input,
        "dense d_W": grad.d_params["W"],
        "dense d_b": grad.d_params["b"],
        "relu": nn.relu(x),
        "relu d_input": nn.relu(x, upstream=x).d_input,
        "softmax": p,
        "softmax d_input": nn.softmax(p, upstream=up).d_input,
        "mse_cost d_P": nn.mse_cost(p, up)[1],
        "sgd_update": nn.sgd_update(W.copy(), W.copy(), 0.1),
    }
    assert {name: out.dtype for name, out in outs.items()} == dict.fromkeys(outs, np.float32)
    # the reference the gradient checks compare against stays float64
    fd = nn.finite_difference_gradient(lambda v: float((v * v).sum()), f32(3))
    assert fd.dtype == np.float64

"""Dense-tensor layer ops with explicit forward and gradient paths.

Everything is float64. There is no autodiff graph: each op either runs
forward (``upstream=None``) or returns a LayerGrad holding the gradient of
the cost w.r.t. its input and parameters, given the upstream gradient
w.r.t. its output. Ops are pure functions, and each formula exists once.
The model calls conv_forward_batch/conv_backward_batch, dense (only
backprop_delta on input-gradient passes), softmax_batch,
softmax_backward_batch and mse_cost, and sgd_update steps both its
weights and, through quantize.update_thresholds, the TQ thresholds.
conv2d and softmax are the single-image and single-vector forms. Two ops
only serve as references: the conv layer fuses its ReLU (relu's mask,
applied in place), and the cross-entropy loss goes to d logits in closed
form (cross_entropy is its d/dP).

The batched conv copies its input k times (one width shift per kernel
column) into a row-patch matrix and runs one GEMM per kernel row over a
contiguous block of it, so no k*k patch (im2col) matrix is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Tensor = np.ndarray


@dataclass
class LayerGrad:
    """Gradients produced by one layer: d cost/d input plus per-parameter grads."""

    d_input: Tensor
    d_params: dict[str, Tensor] = field(default_factory=dict)


def _as_f64(x) -> Tensor:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# Convolution (valid padding, stride 1)
# ---------------------------------------------------------------------------

class BufferPool:
    """Reusable scratch arrays keyed by name; avoids re-faulting big buffers.

    Each conv layer keeps its row-patch matrix, output and gradient
    workspaces here, tens of MB per layer at batch 64; allocating them
    fresh every batch costs page faults on every call. Buffers are
    replaced when the requested shape changes, and hold garbage between
    uses, so callers must fully overwrite (or fill) what they take.
    """

    def __init__(self):
        self._bufs: dict[str, Tensor] = {}

    def get(self, key: str, shape: tuple) -> Tensor:
        buf = self._bufs.get(key)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape)
            self._bufs[key] = buf
        return buf

    def clear(self):
        self._bufs.clear()


def _take(pool: BufferPool | None, key: str, shape: tuple) -> Tensor:
    return np.empty(shape) if pool is None else pool.get(key, shape)


def conv_forward_batch(x: Tensor, kernels: Tensor, bias: Tensor,
                       pool: BufferPool | None = None, key: str = "conv"):
    """Valid convolution of a (N,H,W,Cin) batch with (k,k,Cin,Cout) kernels.

    Returns (output, rows). rows is the (H*N*W', k*Cin) row-patch matrix:
    row (r, n, j) holds x[n, r, j:j+k, :], so the patches of kernel row ki
    are the contiguous rows [ki*N*W', ki*N*W' + H'*N*W') and the conv is a
    sum of k GEMMs over those blocks. conv_backward_batch reuses rows.
    With a pool, rows and output live in it (output as an (N,H',W',Cout)
    view of H'-major memory): consume both before the next call that
    reuses the same key.
    """
    n, h, w, cin = x.shape
    k = kernels.shape[0]
    cout = kernels.shape[3]
    oh, ow = h - k + 1, w - k + 1
    stride, m = n * ow, oh * n * ow
    rows5 = _take(pool, key + ".rows", (h, n, ow, k, cin))
    x_hmajor = x.transpose(1, 0, 2, 3)
    for kj in range(k):
        rows5[:, :, :, kj, :] = x_hmajor[:, :, kj:kj + ow, :]
    rows = rows5.reshape(h * stride, k * cin)
    kern = kernels.reshape(k, k * cin, cout)
    out = _take(pool, key + ".out", (m, cout))
    np.matmul(rows[:m], kern[0], out=out)
    part = _take(pool, key + ".part", (m, cout))
    for ki in range(1, k):
        np.matmul(rows[ki * stride:ki * stride + m], kern[ki], out=part)
        out += part
    out += bias
    return out.reshape(oh, n, ow, cout).transpose(1, 0, 2, 3), rows


def conv_backward_batch(rows: Tensor, kernels: Tensor, upstream: Tensor,
                        input_shape: tuple, need_input: bool = True,
                        pool: BufferPool | None = None, key: str = "conv",
                        need_params: bool = True):
    """Gradients of a valid conv from the forward's row-patch matrix.

    upstream is (N,H',W',Cout). Returns (d_kernels, d_bias, d_input);
    d_input is None unless need_input (saves the scatter on the first
    layer of an undefended net), d_kernels and d_bias are None unless
    need_params (input-gradient passes of the attacks). d_input scatters
    k row-block GEMMs into a row-gradient matrix laid out like rows, then
    adds its k width shifts; with a pool it lives there (as an (N,H,W,Cin)
    view of H-major memory): consume it before the next call that reuses
    the same key.
    """
    n, h, w, cin = input_shape
    k = kernels.shape[0]
    cout = kernels.shape[3]
    oh, ow = h - k + 1, w - k + 1
    stride, m = n * ow, oh * n * ow
    up = upstream.transpose(1, 0, 2, 3)
    if not up.flags.c_contiguous:  # already H'-major when it is a d_input
        buf = _take(pool, key + ".up", up.shape)
        buf[...] = up
        up = buf
    up = up.reshape(m, cout)
    kern = kernels.reshape(k, k * cin, cout)
    d_kernels = d_bias = d_input = None
    if need_params:
        d_kernels = np.empty(kern.shape)
        for ki in range(k):
            np.matmul(rows[ki * stride:ki * stride + m].T, up, out=d_kernels[ki])
        d_kernels = d_kernels.reshape(kernels.shape)
        d_bias = up.sum(axis=0)
    if need_input:
        d_rows = _take(pool, key + ".drows", (h * stride, k * cin))
        np.matmul(up, kern[0].T, out=d_rows[:m])
        d_rows[m:] = 0.0
        part = _take(pool, key + ".dpart", (m, k * cin))
        for ki in range(1, k):
            np.matmul(up, kern[ki].T, out=part)
            d_rows[ki * stride:ki * stride + m] += part
        d_rows5 = d_rows.reshape(h, n, ow, k, cin)
        d_x = _take(pool, key + ".dinput", (h, n, w, cin))
        d_x[:, :, :ow] = d_rows5[:, :, :, 0]
        d_x[:, :, ow:] = 0.0
        for kj in range(1, k):
            d_x[:, :, kj:kj + ow] += d_rows5[:, :, :, kj]
        d_input = d_x.transpose(1, 0, 2, 3)
    return d_kernels, d_bias, d_input


def conv2d(input: Tensor, kernels: Tensor, bias: Tensor,
           upstream: Tensor | None = None):
    """Single-image valid convolution, stride 1.

    input (H,W,Cin), kernels (K,K,Cin,Cout), bias (Cout). Forward returns the
    (H-K+1, W-K+1, Cout) output; with upstream of that shape, returns a
    LayerGrad with d_input and d_params {"kernels", "bias"}.
    """
    input = _as_f64(input)
    kernels = _as_f64(kernels)
    bias = _as_f64(bias)
    if input.ndim != 3:
        raise ValueError(f"conv2d input must be rank 3 (H,W,Cin), got rank {input.ndim}")
    if kernels.ndim != 4:
        raise ValueError(f"conv2d kernels must be rank 4 (K,K,Cin,Cout), got rank {kernels.ndim}")
    h, w, cin = input.shape
    k, k2, kcin, cout = kernels.shape
    if k != k2:
        raise ValueError(f"conv2d kernels must be square, got {k}x{k2}")
    if kcin != cin:
        raise ValueError(f"conv2d channel mismatch: input Cin={cin}, kernels Cin={kcin}")
    if k > h or k > w:
        raise ValueError(f"conv2d kernel size {k} exceeds input extent {min(h, w)}")
    if bias.shape != (cout,):
        raise ValueError(f"conv2d bias must have shape ({cout},), got {bias.shape}")
    batch = input[None]
    if upstream is None:
        out, _ = conv_forward_batch(batch, kernels, bias)
        return out[0]
    upstream = _as_f64(upstream)
    oh, ow = h - k + 1, w - k + 1
    if upstream.shape != (oh, ow, cout):
        raise ValueError(
            f"conv2d upstream must have shape {(oh, ow, cout)}, got {upstream.shape}")
    _, rows = conv_forward_batch(batch, kernels, bias)
    d_k, d_b, d_in = conv_backward_batch(rows, kernels, upstream[None], batch.shape)
    return LayerGrad(d_input=d_in[0], d_params={"kernels": d_k, "bias": d_b})


# ---------------------------------------------------------------------------
# Dense / activations / losses
# ---------------------------------------------------------------------------

def dense(input: Tensor, W: Tensor, b: Tensor, upstream: Tensor | None = None):
    """Affine layer x @ W.T + b for input (N,) or a (B,N) batch, W (M,N), b (M,).

    With upstream of the output's shape, returns a LayerGrad whose d_params
    sum over the batch and whose d_input is backprop_delta(upstream, W).
    """
    input = _as_f64(input)
    W = _as_f64(W)
    b = _as_f64(b)
    if W.ndim != 2:
        raise ValueError(f"dense W must be rank 2, got rank {W.ndim}")
    m, n = W.shape
    if input.ndim not in (1, 2) or input.shape[-1] != n:
        raise ValueError(f"dense input must have shape ({n},) or (B,{n}), got {input.shape}")
    if b.shape != (m,):
        raise ValueError(f"dense bias must have shape ({m},), got {b.shape}")
    if upstream is None:
        return input @ W.T + b
    upstream = _as_f64(upstream)
    if upstream.shape != input.shape[:-1] + (m,):
        raise ValueError(
            f"dense upstream must have shape {input.shape[:-1] + (m,)}, got {upstream.shape}")
    rows = np.atleast_2d(upstream)
    return LayerGrad(
        d_input=backprop_delta(upstream, W),
        d_params={"W": rows.T @ np.atleast_2d(input), "b": rows.sum(axis=0)},
    )


def relu(x: Tensor, upstream: Tensor | None = None):
    """Elementwise max(0, x); subgradient at exactly 0 is taken as 0."""
    x = _as_f64(x)
    if upstream is None:
        return np.maximum(x, 0.0)
    return LayerGrad(d_input=_as_f64(upstream) * (x > 0.0))


def softmax(logits: Tensor, upstream: Tensor | None = None):
    """Max-stabilized softmax over the last axis; backward is softmax_backward_batch."""
    logits = _as_f64(logits)
    if logits.shape[-1] < 2:
        raise ValueError("softmax needs at least 2 classes")
    p = softmax_batch(logits)
    if upstream is None:
        return p
    return LayerGrad(d_input=softmax_backward_batch(p, _as_f64(upstream)))


def softmax_batch(logits: Tensor) -> Tensor:
    """Row-wise stabilized softmax of a (N,C) batch (or one (C,) row)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward_batch(probs: Tensor, upstream: Tensor) -> Tensor:
    """d cost/d logits for a (N,C) batch given d cost/d probs: J^T u, J_ij = p_i (delta_ij - p_j)."""
    return probs * (upstream - np.sum(upstream * probs, axis=-1, keepdims=True))


def mse_cost(P: Tensor, P_truth: Tensor):
    """Mean squared error between predictions and truths, (C,) or a (N,C) batch.

    Returns (cost, d cost/d P) with cost the mean of (P - P')^2 over every
    entry, i.e. divided by C, or by N*C for a batch.
    """
    P = _as_f64(P)
    P_truth = _as_f64(P_truth)
    if P.shape != P_truth.shape:
        raise ValueError(f"mse_cost shape mismatch: {P.shape} vs {P_truth.shape}")
    diff = P - P_truth
    return float(np.sum(diff * diff) / diff.size), (2.0 / diff.size) * diff


def cross_entropy(P: Tensor, label: int):
    """Negative log-likelihood of the true class, with a 1e-12 floor on P.

    Returns (cost, d cost/d P).
    """
    P = _as_f64(P)
    if not 0 <= label < P.shape[-1]:
        raise ValueError(f"label {label} out of range for {P.shape[-1]} classes")
    p = max(float(P[label]), 1e-12)
    grad = np.zeros_like(P)
    grad[label] = -1.0 / p
    return -np.log(p), grad


def backprop_delta(upstream_deltas: Tensor, W: Tensor) -> Tensor:
    """Dense d_input: delta_k = sum_j W_jk delta_j, for (M,) or (B,M) deltas and W (M,N)."""
    upstream_deltas = _as_f64(upstream_deltas)
    W = _as_f64(W)
    if W.shape[0] != upstream_deltas.shape[-1]:
        raise ValueError(
            f"backprop_delta: W has {W.shape[0]} rows but deltas length "
            f"{upstream_deltas.shape[-1]}")
    return upstream_deltas @ W


def sgd_update(param: Tensor, grad: Tensor, lr: float) -> Tensor:
    """One plain gradient-descent step: param - lr * grad (pure)."""
    param = _as_f64(param)
    grad = _as_f64(grad)
    if param.shape != grad.shape:
        raise ValueError(f"sgd_update shape mismatch: {param.shape} vs {grad.shape}")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    return param - lr * grad


def finite_difference_gradient(f, x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    if h <= 0:
        raise ValueError("step h must be positive")
    x = _as_f64(x).copy()
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad

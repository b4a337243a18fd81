"""Dense-tensor layer ops with explicit forward and gradient paths.

Ops take ndarrays and keep their dtype, by numpy's promotion rules, and
the model hands them float64; only the convs fix theirs, as they compute
into float64 scratch. There is no autodiff graph: each op either runs
forward (``upstream=None``) or returns a LayerGrad holding the gradient of
the cost w.r.t. its input and parameters, given the upstream gradient
w.r.t. its output. Ops other than the batched conv and sgd_update are
pure functions, and each formula exists once. The model calls
conv_forward_batch/conv_backward_batch, dense (forward only),
softmax_batch, softmax_backward_batch and mse_cost, and sgd_update steps
both its weights and, through quantize.update_thresholds, the TQ
thresholds in place, in the model's own arrays. conv2d and softmax are
the single-image and single-vector forms. Three ops only serve as
references: the conv layer fuses its ReLU (relu's mask, applied in
place), the dense layer's backward runs block by block on its
unflattened input (dense's backward gives the same bytes), and the
cross-entropy loss goes to d logits in closed form (cross_entropy is its
d/dP).

The batched conv's caller owns all its memory: row_patches and both
passes take the caller's BufferPool, and the backward writes d_input into
the caller's `into`. Each rule is stated where it is applied: the
row-patch layout in row_patches, tiling in _tiles, GEMM orientation, the
wide forward and "<key>.out" in conv_forward_batch, and the
input-gradient scratch and destination in conv_backward_batch, with the
measurements behind them in CHANGES.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import checked

Tensor = np.ndarray
TILE_ROWS = 2048  # least scratch rows per conv tile, and GEMM rows per wide forward
WIDE_DEPTH = 256  # least k*Cin of a wide forward, whose tiles sum in (Cout, tile) memory


@dataclass
class LayerGrad:
    """Gradients produced by one layer: d cost/d input plus per-parameter grads."""

    d_input: Tensor
    d_params: dict[str, Tensor] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Convolution (valid padding, stride 1)
# ---------------------------------------------------------------------------

class BufferPool:
    """Reusable scratch arrays keyed by name; avoids re-faulting big buffers.

    Each key owns one flat buffer, and get returns a view of its
    leading elements in the requested shape. The buffer grows when a
    request is larger and never shrinks, so a key serves all of its
    shapes from the memory of the largest. Allocating conv workspaces
    fresh every batch would cost page faults on every call. Views hold
    garbage, so callers must fully overwrite (or fill) what they take,
    and consume a view before the next call on this pool that takes the
    same key, whatever the shape.
    """

    def __init__(self):
        self._bufs: dict[str, Tensor] = {}

    def get(self, key: str, shape: tuple) -> Tensor:
        size = math.prod(shape)
        buf = self._bufs.get(key)
        if buf is None or buf.size < size:
            buf = np.empty(size)
            self._bufs[key] = buf
        return buf[:size].reshape(shape)

    def clear(self):
        self._bufs.clear()


def _tiles(rows: int, stride: int) -> list:
    """Near-equal [start, stop) tiles of image rows of stride scratch rows each.

    The forward runs one tile of output rows at a time and the input
    gradient one tile of input rows, so partial sums stay in cache. Both
    take as many tiles as keep each ~TILE_ROWS scratch rows or more. A
    forward tile's scratch has one row per GEMM row, so its stride is an
    image row's GEMM rows; an input-gradient tile's has two (see
    conv_backward_batch), so its stride is twice them. Each element is
    summed in the untiled order (kernel row ascending, bias last, kernel
    column ascending), so tiling changes no byte of a backward or of a
    narrow forward.
    """
    count = max(1, min(rows, rows * stride // TILE_ROWS))
    bounds = [rows * i // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def row_patches(x: Tensor, k: int, pool: BufferPool, fill: bool = True) -> Tensor:
    """The (H*N*W', k*Cin) row-patch matrix of a (N,H,W,Cin) batch for a k-wide kernel.

    Row (r, n, j) holds x[n, r, j:j+k, :], copied once through a window view
    (one width shift per kernel column), so a conv runs one GEMM per kernel
    row over a contiguous block of it and no k*k (im2col) patch matrix is
    ever built. It is the pool's shared "rows" buffer, valid until the next
    call on the pool that takes it. fill=False takes it unfilled, for a
    backward that reads no rows.
    """
    n, h, w, cin = x.shape
    ow = w - k + 1
    rows = pool.get("rows", (h, n, ow, k, cin))
    if fill:
        np.copyto(rows, sliding_window_view(x, k, axis=2).transpose(1, 0, 2, 4, 3))
    return rows.reshape(h * n * ow, k * cin)


def conv_forward_batch(x: Tensor, kernels: Tensor, bias: Tensor,
                       pool: BufferPool, key: str = "conv"):
    """Valid convolution of a (N,H,W,Cin) batch with (k,k,Cin,Cout) kernels.

    In rows = row_patches(x, k, pool) the patches of kernel row ki are the
    contiguous rows [ki*N*W', ki*N*W' + H'*N*W'), so the conv is a sum of k
    GEMMs over those blocks, run one tile of output rows at a time. Every
    tile runs the same rows_block @ kern[ki] GEMMs and writes its sum plus
    the bias into the output tile. A narrow layer sums in the output tile,
    with each later GEMM in "part". A wide one (k*Cin >= WIDE_DEPTH over
    >= TILE_ROWS GEMM rows) sums in "part" and puts each later GEMM in the
    output tile, dead until the bias add; both are (tile, Cout) views of
    (Cout, tile) memory, so BLAS runs the transposed call. A GEMM's
    orientation is the memory layout of the array it writes: BLAS packs its
    two operands differently (Goto & van de Geijn, ACM TOMS 34(3), 2008),
    so C and C.T of one product run at different speeds. Where a wide
    tile's GEMM row count is not a multiple of 8, BLAS's edge kernels may
    round part of it apart, at rounding level, from the narrow forward and
    from a tiling that puts those rows elsewhere. The output lives in the
    pool's "<key>.out" (as an (N,H',W',Cout) view of H'-major memory), the
    one forward buffer that outlives the call, valid until the next forward
    that takes the key.
    """
    n, h, w, cin = x.shape
    k = kernels.shape[0]
    cout = kernels.shape[3]
    oh, ow = h - k + 1, w - k + 1
    stride, m = n * ow, oh * n * ow
    rows = row_patches(x, k, pool)
    kern = kernels.reshape(k, k * cin, cout)
    out = pool.get(key + ".out", (m, cout))
    tiles = _tiles(oh, stride)
    part = pool.get("part", (max(b - a for a, b in tiles) * stride, cout))
    wide = k * cin >= WIDE_DEPTH and m >= TILE_ROWS
    for a, b in tiles:
        o, t = out[a * stride:b * stride], (b - a) * stride
        acc, p = (part[:t].reshape(cout, t).T, o.reshape(cout, t).T) if wide else (o, part[:t])
        np.matmul(rows[a * stride:b * stride], kern[0], out=acc)
        for ki in range(1, k):
            np.matmul(rows[(a + ki) * stride:(b + ki) * stride], kern[ki], out=p)
            acc += p
        np.add(acc, bias, out=o)
    return out.reshape(oh, n, ow, cout).transpose(1, 0, 2, 3)


def conv_backward_batch(rows: Tensor, kernels: Tensor, upstream: Tensor,
                        input_shape: tuple, need_input: bool, pool: BufferPool,
                        key: str = "conv", need_params: bool = True, *, into: Tensor):
    """Gradients of a valid conv from the row-patch matrix of its input.

    upstream is (N,H',W',Cout). Returns (d_kernels, d_bias, d_input);
    d_input is None unless need_input (saves the scatter on the first
    layer of an undefended net), d_kernels and d_bias are None unless
    need_params (input-gradient passes of the attacks), and rows is read
    only for them. d_input is built one tile of input rows at a time: k
    row-block GEMMs scatter into a tile of a row-gradient matrix laid out
    like rows, whose k width shifts then add into d_input. The
    kernel-gradient GEMMs run whole, as tiling their sum over rows would
    reorder it, one kernel row at a time as rows_block.T @ up into a
    (k*Cin, Cout) view of (Cout, k*Cin) memory, so BLAS runs the
    transposed call. d_kernels is thus a non-C-contiguous view of memory
    it owns. d_input is written into `into`, an (H,N,W,Cin) array or view
    whose contents are dead (the model passes its layer's input viewed
    H-major), and returned as an (N,H,W,Cin) view of it. key only names
    the call.

    It writes only the pool's "rows", which rows may be, and `into`, so its
    scratch lies in memory whose contents are dead, shared by liveness as
    in Chen et al., "Training Deep Nets with Sublinear Memory Cost"
    (arXiv:1604.06174). Each input-gradient tile takes its row gradients
    and GEMM result from "rows" after the kernel gradient, the last reader
    of rows; a pass without need_params reads no rows at all. So a tile
    counts its scratch twice, _tiles(H, 2*N*W'): a layer of TILE_ROWS row
    patches or more, whose one tile would take 2*TILE_ROWS scratch rows or
    more, splits into tiles of at most (H+1)/2 input rows, whose scratch
    fits in its own row patches plus one image row; a smaller layer stays
    one tile, whose scratch is twice its patches. An upstream that is not
    H'-major is copied into a new H'-major array first. The model never
    needs that copy: the dense layer writes its d_input over the top conv's
    "<key>.out", and an upper conv over the output of the one below.
    """
    n, h, w, cin = input_shape
    k = kernels.shape[0]
    cout = kernels.shape[3]
    oh, ow = h - k + 1, w - k + 1
    stride, m = n * ow, oh * n * ow
    up = np.ascontiguousarray(upstream.transpose(1, 0, 2, 3)).reshape(m, cout)
    kern = kernels.reshape(k, k * cin, cout)
    d_kernels = d_bias = d_input = None
    if need_params:
        d_kernels = np.empty((k, cout, k * cin)).transpose(0, 2, 1)
        for ki in range(k):
            np.matmul(rows[ki * stride:ki * stride + m].T, up, out=d_kernels[ki])
        d_kernels = d_kernels.reshape(kernels.shape)
        d_bias = up.sum(axis=0)
    if need_input:
        tiles = _tiles(h, 2 * stride)
        size = max(b - a for a, b in tiles) * stride
        d_rows, part = np.split(pool.get("rows", (2 * size, k * cin)), 2)
        for a, b in tiles:  # input rows [a, b) take output row r - ki from kernel row ki
            d = d_rows[:(b - a) * stride]
            top = max(min(b, oh) - a, 0) * stride
            np.matmul(up[a * stride:a * stride + top], kern[0].T, out=d[:top])
            d[top:] = 0.0
            for ki in range(1, k):
                lo, hi = max(a - ki, 0), min(b - ki, oh)
                if lo < hi:
                    p = part[:(hi - lo) * stride]
                    np.matmul(up[lo * stride:hi * stride], kern[ki].T, out=p)
                    d[(lo + ki - a) * stride:(hi + ki - a) * stride] += p
            d5, dx = d.reshape(b - a, n, ow, k, cin), into[a:b]
            dx[:, :, :ow] = d5[:, :, :, 0]
            dx[:, :, ow:] = 0.0
            for kj in range(1, k):
                dx[:, :, kj:kj + ow] += d5[:, :, :, kj]
        d_input = into.transpose(1, 0, 2, 3)
    return d_kernels, d_bias, d_input


def conv2d(input: Tensor, kernels: Tensor, bias: Tensor,
           upstream: Tensor | None = None):
    """Single-image valid convolution, stride 1.

    input (H,W,Cin), kernels (K,K,Cin,Cout), bias (Cout). Forward returns the
    (H-K+1, W-K+1, Cout) output; with upstream of that shape, returns a
    LayerGrad with d_input and d_params {"kernels", "bias"}. It runs the
    model's path on a pool of its own, over a float64 copy of input.
    """
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
    pool = BufferPool()
    if upstream is None:
        return conv_forward_batch(input[None], kernels, bias, pool)[0]
    oh, ow = h - k + 1, w - k + 1
    if upstream.shape != (oh, ow, cout):
        raise ValueError(
            f"conv2d upstream must have shape {(oh, ow, cout)}, got {upstream.shape}")
    batch = np.empty((1, h, w, cin))
    batch[0] = input
    d_k, d_b, d_in = conv_backward_batch(row_patches(batch, k, pool), kernels, upstream[None],
                                         batch.shape, True, pool, into=batch.transpose(1, 0, 2, 3))
    return LayerGrad(d_input=d_in[0], d_params={"kernels": d_k, "bias": d_b})


# ---------------------------------------------------------------------------
# Dense / activations / losses
# ---------------------------------------------------------------------------

def dense(input: Tensor, W: Tensor, b: Tensor, upstream: Tensor | None = None):
    """Affine layer x @ W.T + b for input (N,) or a (B,N) batch, W (M,N), b (M,).

    With upstream of the output's shape, returns a LayerGrad whose d_params
    sum over the batch and whose d_input is upstream @ W.
    """
    if W.ndim != 2:
        raise ValueError(f"dense W must be rank 2, got rank {W.ndim}")
    m, n = W.shape
    if input.ndim not in (1, 2) or input.shape[-1] != n:
        raise ValueError(f"dense input must have shape ({n},) or (B,{n}), got {input.shape}")
    if b.shape != (m,):
        raise ValueError(f"dense bias must have shape ({m},), got {b.shape}")
    if upstream is None:
        return input @ W.T + b
    if upstream.shape != input.shape[:-1] + (m,):
        raise ValueError(
            f"dense upstream must have shape {input.shape[:-1] + (m,)}, got {upstream.shape}")
    rows = np.atleast_2d(upstream)
    return LayerGrad(
        d_input=upstream @ W,
        d_params={"W": rows.T @ np.atleast_2d(input), "b": rows.sum(axis=0)},
    )


def relu(x: Tensor, upstream: Tensor | None = None):
    """Elementwise max(0, x); subgradient at exactly 0 is taken as 0."""
    if upstream is None:
        return np.maximum(x, 0.0)
    return LayerGrad(d_input=upstream * (x > 0.0))


def softmax(logits: Tensor, upstream: Tensor | None = None):
    """Max-stabilized softmax over the last axis; backward is softmax_backward_batch."""
    if logits.shape[-1] < 2:
        raise ValueError("softmax needs at least 2 classes")
    p = softmax_batch(logits)
    if upstream is None:
        return p
    return LayerGrad(d_input=softmax_backward_batch(p, upstream))


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
    if P.shape != P_truth.shape:
        raise ValueError(f"mse_cost shape mismatch: {P.shape} vs {P_truth.shape}")
    diff = P - P_truth
    return float(np.sum(diff * diff) / diff.size), (2.0 / diff.size) * diff


def cross_entropy(P: Tensor, label: int):
    """Negative log-likelihood of the true class, with a 1e-12 floor on P.

    Returns (cost, d cost/d P).
    """
    if not 0 <= checked("label", label, Integral) < P.shape[-1]:
        raise ValueError(f"label {label} out of range for {P.shape[-1]} classes")
    p = max(float(P[label]), 1e-12)
    grad = np.zeros_like(P)
    grad[label] = -1.0 / p
    return -np.log(p), grad


def sgd_update(param: Tensor, grad: Tensor, lr: float) -> Tensor:
    """One plain gradient-descent step in place; returns param itself.

    lr * grad is computed into grad's memory and subtracted from param in
    place, so a step allocates nothing; param ends up holding the bytes of
    param - lr * grad. grad is consumed; a grad that may share memory with
    param raises ValueError, as the step would write into it.
    """
    if param.shape != grad.shape:
        raise ValueError(f"sgd_update shape mismatch: {param.shape} vs {grad.shape}")
    if np.may_share_memory(param, grad):
        raise ValueError("sgd_update: grad shares memory with param")
    lr = checked("learning rate", lr, Real, lambda v: 0 < v < math.inf, "finite and positive")
    return np.subtract(param, np.multiply(grad, lr, out=grad), out=param)


def finite_difference_gradient(f, x: Tensor, h: float = 1e-5) -> Tensor:
    """Float64 central-difference gradient of scalar f at x, one coordinate at a time."""
    h = checked("step h", h, Real, lambda v: 0 < v < math.inf, "finite and positive")
    x = np.array(x, dtype=np.float64)
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

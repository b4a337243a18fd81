"""CNN assembly, training, and prediction.

The default stack is Conv(64,8x8)+relu -> Conv(128,6x6)+relu ->
Conv(128,5x5)+relu -> Dense(10) -> softmax, with an optional
quantization layer in front (defense "cq" or "tq"). All randomness flows
from the config seed through a single generator, so identical configs
produce bit-identical models and training runs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

import numpy as np

from . import nn
from .errors import (
    BadConfigError,
    BadTypeError,
    DataError,
    DivergedError,
    ShapeMismatchError,
    checked,
)
from .quantize import (
    CONSTANT,
    THRESHOLDS_KEY,
    TRAINABLE,
    Quantizer,
    linear_thresholds,
    quantize,
    quantize_grad_input,
    update_thresholds,
)

DEFAULT_ARCHITECTURE = (
    ("conv", 64, 8),
    ("conv", 128, 6),
    ("conv", 128, 5),
    ("dense", 10),
)

DEFENSES = ("none", "cq", "tq")
# both loaders give 8-bit pixels: past 256 levels no further input values separate
MAX_LEVELS = 256
LOSSES = ("mse", "cross_entropy")

# Images per forward pass. The GEMM results depend on the batch shape, so every
# pass whose probabilities must equal predict_all's (attacks.fgsm_signs) uses it.
CHUNK = 64


def check_labels(labels, num_classes: int) -> None:
    """DataError unless labels are integers in [0, num_classes), the model's class indices."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" or (
            labels.size and (labels.min() < 0 or labels.max() >= num_classes)):
        span = f"{labels.min()}..{labels.max()}" if labels.size else "none"
        raise DataError(
            f"labels must lie in [0, {num_classes}) as integers, got {labels.dtype} {span}")


def _layer(layer) -> tuple:
    """An architecture entry as ("conv", filters, k) or ("dense", width), checked."""
    layer = tuple(layer)
    kind = layer[0] if layer else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise BadConfigError(f"unknown layer kind in {layer!r}")
    names = _KINDS[kind].FIELDS
    if len(layer) != 1 + len(names):
        raise BadConfigError(f"{kind} layer must be ({kind!r}, {', '.join(names)}), got {layer!r}")
    return (kind,) + tuple(checked(f"{kind} {name}", v, Integral, lambda v: v > 0, "positive")
                           for name, v in zip(names, layer[1:]))


class _Conv:
    """Valid convolution with a fused ReLU; owns <name>.kernels and <name>.bias."""

    FIELDS = ("filters", "kernel size")

    def __init__(self, name: str, in_shape: tuple, filters: int, k: int):
        if len(in_shape) != 3:
            raise BadConfigError("conv layer after dense is not supported")
        h, w, cin = in_shape
        if k > h or k > w:
            raise BadConfigError(f"kernel size {k} does not fit remaining input {h}x{w}")
        self.name = name
        self.out_shape = (h - k + 1, w - k + 1, filters)
        self.shapes = {name + ".kernels": (k, k, cin, filters), name + ".bias": (filters,)}
        self.fans = (k * k * cin, k * k * filters)

    def forward(self, a, params: dict, pool, caches: list | None):
        pre = nn.conv_forward_batch(a, params[self.name + ".kernels"],
                                    params[self.name + ".bias"], pool=pool, key=self.name)
        if caches is not None:
            caches.append({"input": a, "mask": pre > 0.0})
        return np.maximum(pre, 0.0, out=pre)

    def backward(self, d, cache: dict, params: dict, pool, grads: dict | None, need_input: bool):
        # d is always our own output here: each layer writes over its input
        d = np.multiply(d, cache["mask"], out=d)
        x, kernels = cache["input"], params[self.name + ".kernels"]
        # the layers above took the pool's rows since the forward: a training
        # pass rebuilds them from the input; an input-gradient pass reads none
        rows = nn.row_patches(x, kernels.shape[0], pool, fill=grads is not None)
        # the input is dead once read: the lower conv's H-major output, or the
        # bottom layer's C-ordered array, viewed H-major
        d_k, d_b, d_in = nn.conv_backward_batch(
            rows, kernels, d, x.shape, need_input=need_input, pool=pool, key=self.name,
            need_params=grads is not None, into=x.transpose(1, 0, 2, 3))
        if grads is not None:
            grads[self.name + ".kernels"] = d_k
            grads[self.name + ".bias"] = d_b
        return d_in


class _Dense:
    """Fully connected layer over the flattened input; owns <name>.W and <name>.b.

    The input is cached as the view it is, unflattened. The backward works
    on it in blocks of its first extent, H' (1 for a flat input), as an
    (H', N, F/H') view, C-ordered when the input is a conv's H'-major
    output. Each block's d_W and d_input is a GEMM whose every element is
    the same dot as the flattened layer's. d_input goes over the input,
    dead once d_W has read it, so the conv below gets it H'-major, as
    every conv hands its input gradient down.
    """

    FIELDS = ("width",)

    def __init__(self, name: str, in_shape: tuple, width: int):
        fan_in = math.prod(in_shape)
        self.name = name
        self.out_shape = (width,)
        self.blocks = in_shape[0] if len(in_shape) == 3 else 1
        self.shapes = {name + ".W": (width, fan_in), name + ".b": (width,)}
        self.fans = (fan_in, width)

    def forward(self, a, params: dict, pool, caches: list | None):
        if caches is not None:
            caches.append({"input": a})
        # reshape copies a conv's H'-major output: the copy dies with this call
        return nn.dense(a.reshape(a.shape[0], -1), params[self.name + ".W"],
                        params[self.name + ".b"])

    def backward(self, d, cache: dict, params: dict, pool, grads: dict | None, need_input: bool):
        a, W = cache["input"], params[self.name + ".W"]
        if grads is not None:
            d_W = np.empty(W.shape)
            np.matmul(d.T, self._blocked(a), out=self._blocked(d_W))
            grads[self.name + ".W"], grads[self.name + ".b"] = d_W, d.sum(axis=0)
        if not need_input:
            return None
        np.matmul(d, self._blocked(W), out=self._blocked(a))
        return a

    def _blocked(self, t):
        """t, whose rows hold F values each, as (H', rows, F/H') blocks: a view of a
        C-ordered or H'-major t."""
        return t.reshape(len(t), self.blocks, -1).transpose(1, 0, 2)


# each layer declares `shapes` (param name -> shape, weight then bias) and Glorot `fans`
_KINDS = {"conv": _Conv, "dense": _Dense}


def _layers(config) -> list:
    """The architecture as layer objects named <kind><index>; BadConfigError if it does not fit.

    Each layer's backward writes its input gradient over its input, which
    the model owns and which is dead once that backward has read it.
    """
    layers = []
    shape = config.input_shape
    for i, (kind, *sizes) in enumerate(config.architecture):
        layers.append(_KINDS[kind](f"{kind}{i}", shape, *sizes))
        shape = layers[-1].out_shape
    if not layers or not isinstance(layers[-1], _Dense):
        raise BadConfigError("architecture must end with a dense layer")
    return layers


@dataclass(frozen=True)
class ModelConfig:
    """Everything needed to rebuild a model deterministically."""

    input_shape: tuple = (28, 28, 1)
    defense: str = "none"
    levels: int = 2
    steepness: float = 50.0
    architecture: tuple = DEFAULT_ARCHITECTURE
    seed: int = 0
    loss: str = "mse"
    per_pixel_thresholds: bool = False

    def __post_init__(self):
        # checked whatever the defense: canonical_text echoes them into the ModelCache key
        shape = tuple(checked("input_shape extent", v, Integral, lambda v: v > 0, "positive")
                      for v in self.input_shape)
        if len(shape) != 3:
            raise BadConfigError(f"input_shape must be 3 positive extents, got {self.input_shape}")
        object.__setattr__(self, "input_shape", shape)
        object.__setattr__(self, "architecture", tuple(_layer(a) for a in self.architecture))
        object.__setattr__(self, "seed", checked("seed", self.seed, Integral,
                                                 lambda v: v >= 0, "non-negative"))
        levels = checked("levels", self.levels, Integral, lambda v: 2 <= v <= MAX_LEVELS,
                         f"in [2, {MAX_LEVELS}]")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "steepness", float(checked(
            "steepness", self.steepness, Real, lambda v: 0 < v < math.inf, "finite and > 0")))
        if self.defense not in DEFENSES:
            raise BadConfigError(f"defense must be one of {DEFENSES}, got {self.defense!r}")
        if self.loss not in LOSSES:
            raise BadConfigError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if type(self.per_pixel_thresholds) is not bool:
            raise BadTypeError(
                f"per_pixel_thresholds must be a bool, got {self.per_pixel_thresholds!r}")
        _layers(self)  # the shape walk: raises if the architecture does not fit

    def canonical_text(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_canonical_text(cls, text: str) -> "ModelConfig":
        """Parse canonical_text output: a JSON object with exactly the dataclass fields."""
        d = json.loads(text)
        names = [f.name for f in fields(cls)]
        if not isinstance(d, dict) or set(d) != set(names):
            raise BadConfigError(f"not a JSON object with the fields {', '.join(names)}")
        return cls(**d)


class Model:
    """Optional quantizer, then one layer object per architecture entry, then softmax."""

    def __init__(self, config: ModelConfig, quantizer: Quantizer | None,
                 params: dict[str, np.ndarray]):
        self.config = config
        self.quantizer = quantizer
        self.params = params
        self.layers = _layers(config)
        self._pool = nn.BufferPool()
        self._passes = 0  # forward and backward passes so far; a cache records its forward's

    def clear_buffers(self):
        """Drop conv scratch buffers (104.0 MiB after a default-stack TQ step at batch 64)."""
        self._pool.clear()

    @property
    def num_classes(self) -> int:
        return self.config.architecture[-1][1]

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor under its .qsn name, params then thresholds; build_model's inverse.

        The arrays are the model's own, live: the next training step writes
        into them. build_model copies what it is given, so a model built from
        them trains on its own memory.
        """
        tensors = dict(self.params)
        if self.quantizer is not None:
            tensors[THRESHOLDS_KEY] = self.quantizer.thresholds
        return tensors

    # -- forward ------------------------------------------------------------

    def forward_batch(self, x: np.ndarray, keep_cache: bool = False):
        """Probabilities for a (N,H,W,C) batch; optionally keep per-layer caches.

        A cache serves the one backward_batch that follows it. The layer
        inputs it holds are all the model's own: the bottom layer's is the
        quantizer's output, or a copy of x without a defense, so the caller's
        images stay untouched; each other layer's is the output of the layer
        below, a conv's in the model's scratch pool, which the next
        forward_batch overwrites. A backward pass writes input gradients
        over all of them.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.config.input_shape:
            raise ShapeMismatchError(
                f"input shape {x.shape[1:]} != configured {self.config.input_shape}")
        self._passes += 1
        a = quantize(x, self.quantizer) if self.quantizer is not None else x.copy()
        caches = [] if keep_cache else None
        for layer in self.layers:
            a = layer.forward(a, self.params, self._pool, caches)
        probs = nn.softmax_batch(a)
        if keep_cache:
            return probs, {"raw_input": x, "layers": caches, "logits": a,
                           "pass": self._passes}
        return probs

    def predict(self, image: np.ndarray) -> np.ndarray:
        """Probability vector for one (H,W,C) image."""
        return self.forward_batch(np.asarray(image)[None])[0]

    # -- backward -----------------------------------------------------------

    def backward_batch(self, cache: dict, d_logits: np.ndarray, need_input_grad: bool = False):
        """Backprop d cost/d logits through the stack, in one of two passes.

        A training pass returns (param_grads, quantizer_delta): param_grads
        maps the same names as self.params, and quantizer_delta is d cost/d
        quantizer-output for update_thresholds, None unless the model is TQ.
        An input-gradient pass (need_input_grad=True) computes no parameter
        gradient and returns (None, d_raw_input), chained through the quantizer.
        The bottom delta is written over the bottom layer's input, the
        quantizer's output or the model's copy of the images, so the caller
        owns it and no pool buffer holds it.
        Either raises ValueError unless the cache is from the last pass on this
        model: a cache serves the one backward that follows it (see forward_batch).
        """
        if cache["pass"] != self._passes:
            raise ValueError("backward pass on a stale cache: a forward or backward pass "
                             "ran since it was made")
        self._passes += 1
        grads = None if need_input_grad else {}
        want_bottom_delta = need_input_grad or (
            self.quantizer is not None and self.quantizer.trainable)
        d = d_logits
        for i in range(len(self.layers) - 1, -1, -1):
            d = self.layers[i].backward(d, cache["layers"][i], self.params, self._pool, grads,
                                        need_input=i > 0 or want_bottom_delta)
        if need_input_grad and self.quantizer is not None:
            return None, d * quantize_grad_input(cache["raw_input"], self.quantizer)
        return grads, d

    def loss_and_grad_batch(self, probs: np.ndarray, labels: np.ndarray):
        """Mean loss over the batch plus d loss/d logits (via the softmax Jacobian)."""
        n = len(probs)
        rows, labels = np.arange(n), np.asarray(labels)
        onehot = np.zeros_like(probs)
        onehot[rows, labels] = 1.0
        if self.config.loss == "mse":
            loss, d_probs = nn.mse_cost(probs, onehot)
            return loss, nn.softmax_backward_batch(probs, d_probs)
        p_true = np.clip(probs[rows, labels], 1e-12, None)
        # closed form of softmax-jacobian applied to the CE gradient
        return float(-np.log(p_true).mean()), (probs - onehot) / n

    def input_gradient_batch(self, x: np.ndarray, labels: np.ndarray):
        """(probabilities, d (configured training loss)/d x) for a batch.

        The gradient runs through the quantizer when present; the
        probabilities are those of the forward pass it starts from.
        """
        probs, cache = self.forward_batch(x, keep_cache=True)
        _, d_logits = self.loss_and_grad_batch(probs, labels)
        _, d_raw = self.backward_batch(cache, d_logits, need_input_grad=True)
        return probs, d_raw

    def probability_jacobian(self, image: np.ndarray) -> np.ndarray:
        """d P_c/d x for every class c, shape (C,) + input_shape.

        Runs the classes as one batch of identical images; the d_input path
        is linear in the upstream, so this equals C separate backward passes.
        """
        c = self.num_classes
        tiled = np.broadcast_to(image, (c,) + tuple(self.config.input_shape)).copy()
        probs, cache = self.forward_batch(tiled, keep_cache=True)
        upstream_probs = np.eye(c)
        d_logits = nn.softmax_backward_batch(probs, upstream_probs)
        _, d_raw = self.backward_batch(cache, d_logits, need_input_grad=True)
        return d_raw


def build_model(config: ModelConfig, tensors: dict | None = None) -> Model:
    """The model a config describes, with seed-determined fresh tensors or the given ones.

    Fresh: Glorot-uniform weights, zero biases, k/n thresholds. Given (name ->
    array, as a .qsn file holds them): copied as float64, the model's dtype, so
    training, which steps the model's arrays in place, never writes into the
    caller's. Each is checked against the shape the config implies first:
    ShapeMismatchError if it is missing or misshapen, BadConfigError if
    non-finite or a threshold is outside [0, 1]. Then a tensor the config does
    not take is a ShapeMismatchError too.
    """
    model = Model(config, None, {})
    shapes = {name: shape for layer in model.layers for name, shape in layer.shapes.items()}
    if config.defense != "none":
        pixels = config.input_shape if config.per_pixel_thresholds else ()
        shapes[THRESHOLDS_KEY] = pixels + (config.levels - 1,)
    if tensors is None:
        rng = np.random.default_rng(config.seed)
        tensors = {}
        for layer in model.layers:
            (w, w_shape), (b, b_shape) = layer.shapes.items()
            limit = np.sqrt(6.0 / sum(layer.fans))
            tensors[w] = rng.uniform(-limit, limit, w_shape)
            tensors[b] = np.zeros(b_shape)
        if THRESHOLDS_KEY in shapes:
            tensors[THRESHOLDS_KEY] = np.broadcast_to(linear_thresholds(config.levels),
                                                      shapes[THRESHOLDS_KEY]).copy()
    else:
        tensors = {name: np.array(t, dtype=np.float64) for name, t in tensors.items()}
    for name, shape in shapes.items():
        if name not in tensors:
            raise ShapeMismatchError(f"missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise ShapeMismatchError(
                f"tensor {name!r} has shape {tensors[name].shape}, config implies {shape}")
        if not np.all(np.isfinite(tensors[name])):
            raise BadConfigError(f"tensor {name!r} holds a non-finite value")
    for name in tensors:
        if name not in shapes:
            raise ShapeMismatchError(f"unexpected tensor {name!r}")
    model.params = {name: tensors[name] for name in shapes if name != THRESHOLDS_KEY}
    if THRESHOLDS_KEY in shapes:
        mode = TRAINABLE if config.defense == "tq" else CONSTANT
        model.quantizer = Quantizer(config.levels, config.steepness, tensors[THRESHOLDS_KEY], mode)
    return model


@dataclass
class EpochStats:
    """One epoch of train: mean batch loss, training accuracy and wall time.

    threshold_drift is max |t - k/n| over the TQ thresholds after the epoch,
    how far training moved them from the linear staircase; None unless TQ.
    """

    epoch: int
    loss: float
    accuracy: float
    seconds: float
    threshold_drift: float | None


def _step(model: Model, xb: np.ndarray, yb: np.ndarray, lr: float):
    """One SGD step on a batch: (loss, correct predictions); no update if the loss is non-finite.

    A frame of its own, so nothing of the step outlives it. It drops the
    cache but for the raw input once the backward has run, and each
    gradient once it is applied. The updates write into the model's own
    parameter and threshold arrays, so a step allocates none.
    """
    probs, cache = model.forward_batch(xb, keep_cache=True)
    loss, d_logits = model.loss_and_grad_batch(probs, yb)
    if not np.isfinite(loss):
        return loss, 0
    raw = cache["raw_input"]
    grads, quantizer_delta = model.backward_batch(cache, d_logits)
    del cache
    for pname in list(grads):
        nn.sgd_update(model.params[pname], grads.pop(pname), lr)
    if quantizer_delta is not None:
        update_thresholds(model.quantizer, quantizer_delta, raw, lr)
    return loss, int((probs.argmax(axis=1) == yb).sum())


def train(model: Model, train_set, epochs: int, batch_size: int = 64,
          lr: float = 0.01, seed: int = 0, log=None):
    """Mini-batch SGD on the configured loss; returns (model, per-epoch trace).

    TQ thresholds update each batch right after the weight step; CQ
    thresholds are frozen. Before any pass: raises on an empty dataset,
    BadConfigError unless lr is finite and positive, batch_size >= 1,
    epochs >= 0 and seed >= 0, and DataError unless every label is one of
    the model's classes. Raises DivergedError naming the batch if the loss
    goes non-finite.
    """
    images, labels = np.asarray(train_set.images), np.asarray(train_set.labels)
    n = images.shape[0]
    if n == 0:
        raise ValueError("training dataset is empty")
    lr = checked("learning rate", lr, Real, lambda v: 0 < v < math.inf, "finite and positive")
    batch_size = checked("batch_size", batch_size, Integral, lambda v: v >= 1, "at least 1")
    epochs = checked("epochs", epochs, Integral, lambda v: v >= 0, "non-negative")
    seed = checked("seed", seed, Integral, lambda v: v >= 0, "non-negative")
    check_labels(labels, model.num_classes)
    rng = np.random.default_rng(seed)
    trace: list[EpochStats] = []
    q = model.quantizer
    for epoch in range(epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        losses = []
        correct = 0
        for bi, start in enumerate(range(0, n, batch_size)):
            idx = order[start:start + batch_size]
            loss, hits = _step(model, images[idx], labels[idx], lr)
            if not np.isfinite(loss):
                raise DivergedError(f"non-finite loss {loss} at epoch {epoch} batch {bi}")
            losses.append(loss)
            correct += hits
        drift = (float(np.abs(q.thresholds - linear_thresholds(q.levels)).max())
                 if q is not None and q.trainable else None)
        stats = EpochStats(epoch=epoch, loss=float(np.mean(losses)), accuracy=correct / n,
                           seconds=time.perf_counter() - started, threshold_drift=drift)
        trace.append(stats)
        if log is not None:
            log(stats)
    model.clear_buffers()
    return model, trace


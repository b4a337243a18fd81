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
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn
from .errors import BadConfigError, ShapeMismatchError
from .quantize import (
    CONSTANT,
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


def _int(what: str, value) -> int:
    """value as a Python int; TypeError for bools and non-integers."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an int, got {value!r}")
    return int(value)


def _layer(layer) -> tuple:
    """An architecture entry as ("conv", filters, k) or ("dense", width), checked."""
    layer = tuple(layer)
    kind = layer[0] if layer else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise BadConfigError(f"unknown layer kind in {layer!r}")
    names = _KINDS[kind].FIELDS
    if len(layer) != 1 + len(names):
        raise BadConfigError(f"{kind} layer must be ({kind!r}, {', '.join(names)}), got {layer!r}")
    values = tuple(_int(f"{kind} {name}", v) for name, v in zip(names, layer[1:]))
    if any(v <= 0 for v in values):
        raise BadConfigError(f"{kind} layer values must be positive, got {layer!r}")
    return (kind,) + values


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
        pre, rows = nn.conv_forward_batch(a, params[self.name + ".kernels"],
                                          params[self.name + ".bias"], pool=pool, key=self.name)
        if caches is not None:
            caches.append({"rows": rows, "in_shape": a.shape, "mask": pre > 0.0})
        return np.maximum(pre, 0.0, out=pre)

    def backward(self, d, cache: dict, params: dict, pool, grads: dict | None, need_input: bool):
        # d is always our own scratch here (the stack ends in dense, so the
        # caller's d_logits was already consumed by a matmul)
        d = np.multiply(d, cache["mask"], out=d)
        d_k, d_b, d_in = nn.conv_backward_batch(
            cache["rows"], params[self.name + ".kernels"], d, cache["in_shape"],
            need_input=need_input, pool=pool, key=self.name, need_params=grads is not None)
        if grads is not None:
            grads[self.name + ".kernels"] = d_k
            grads[self.name + ".bias"] = d_b
        return d_in


class _Dense:
    """Fully connected layer over the flattened input; owns <name>.W and <name>.b."""

    FIELDS = ("width",)

    def __init__(self, name: str, in_shape: tuple, width: int):
        fan_in = math.prod(in_shape)
        self.name = name
        self.out_shape = (width,)
        self.shapes = {name + ".W": (width, fan_in), name + ".b": (width,)}
        self.fans = (fan_in, width)

    def forward(self, a, params: dict, pool, caches: list | None):
        flat = a.reshape(a.shape[0], -1)
        if caches is not None:
            caches.append({"input": flat, "in_shape": a.shape})
        return nn.dense(flat, params[self.name + ".W"], params[self.name + ".b"])

    def backward(self, d, cache: dict, params: dict, pool, grads: dict | None, need_input: bool):
        W = params[self.name + ".W"]
        if grads is None:  # an input-gradient pass: no d_W
            return nn.backprop_delta(d, W).reshape(cache["in_shape"]) if need_input else None
        g = nn.dense(cache["input"], W, params[self.name + ".b"], upstream=d)
        grads[self.name + ".W"], grads[self.name + ".b"] = g.d_params["W"], g.d_params["b"]
        return g.d_input.reshape(cache["in_shape"]) if need_input else None


# each layer declares `shapes` (param name -> shape, weight then bias) and Glorot `fans`
_KINDS = {"conv": _Conv, "dense": _Dense}


def _layers(config) -> list:
    """The architecture as layer objects named <kind><index>; BadConfigError if it does not fit."""
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
        # types hold whatever the defense: canonical_text echoes these
        # fields, so a wrong type would give a distinct ModelCache key
        object.__setattr__(self, "input_shape",
                           tuple(_int("input_shape extent", v) for v in self.input_shape))
        object.__setattr__(
            self, "architecture",
            tuple(_layer(layer) for layer in self.architecture))
        object.__setattr__(self, "seed", _int("seed", self.seed))
        object.__setattr__(self, "levels", _int("levels", self.levels))
        if len(self.input_shape) != 3 or any(v <= 0 for v in self.input_shape):
            raise BadConfigError(f"input_shape must be 3 positive extents, got {self.input_shape}")
        if self.defense not in DEFENSES:
            raise BadConfigError(f"defense must be one of {DEFENSES}, got {self.defense!r}")
        if self.loss not in LOSSES:
            raise BadConfigError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if isinstance(self.steepness, bool) or not isinstance(self.steepness, (int, float)):
            raise TypeError(f"steepness must be a real number, got {self.steepness!r}")
        object.__setattr__(self, "steepness", float(self.steepness))
        if type(self.per_pixel_thresholds) is not bool:
            raise TypeError(
                f"per_pixel_thresholds must be a bool, got {self.per_pixel_thresholds!r}")
        if self.defense != "none":
            if not 2 <= self.levels <= MAX_LEVELS:
                raise BadConfigError(
                    f"defended config needs 2 <= levels <= {MAX_LEVELS}, got {self.levels}")
            if not 0 < self.steepness < math.inf:
                raise BadConfigError("defended config needs a finite steepness > 0")
        if self.seed < 0:
            raise BadConfigError("seed must be a non-negative integer")
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

    def clear_buffers(self):
        """Drop conv scratch buffers (~0.5 GB for the default stack at batch 64)."""
        self._pool.clear()

    @property
    def num_classes(self) -> int:
        return self.config.architecture[-1][1]

    # -- forward ------------------------------------------------------------

    def forward_batch(self, x: np.ndarray, keep_cache: bool = False):
        """Probabilities for a (N,H,W,C) batch; optionally keep per-layer caches."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.config.input_shape:
            raise ShapeMismatchError(
                f"input shape {x.shape[1:]} != configured {self.config.input_shape}")
        a = quantize(x, self.quantizer) if self.quantizer is not None else x
        caches = [] if keep_cache else None
        for layer in self.layers:
            a = layer.forward(a, self.params, self._pool, caches)
        probs = nn.softmax_batch(a)
        if keep_cache:
            return probs, {"raw_input": x, "layers": caches, "logits": a}
        return probs

    def predict(self, image: np.ndarray) -> np.ndarray:
        """Probability vector for one (H,W,C) image."""
        return self.forward_batch(np.asarray(image)[None])[0]

    # -- backward -----------------------------------------------------------

    def backward_batch(self, cache: dict, d_logits: np.ndarray, need_input_grad: bool = False):
        """Backprop d cost/d logits through the stack, in one of two passes.

        A training pass returns (param_grads, None): param_grads maps the
        same names as self.params, and on a TQ model cache["quantizer_delta"]
        holds d cost/d quantizer-output for update_thresholds. An
        input-gradient pass (need_input_grad=True) computes no parameter
        gradient and returns (None, d_raw_input), chained through the quantizer.
        """
        grads = None if need_input_grad else {}
        want_bottom_delta = need_input_grad or (
            self.quantizer is not None and self.quantizer.trainable)
        d = d_logits
        for i in range(len(self.layers) - 1, -1, -1):
            d = self.layers[i].backward(d, cache["layers"][i], self.params, self._pool, grads,
                                        need_input=i > 0 or want_bottom_delta)
        if not need_input_grad:
            cache["quantizer_delta"] = d  # d cost / d quantizer-output; None unless TQ
            return grads, None
        if self.quantizer is not None:
            return None, d * quantize_grad_input(cache["raw_input"], self.quantizer)
        return None, d.copy()  # detach from the scratch pool

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


_QUANT_KEY = "quantizer.thresholds"  # the thresholds' tensor name


def build_model(config: ModelConfig, tensors: dict | None = None) -> Model:
    """The model a config describes, with seed-determined fresh tensors or the given ones.

    Fresh: Glorot-uniform weights, zero biases, k/n thresholds. Given (name ->
    array, as a .qsn file holds them): used as they are. Each is checked
    against the shape the config implies first: ShapeMismatchError if it is
    missing or misshapen, BadConfigError if non-finite or a threshold is outside [0, 1].
    """
    model = Model(config, None, {})
    shapes = {name: shape for layer in model.layers for name, shape in layer.shapes.items()}
    if config.defense != "none":
        pixels = config.input_shape if config.per_pixel_thresholds else ()
        shapes[_QUANT_KEY] = pixels + (config.levels - 1,)
    if tensors is None:
        rng = np.random.default_rng(config.seed)
        tensors = {}
        for layer in model.layers:
            (w, w_shape), (b, b_shape) = layer.shapes.items()
            limit = np.sqrt(6.0 / sum(layer.fans))
            tensors[w] = rng.uniform(-limit, limit, w_shape)
            tensors[b] = np.zeros(b_shape)
        if _QUANT_KEY in shapes:
            tensors[_QUANT_KEY] = np.broadcast_to(linear_thresholds(config.levels),
                                                  shapes[_QUANT_KEY]).copy()
    for name, shape in shapes.items():
        if name not in tensors:
            raise ShapeMismatchError(f"missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise ShapeMismatchError(
                f"tensor {name!r} has shape {tensors[name].shape}, config implies {shape}")
        if not np.all(np.isfinite(tensors[name])):
            raise BadConfigError(f"tensor {name!r} holds a non-finite value")
    model.params = {name: tensors[name] for name in shapes if name != _QUANT_KEY}
    if _QUANT_KEY in shapes:
        mode = TRAINABLE if config.defense == "tq" else CONSTANT
        try:
            model.quantizer = Quantizer(config.levels, config.steepness, tensors[_QUANT_KEY], mode)
        except ValueError as e:
            raise BadConfigError(f"tensor {_QUANT_KEY!r}: {e}") from e
    return model


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def train(model: Model, train_set, epochs: int, batch_size: int = 64,
          lr: float = 0.01, seed: int = 0, log=None):
    """Mini-batch SGD on the configured loss; returns (model, per-epoch trace).

    TQ thresholds update each batch right after the weight step; CQ
    thresholds are frozen. Raises on an empty dataset, BadConfigError unless
    lr is finite and positive, batch_size >= 1 and epochs >= 0, and aborts
    with the batch index if the loss goes non-finite.
    """
    images, labels = np.asarray(train_set.images), np.asarray(train_set.labels)
    n = images.shape[0]
    if n == 0:
        raise ValueError("training dataset is empty")
    if not 0.0 < lr < np.inf:  # NaN fails the comparison too
        raise BadConfigError(f"learning rate must be finite and positive, got {lr!r}")
    if batch_size < 1 or epochs < 0:
        raise BadConfigError(f"need batch_size >= 1 and epochs >= 0, got {batch_size} and {epochs}")
    rng = np.random.default_rng(seed)
    trace: list[EpochStats] = []
    tq = model.quantizer is not None and model.quantizer.trainable
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        correct = 0
        for bi, start in enumerate(range(0, n, batch_size)):
            idx = order[start:start + batch_size]
            xb, yb = images[idx], labels[idx]
            probs, cache = model.forward_batch(xb, keep_cache=True)
            loss, d_logits = model.loss_and_grad_batch(probs, yb)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss {loss} at epoch {epoch} batch {bi}")
            losses.append(loss)
            correct += int((probs.argmax(axis=1) == yb).sum())
            grads, _ = model.backward_batch(cache, d_logits)
            for pname, g in grads.items():
                model.params[pname] = nn.sgd_update(model.params[pname], g, lr)
            if tq:
                update_thresholds(model.quantizer, cache["quantizer_delta"],
                                  cache["raw_input"], lr)
        stats = EpochStats(epoch=epoch, loss=float(np.mean(losses)),
                           accuracy=correct / n)
        trace.append(stats)
        if log is not None:
            log(stats)
    model.clear_buffers()
    return model, trace


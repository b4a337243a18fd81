"""CNN assembly, training, and prediction.

The default stack is Conv(64,8x8)+relu -> Conv(128,6x6)+relu ->
Conv(128,5x5)+relu -> flatten -> Dense(10) -> softmax, with an optional
quantization layer in front (defense "cq" or "tq"). All randomness flows
from the config seed through a single generator, so identical configs
produce bit-identical models and training runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ShapeMismatchError
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
LOSSES = ("mse", "cross_entropy")


def _int(what: str, value) -> int:
    """value as a Python int; TypeError for bools and non-integers."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an int, got {value!r}")
    return int(value)


_LAYER_FIELDS = {"conv": ("filters", "kernel size"), "dense": ("width",)}


def _layer(layer) -> tuple:
    """An architecture entry as ("conv", filters, k) or ("dense", width), checked."""
    layer = tuple(layer)
    kind = layer[0] if layer else None
    if not isinstance(kind, str) or kind not in _LAYER_FIELDS:
        raise ValueError(f"unknown layer kind in {layer!r}")
    fields = _LAYER_FIELDS[kind]
    if len(layer) != 1 + len(fields):
        raise ValueError(f"{kind} layer must be ({kind!r}, {', '.join(fields)}), got {layer!r}")
    values = tuple(_int(f"{kind} {name}", v) for name, v in zip(fields, layer[1:]))
    if any(v <= 0 for v in values):
        raise ValueError(f"{kind} layer values must be positive, got {layer!r}")
    return (kind,) + values


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
            raise ValueError(f"input_shape must be 3 positive extents, got {self.input_shape}")
        if self.defense not in DEFENSES:
            raise ValueError(f"defense must be one of {DEFENSES}, got {self.defense!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if isinstance(self.steepness, bool) or not isinstance(self.steepness, (int, float)):
            raise TypeError(f"steepness must be a real number, got {self.steepness!r}")
        object.__setattr__(self, "steepness", float(self.steepness))
        if type(self.per_pixel_thresholds) is not bool:
            raise TypeError(
                f"per_pixel_thresholds must be a bool, got {self.per_pixel_thresholds!r}")
        if self.defense != "none":
            if self.levels < 2:
                raise ValueError("defended config needs levels >= 2")
            if not 0 < self.steepness < math.inf:
                raise ValueError("defended config needs a finite steepness > 0")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self._validate_architecture()

    def _validate_architecture(self):
        h, w, _ = self.input_shape
        seen_dense = False
        for layer in self.architecture:
            kind = layer[0]
            if kind == "conv":
                if seen_dense:
                    raise ValueError("conv layer after dense is not supported")
                _, filters, k = layer
                if k > h or k > w:
                    raise ValueError(
                        f"kernel size {k} does not fit remaining input {h}x{w}")
                h, w = h - k + 1, w - k + 1
            else:  # dense
                seen_dense = True
        if not self.architecture or self.architecture[-1][0] != "dense":
            raise ValueError("architecture must end with a dense layer")

    def canonical_text(self) -> str:
        d = {
            "input_shape": list(self.input_shape),
            "defense": self.defense,
            "levels": self.levels,
            "steepness": self.steepness,
            "architecture": [list(layer) for layer in self.architecture],
            "seed": self.seed,
            "loss": self.loss,
            "per_pixel_thresholds": self.per_pixel_thresholds,
        }
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_canonical_text(cls, text: str) -> "ModelConfig":
        d = json.loads(text)
        return cls(
            input_shape=tuple(d["input_shape"]),
            defense=d["defense"],
            levels=d["levels"],
            steepness=d["steepness"],
            architecture=tuple(tuple(layer) for layer in d["architecture"]),
            seed=d["seed"],
            loss=d["loss"],
            per_pixel_thresholds=d["per_pixel_thresholds"],
        )


class Model:
    """Ordered layer stack with named parameters and an optional quantizer."""

    def __init__(self, config: ModelConfig, quantizer: Quantizer | None,
                 params: dict[str, np.ndarray], layer_plan: list):
        self.config = config
        self.quantizer = quantizer
        self.params = params
        self.layer_plan = layer_plan  # [("conv", name, in_shape), ("dense", name, in_dim), ...]
        self._pool = nn.BufferPool()

    def clear_buffers(self):
        """Drop conv scratch buffers (~0.5 GB for the default stack at batch 64)."""
        self._pool.clear()

    @property
    def num_classes(self) -> int:
        return self.config.architecture[-1][1]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    # -- forward ------------------------------------------------------------

    def forward_batch(self, x: np.ndarray, keep_cache: bool = False):
        """Probabilities for a (N,H,W,C) batch; optionally keep per-layer caches."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.config.input_shape:
            raise ShapeMismatchError(
                f"input shape {x.shape[1:]} != configured {self.config.input_shape}")
        cache = {"raw_input": x} if keep_cache else None
        a = quantize(x, self.quantizer) if self.quantizer is not None else x
        layer_caches = []
        for kind, name, _ in self.layer_plan:
            if kind == "conv":
                kern, bias = self.params[name + ".kernels"], self.params[name + ".bias"]
                pre, rows = nn.conv_forward_batch(a, kern, bias, pool=self._pool, key=name)
                if keep_cache:
                    layer_caches.append({"rows": rows, "in_shape": a.shape, "mask": pre > 0.0})
                a = np.maximum(pre, 0.0, out=pre)
            elif kind == "flatten":
                if keep_cache:
                    layer_caches.append({"in_shape": a.shape})
                a = a.reshape(a.shape[0], -1)
            elif kind == "dense":
                W, b = self.params[name + ".W"], self.params[name + ".b"]
                if keep_cache:
                    layer_caches.append({"input": a})
                a = a @ W.T + b
        probs = nn.softmax_batch(a)
        if keep_cache:
            cache["layers"] = layer_caches
            cache["probs"] = probs
            cache["logits"] = a
            return probs, cache
        return probs

    def predict(self, image: np.ndarray) -> np.ndarray:
        """Probability vector for one (H,W,C) image."""
        image = np.asarray(image, dtype=np.float64)
        if image.shape != self.config.input_shape:
            raise ShapeMismatchError(
                f"image shape {image.shape} != configured {self.config.input_shape}")
        return self.forward_batch(image[None])[0]

    # -- backward -----------------------------------------------------------

    def backward_batch(self, cache: dict, d_logits: np.ndarray,
                       need_param_grads: bool = True,
                       need_input_grad: bool = False):
        """Backprop d cost/d logits through the stack.

        Returns (param_grads, d_raw_input). d_raw_input includes the chain
        through the quantizer and is None unless requested; param_grads maps
        the same names as self.params.
        """
        grads = {}
        d = d_logits
        plan = self.layer_plan
        want_bottom_delta = need_input_grad or (
            self.quantizer is not None and self.quantizer.trainable)
        for i in range(len(plan) - 1, -1, -1):
            kind, name, _ = plan[i]
            lcache = cache["layers"][i]
            if kind == "dense":
                inp = lcache["input"]
                if need_param_grads:
                    grads[name + ".W"] = d.T @ inp
                    grads[name + ".b"] = d.sum(axis=0)
                d = d @ self.params[name + ".W"]
            elif kind == "flatten":
                d = d.reshape(lcache["in_shape"])
            else:  # conv (+fused relu)
                # d is always our own scratch here (the stack ends in dense,
                # so the caller's d_logits was already consumed by a matmul)
                d = np.multiply(d, lcache["mask"], out=d)
                d_k, d_b, d_in = nn.conv_backward_batch(
                    lcache["rows"], self.params[name + ".kernels"], d,
                    lcache["in_shape"], need_input=(i > 0 or want_bottom_delta),
                    pool=self._pool, key=name, need_params=need_param_grads)
                if need_param_grads:
                    grads[name + ".kernels"] = d_k
                    grads[name + ".bias"] = d_b
                d = d_in
        d_raw = None
        if want_bottom_delta:
            cache["quantizer_delta"] = d  # d cost / d quantizer-output
        if need_input_grad:
            if self.quantizer is not None:
                d_raw = d * quantize_grad_input(cache["raw_input"], self.quantizer)
            else:
                d_raw = d.copy()  # detach from the scratch pool
        return grads, d_raw

    def loss_and_grad_batch(self, probs: np.ndarray, labels: np.ndarray):
        """Mean loss over the batch plus d loss/d logits (via the softmax Jacobian)."""
        n, c = probs.shape
        labels = np.asarray(labels)
        if self.config.loss == "mse":
            onehot = np.zeros_like(probs)
            onehot[np.arange(n), labels] = 1.0
            diff = probs - onehot
            loss = float(np.sum(diff * diff) / (c * n))
            d_probs = (2.0 / (c * n)) * diff
            d_logits = nn.softmax_backward_batch(probs, d_probs)
        else:
            p_true = np.clip(probs[np.arange(n), labels], 1e-12, None)
            loss = float(-np.log(p_true).mean())
            # closed form of softmax-jacobian applied to the CE gradient
            onehot = np.zeros_like(probs)
            onehot[np.arange(n), labels] = 1.0
            d_logits = (probs - onehot) / n
        return loss, d_logits

    def input_gradient_batch(self, x: np.ndarray, labels: np.ndarray):
        """(probabilities, d (configured training loss)/d x) for a batch.

        The gradient runs through the quantizer when present; the
        probabilities are those of the forward pass it starts from.
        """
        probs, cache = self.forward_batch(x, keep_cache=True)
        _, d_logits = self.loss_and_grad_batch(probs, labels)
        _, d_raw = self.backward_batch(cache, d_logits,
                                       need_param_grads=False, need_input_grad=True)
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
        _, d_raw = self.backward_batch(cache, d_logits,
                                       need_param_grads=False, need_input_grad=True)
        return d_raw


def _layer_plan(config: ModelConfig):
    """Resolve the architecture descriptor into shaped layers."""
    h, w, cin = config.input_shape
    plan = []
    idx = 0
    flattened = False
    dim = None
    for layer in config.architecture:
        if layer[0] == "conv":
            _, filters, k = layer
            plan.append(("conv", f"conv{idx}", (h, w, cin)))
            h, w, cin = h - k + 1, w - k + 1, filters
            idx += 1
        else:  # dense
            if not flattened:
                plan.append(("flatten", f"flatten{idx}", None))
                dim = h * w * cin
                flattened = True
            plan.append(("dense", f"dense{idx}", dim))
            dim = layer[1]
            idx += 1
    return plan


def build_model(config: ModelConfig) -> Model:
    """Construct a model with seed-determined Glorot-uniform weights."""
    rng = np.random.default_rng(config.seed)
    plan = _layer_plan(config)
    params: dict[str, np.ndarray] = {}
    parametric = [entry for entry in plan if entry[0] != "flatten"]
    for (kind, name, in_shape), layer in zip(parametric, config.architecture):
        if kind == "conv":
            _, filters, k = layer
            cin = in_shape[2]
            fan_in, fan_out = k * k * cin, k * k * filters
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            params[name + ".kernels"] = rng.uniform(-limit, limit, (k, k, cin, filters))
            params[name + ".bias"] = np.zeros(filters)
        else:
            _, out_dim = layer
            fan_in = in_shape
            limit = np.sqrt(6.0 / (fan_in + out_dim))
            params[name + ".W"] = rng.uniform(-limit, limit, (out_dim, fan_in))
            params[name + ".b"] = np.zeros(out_dim)
    quantizer = None
    if config.defense != "none":
        thresholds = linear_thresholds(config.levels)
        if config.per_pixel_thresholds:
            thresholds = np.broadcast_to(
                thresholds, tuple(config.input_shape) + (config.levels - 1,)).copy()
        mode = TRAINABLE if config.defense == "tq" else CONSTANT
        quantizer = Quantizer(config.levels, config.steepness, thresholds, mode)
    return Model(config, quantizer, params, plan)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def train(model: Model, train_set, epochs: int, batch_size: int = 64,
          lr: float = 0.01, seed: int = 0, log=None):
    """Mini-batch SGD on the configured loss; returns (model, per-epoch trace).

    TQ thresholds update each batch right after the weight step; CQ
    thresholds are frozen. Raises on an empty dataset, and aborts with the
    batch index if the loss goes non-finite.
    """
    images, labels = np.asarray(train_set.images), np.asarray(train_set.labels)
    n = images.shape[0]
    if n == 0:
        raise ValueError("training dataset is empty")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
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
            grads, _ = model.backward_batch(cache, d_logits, need_param_grads=True)
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


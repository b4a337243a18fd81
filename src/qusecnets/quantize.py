"""Input-quantization defense layer.

Each pixel is squashed through the average of n-1 sigmoids centered at the
thresholds t_k; large steepness z turns the sum into a staircase with n
levels. Thresholds are either one shared (n-1,) vector or a per-pixel
(H,W,C,n-1) array, and are optionally adjusted by backpropagation
(trainable mode) with a clamp to [0,1] after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import nn
from .errors import BadConfigError, checked

CONSTANT = "constant"
TRAINABLE = "trainable"
THRESHOLDS_KEY = "quantizer.thresholds"  # the thresholds' tensor name in a weight file


def linear_thresholds(n: int) -> np.ndarray:
    """Evenly spaced thresholds t_k = k/n for k = 1..n-1."""
    n = checked("levels", n, Integral, lambda v: v >= 2, "at least 2")
    return np.arange(1, n, dtype=np.float64) / n


@dataclass
class Quantizer:
    """Quantization front layer: n levels realized by n-1 sigmoids of steepness z.

    The thresholds are a float64 copy of the array given, so a TQ step,
    which writes into them, leaves the caller's array untouched.
    """

    levels: int
    steepness: float
    thresholds: np.ndarray = None
    mode: str = CONSTANT

    def __post_init__(self):
        self.levels = checked("levels", self.levels, Integral, lambda v: v >= 2, "at least 2")
        self.steepness = checked("steepness", self.steepness, Real,
                                 lambda v: 0 < v < math.inf, "finite and positive")
        if self.mode not in (CONSTANT, TRAINABLE):
            raise BadConfigError(f"mode must be '{CONSTANT}' or '{TRAINABLE}', got {self.mode!r}")
        if self.thresholds is None:
            self.thresholds = linear_thresholds(self.levels)
        self.thresholds = np.array(self.thresholds, dtype=np.float64)
        if self.thresholds.shape[-1:] != (self.levels - 1,):
            raise BadConfigError(f"{THRESHOLDS_KEY} last axis must be n-1={self.levels - 1}, "
                                 f"got shape {self.thresholds.shape}")
        if not np.all((self.thresholds >= 0.0) & (self.thresholds <= 1.0)):  # NaN fails too
            raise BadConfigError(f"{THRESHOLDS_KEY} must lie in [0, 1]")

    @property
    def trainable(self) -> bool:
        return self.mode == TRAINABLE


def sigmoid_unit(x, t, z):
    """Overflow-safe sigmoid 1 / (1 + exp(-z (x - t))); broadcasts over arrays."""
    a = np.asarray(z * (np.asarray(x, dtype=np.float64) - t))
    # exp(-|a|) <= 1 never overflows; it is exp(-a) where a >= 0 and exp(a) elsewhere
    e = np.exp(-np.abs(a))
    out = np.where(a >= 0, 1.0, e)
    e += 1.0
    out /= e
    return float(out) if out.ndim == 0 else out


def _sigmoid_terms(x: np.ndarray, q: Quantizer) -> np.ndarray:
    """Per-threshold sigmoid values, shape x.shape + (n-1,)."""
    return sigmoid_unit(np.expand_dims(x, -1), q.thresholds, q.steepness)


def quantize(x, q: Quantizer) -> np.ndarray:
    """Defense forward pass: mean of the n-1 sigmoids, elementwise over x."""
    return _sigmoid_terms(x, q).mean(axis=-1)


def quantize_grad_input(x, q: Quantizer) -> np.ndarray:
    """d quantize/d x per pixel: (z/(n-1)) * sum_k s_k (1 - s_k)."""
    s = _sigmoid_terms(x, q)
    return (q.steepness / (q.levels - 1)) * np.sum(s * (1.0 - s), axis=-1)


def _threshold_slopes(x: np.ndarray, q: Quantizer) -> np.ndarray:
    """d quantize/d t_k per pixel for every k: -(z/(n-1)) * s_k (1 - s_k), shape x.shape + (n-1,)."""
    s = _sigmoid_terms(x, q)
    return -(q.steepness / (q.levels - 1)) * s * (1.0 - s)


def quantize_grad_threshold(x, q: Quantizer, k: int) -> np.ndarray:
    """d quantize/d t_k per pixel; k is the 0-based index into the thresholds vector."""
    if not 0 <= checked("threshold index", k, Integral) < q.levels - 1:
        raise ValueError(f"threshold index {k} out of range 0..{q.levels - 2}")
    return _threshold_slopes(x, q)[..., k]


def threshold_gradients(q: Quantizer, d_cost_dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d cost/d thresholds, aggregated to the thresholds' shape.

    d_cost_dy is the sensitivity arriving at the quantizer output (same
    shape as x). Shared thresholds accumulate every pixel's contribution;
    per-pixel thresholds accumulate only over leading batch axes.
    """
    x = np.asarray(x)
    d_cost_dy = np.asarray(d_cost_dy)
    if d_cost_dy.shape != x.shape:
        raise ValueError(f"d_cost_dy shape {d_cost_dy.shape} != input shape {x.shape}")
    per_pixel = _threshold_slopes(x, q) * d_cost_dy[..., None]
    # shared (n-1,) thresholds sum over every pixel axis; per-pixel ones
    # keep their own axes and sum only over what x has in front of them
    lead = x.ndim - (q.thresholds.ndim - 1)
    if lead < 0:
        raise ValueError(
            f"input rank {x.ndim} too small for per-pixel thresholds {q.thresholds.shape}")
    return per_pixel.sum(axis=tuple(range(lead)))


def update_thresholds(q: Quantizer, d_cost_dy, x, lr: float) -> Quantizer:
    """One backprop step on the thresholds, clamped to [0,1]. Mutates q.

    The step is nn.sgd_update, the one the weights take, so a non-positive
    lr raises its ValueError. Both the step and the clamp write into
    q.thresholds itself: the array stays the same object. Rejected on
    constant-mode quantizers; those must stay bit-identical through training.
    """
    if not q.trainable:
        raise ValueError("update_thresholds called on a constant-mode quantizer")
    grad = threshold_gradients(q, d_cost_dy, x)
    np.clip(nn.sgd_update(q.thresholds, grad, lr), 0.0, 1.0, out=q.thresholds)
    return q

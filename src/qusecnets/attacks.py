"""Adversarial example generation: FGSM, JSMA, and C&W-L2.

All three are white-box: gradients flow through the quantization layer
analytically when a defense is present (no gradient-masking shortcut).
generate_batch is the one entry point for a set of images; only JSMA also
works per image (jsma), since its pixel picks depend on each image alone.
JSMA is the JSMA-F variant: because softmax outputs sum to 1, its beta map
is -alpha, so it runs on the target probability's gradient alone.
Black-box transfer is generate_batch on a substitute model, then
evaluate.evaluate on the victim. Attacks are deterministic given
(model, input, spec).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from numbers import Integral, Real

import numpy as np

from . import nn
from .errors import BadConfigError, BadTypeError, DivergedError, ShapeMismatchError, checked
from .model import CHUNK, Model, check_labels

ATTACK_KINDS = ("fgsm", "jsma", "cw_l2")


@dataclass
class AttackSpec:
    """Attack kind plus its hyperparameters; unused fields are ignored.

    targeted defaults to True for jsma, which only runs targeted, and to
    False otherwise; fgsm runs untargeted only. target_class applies only
    to a targeted spec. Wrongly typed or out-of-range values and these
    mismatches raise BadConfigError.
    """

    kind: str
    epsilon: float = 0.3
    iterations: int = 100
    targeted: bool | None = None
    target_class: int | None = None
    kappa: float = 0.0          # cw_l2 confidence margin
    c: float = 1.0              # cw_l2 trade-off constant
    theta: float = 1.0          # jsma per-step pixel change
    gamma: float = 0.1          # jsma max fraction of pixels modified
    step_size: float = 0.01     # cw_l2 descent step in tanh space

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise BadConfigError(f"kind must be one of {ATTACK_KINDS}, got {self.kind!r}")
        if self.targeted is None:
            self.targeted = self.kind == "jsma"
        if type(self.targeted) is not bool:
            raise BadTypeError(f"targeted must be a bool, got {self.targeted!r}")
        # a .qsa file's spec echo is rebuilt through these checks
        for name, kind, ok, rule in _SPEC_NUMBERS:
            value = getattr(self, name)
            if value is not None or name != "target_class":
                setattr(self, name, checked(name, value, kind, ok, rule))
        if self.kind == "jsma" and not self.targeted:
            raise BadConfigError("jsma requires a targeted AttackSpec")
        if self.kind == "fgsm" and self.targeted:
            raise BadConfigError("targeted fgsm is not supported; fgsm runs untargeted")
        if self.target_class is not None and not self.targeted:
            raise BadConfigError("target_class needs a targeted AttackSpec")

    def to_dict(self) -> dict:
        return asdict(self)


# (field, kind, test, rule) for every number an AttackSpec holds
_SPEC_NUMBERS = [
    ("epsilon", Real, lambda v: 0 <= v <= 1, "in [0, 1]"),
    ("iterations", Integral, lambda v: v >= 0, "non-negative"),
    ("target_class", Integral, lambda v: v >= 0, "non-negative"),
    ("kappa", Real, lambda v: 0 <= v < np.inf, "finite and non-negative"),
    ("c", Real, lambda v: 0 <= v < np.inf, "finite and non-negative"),
    ("theta", Real, lambda v: 0 < v < np.inf, "finite and positive"),
    ("gamma", Real, lambda v: 0 <= v <= 1, "in [0, 1]"),
    ("step_size", Real, lambda v: 0 < v < np.inf, "finite and positive"),
]


@dataclass
class AdversarialBatch:
    """Originals, perturbed versions, and labels, plus the AttackSpec that made them."""

    originals: np.ndarray
    perturbed: np.ndarray
    labels: np.ndarray
    spec: AttackSpec

    def __post_init__(self):
        if self.originals.shape != self.perturbed.shape:
            raise ShapeMismatchError(
                f"originals shape {self.originals.shape} != perturbed {self.perturbed.shape}")
        if len(self.labels) != len(self.originals):
            raise ShapeMismatchError(
                f"{len(self.labels)} labels for {len(self.originals)} images")


@dataclass
class AdversarialExample:
    """One attacked image with bookkeeping for reporting."""

    perturbed: np.ndarray
    true_label: int
    predicted_label_before: int
    predicted_label_after: int
    confidence_after: float
    success: bool
    iterations_used: int = 0


def _finish(x_adv, probs_after, true_label, pred_before, iterations,
            target_class) -> AdversarialExample:
    """Score targeted x_adv from probs_after, the model's output on it."""
    pred_after = int(probs_after.argmax())
    return AdversarialExample(
        perturbed=x_adv,
        true_label=int(true_label),
        predicted_label_before=pred_before,
        predicted_label_after=pred_after,
        confidence_after=float(probs_after[pred_after]),
        success=pred_after == target_class,
        iterations_used=iterations,
    )


# ---------------------------------------------------------------------------
# FGSM
# ---------------------------------------------------------------------------

def fgsm_signs(model: Model, images: np.ndarray, labels: np.ndarray):
    """(sign(d loss/d x), clean probabilities) for every image; sign(0) = 0.

    FGSM's direction does not depend on epsilon, so one pass serves every
    budget. Images are forwarded model.CHUNK at a time, as in
    evaluate.predict_all, so the probabilities equal predict_all's.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    signs = np.empty_like(images)
    probs = np.empty((len(images), model.num_classes))
    for start in range(0, len(images), CHUNK):
        stop = start + CHUNK
        chunk_probs, grad = model.input_gradient_batch(images[start:stop], labels[start:stop])
        if not np.all(np.isfinite(grad)):
            raise DivergedError(
                f"non-finite FGSM gradient in images {start}..{min(stop, len(images))}")
        probs[start:stop] = chunk_probs
        signs[start:stop] = np.sign(grad)
    return signs, probs


def fgsm_step(images: np.ndarray, signs: np.ndarray, epsilon: float) -> np.ndarray:
    """x + epsilon * signs, clamped to [0,1], as a new array."""
    out = signs * epsilon
    out += images
    return np.clip(out, 0.0, 1.0, out=out)


def fgsm_batch(model: Model, images: np.ndarray, labels: np.ndarray,
               spec: AttackSpec) -> np.ndarray:
    """x + epsilon * sign(d loss/d x), clamped to [0,1]; see fgsm_signs."""
    signs, _ = fgsm_signs(model, images, labels)
    return fgsm_step(images, signs, spec.epsilon)


# ---------------------------------------------------------------------------
# JSMA (targeted, increasing features, pixel pairs)
# ---------------------------------------------------------------------------

def jsma(model: Model, x: np.ndarray, target_class: int, spec: AttackSpec,
         true_label: int) -> AdversarialExample:
    """Saliency-map attack (JSMA-F): flood the most target-salient pixel pair by theta.

    JSMA-F scores a pair by alpha = d P_t/d x and beta = sum_{c != t} d P_c/d x.
    Softmax outputs sum to 1, so beta = -alpha and the pair score
    (a_p + a_q) * -(b_p + b_q) is (a_p + a_q)^2: each iteration needs only
    the target probability's gradient, and the pick is the top-2 alpha
    (see _top_pair). Stops at success, the iteration cap, or once
    gamma * pixel-count pixels have been modified. One batch-1 forward per
    image state serves the success check, the gradient and the final
    scoring. true_label is the image's label; target_class must be one of
    the model's classes other than it, and success means the prediction
    reaches target_class. AttackSpec rejects untargeted jsma specs.
    """
    target_class = _class_index("target_class", target_class, model)
    if target_class == _class_index("true_label", true_label, model):
        raise BadConfigError("jsma target_class must differ from the true label")
    x = np.asarray(x, dtype=np.float64)
    n_pixels = x.size
    probs, cache = model.forward_batch(x[None], keep_cache=True)
    pred_before = int(probs[0].argmax())
    budget = int(np.floor(spec.gamma * n_pixels))
    x_adv = x.copy()
    flat = x_adv.reshape(-1)
    modified = np.zeros(n_pixels, dtype=bool)
    d_probs = np.eye(model.num_classes)[[target_class]]  # d P_t/d probs
    iterations = 0
    for _ in range(spec.iterations):
        if modified.sum() >= budget:
            break
        if int(probs[0].argmax()) == target_class:
            break
        alpha = model.backward_batch(cache, nn.softmax_backward_batch(probs, d_probs),
                                     need_input_grad=True)
        pick = _top_pair(alpha.reshape(-1), flat < 1.0)  # saturated pixels leave
        if pick is None:
            break
        new = [p for p in pick if not modified[p]]
        if modified.sum() + len(new) > budget:
            break
        iterations += 1
        for p in pick:
            flat[p] = min(1.0, flat[p] + spec.theta)
            modified[p] = True
        probs, cache = model.forward_batch(x_adv[None], keep_cache=True)
    return _finish(x_adv, probs[0], true_label, pred_before, iterations,
                   target_class=target_class)


def _class_index(name: str, value, model: Model) -> int:
    return checked(name, value, Integral, lambda v: 0 <= v < model.num_classes,
                   f"a class index in [0, {model.num_classes})")


def _top_pair(alpha: np.ndarray, eligible: np.ndarray):
    """JSMA-F's pick for beta = -alpha, in O(P).

    The pair score (a_p + a_q)^2 over pairs with a_p + a_q > 0 peaks at the
    two largest eligible alpha (ties toward the lower index); that pair is
    returned in ascending index order. When its sum is not positive, the
    single largest pixel is returned if its alpha is positive, else None.
    """
    idx = np.flatnonzero(eligible)
    if idx.size == 0:
        return None
    a = alpha[idx]  # fancy indexing copies, so a is ours to overwrite
    first = int(a.argmax())
    top, a[first] = a[first], -np.inf
    second = int(a.argmax())  # with one eligible pixel a[second] is -inf
    if top + a[second] > 0.0:
        return int(idx[min(first, second)]), int(idx[max(first, second)])
    if top > 0.0:
        return (int(idx[first]),)
    return None


# ---------------------------------------------------------------------------
# C&W-L2 (tanh reparameterization, fixed-step descent, single c)
# ---------------------------------------------------------------------------

_ATANH_CLIP = 1.0 - 1e-12


def _to_tanh_space(x: np.ndarray) -> np.ndarray:
    return np.arctanh(np.clip(2.0 * x - 1.0, -_ATANH_CLIP, _ATANH_CLIP))


def _from_tanh_space(w: np.ndarray) -> np.ndarray:
    return 0.5 * (np.tanh(w) + 1.0)


def _cw_optimize(model: Model, x0: np.ndarray, pivots: np.ndarray,
                 spec: AttackSpec):
    """Shared C&W descent over a batch; returns the perturbed batch.

    pivots[i] is the target class when spec.targeted, else the true class
    the attack pushes away from. The epsilon box is enforced every step by
    clipping in tanh space (monotone, so equivalent to the pixel-space
    projection). Memory does not grow with spec.iterations.
    """
    n = len(x0)
    lo = np.maximum(x0 - spec.epsilon, 0.0)
    hi = np.minimum(x0 + spec.epsilon, 1.0)
    w_lo, w_hi = _to_tanh_space(lo), _to_tanh_space(hi)
    w = np.clip(_to_tanh_space(x0), w_lo, w_hi)
    rows = np.arange(n)
    for step in range(spec.iterations):
        x_adv = _from_tanh_space(w)
        probs, cache = model.forward_batch(x_adv, keep_cache=True)
        logits = cache["logits"]
        z_pivot = logits[rows, pivots]
        masked = logits.copy()
        masked[rows, pivots] = -np.inf
        best_other = masked.argmax(axis=1)
        z_other = logits[rows, best_other]
        diff = (z_other - z_pivot) if spec.targeted else (z_pivot - z_other)
        margin = np.maximum(diff, -spec.kappa)
        delta = x_adv - x0
        obj = (delta * delta).reshape(n, -1).sum(axis=1) + spec.c * margin
        if not np.all(np.isfinite(obj)):
            raise DivergedError(f"cw_l2 objective diverged at step {step}")
        d_logits = np.zeros_like(logits)
        active = diff > -spec.kappa
        sgn = 1.0 if spec.targeted else -1.0
        d_logits[rows[active], best_other[active]] = sgn * spec.c
        d_logits[rows[active], pivots[active]] = -sgn * spec.c
        d_model = model.backward_batch(cache, d_logits, need_input_grad=True)
        d_x = 2.0 * delta + d_model
        d_w = d_x * 0.5 * (1.0 - np.tanh(w) ** 2)
        w = np.clip(w - spec.step_size * d_w, w_lo, w_hi)
    x_adv = _from_tanh_space(w) if spec.iterations > 0 else x0.copy()
    # exact budget contract regardless of float round-trip noise
    x_adv = np.clip(x0 + np.clip(x_adv - x0, -spec.epsilon, spec.epsilon), 0.0, 1.0)
    return x_adv


# ---------------------------------------------------------------------------
# Batch generation
# ---------------------------------------------------------------------------

def next_class_targets(labels: np.ndarray, num_classes: int = 10) -> np.ndarray:
    """Default target assignment for targeted attacks: the next class mod C."""
    return (np.asarray(labels) + 1) % num_classes


def generate_batch(model: Model, images: np.ndarray, labels: np.ndarray,
                   spec: AttackSpec) -> AdversarialBatch:
    """Attack a whole set of images and package the result for evaluation.

    Before any pass: DataError unless every label is one of the model's
    classes, and BadConfigError unless spec.target_class is one of them
    and equals no label.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    check_labels(labels, model.num_classes)
    if spec.target_class is not None and np.any(
            labels == _class_index("target_class", spec.target_class, model)):
        raise BadConfigError(f"target_class {spec.target_class} equals an image's label")
    targets = (np.full(len(labels), spec.target_class) if spec.target_class is not None
               else next_class_targets(labels, model.num_classes))
    if spec.kind == "fgsm":
        perturbed = fgsm_batch(model, images, labels, spec)
    elif spec.kind == "cw_l2":
        # CHUNK images at a time, as fgsm_signs: the descent keeps each batch's caches alive
        pivots = targets if spec.targeted else labels
        perturbed = np.empty_like(images)
        for start in range(0, len(images), CHUNK):
            stop = start + CHUNK
            perturbed[start:stop] = _cw_optimize(model, images[start:stop],
                                                 pivots[start:stop], spec)
    else:  # jsma
        perturbed = np.empty_like(images)
        for i in range(len(images)):
            ex = jsma(model, images[i], int(targets[i]), spec,
                      true_label=int(labels[i]))
            perturbed[i] = ex.perturbed
    return AdversarialBatch(originals=images.copy(), perturbed=perturbed,
                            labels=labels.copy(), spec=spec)

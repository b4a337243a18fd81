"""Shared test utilities: error metrics, synthetic datasets, pass counters, and reference kernels and attacks."""

import numpy as np

from qusecnets.attacks import _finish
from qusecnets.data import Dataset
from qusecnets.model import Model, ModelConfig, build_model, train
from qusecnets.nn import LayerGrad

TINY_CONFIG = ModelConfig(
    input_shape=(8, 8, 1),
    architecture=(("conv", 4, 3), ("dense", 10)),
    seed=5,
    loss="cross_entropy",
)


def max_rel_err(a, b, floor=1.0):
    """Max elementwise |a-b| / max(|a|, |b|, floor).

    The floor keeps near-zero entries from blowing up the ratio; our test
    tensors are O(1), so floor=1 makes this an absolute error there while
    staying relative for large entries.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def conv2d_naive(input, kernels, bias, upstream=None):
    """Loop-nest reference convolution (test oracle for nn.conv2d and the batched convs).

    Deliberately written as explicit nested loops; slow, but its summation
    order and code path share nothing with the row-patch GEMMs.
    """
    input = np.asarray(input, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    h, w, cin = input.shape
    k, _, _, cout = kernels.shape
    oh, ow = h - k + 1, w - k + 1
    if upstream is None:
        out = np.zeros((oh, ow, cout))
        for i in range(oh):
            for j in range(ow):
                for f in range(cout):
                    acc = 0.0
                    for ki in range(k):
                        for kj in range(k):
                            for c in range(cin):
                                acc += input[i + ki, j + kj, c] * kernels[ki, kj, c, f]
                    out[i, j, f] = acc + bias[f]
        return out
    d_in = np.zeros_like(input)
    d_k = np.zeros_like(kernels)
    d_b = np.zeros_like(bias)
    for i in range(oh):
        for j in range(ow):
            for f in range(cout):
                u = upstream[i, j, f]
                d_b[f] += u
                for ki in range(k):
                    for kj in range(k):
                        for c in range(cin):
                            d_k[ki, kj, c, f] += input[i + ki, j + kj, c] * u
                            d_in[i + ki, j + kj, c] += kernels[ki, kj, c, f] * u
    return LayerGrad(d_input=d_in, d_params={"kernels": d_k, "bias": d_b})


def blob_dataset(n_per_class=20, classes=10, side=8, seed=0, name="synthetic"):
    """Linearly separable 10-class images: one bright patch per class."""
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for cls in range(classes):
        for _ in range(n_per_class):
            img = rng.uniform(0.0, 0.15, (side, side, 1))
            r, c = divmod(cls, 4)
            img[2 * r:2 * r + 2, 2 * c:2 * c + 2, 0] = rng.uniform(0.85, 1.0, (2, 2))
            images.append(img)
            labels.append(cls)
    order = rng.permutation(len(images))
    return Dataset(np.asarray(images)[order], np.asarray(labels, dtype=np.int64)[order],
                   name, "train")


def trained_tiny_model(config=TINY_CONFIG, epochs=30, seed=0):
    """A small but competent classifier for attack behavior tests."""
    ds = blob_dataset(seed=seed)
    model = build_model(config)
    train(model, ds, epochs=epochs, batch_size=32, lr=0.05, seed=seed)
    return model, ds


def saliency_pair(alpha, beta, domain):
    """JSMA-F pair pick over the full P x P matrix: max (a_p+a_q)|b_p+b_q| with a>0, b<0.

    Falls back to the best single pixel when no positive-saliency pair
    exists; returns None when nothing is eligible. Reference for _top_pair.
    """
    idx = np.flatnonzero(domain)
    if idx.size == 0:
        return None
    a = alpha[idx]
    b = beta[idx]
    if idx.size >= 2:
        pair_a = a[:, None] + a[None, :]
        pair_b = b[:, None] + b[None, :]
        valid = (pair_a > 0.0) & (pair_b < 0.0)
        np.fill_diagonal(valid, False)
        if valid.any():
            scores = np.where(valid, pair_a * -pair_b, -np.inf)
            p, q = np.unravel_index(int(scores.argmax()), scores.shape)
            return int(idx[p]), int(idx[q])
    single = (a > 0.0) & (b < 0.0)
    if single.any():
        scores = np.where(single, a * -b, -np.inf)
        return (int(idx[int(scores.argmax())]),)
    return None


def reference_jsma(model, x, target_class, spec, true_label):
    """JSMA-F as published: alpha and beta from the full 10-class Jacobian.

    Reference for attacks.jsma; same stopping rules and bookkeeping.
    """
    x = np.asarray(x, dtype=np.float64)
    n_pixels = x.size
    pred_before = int(model.predict(x).argmax())
    budget = int(np.floor(spec.gamma * n_pixels))
    x_adv = x.copy()
    flat = x_adv.reshape(-1)
    modified = np.zeros(n_pixels, dtype=bool)
    iterations = 0
    for _ in range(spec.iterations):
        if int(model.predict(x_adv).argmax()) == target_class:
            break
        if modified.sum() >= budget:
            break
        jac = model.probability_jacobian(x_adv).reshape(model.num_classes, n_pixels)
        alpha = jac[target_class]
        beta = jac.sum(axis=0) - alpha
        pick = saliency_pair(alpha, beta, flat < 1.0)
        if pick is None:
            break
        new = [p for p in pick if not modified[p]]
        if modified.sum() + len(new) > budget:
            break
        iterations += 1
        for p in pick:
            flat[p] = min(1.0, flat[p] + spec.theta)
            modified[p] = True
    return _finish(x_adv, model.predict(x_adv), true_label, pred_before, iterations,
                   target_class=target_class)


def masked_sigmoid_unit(x, t, z):
    """Overflow-safe sigmoid by boolean-mask gather/scatter: reference for quantize.sigmoid_unit."""
    a = np.asarray(z * (np.asarray(x, dtype=np.float64) - t))
    scalar = a.ndim == 0
    a = np.atleast_1d(a)
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return float(out[0]) if scalar else out


def reference_fgsm_batch(model, images, labels, epsilon, chunk=64):
    """FGSM one chunk at a time, gradient and step together: reference for attacks.fgsm_batch."""
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    out = np.empty_like(images)
    for start in range(0, len(images), chunk):
        xb = images[start:start + chunk]
        yb = labels[start:start + chunk]
        probs, cache = model.forward_batch(xb, keep_cache=True)
        _, d_logits = model.loss_and_grad_batch(probs, yb)
        _, grad = model.backward_batch(cache, d_logits, need_input_grad=True)
        out[start:start + chunk] = np.clip(xb + epsilon * np.sign(grad), 0.0, 1.0)
    return out


class PassCounter:
    """Tallies forwarded images, input-gradient rows and Model.predict calls.

    Install with monkeypatch; counts cover every Model instance.
    """

    def __init__(self, monkeypatch):
        self.forward_images = 0
        self.input_grad_rows = 0
        self.predict_calls = 0
        forward, backward, predict = Model.forward_batch, Model.backward_batch, Model.predict
        counter = self

        def counted_forward(model, x, keep_cache=False):
            counter.forward_images += len(x)
            return forward(model, x, keep_cache)

        def counted_backward(model, cache, d_logits, need_input_grad=False):
            if need_input_grad:
                counter.input_grad_rows += len(d_logits)
            return backward(model, cache, d_logits, need_input_grad=need_input_grad)

        def counted_predict(model, image):
            counter.predict_calls += 1
            return predict(model, image)

        monkeypatch.setattr(Model, "forward_batch", counted_forward)
        monkeypatch.setattr(Model, "backward_batch", counted_backward)
        monkeypatch.setattr(Model, "predict", counted_predict)

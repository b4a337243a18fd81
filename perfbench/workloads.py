"""The benchmark's workloads: inputs made from a seed, set-up, timed operations, checks.

Each workload is a closed loop: the next operation starts when the previous
one returns. An operation yields samples of (items, seconds, ok); the
headline throughput is items divided by the median sample time, and a
sample whose output fails a check counts as a failed operation.

- train_tq: one train step (64 samples) of the acceptance-suite settings.
- sweep_fgsm: one repeated sweep over a warm on-disk ModelCache.
- jsma_cifar: one 32x32x3 image attacked by targeted JSMA.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from qusecnets import attacks
from qusecnets import model as qmodel
from qusecnets.attacks import AttackSpec
from qusecnets.data import Dataset
from qusecnets.model import DEFAULT_ARCHITECTURE, ModelConfig

# qusecnets re-exports a function named sweep, which shadows the submodule
qsweep = importlib.import_module("qusecnets.sweep")

HERE = Path(__file__).resolve().parent

# The default stack at a quarter of its width. A sweep of the full-width
# stack over 128 images and 6 cells takes ~30 s on a 2-core box, too long to
# repeat within one run; this keeps the kernel sizes, depth and batching.
QUARTER_STACK = (("conv", 16, 8), ("conv", 32, 6), ("conv", 32, 5), ("dense", 10))
# Three convs so that every per-layer conv metric exists at 8x8x1.
TINY_STACK = (("conv", 4, 3), ("conv", 4, 2), ("conv", 4, 2), ("dense", 10))


@dataclass(frozen=True)
class Scale:
    name: str
    mnist_shape: tuple
    cifar_shape: tuple
    stack: tuple        # train_tq and jsma_cifar
    sweep_stack: tuple


FULL = Scale("full", (28, 28, 1), (32, 32, 3), DEFAULT_ARCHITECTURE, QUARTER_STACK)
TINY = Scale("tiny", (8, 8, 1), (8, 8, 1), TINY_STACK, TINY_STACK)

BATCH = 64
LR = 0.01
# Relative tolerance on the recorded reference losses. The float64 path is
# deterministic; reordering a sum moves a loss by ~1e-15 relative.
REFERENCE_RTOL = 1e-9


def separable_images(n: int, shape: tuple, seed, name: str = "synthetic") -> Dataset:
    """n images in [0,1] of the given shape; class c lights its own patch of a 3x4 grid."""
    rng = np.random.default_rng(seed)
    h, w, c = shape
    labels = rng.permutation(np.arange(n) % 10)
    images = rng.uniform(0.0, 0.15, (n, h, w, c))
    ch, cw = max(h // 3, 1), max(w // 4, 1)
    ph, pw = max(ch // 2, 1), max(cw // 2, 1)
    for i, cls in enumerate(labels):
        r0, c0 = (cls // 4) * ch + ch // 4, (cls % 4) * cw + cw // 4
        images[i, r0:r0 + ph, c0:c0 + pw, :] = rng.uniform(0.85, 1.0, (ph, pw, c))
    return Dataset(images, labels.astype(np.int64), name, "train")


def _train_steps(model, data: Dataset, epochs: int, seed: int):
    """Train with one step per epoch; returns [(seconds, loss)] per step."""
    marks = []
    start = time.perf_counter()
    qmodel.train(model, data, epochs=epochs, batch_size=BATCH, lr=LR, seed=seed,
                 log=lambda stats: marks.append((time.perf_counter(), stats.loss)))
    times = [start] + [t for t, _ in marks]
    return [(b - a, loss) for a, b, (_, loss) in zip(times, times[1:], marks)]


class TrainTQ:
    """TQ n=4 z=5, cross-entropy, batch 64, lr 0.01 on the default stack."""

    name = "train_tq"

    def __init__(self, seed: int, scale: Scale, root: Path, workdir: Path):
        config = ModelConfig(input_shape=scale.mnist_shape, defense="tq", levels=4,
                             steepness=5.0, architecture=scale.stack, seed=0,
                             loss="cross_entropy")
        self.model = qmodel.build_model(config)
        # Two steps on a fixed batch: warm-up, and the reference the losses
        # must match whatever the run's seed.
        reference = separable_images(BATCH, scale.mnist_shape, seed=0)
        steps = _train_steps(self.model, reference, epochs=2, seed=0)
        recorded = json.loads((HERE / "reference.json").read_text())["train_tq_losses"][scale.name]
        losses = [loss for _, loss in steps]
        self.checks = [bool(np.allclose(losses, recorded, rtol=REFERENCE_RTOL, atol=0.0))]
        self.step_estimate = steps[-1][0]
        self.data = separable_images(BATCH, scale.mnist_shape, seed=[seed, 1])
        self.seed = seed
        self.calls = 0

    def op(self, budget_s: float):
        epochs = max(1, round(budget_s / self.step_estimate))
        self.calls += 1
        try:
            steps = _train_steps(self.model, self.data, epochs, seed=self.seed + self.calls)
        except RuntimeError:  # train() aborts on a non-finite loss
            return [(BATCH, 0.0, False)]
        return [(BATCH, seconds, bool(np.isfinite(loss))) for seconds, loss in steps]


class SweepFGSM:
    """A repeated `qusecnets sweep --cache-dir`: CQ {2,4} x eps {0.1,0.2,0.3}, FGSM, 128 images."""

    name = "sweep_fgsm"
    levels = [2, 4]
    epsilons = [0.1, 0.2, 0.3]

    def __init__(self, seed: int, scale: Scale, root: Path, workdir: Path):
        self.base = ModelConfig(input_shape=scale.mnist_shape, defense="cq",
                                steepness=50.0, architecture=scale.sweep_stack,
                                seed=seed, loss="cross_entropy")
        self.train_set = separable_images(128, scale.mnist_shape, seed=[seed, 2])
        self.test_set = separable_images(128, scale.mnist_shape, seed=[seed, 3], name="test")
        self.train_kw = dict(epochs=1, batch_size=BATCH, lr=LR, train_seed=seed)
        self.cache_dir = workdir / "models"
        cache = qsweep.ModelCache(self.cache_dir)
        for n in self.levels:
            cache.get_or_train(replace(self.base, levels=n), self.train_set, **self.train_kw)
        self.checks = []
        import jsonschema

        schema = json.loads((root / "docs" / "report_schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)

    def op(self, budget_s: float):
        start = time.perf_counter()
        result = qsweep.sweep(self.base, self.levels, self.epsilons, "fgsm",
                              self.train_set, self.test_set,
                              cache=qsweep.ModelCache(self.cache_dir), **self.train_kw)
        seconds = time.perf_counter() - start
        cells = len(self.levels) * len(self.epsilons)
        ok = (len(result.rows) == cells
              and all(kind == "cached" for kind, _ in result.events)
              and all(self.validator.is_valid(row.report.to_dict())
                      and row.report.linf_max <= row.epsilon + 1e-12
                      for row in result.rows))
        return [(len(self.test_set) * cells, seconds, ok)]


class JsmaCIFAR:
    """Targeted next-class JSMA (theta=1, gamma=0.1, 4 iterations) on 32x32x3 images, CQ n=2."""

    name = "jsma_cifar"
    pool_size = 8

    def __init__(self, seed: int, scale: Scale, root: Path, workdir: Path):
        config = ModelConfig(input_shape=scale.cifar_shape, defense="cq", levels=2,
                             steepness=50.0, architecture=scale.stack, seed=seed,
                             loss="cross_entropy")
        self.model = qmodel.build_model(config)
        # 16 steps at batch 8 and lr 0.05 make a confident classifier. Batch 8
        # keeps training below the attack's peak memory.
        qmodel.train(self.model, separable_images(128, scale.cifar_shape, seed=[seed, 4]),
                     epochs=1, batch_size=8, lr=0.05, seed=seed)
        # Attack the images the model gets right by the widest margin over
        # their next-class target: the attack then seldom succeeds early.
        candidates = separable_images(4 * self.pool_size, scale.cifar_shape, seed=[seed, 5])
        probs = np.concatenate([self.model.forward_batch(candidates.images[i:i + 8])
                                for i in range(0, len(candidates), 8)])
        rows = np.arange(len(candidates))
        targets = attacks.next_class_targets(candidates.labels)
        margin = probs[rows, candidates.labels] - probs[rows, targets]
        right = np.flatnonzero(probs.argmax(1) == candidates.labels)
        if right.size == 0:
            raise RuntimeError("the set-up model classifies no candidate image correctly")
        keep = right[np.argsort(-margin[right], kind="stable")][:self.pool_size]
        self.images, self.labels = candidates.images[keep], candidates.labels[keep]
        self.model.clear_buffers()
        self.spec = AttackSpec(kind="jsma", targeted=True, iterations=4, theta=1.0, gamma=0.1)
        self.budget = int(np.floor(self.spec.gamma * self.images[0].size))
        self.checks = []
        self.next = 0

    def op(self, budget_s: float):
        i = self.next % len(self.images)
        self.next += 1
        start = time.perf_counter()
        batch = attacks.generate_batch(self.model, self.images[i:i + 1],
                                       self.labels[i:i + 1], self.spec)
        seconds = time.perf_counter() - start
        x, adv = batch.originals, batch.perturbed
        ok = bool(adv.min() >= 0.0 and adv.max() <= 1.0 and np.all(adv >= x)
                  and np.count_nonzero(adv != x) <= self.budget)
        return [(1, seconds, ok)]


WORKLOADS = {w.name: w for w in (TrainTQ, SweepFGSM, JsmaCIFAR)}

"""Level/epsilon sweeps with cached model training."""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .attacks import AdversarialBatch, AttackSpec, fgsm_signs, fgsm_step, generate_batch
from .errors import BadConfigError, DataError
from .evaluate import METRICS, EvalReport, evaluate, predict_all
from .model import Model, ModelConfig, build_model, check_labels, train
from .serial import load_weights, save_weights


def _train_key(config: ModelConfig, epochs, batch_size, lr, train_seed, dataset) -> str:
    h = hashlib.sha256()
    h.update(config.canonical_text().encode())
    h.update(f"|{epochs}|{batch_size}|{lr}|{train_seed}".encode())
    h.update(f"|{dataset.name}|{dataset.split}|{len(dataset)}|".encode())
    h.update(dataset.labels.tobytes())
    images = dataset.images  # hashed as tobytes() would give them, ~1 MB at a time
    step = max(1, 2**20 // max(1, images[0].nbytes))
    for s in range(0, len(images), step):
        h.update(np.ascontiguousarray(images[s:s + step]))
    return h.hexdigest()[:24]


class ModelCache:
    """Train-once store for sweep configurations, kept as weight files.

    A hit loads a fresh model from <cache_dir>/<key>.qsn; with no cache_dir
    every lookup trains. A weight file that fails to load (say, truncated by
    a killed run) is a miss: the model is retrained and the file replaced.
    Every lookup appends ("trained"|"cached", key) to events, which is how
    tests verify that a second sweep does no retraining.
    """

    def __init__(self, cache_dir=None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.events: list[tuple[str, str]] = []

    def get_or_train(self, config: ModelConfig, train_set, epochs: int,
                     batch_size: int = 64, lr: float = 0.01,
                     train_seed: int = 0) -> Model:
        key = _train_key(config, epochs, batch_size, lr, train_seed, train_set)
        path = self.cache_dir / f"{key}.qsn" if self.cache_dir is not None else None
        if path is not None and path.exists():
            try:
                model = load_weights(path)
            except DataError:
                pass
            else:
                self.events.append(("cached", key))
                return model
        model = build_model(config)
        train(model, train_set, epochs=epochs, batch_size=batch_size,
              lr=lr, seed=train_seed)
        if path is not None:
            save_weights(model, path)
        self.events.append(("trained", key))
        return model


@dataclass
class SweepRow:
    levels: int
    epsilon: float
    report: EvalReport


@dataclass
class SweepResult:
    rows: list
    recommended_levels: int
    events: list


def sweep(base_config: ModelConfig, levels: list, epsilons: list,
          attack_kind: str, train_set, test_set, epochs: int = 5,
          batch_size: int = 64, lr: float = 0.01, train_seed: int = 0,
          cache: ModelCache | None = None) -> SweepResult:
    """Train (or reuse) one defended model per level count, attack per epsilon.

    Emits the full levels x epsilons cross-product and recommends the level
    count with the highest mean adversarial accuracy (ties to the smaller n).
    Per level, FGSM takes one forward and input-gradient pass over the test
    set: its probabilities are the clean pass, and its gradient signs serve
    every epsilon. Other attacks run a clean pass, then generate_batch per
    epsilon, except JSMA, which ignores epsilon: it runs once per level, and
    each epsilon's batch carries that epsilon's spec. Every cell, epsilon 0
    included, forwards its perturbed images once in evaluate. Before any
    model is trained, it checks every attack spec and model config, the test
    labels against the model's classes, and that no level count or epsilon
    repeats.
    """
    if cache is None:
        cache = ModelCache()
    specs = [AttackSpec(kind=attack_kind, epsilon=eps) for eps in epsilons]
    configs = [replace(base_config, levels=n) for n in levels]
    # the checked values, as plain numbers: any iterable runs like the equal list
    levels, epsilons = [c.levels for c in configs], [s.epsilon for s in specs]
    if not levels or not epsilons or any(len(set(v)) < len(v) for v in (levels, epsilons)):
        raise BadConfigError("levels and epsilons must be non-empty and repeat no value")
    check_labels(test_set.labels, base_config.architecture[-1][1])  # Model.num_classes
    images, labels = np.asarray(test_set.images, dtype=np.float64), test_set.labels
    rows = []
    mean_adv = {}
    for n, config in zip(levels, configs):
        model = cache.get_or_train(config, train_set, epochs=epochs,
                                   batch_size=batch_size, lr=lr,
                                   train_seed=train_seed)
        # generators: only one epsilon's batch is alive at a time
        if attack_kind == "fgsm":
            signs, clean_probs = fgsm_signs(model, images, labels)
            batches = (AdversarialBatch(originals=images,
                                        perturbed=fgsm_step(images, signs, spec.epsilon),
                                        labels=labels, spec=spec)
                       for spec in specs)
        else:
            clean_probs = predict_all(model, images)
            if attack_kind == "jsma":  # JSMA ignores epsilon: one attack serves every spec
                jsma_batch = generate_batch(model, images, labels, specs[0])
                batches = (replace(jsma_batch, spec=spec) for spec in specs)
            else:
                batches = (generate_batch(model, images, labels, spec) for spec in specs)
        accs = []
        for eps, batch in zip(epsilons, batches):
            report = evaluate(model, test_set, adversarial=batch, clean_probs=clean_probs)
            rows.append(SweepRow(levels=n, epsilon=eps, report=report))
            accs.append(report.adv_accuracy)
        model.clear_buffers()
        mean_adv[n] = sum(accs) / len(accs)
    recommended = max(sorted(mean_adv), key=lambda n: mean_adv[n])
    return SweepResult(rows=rows, recommended_levels=recommended,
                       events=list(cache.events))


def sweep_to_csv(result: SweepResult, path) -> None:
    """One row per (levels, epsilon) cell; diff-friendly chart source."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["levels", "epsilon", *METRICS])
        for row in result.rows:
            writer.writerow([row.levels, row.epsilon,
                             *(getattr(row.report, name) for name in METRICS)])
        writer.writerow(["recommended_levels", result.recommended_levels]
                        + [""] * len(METRICS))

"""Level/epsilon sweeps with cached model training."""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .attacks import AttackSpec, fgsm_signs, fgsm_step, generate_batch
from .errors import DataError
from .evaluate import EvalReport, evaluate, predict_all
from .model import Model, ModelConfig, build_model, train
from .serial import AdversarialBatch, load_weights, save_weights


def _train_key(config: ModelConfig, epochs, batch_size, lr, train_seed, dataset) -> str:
    h = hashlib.sha256()
    h.update(config.canonical_text().encode())
    h.update(f"|{epochs}|{batch_size}|{lr}|{train_seed}".encode())
    h.update(f"|{dataset.name}|{dataset.split}|{len(dataset)}|".encode())
    h.update(dataset.labels.tobytes())
    h.update(dataset.images.tobytes())
    return h.hexdigest()[:24]


class ModelCache:
    """Train-once store for sweep configurations.

    Hits come from memory first, then from weight files under cache_dir
    (when given). A weight file that fails to load (say, truncated by a
    killed run) is a miss: the model is retrained and the file replaced.
    Every lookup appends ("trained"|"cached", key) to events, which is how
    tests verify that a second sweep does no retraining.
    """

    def __init__(self, cache_dir=None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._memory: dict[str, Model] = {}
        self.events: list[tuple[str, str]] = []

    def get_or_train(self, config: ModelConfig, train_set, epochs: int,
                     batch_size: int = 64, lr: float = 0.01,
                     train_seed: int = 0) -> Model:
        key = _train_key(config, epochs, batch_size, lr, train_seed, train_set)
        if key in self._memory:
            self.events.append(("cached", key))
            return self._memory[key]
        if self.cache_dir is not None:
            path = self.cache_dir / f"{key}.qsn"
            if path.exists():
                try:
                    model = load_weights(path)
                except DataError:
                    pass
                else:
                    self._memory[key] = model
                    self.events.append(("cached", key))
                    return model
        model = build_model(config)
        train(model, train_set, epochs=epochs, batch_size=batch_size,
              lr=lr, seed=train_seed)
        self._memory[key] = model
        if self.cache_dir is not None:
            save_weights(model, self.cache_dir / f"{key}.qsn")
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
    epsilon. Every attack spec and model config is checked before any model
    is trained.
    """
    if not levels or not epsilons:
        raise ValueError("levels and epsilons must be non-empty")
    if cache is None:
        cache = ModelCache()
    specs = [AttackSpec(kind=attack_kind, epsilon=eps) for eps in epsilons]
    configs = [replace(base_config, levels=n) for n in levels]
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
                                        perturbed=fgsm_step(images, signs.copy(), spec.epsilon),
                                        labels=labels, spec=spec.to_dict())
                       for spec in specs)
        else:
            clean_probs = predict_all(model, images)
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
        writer.writerow([
            "levels", "epsilon", "clean_accuracy", "adv_accuracy",
            "mean_confidence_correct", "mean_confidence_incorrect",
            "l2_mean", "linf_max", "l0_mean",
        ])
        for row in result.rows:
            r = row.report
            writer.writerow([
                row.levels, row.epsilon, r.clean_accuracy, r.adv_accuracy,
                r.mean_confidence_correct, r.mean_confidence_incorrect,
                r.l2_mean, r.linf_max, r.l0_mean,
            ])
        writer.writerow(["recommended_levels", result.recommended_levels,
                         "", "", "", "", "", "", ""])

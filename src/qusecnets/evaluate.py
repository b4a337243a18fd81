"""Accuracy, confidence, and perturbation metrics for one (model, data, attack) triple."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import BadConfigError, DataError, ShapeMismatchError
from .model import Model
from .serial import AdversarialBatch


@dataclass
class EvalReport:
    """One evaluation row; serializes to schema-stable JSON (nulls where N/A)."""

    clean_accuracy: float
    adv_accuracy: float | None
    mean_confidence_correct: float | None
    mean_confidence_incorrect: float | None
    l2_mean: float | None
    linf_max: float | None
    l0_mean: float | None
    per_class_accuracy: list
    config: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        """Parse report JSON; BadConfigError unless it has the fields and types to_json writes."""
        try:
            d = json.loads(text)
        except ValueError as e:  # JSONDecodeError is a ValueError
            raise BadConfigError(f"not valid JSON: {e}") from e
        names = [f.name for f in fields(cls)]
        if not isinstance(d, dict) or set(d) != set(names):
            raise BadConfigError(f"not a JSON object with the fields {', '.join(names)}")
        adv = [d[n] for n in ("adv_accuracy", "l2_mean", "linf_max", "l0_mean")]
        per_class, config = d["per_class_accuracy"], d["config"]
        valid = [
            _number(d["clean_accuracy"]),
            _number(d["mean_confidence_correct"], nullable=True),
            _number(d["mean_confidence_incorrect"], nullable=True),
            # evaluate sets these together: all null without an attack
            all(v is None for v in adv) or all(_number(v) for v in adv),
            isinstance(per_class, list) and all(_number(v, nullable=True) for v in per_class),
            isinstance(config, dict) and isinstance(config.get("attack"), (dict, type(None))),
        ]
        if not all(valid):
            raise BadConfigError(
                "clean_accuracy must be a number, the other metrics numbers or null (the "
                "adversarial four all or none), per_class_accuracy a list of numbers or nulls, "
                "and config an object whose attack is null or an object")
        return cls(**d)


def _number(value, nullable: bool = False) -> bool:
    """value is a JSON number (bools excluded), or null when nullable."""
    if value is None:
        return nullable
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def perturbation_stats(originals: np.ndarray, perturbed: np.ndarray):
    """(mean per-image L2, global max |delta|, mean fraction of pixels changed)."""
    originals = np.asarray(originals, dtype=np.float64)
    perturbed = np.asarray(perturbed, dtype=np.float64)
    if originals.shape != perturbed.shape:
        raise ShapeMismatchError(
            f"originals shape {originals.shape} != perturbed {perturbed.shape}")
    delta = (perturbed - originals).reshape(len(originals), -1)
    l2_mean = float(np.sqrt((delta * delta).sum(axis=1)).mean())
    linf_max = float(np.abs(delta).max(initial=0.0))
    l0_mean = float((np.abs(delta) > 1e-6).mean(axis=1).mean())
    return l2_mean, linf_max, l0_mean


# Images per forward pass. The GEMM results depend on the batch shape, so every
# pass whose probabilities must equal predict_all's (attacks.fgsm_signs) uses it.
CHUNK = 64


def predict_all(model: Model, images: np.ndarray) -> np.ndarray:
    """Probabilities for every image, forwarded CHUNK images at a time."""
    probs = np.empty((len(images), model.num_classes))
    for start in range(0, len(images), CHUNK):
        probs[start:start + CHUNK] = model.forward_batch(images[start:start + CHUNK])
    return probs


def _accuracy_bits(probs: np.ndarray, labels: np.ndarray):
    preds = probs.argmax(axis=1)
    return preds == labels, probs[np.arange(len(probs)), preds]


def _check_labels(labels, num_classes: int):
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DataError(
            f"labels must lie in [0, {num_classes}), got {labels.min()}..{labels.max()}")


def _mean_or_none(values: np.ndarray):
    return float(values.mean()) if values.size else None


def evaluate(model: Model, dataset, adversarial: AdversarialBatch | None = None,
             clean_probs: np.ndarray | None = None) -> EvalReport:
    """Clean accuracy over the dataset, plus adversarial stats when a batch is given.

    Confidence and per-class figures describe the adversarial pass when one
    is present, else the clean pass. clean_probs, when given, must be
    predict_all(model, dataset.images); it spares the clean forward pass
    when one model is evaluated against several adversarial batches.
    """
    _check_labels(dataset.labels, model.num_classes)
    if adversarial is not None:
        _check_labels(adversarial.labels, model.num_classes)
    if clean_probs is None:
        clean_probs = predict_all(model, dataset.images)
    elif clean_probs.shape != (len(dataset), model.num_classes):
        raise ShapeMismatchError(
            f"clean_probs shape {clean_probs.shape} != {(len(dataset), model.num_classes)}")
    correct_clean, conf_clean = _accuracy_bits(clean_probs, dataset.labels)
    clean_accuracy = float(correct_clean.mean())

    adv_accuracy = l2_mean = linf_max = l0_mean = None
    if adversarial is not None:
        probs_adv = predict_all(model, adversarial.perturbed)
        correct, conf = _accuracy_bits(probs_adv, adversarial.labels)
        adv_accuracy = float(correct.mean())
        l2_mean, linf_max, l0_mean = perturbation_stats(
            adversarial.originals, adversarial.perturbed)
        labels = adversarial.labels
        eps = adversarial.spec.get("epsilon")
        if adversarial.spec.get("kind") in ("fgsm", "cw_l2") and eps is not None:
            if linf_max > eps + 1e-12:
                raise DataError(
                    f"perturbation linf {linf_max} exceeds declared budget {eps}")
    else:
        correct, conf, labels = correct_clean, conf_clean, dataset.labels

    per_class = []
    for cls in range(model.num_classes):
        members = labels == cls
        per_class.append(float(correct[members].mean()) if members.any() else None)

    config = {
        "defense": model.config.defense,
        "levels": model.config.levels,
        "steepness": model.config.steepness,
        "loss": model.config.loss,
        "seed": model.config.seed,
        "dataset": {"name": dataset.name, "split": dataset.split, "size": len(dataset)},
        "attack": dict(adversarial.spec) if adversarial is not None else None,
    }
    return EvalReport(
        clean_accuracy=clean_accuracy,
        adv_accuracy=adv_accuracy,
        mean_confidence_correct=_mean_or_none(conf[correct]),
        mean_confidence_incorrect=_mean_or_none(conf[~correct]),
        l2_mean=l2_mean,
        linf_max=linf_max,
        l0_mean=l0_mean,
        per_class_accuracy=per_class,
        config=config,
    )

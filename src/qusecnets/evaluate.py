"""Accuracy, confidence, and perturbation metrics for one (model, data, attack) triple."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from numbers import Real

import numpy as np

from .attacks import AdversarialBatch
from .errors import BadConfigError, DataError, ShapeMismatchError, checked
from .model import CHUNK, Model, check_labels


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
        """Parse report JSON; BadConfigError unless its fields, types and ranges are to_json's."""
        try:
            d = json.loads(text)
        except ValueError as e:  # JSONDecodeError is a ValueError
            raise BadConfigError(f"not valid JSON: {e}") from e
        names = [f.name for f in fields(cls)]
        if not isinstance(d, dict) or set(d) != set(names):
            raise BadConfigError(f"not a JSON object with the fields {', '.join(names)}")
        adv = [d[n] for n in ("adv_accuracy", "l2_mean", "linf_max", "l0_mean")]
        per_class, config = d["per_class_accuracy"], d["config"]
        # evaluate sets the adversarial four together: all null without an attack
        if not (adv.count(None) in (0, len(adv)) and isinstance(per_class, list)
                and isinstance(config, dict)
                and isinstance(config.get("attack"), (dict, type(None)))):
            raise BadConfigError("the adversarial four metrics must be all numbers or all null, "
                                 "per_class_accuracy a list, and config an object whose "
                                 "attack is null or an object")
        metrics = [(name, d[name]) for name in METRICS]
        for name, value in metrics + [("per_class_accuracy", v) for v in per_class]:
            if value is not None or name == "clean_accuracy":  # the one metric never null
                if name in ("l2_mean", "linf_max"):  # distances; the rest are shares
                    checked(name, value, Real, lambda v: 0 <= v < math.inf, "finite and >= 0")
                else:
                    checked(name, value, Real, lambda v: 0 <= v <= 1, "in [0, 1]")
        return cls(**d)


# the report's scalar metrics, in field order
METRICS = tuple(f.name for f in fields(EvalReport) if f.name not in ("per_class_accuracy", "config"))


def perturbation_stats(originals: np.ndarray, perturbed: np.ndarray):
    """(mean per-image L2, global max |delta|, mean fraction of pixels changed)."""
    originals = np.asarray(originals, dtype=np.float64)
    perturbed = np.asarray(perturbed, dtype=np.float64)
    if originals.shape != perturbed.shape:
        raise ShapeMismatchError(
            f"originals shape {originals.shape} != perturbed {perturbed.shape}")
    if originals.ndim == 0 or originals.size == 0:
        raise DataError(f"perturbation stats need a non-empty batch, got shape {originals.shape}")
    delta = (perturbed - originals).reshape(len(originals), -1)
    l2_mean = float(np.sqrt((delta * delta).sum(axis=1)).mean())
    linf_max = float(np.abs(delta).max(initial=0.0))
    l0_mean = float((np.abs(delta) > 1e-6).mean(axis=1).mean())
    return l2_mean, linf_max, l0_mean


def predict_all(model: Model, images: np.ndarray) -> np.ndarray:
    """Probabilities for every image, forwarded CHUNK images at a time."""
    probs = np.empty((len(images), model.num_classes))
    for start in range(0, len(images), CHUNK):
        probs[start:start + CHUNK] = model.forward_batch(images[start:start + CHUNK])
    return probs


def _accuracy_bits(probs: np.ndarray, labels: np.ndarray):
    preds = probs.argmax(axis=1)
    return preds == labels, probs[np.arange(len(probs)), preds]


def _mean_or_none(values: np.ndarray):
    return float(values.mean()) if values.size else None


def evaluate(model: Model, dataset, adversarial: AdversarialBatch | None = None,
             clean_probs: np.ndarray | None = None) -> EvalReport:
    """Clean accuracy over the dataset, plus adversarial stats when a batch is given.

    Confidence and per-class figures describe the adversarial pass when one
    is present, else the clean pass. clean_probs, when given, must be
    predict_all(model, dataset.images); it spares the clean forward pass
    when one model is evaluated against several adversarial batches. The
    batch must be made from the dataset: ShapeMismatchError unless it has
    the dataset's length and labels.
    """
    check_labels(dataset.labels, model.num_classes)
    if adversarial is not None:
        check_labels(adversarial.labels, model.num_classes)
        if not np.array_equal(adversarial.labels, dataset.labels):  # lengths too
            raise ShapeMismatchError(
                f"adversarial batch of {len(adversarial.labels)} images does not match "
                f"the {len(dataset)} images and labels of the dataset")
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
        spec = adversarial.spec
        if spec.kind in ("fgsm", "cw_l2") and linf_max > spec.epsilon + 1e-12:
            raise DataError(f"perturbation linf {linf_max} exceeds declared budget {spec.epsilon}")
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
        "attack": adversarial.spec.to_dict() if adversarial is not None else None,
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

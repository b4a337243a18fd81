import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from jsonschema import validate

from helpers import TINY_CONFIG, blob_dataset, trained_tiny_model
from qusecnets.attacks import AttackSpec, generate_batch
from qusecnets.errors import DataError, ShapeMismatchError
from qusecnets.evaluate import EvalReport, evaluate, perturbation_stats, predict_all
from qusecnets.model import build_model
from qusecnets.serial import AdversarialBatch

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "report_schema.json").read_text())


# ---------------------------------------------------------------------------
# perturbation_stats
# ---------------------------------------------------------------------------

def test_stats_identical_tensors():
    x = np.random.default_rng(0).random((3, 28, 28, 1))
    assert perturbation_stats(x, x) == (0.0, 0.0, 0.0)


def test_stats_single_pixel_change():
    x = np.zeros((1, 28, 28, 1))
    y = x.copy()
    y[0, 3, 4, 0] = 0.3
    l2, linf, l0 = perturbation_stats(x, y)
    npt.assert_allclose([l2, linf, l0], [0.3, 0.3, 1 / 784], atol=1e-15)


def test_stats_uniform_shift():
    eps = 0.125
    x = np.full((2, 28, 28, 1), 0.5)
    l2, linf, l0 = perturbation_stats(x, x + eps)
    npt.assert_allclose([l2, linf, l0], [eps * np.sqrt(784), eps, 1.0], atol=1e-12)


def test_stats_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        perturbation_stats(np.zeros((2, 4)), np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

class OneHotOracle:
    """Fake model that always answers with the held labels' one-hot vectors."""

    class _Cfg:
        defense, levels, steepness, loss, seed = "none", 2, 50.0, "mse", 0

    config = _Cfg()
    num_classes = 10

    def __init__(self, labels):
        self.labels = np.asarray(labels)
        self._pos = 0

    def forward_batch(self, images):
        take = self.labels[self._pos:self._pos + len(images)]
        self._pos += len(images)
        if self._pos >= len(self.labels):
            self._pos = 0
        out = np.full((len(images), 10), 1e-9)
        out[np.arange(len(images)), take] = 1.0 - 9e-9
        return out


def test_evaluate_perfect_model():
    ds = blob_dataset(n_per_class=2)
    report = evaluate(OneHotOracle(ds.labels), ds)
    assert report.clean_accuracy == 1.0
    assert report.adv_accuracy is None
    assert report.mean_confidence_incorrect is None
    assert report.mean_confidence_correct == pytest.approx(1.0)
    assert all(v == 1.0 for v in report.per_class_accuracy)


def test_evaluate_adv_equals_clean_for_unperturbed_batch():
    model, ds = trained_tiny_model()
    batch = AdversarialBatch(ds.images, ds.images.copy(), ds.labels,
                             {"kind": "fgsm", "epsilon": 0.0})
    report = evaluate(model, ds, adversarial=batch)
    assert report.l2_mean == 0.0
    assert report.adv_accuracy == report.clean_accuracy


def test_evaluate_report_schema_and_regression():
    model, ds = trained_tiny_model()
    small = type(ds)(ds.images[:10], ds.labels[:10], ds.name, ds.split)
    batch = generate_batch(model, small.images, small.labels,
                           AttackSpec(kind="fgsm", epsilon=0.3))
    report = evaluate(model, small, adversarial=batch)
    payload = json.loads(report.to_json())
    validate(payload, SCHEMA)
    # byte-stable: same evaluation twice serializes identically
    report2 = evaluate(model, small, adversarial=batch)
    assert report.to_json() == report2.to_json()
    assert payload["config"]["attack"]["epsilon"] == 0.3
    assert payload["linf_max"] <= 0.3 + 1e-12


def test_evaluate_clean_report_schema():
    model, ds = trained_tiny_model()
    report = evaluate(model, ds)
    validate(json.loads(report.to_json()), SCHEMA)


def test_evaluate_accuracy_is_shuffle_invariant():
    model, ds = trained_tiny_model()
    rng = np.random.default_rng(0)
    order = rng.permutation(len(ds))
    shuffled = type(ds)(ds.images[order], ds.labels[order], ds.name, ds.split)
    a = evaluate(model, ds)
    b = evaluate(model, shuffled)
    assert a.clean_accuracy == b.clean_accuracy
    assert a.mean_confidence_correct == pytest.approx(b.mean_confidence_correct)


def test_evaluate_rejects_budget_violation():
    model, ds = trained_tiny_model()
    bad = AdversarialBatch(ds.images[:4], np.clip(ds.images[:4] + 0.5, 0, 1),
                           ds.labels[:4], {"kind": "fgsm", "epsilon": 0.1})
    with pytest.raises(DataError, match="budget"):
        evaluate(model, ds.subset(4), adversarial=bad)


def test_report_round_trip():
    model, ds = trained_tiny_model()
    report = evaluate(model, ds.subset(16))
    again = EvalReport.from_json(report.to_json())
    assert again.to_json() == report.to_json()


def test_evaluate_with_clean_probs_matches_without():
    model, ds = trained_tiny_model()
    small = ds.subset(16)
    batch = generate_batch(model, small.images, small.labels,
                           AttackSpec(kind="fgsm", epsilon=0.2))
    given = evaluate(model, small, adversarial=batch,
                     clean_probs=predict_all(model, small.images))
    assert given.to_json() == evaluate(model, small, adversarial=batch).to_json()
    with pytest.raises(ShapeMismatchError, match="clean_probs"):
        evaluate(model, small, clean_probs=np.zeros((15, 10)))


@pytest.mark.parametrize("bad_label", [-1, 10], ids=["negative", "num-classes"])
def test_evaluate_rejects_labels_outside_the_classes(bad_label):
    model = build_model(TINY_CONFIG)
    ds = blob_dataset(n_per_class=1)
    labels = ds.labels.copy()
    labels[3] = bad_label
    with pytest.raises(DataError, match=r"labels must lie in \[0, 10\)"):
        evaluate(model, type(ds)(ds.images, labels, ds.name, ds.split))
    batch = AdversarialBatch(ds.images, ds.images.copy(), labels, {"kind": "fgsm", "epsilon": 0.0})
    with pytest.raises(DataError, match=r"labels must lie in \[0, 10\)"):
        evaluate(model, ds, adversarial=batch)

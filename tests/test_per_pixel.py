"""Per-pixel thresholds (one (n-1,) vector per pixel) through training, files, attacks and reports."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from jsonschema import validate

from helpers import TINY_CONFIG, blob_dataset
from qusecnets.attacks import AttackSpec, generate_batch
from qusecnets.evaluate import evaluate
from qusecnets.model import build_model, train
from qusecnets.serial import load_weights, save_weights

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "report_schema.json").read_text())
LEVELS = 3


@pytest.mark.parametrize("defense", ["cq", "tq"])
def test_per_pixel_thresholds_train_round_trip_attack_and_report(tmp_path, defense):
    config = replace(TINY_CONFIG, defense=defense, levels=LEVELS, steepness=5.0,
                     per_pixel_thresholds=True)
    model = build_model(config)
    start = model.quantizer.thresholds.copy()
    assert start.shape == (8, 8, 1, LEVELS - 1)

    train(model, blob_dataset(n_per_class=4), epochs=2, batch_size=16, lr=0.5, seed=0)
    thresholds = model.quantizer.thresholds
    assert thresholds.shape == start.shape
    assert np.all((thresholds >= 0.0) & (thresholds <= 1.0))
    if defense == "tq":
        assert not np.array_equal(thresholds, start), "trainable thresholds never moved"
    else:
        npt.assert_array_equal(thresholds, start)

    path, again = tmp_path / "m.qsn", tmp_path / "again.qsn"
    save_weights(model, path)
    loaded = load_weights(path)
    for name, tensor in model.tensors().items():
        npt.assert_array_equal(loaded.tensors()[name], tensor)
    save_weights(loaded, again)
    assert again.read_bytes() == path.read_bytes()

    test = blob_dataset(n_per_class=1, seed=1)
    for spec in (AttackSpec(kind="fgsm", epsilon=0.2),
                 AttackSpec(kind="cw_l2", epsilon=0.2, iterations=5),
                 AttackSpec(kind="jsma", iterations=5)):
        batch = generate_batch(loaded, test.images, test.labels, spec)
        report = evaluate(loaded, test, adversarial=batch)
        validate(json.loads(report.to_json()), SCHEMA)
        assert report.config["attack"]["kind"] == spec.kind

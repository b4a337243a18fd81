import csv
import struct
from dataclasses import replace

import numpy.testing as npt
import pytest

from helpers import TINY_CONFIG, PassCounter, blob_dataset
from qusecnets.attacks import AttackSpec, generate_batch
from qusecnets.evaluate import evaluate
from qusecnets.sweep import ModelCache, sweep, sweep_to_csv


@pytest.fixture(scope="module")
def sets():
    train_set = blob_dataset(n_per_class=8, seed=0)
    test_set = blob_dataset(n_per_class=3, seed=1)
    return train_set, test_set


BASE = replace(TINY_CONFIG, defense="cq", steepness=10.0)
TRAIN_KW = dict(epochs=8, batch_size=32, lr=0.05, train_seed=0)


def test_single_cell_zero_epsilon(sets):
    train_set, test_set = sets
    result = sweep(BASE, [2], [0.0], "fgsm", train_set, test_set, **TRAIN_KW)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.report.adv_accuracy == row.report.clean_accuracy
    assert result.recommended_levels == 2


def test_cross_product_and_recommendation(sets):
    train_set, test_set = sets
    result = sweep(BASE, [2, 3], [0.0, 0.3], "fgsm", train_set, test_set,
                   **TRAIN_KW)
    assert [(r.levels, r.epsilon) for r in result.rows] == [
        (2, 0.0), (2, 0.3), (3, 0.0), (3, 0.3)]
    assert result.recommended_levels in (2, 3)


@pytest.mark.parametrize("attack_kind", ["jsma", "cw_l2"])
def test_sweep_runs_non_fgsm_attacks(sets, attack_kind):
    train_set, test_set = sets
    result = sweep(BASE, [2], [0.0, 0.3], attack_kind, train_set, test_set, **TRAIN_KW)
    assert [(r.levels, r.epsilon) for r in result.rows] == [(2, 0.0), (2, 0.3)]
    for row in result.rows:
        attack = row.report.config["attack"]
        assert (attack["kind"], attack["targeted"]) == (attack_kind, attack_kind == "jsma")


def test_cache_prevents_retraining(sets, tmp_path):
    train_set, test_set = sets
    cache = ModelCache(tmp_path / "cache")
    r1 = sweep(BASE, [2, 3], [0.1], "fgsm", train_set, test_set,
               cache=cache, **TRAIN_KW)
    assert [e[0] for e in r1.events] == ["trained", "trained"]
    r2 = sweep(BASE, [2, 3], [0.1], "fgsm", train_set, test_set,
               cache=cache, **TRAIN_KW)
    assert [e[0] for e in r2.events[2:]] == ["cached", "cached"]

    # a fresh cache backed by the same directory loads from disk
    cold = ModelCache(tmp_path / "cache")
    r3 = sweep(BASE, [2, 3], [0.1], "fgsm", train_set, test_set,
               cache=cold, **TRAIN_KW)
    assert [e[0] for e in r3.events] == ["cached", "cached"]
    assert [r.report.adv_accuracy for r in r3.rows] == \
        [r.report.adv_accuracy for r in r1.rows]


def test_cache_key_distinguishes_configs(sets, tmp_path):
    train_set, test_set = sets
    cache = ModelCache(tmp_path / "cache")
    sweep(BASE, [2], [0.1], "fgsm", train_set, test_set, cache=cache, **TRAIN_KW)
    other = replace(BASE, seed=BASE.seed + 1)
    sweep(other, [2], [0.1], "fgsm", train_set, test_set, cache=cache, **TRAIN_KW)
    assert [e[0] for e in cache.events] == ["trained", "trained"]


def test_corrupt_cache_entry_is_retrained(sets, tmp_path):
    train_set, _ = sets
    first = ModelCache(tmp_path / "cache")
    model = first.get_or_train(BASE, train_set, **TRAIN_KW)
    (path,) = (tmp_path / "cache").iterdir()
    good = path.read_bytes()
    path.write_bytes(good[:len(good) // 2])  # as a killed writer would leave it

    cache = ModelCache(tmp_path / "cache")
    again = cache.get_or_train(BASE, train_set, **TRAIN_KW)
    assert [e[0] for e in cache.events] == ["trained"]
    assert path.read_bytes() == good
    for name, param in model.params.items():
        npt.assert_array_equal(again.params[name], param)
    reread = ModelCache(tmp_path / "cache")
    reread.get_or_train(BASE, train_set, **TRAIN_KW)
    assert [e[0] for e in reread.events] == ["cached"]


def test_sweep_rejects_empty_lists(sets):
    train_set, test_set = sets
    with pytest.raises(ValueError):
        sweep(BASE, [], [0.1], "fgsm", train_set, test_set)
    with pytest.raises(ValueError):
        sweep(BASE, [2], [], "fgsm", train_set, test_set)


def test_csv_output(sets, tmp_path):
    train_set, test_set = sets
    result = sweep(BASE, [2], [0.0, 0.2], "fgsm", train_set, test_set,
                   **TRAIN_KW)
    out = tmp_path / "sweep.csv"
    sweep_to_csv(result, out)
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0][:4] == ["levels", "epsilon", "clean_accuracy", "adv_accuracy"]
    assert len(rows) == 1 + 2 + 1  # header + cells + recommendation
    assert rows[-1][0] == "recommended_levels"


def test_non_utf8_cache_entry_is_retrained(sets, tmp_path):
    train_set, _ = sets
    ModelCache(tmp_path / "cache").get_or_train(BASE, train_set, **TRAIN_KW)
    (path,) = (tmp_path / "cache").iterdir()
    good = path.read_bytes()
    # same header, config text replaced by two bytes that are not UTF-8
    path.write_bytes(good[:8] + struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<I", 0))

    cache = ModelCache(tmp_path / "cache")
    cache.get_or_train(BASE, train_set, **TRAIN_KW)
    assert [e[0] for e in cache.events] == ["trained"]
    assert path.read_bytes() == good


def test_sweep_reports_match_evaluate_without_clean_probs(sets):
    train_set, test_set = sets
    cache = ModelCache()
    result = sweep(BASE, [2, 3], [0.1, 0.3], "fgsm", train_set, test_set,
                   cache=cache, **TRAIN_KW)
    for row in result.rows:
        model = cache.get_or_train(replace(BASE, levels=row.levels), train_set, **TRAIN_KW)
        batch = generate_batch(model, test_set.images, test_set.labels,
                               AttackSpec(kind="fgsm", epsilon=row.epsilon))
        assert row.report.to_json() == evaluate(model, test_set, adversarial=batch).to_json()


def test_fgsm_sweep_takes_one_gradient_pass_per_level(sets, monkeypatch):
    train_set, _ = sets
    test_set = blob_dataset(n_per_class=13, seed=2)  # 130 images: a partial last chunk
    levels, epsilons = [2, 3], [0.0, 0.1, 0.3]
    cache = ModelCache()
    for n in levels:  # train outside the count
        cache.get_or_train(replace(BASE, levels=n), train_set, **TRAIN_KW)
    counter = PassCounter(monkeypatch)
    sweep(BASE, levels, epsilons, "fgsm", train_set, test_set, cache=cache, **TRAIN_KW)
    n_images = len(test_set)
    # per level: one forward+backward, then one adversarial forward per epsilon
    assert counter.forward_images == len(levels) * (1 + len(epsilons)) * n_images
    assert counter.input_grad_rows == len(levels) * n_images


def test_fgsm_sweep_rows_equal_per_epsilon_attacks(sets):
    train_set, _ = sets
    test_set = blob_dataset(n_per_class=13, seed=2)
    cache = ModelCache()
    epsilons = [0.2, 0.0, 0.05, 0.2]
    result = sweep(BASE, [2, 4], epsilons, "fgsm", train_set, test_set,
                   cache=cache, **TRAIN_KW)
    assert [(r.levels, r.epsilon) for r in result.rows] == [
        (n, eps) for n in (2, 4) for eps in epsilons]
    for row in result.rows:
        model = cache.get_or_train(replace(BASE, levels=row.levels), train_set, **TRAIN_KW)
        batch = generate_batch(model, test_set.images, test_set.labels,
                               AttackSpec(kind="fgsm", epsilon=row.epsilon))
        assert row.report.to_json() == evaluate(model, test_set, adversarial=batch).to_json()


def test_bad_epsilon_fails_before_training(sets):
    train_set, test_set = sets
    cache = ModelCache()
    with pytest.raises(ValueError, match="epsilon"):
        sweep(BASE, [2], [0.1, 1.5], "fgsm", train_set, test_set, cache=cache, **TRAIN_KW)
    assert cache.events == []

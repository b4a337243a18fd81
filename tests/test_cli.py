import json
import struct
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

from qusecnets.cli import cli

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "report_schema.json").read_text())


@pytest.fixture
def data_root(tmp_path_factory):
    """A small MNIST-shaped synthetic dataset laid out like the real files."""
    root = tmp_path_factory.mktemp("data")
    d = root / "mnist"
    d.mkdir()
    rng = np.random.default_rng(0)

    def write(prefix, n):
        images = rng.integers(0, 256, (n, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, n).astype(np.uint8)
        with open(d / f"{prefix}-images-idx3-ubyte", "wb") as f:
            f.write(struct.pack(">iiii", 2051, n, 28, 28))
            f.write(images.tobytes())
        with open(d / f"{prefix}-labels-idx1-ubyte", "wb") as f:
            f.write(struct.pack(">ii", 2049, n))
            f.write(labels.tobytes())

    write("train", 24)
    write("t10k", 8)
    return root


@pytest.fixture
def env(data_root, tmp_path, monkeypatch):
    monkeypatch.setenv("QSN_DATA_DIR", str(data_root))
    monkeypatch.setenv("QSN_RUN_LOG", str(tmp_path / "runs.jsonl"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_unknown_flag_is_usage_error(env, capsys):
    assert cli(["train", "--bogus"]) == 1
    assert "Usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error(env):
    assert cli(["frobnicate"]) == 1


def test_train_attack_evaluate_pipeline(env, capsys):
    model_path = env / "m.qsn"
    rc = cli(["train", "--dataset", "mnist", "--defense", "cq", "--levels", "2",
              "--z", "50", "--seed", "7", "--epochs", "1", "--batch-size", "8",
              "--train-count", "24", "--out", str(model_path)])
    assert rc == 0
    assert model_path.exists()

    adv_path = env / "adv.qsa"
    rc = cli(["attack", "--model", str(model_path), "--method", "fgsm",
              "--epsilon", "0.3", "--count", "8", "--out", str(adv_path)])
    assert rc == 0
    assert adv_path.exists()

    report_path = env / "r.json"
    rc = cli(["evaluate", "--model", str(model_path), "--inputs", str(adv_path),
              "--report", str(report_path)])
    assert rc == 0
    payload = json.loads(report_path.read_text())
    validate(payload, SCHEMA)
    assert payload["config"]["attack"]["kind"] == "fgsm"

    rc = cli(["report", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "adversarial accuracy" in out

    # the run log recorded all four invocations
    lines = [json.loads(l) for l in
             (env / "runs.jsonl").read_text().splitlines()]
    assert len(lines) == 4
    assert all(l["status"] == 0 for l in lines)
    assert lines[0]["argv"][0] == "train"


def test_evaluate_clean_without_inputs(env):
    model_path = env / "m.qsn"
    cli(["train", "--epochs", "1", "--batch-size", "8", "--train-count", "24",
         "--out", str(model_path)])
    report_path = env / "clean.json"
    rc = cli(["evaluate", "--model", str(model_path), "--count", "8",
              "--report", str(report_path)])
    assert rc == 0
    payload = json.loads(report_path.read_text())
    validate(payload, SCHEMA)
    assert payload["adv_accuracy"] is None


def test_evaluate_wrong_magic_exits_2(env, capsys):
    bad = env / "bad.qsn"
    bad.write_bytes(b"JUNKJUNKJUNK")
    rc = cli(["evaluate", "--model", str(bad), "--report", str(env / "r.json")])
    assert rc == 2
    assert "bad magic" in capsys.readouterr().err
    log = [json.loads(l) for l in
           (env / "runs.jsonl").read_text().splitlines()]
    assert log[-1]["status"] == 2


def test_malformed_weight_config_exits_2_and_logs(env, capsys):
    from qusecnets.serial import write_container

    bad = env / "bad.qsn"
    write_container(bad, b"QSN1", "{not json", {})
    rc = cli(["evaluate", "--model", str(bad), "--report", str(env / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config" in err and "Traceback" not in err
    log = [json.loads(l) for l in
           (env / "runs.jsonl").read_text().splitlines()]
    assert log[-1]["status"] == 2


def test_mistyped_architecture_exits_2_without_traceback(env, capsys):
    from qusecnets.model import ModelConfig
    from qusecnets.serial import write_container

    config = json.loads(ModelConfig(input_shape=(8, 8, 1),
                                    architecture=(("conv", 4, 3), ("dense", 10))).canonical_text())
    config["architecture"] = [["conv", "4", 3], ["dense", 10]]
    bad = env / "bad.qsn"
    write_container(bad, b"QSN1", json.dumps(config), {})
    rc = cli(["evaluate", "--model", str(bad), "--report", str(env / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config" in err and "Traceback" not in err


def test_missing_model_file_exits_2(env):
    rc = cli(["attack", "--model", str(env / "nope.qsn"), "--method", "fgsm",
              "--out", str(env / "x.qsa")])
    assert rc == 2


VALID_REPORT = {
    "clean_accuracy": 0.5, "adv_accuracy": 0.25, "mean_confidence_correct": 0.9,
    "mean_confidence_incorrect": 0.6, "l2_mean": 1.5, "linf_max": 0.3, "l0_mean": 0.4,
    "per_class_accuracy": [0.5, None, 1],
    "config": {"defense": "cq", "levels": 2, "steepness": 50.0, "loss": "mse", "seed": 0,
               "dataset": {"name": "mnist", "split": "test", "size": 8},
               "attack": {"kind": "fgsm", "epsilon": 0.3, "iterations": 100,
                          "targeted": False}},
}


def _report_bytes(**fields):
    return json.dumps({**VALID_REPORT, **fields}).encode()


NON_REPORTS = [
    b"{\"foo\": 1}",
    b"[1]",
    b"{not json",
    _report_bytes()[:-1] + b"\xff}",  # not valid UTF-8
    _report_bytes(clean_accuracy="x"),
    _report_bytes(clean_accuracy=None),
    _report_bytes(adv_accuracy=True),
    _report_bytes(l2_mean=None),  # adversarial accuracy without its perturbation stats
    _report_bytes(mean_confidence_correct=[0.5]),
    _report_bytes(config=[1]),
    _report_bytes(config={**VALID_REPORT["config"], "attack": 5}),
    _report_bytes(per_class_accuracy=3),
    _report_bytes(per_class_accuracy=["x"]),
]


def test_report_on_non_report_exits_2(env, capsys):
    good = env / "good.json"
    good.write_bytes(_report_bytes())
    assert cli(["report", str(good)]) == 0
    for i, data in enumerate(NON_REPORTS):
        p = env / f"junk{i}.json"
        p.write_bytes(data)
        assert cli(["report", str(p)]) == 2, data
        assert "not a valid report" in capsys.readouterr().err
    log = [json.loads(line) for line in (env / "runs.jsonl").read_text().splitlines()]
    assert [entry["status"] for entry in log] == [0] + [2] * len(NON_REPORTS)


def test_sweep_cli(env):
    out = env / "sweep.csv"
    rc = cli(["sweep", "--levels", "2", "--epsilons", "0.0,0.2",
              "--epochs", "1", "--train-count", "24", "--test-count", "8",
              "--loss", "cross_entropy",
              "--cache-dir", str(env / "cache"), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "recommended_levels" in text
    # cached rerun appends to the same csv without retraining
    rc = cli(["sweep", "--levels", "2", "--epsilons", "0.0,0.2",
              "--epochs", "1", "--train-count", "24", "--test-count", "8",
              "--loss", "cross_entropy",
              "--cache-dir", str(env / "cache"), "--out", str(out)])
    assert rc == 0

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


@pytest.mark.parametrize("argv", [
    ["train", "--defense", "cq", "--levels", "1", "--out", "cq.qsn"],
    ["attack", "--model", "m.qsn", "--method", "fgsm", "--epsilon", "2", "--out", "a.qsa"],
    ["attack", "--model", "m.qsn", "--method", "jsma", "--gamma", "-1", "--out", "a.qsa"],
    ["attack", "--model", "m.qsn", "--method", "jsma", "--untargeted", "--out", "a.qsa"],
    ["sweep", "--levels", "1", "--out", "s.csv"],
    ["sweep", "--epsilons", "1.5", "--out", "s.csv"],
    ["train", "--epochs", "-1", "--out", "t.qsn"],
    ["train", "--batch-size", "0", "--out", "t.qsn"],
    ["train", "--lr", "0", "--out", "t.qsn"],
    ["train", "--lr", "nan", "--out", "t.qsn"],
    ["train", "--lr", "inf", "--out", "t.qsn"],
    ["train", "--train-count", "-3", "--out", "t.qsn"],
    ["attack", "--model", "m.qsn", "--method", "fgsm", "--count", "-3", "--out", "a.qsa"],
    ["evaluate", "--model", "m.qsn", "--count", "-3"],
    ["sweep", "--train-count", "-5", "--test-count", "-5", "--out", "s.csv"],
    ["attack", "--model", "m.qsn", "--method", "fgsm", "--targeted", "--out", "a.qsa"],
    ["train", "--defense", "cq", "--levels", "1000000000000", "--out", "t.qsn"],
    ["sweep", "--levels", "1000000000000", "--out", "s.csv"],
], ids=["train-levels", "attack-epsilon", "jsma-gamma", "jsma-untargeted", "sweep-levels",
        "sweep-epsilons", "train-epochs", "train-batch-size", "train-lr-zero", "train-lr-nan",
        "train-lr-inf", "train-count", "attack-count", "evaluate-count", "sweep-counts",
        "fgsm-targeted", "train-levels-huge", "sweep-levels-huge"])
def test_out_of_range_options_exit_2_and_log(env, capsys, argv):
    from qusecnets.model import ModelConfig, build_model
    from qusecnets.serial import save_weights

    save_weights(build_model(ModelConfig(architecture=(("conv", 2, 5), ("dense", 10)))),
                 env / "m.qsn")
    assert cli(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    entry = _run_log(env)[-1]
    assert (entry["argv"], entry["status"]) == (argv, 2)
    assert not (env / "t.qsn").exists() and not (env / "a.qsa").exists()


def test_black_box_batch_on_a_victim_of_another_shape_exits_2(env, capsys):
    """Transfer is attack on a substitute, then evaluate --inputs on the victim."""
    from qusecnets.model import ModelConfig, build_model
    from qusecnets.serial import save_weights

    for name, shape in (("sub.qsn", (28, 28, 1)), ("victim.qsn", (32, 32, 3))):
        save_weights(build_model(ModelConfig(input_shape=shape,
                                             architecture=(("conv", 2, 5), ("dense", 10)))),
                     env / name)
    assert cli(["attack", "--model", "sub.qsn", "--method", "fgsm", "--count", "4",
                "--out", "a.qsa"]) == 0
    argv = ["evaluate", "--model", "victim.qsn", "--inputs", "a.qsa"]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert "shape" in err and "Traceback" not in err
    entry = _run_log(env)[-1]
    assert (entry["argv"], entry["status"]) == (argv, 2)


def test_missing_model_file_exits_2(env):
    rc = cli(["attack", "--model", str(env / "nope.qsn"), "--method", "fgsm",
              "--out", str(env / "x.qsa")])
    assert rc == 2


def _run_log(env):
    return [json.loads(line) for line in (env / "runs.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("argv", [["report", "{dir}"], ["evaluate", "--model", "{dir}"]],
                         ids=["report", "evaluate"])
def test_directory_argument_exits_2_and_logs(env, capsys, argv):
    argv = [arg.format(dir=env) for arg in argv]
    assert cli(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    entry = _run_log(env)[-1]
    assert (entry["argv"], entry["status"]) == (argv, 2)


def test_weights_with_nan_threshold_exit_2(env, capsys):
    from qusecnets.model import ModelConfig, build_model
    from qusecnets.serial import write_container

    model = build_model(ModelConfig(input_shape=(28, 28, 1), defense="cq", levels=3,
                                    architecture=(("conv", 2, 5), ("dense", 10))))
    bad = env / "bad.qsn"
    write_container(bad, b"QSN1", model.config.canonical_text(),
                    {**model.params, "quantizer.thresholds": np.array([np.nan, 0.5])})
    assert cli(["evaluate", "--model", str(bad), "--count", "8"]) == 2
    assert "quantizer.thresholds" in capsys.readouterr().err
    assert _run_log(env)[-1]["status"] == 2


def test_adversarial_labels_past_the_classes_exit_2(env, capsys):
    from qusecnets.model import ModelConfig, build_model
    from qusecnets.serial import AdversarialBatch, save_adversarial_batch, save_weights

    model = build_model(ModelConfig(architecture=(("conv", 2, 5), ("dense", 10))))
    save_weights(model, env / "m.qsn")
    images = np.zeros((2, 28, 28, 1))
    save_adversarial_batch(AdversarialBatch(images, images, np.array([1, 10]), {"kind": "fgsm"}),
                           env / "adv.qsa")
    assert cli(["evaluate", "--model", str(env / "m.qsn"), "--inputs", str(env / "adv.qsa")]) == 2
    assert "labels must lie in [0, 10)" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    '{"epsilon":"abc","kind":"fgsm"}', "{}", '{"bogus":1,"kind":"fgsm"}',
], ids=["mistyped-epsilon", "empty", "unknown-key"])
def test_adversarial_spec_echo_checked_on_load(env, capsys, spec):
    from qusecnets.model import ModelConfig, build_model
    from qusecnets.serial import save_weights, write_container

    save_weights(build_model(ModelConfig(architecture=(("conv", 2, 5), ("dense", 10)))),
                 env / "m.qsn")
    images = np.zeros((2, 28, 28, 1))
    write_container(env / "adv.qsa", b"QSA1", spec,
                    {"originals": images, "perturbed": images, "labels": np.array([1.0, 2.0])})
    argv = ["evaluate", "--model", "m.qsn", "--inputs", "adv.qsa", "--report", "r.json"]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert "attack spec" in err and "Traceback" not in err
    entry = _run_log(env)[-1]
    assert (entry["argv"], entry["status"]) == (argv, 2)
    assert not (env / "r.json").exists()


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

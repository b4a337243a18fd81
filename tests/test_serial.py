import json
import struct
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import TINY_CONFIG
from qusecnets.attacks import AttackSpec
from qusecnets.errors import (
    BadConfigError,
    BadMagicError,
    DataError,
    ShapeMismatchError,
    TruncatedFileError,
)
from qusecnets.model import build_model
from qusecnets.serial import (
    AdversarialBatch,
    load_adversarial_batch,
    load_weights,
    read_container,
    save_adversarial_batch,
    save_weights,
    write_container,
)


@pytest.fixture
def tq_model():
    return build_model(replace(TINY_CONFIG, defense="tq", levels=3,
                                    steepness=5.0))


def test_weight_round_trip_bit_exact(tmp_path, tq_model):
    path = tmp_path / "m.qsn"
    save_weights(tq_model, path)
    loaded = load_weights(path)
    assert loaded.config == tq_model.config
    for name in tq_model.params:
        npt.assert_array_equal(loaded.params[name], tq_model.params[name])
    npt.assert_array_equal(loaded.quantizer.thresholds,
                           tq_model.quantizer.thresholds)
    assert loaded.quantizer.mode == tq_model.quantizer.mode


def test_save_load_save_byte_identical(tmp_path, tq_model):
    p1, p2 = tmp_path / "a.qsn", tmp_path / "b.qsn"
    save_weights(tq_model, p1)
    save_weights(load_weights(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path, tq_model):
    path = tmp_path / "m.qsn"
    save_weights(tq_model, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagicError, match="bad magic"):
        load_weights(path)


def test_truncated_final_tensor_names_it(tmp_path, tq_model):
    path = tmp_path / "m.qsn"
    save_weights(tq_model, path)
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(TruncatedFileError, match="quantizer.thresholds"):
        load_weights(path)


def test_shape_mismatch_against_config(tmp_path):
    model = build_model(TINY_CONFIG)
    tensors = dict(model.params)
    tensors["dense1.W"] = tensors["dense1.W"][:, :-1]  # wrong shape
    path = tmp_path / "m.qsn"
    write_container(path, b"QSN1", model.config.canonical_text(), tensors)
    with pytest.raises(ShapeMismatchError, match="dense1.W"):
        load_weights(path)


def test_load_draws_no_random_numbers(tmp_path, tq_model, monkeypatch):
    path = tmp_path / "m.qsn"
    save_weights(tq_model, path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_weights drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = load_weights(path)
    for name in tq_model.params:
        npt.assert_array_equal(loaded.params[name], tq_model.params[name])


# configs too large to ever allocate: 2^50 thresholds are 8 PiB, and a 10^11-wide
# dense layer over 784 inputs holds 627 TB of weights. The levels bound of
# ModelConfig rejects the first as a config; the second fails its shape check.
@pytest.mark.parametrize("overrides, error, name", [
    (dict(defense="cq", levels=2 ** 50), BadConfigError, "levels"),
    (dict(input_shape=(28, 28, 1), architecture=(("dense", 10 ** 11),)),
     ShapeMismatchError, "dense0.W"),
], ids=["huge-levels", "huge-dense-width"])
def test_huge_config_is_shape_mismatch_not_allocation(tmp_path, overrides, error, name):
    # written as JSON text, since ModelConfig refuses to build the huge-levels config
    text = json.dumps(dict(json.loads(TINY_CONFIG.canonical_text()), **overrides),
                      sort_keys=True, separators=(",", ":"))
    tensors = dict(build_model(TINY_CONFIG).params, **{"quantizer.thresholds": np.full(1, 0.5)})
    path = tmp_path / "m.qsn"
    write_container(path, b"QSN1", text, tensors)
    with pytest.raises(error, match=name):
        load_weights(path)


def test_missing_tensor(tmp_path):
    model = build_model(TINY_CONFIG)
    tensors = dict(model.params)
    del tensors["conv0.bias"]
    path = tmp_path / "m.qsn"
    write_container(path, b"QSN1", model.config.canonical_text(), tensors)
    with pytest.raises(ShapeMismatchError, match="conv0.bias"):
        load_weights(path)


@pytest.mark.parametrize("name, entries", [
    ("quantizer.thresholds", {0: np.nan}),
    ("quantizer.thresholds", {0: 2.0, 1: -1.0}),
    ("quantizer.thresholds", {1: np.inf}),
    ("conv0.bias", {0: np.nan}),
    ("dense1.W", {7: -np.inf}),
], ids=["nan-threshold", "threshold-outside-unit", "inf-threshold", "nan-bias", "inf-weight"])
def test_loaded_weights_fail_closed(tmp_path, tq_model, name, entries):
    tensors = dict(tq_model.params, **{"quantizer.thresholds": tq_model.quantizer.thresholds})
    tensors[name] = tensors[name].copy()
    for index, value in entries.items():
        tensors[name].flat[index] = value
    path = tmp_path / "m.qsn"
    write_container(path, b"QSN1", tq_model.config.canonical_text(), tensors)
    with pytest.raises(BadConfigError, match=name):
        load_weights(path)


def _write_adversarial(path, labels):
    labels = np.asarray(labels, dtype=np.float64)
    write_container(path, b"QSA1", "{}", {"originals": np.zeros((len(labels), 2)),
                                           "perturbed": np.zeros((len(labels), 2)),
                                           "labels": labels})


@pytest.mark.parametrize("label", [np.nan, 2.5, -1.0, np.inf, 1e300],
                         ids=["nan", "fraction", "negative", "inf", "past-int64"])
def test_adversarial_labels_fail_closed(tmp_path, label):
    path = tmp_path / "adv.qsa"
    _write_adversarial(path, [3.0, label])
    with pytest.raises(BadConfigError, match="labels"):
        load_adversarial_batch(path)


@pytest.mark.parametrize("scalars", [(b"labels",), (b"originals", b"perturbed")],
                         ids=["labels", "images"])
def test_adversarial_scalar_tensors_are_shape_errors(tmp_path, scalars):
    parts = [b"QSA1", struct.pack("<II", 1, 2), b"{}", struct.pack("<I", 3)]
    for name in (b"originals", b"perturbed", b"labels"):
        rank_and_extents = struct.pack("<I", 0) if name in scalars else struct.pack("<II", 1, 1)
        parts += [struct.pack("<I", len(name)), name, rank_and_extents, struct.pack("<d", 1.0)]
    path = tmp_path / "adv.qsa"
    path.write_bytes(b"".join(parts))
    with pytest.raises(ShapeMismatchError):
        load_adversarial_batch(path)


def test_adversarial_labels_must_be_a_vector(tmp_path):
    path = tmp_path / "adv.qsa"
    _write_adversarial(path, [[1.0], [2.0]])
    with pytest.raises(ShapeMismatchError, match="labels"):
        load_adversarial_batch(path)


def test_adversarial_batch_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    batch = AdversarialBatch(
        originals=rng.random((4, 8, 8, 1)),
        perturbed=rng.random((4, 8, 8, 1)),
        labels=np.array([1, 2, 3, 4]),
        spec=AttackSpec(kind="fgsm", epsilon=0.3).to_dict(),
    )
    path = tmp_path / "adv.qsa"
    save_adversarial_batch(batch, path)
    loaded = load_adversarial_batch(path)
    npt.assert_array_equal(loaded.originals, batch.originals)
    npt.assert_array_equal(loaded.perturbed, batch.perturbed)
    npt.assert_array_equal(loaded.labels, batch.labels)
    assert loaded.spec == batch.spec


def test_adversarial_magic_is_distinct(tmp_path, tq_model):
    path = tmp_path / "m.qsn"
    save_weights(tq_model, path)
    with pytest.raises(BadMagicError):
        load_adversarial_batch(path)


def test_batch_shape_validation():
    with pytest.raises(ShapeMismatchError):
        AdversarialBatch(np.zeros((2, 3)), np.zeros((3, 3)),
                         np.zeros(2), {})
    with pytest.raises(ShapeMismatchError):
        AdversarialBatch(np.zeros((2, 3)), np.zeros((2, 3)),
                         np.zeros(3), {})


def _config_dict():
    return json.loads(TINY_CONFIG.canonical_text())


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps({k: v for k, v in _config_dict().items() if k != "seed"}),
    json.dumps({**_config_dict(), "defense": "bogus"}),
    json.dumps({**_config_dict(), "architecture": 5}),
    "[1, 2]",
    json.dumps({**_config_dict(), "dropout": 0.5}),
    # wrongly typed fields are rejected even where an undefended model ignores them
    *(json.dumps({**_config_dict(), "defense": "none", field: value})
      for field, value in [("levels", "2"), ("levels", True), ("levels", 2.0),
                           ("steepness", "50"), ("steepness", False),
                           ("per_pixel_thresholds", "yes")]),
], ids=["invalid-json", "missing-key", "bad-enum", "bad-type", "not-object", "extra-key",
        "levels-str", "levels-bool", "levels-float", "steepness-str", "steepness-bool",
        "per-pixel-str"])
def test_malformed_weight_config_is_data_error(tmp_path, text):
    path = tmp_path / "m.qsn"
    write_container(path, b"QSN1", text, dict(build_model(TINY_CONFIG).params))
    with pytest.raises(BadConfigError, match="config"):
        load_weights(path)


@pytest.mark.parametrize("field, value", [
    ("architecture", [["conv", "4", 3], ["dense", 10]]),
    ("architecture", [["conv", 4, 3], ["dense", "10"]]),
    ("architecture", [["conv", 4], ["dense", 10]]),
    ("input_shape", [8.7, 8, 1]),
    ("seed", True),
], ids=["conv-filters-str", "dense-width-str", "conv-arity", "extent-float", "seed-bool"])
def test_mistyped_architecture_shape_or_seed_is_bad_config(tmp_path, field, value):
    path = tmp_path / "m.qsn"
    text = json.dumps({**_config_dict(), field: value})
    write_container(path, b"QSN1", text, dict(build_model(TINY_CONFIG).params))
    with pytest.raises(BadConfigError, match="config"):
        load_weights(path)


@pytest.mark.parametrize("text", ["[1, 2]", "\"fgsm\"", "{not json"])
def test_adversarial_spec_must_be_json_object(tmp_path, text):
    tensors = {"originals": np.zeros((1, 2)), "perturbed": np.zeros((1, 2)),
               "labels": np.zeros(1)}
    path = tmp_path / "adv.qsa"
    write_container(path, b"QSA1", text, tensors)
    with pytest.raises(DataError, match="spec"):
        load_adversarial_batch(path)


def test_writes_leave_no_temporary_files(tmp_path, tq_model):
    save_weights(tq_model, tmp_path / "m.qsn")
    save_weights(tq_model, tmp_path / "m.qsn")  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == ["m.qsn"]


def _raw_container(config_bytes: bytes, names: list, extents=(1,),
                   payload=struct.pack("<d", 0.0)) -> bytes:
    """A QSN1 container whose config text, tensor names and extents are given raw."""
    parts = [b"QSN1", struct.pack("<II", 1, len(config_bytes)), config_bytes,
             struct.pack("<I", len(names))]
    for name in names:
        parts += [struct.pack("<I", len(name)), name, struct.pack("<I", len(extents)),
                  struct.pack(f"<{len(extents)}I", *extents), payload]
    return b"".join(parts)


@pytest.mark.parametrize("config_bytes, names", [
    (b"\xff\xfe", []),
    (TINY_CONFIG.canonical_text().encode(), [b"\xff\xfe"]),
], ids=["config-text", "tensor-name"])
def test_non_utf8_text_is_data_error(tmp_path, config_bytes, names):
    path = tmp_path / "m.qsn"
    path.write_bytes(_raw_container(config_bytes, names))
    with pytest.raises(DataError, match="UTF-8"):
        load_weights(path)


@pytest.mark.parametrize("extents", [(2 ** 31, 2 ** 31, 4), (2 ** 21, 2 ** 21, 2 ** 21)],
                         ids=["2^64-bytes", "2^63-elements"])
def test_extents_past_int64_are_truncated_not_wrapped(tmp_path, extents):
    path = tmp_path / "m.qsn"
    path.write_bytes(_raw_container(TINY_CONFIG.canonical_text().encode(), [b"w"], extents,
                                    payload=b""))
    with pytest.raises(TruncatedFileError, match="payload of tensor 'w'"):
        load_weights(path)


# ---------------------------------------------------------------------------
# fuzzing: any bytes after a valid magic parse or raise DataError
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def valid_containers(tmp_path_factory):
    """A path to fuzz at, and the bytes of a small weights and adversarial container.

    The tensors are tiny, so most of each container is header bytes.
    """
    d = tmp_path_factory.mktemp("fuzz")
    small = replace(TINY_CONFIG, input_shape=(2, 2, 1), defense="tq", levels=3,
                    architecture=(("conv", 1, 2), ("dense", 2)))
    save_weights(build_model(small), d / "m.qsn")
    save_adversarial_batch(AdversarialBatch(np.zeros((2, 3)), np.ones((2, 3)), np.arange(2),
                                            {"kind": "fgsm"}), d / "a.qsa")
    return d / "fuzz", {b"QSN1": (d / "m.qsn").read_bytes(), b"QSA1": (d / "a.qsa").read_bytes()}


# version, config "{}", one tensor named "w"; its rank and extents follow
ONE_TENSOR_NAMED_W = struct.pack("<II", 1, 2) + b"{}" + struct.pack("<II", 1, 1) + b"w"


@pytest.mark.parametrize("magic", [b"QSN1", b"QSA1"])
@settings(max_examples=200, deadline=None)
@given(raw=st.none() | st.binary(max_size=120),
       edits=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)), max_size=3),
       cut=st.integers(0, 2 ** 16), extra=st.binary(max_size=16))
@example(raw=ONE_TENSOR_NAMED_W + struct.pack("<4I", 3, 2 ** 31, 2 ** 31, 4),
         edits=[], cut=0, extra=b"")
@example(raw=ONE_TENSOR_NAMED_W + struct.pack("<4I", 3, 2 ** 21, 2 ** 21, 2 ** 21),
         edits=[], cut=0, extra=b"")
@example(raw=ONE_TENSOR_NAMED_W + struct.pack("<4I", 3, 0, 2 ** 31, 2 ** 31),
         edits=[], cut=0, extra=b"")
def test_fuzz_read_container(valid_containers, magic, raw, edits, cut, extra):
    """After the magic: raw bytes, or else a valid container's bytes with up to three
    of them overwritten, then cut short and extended."""
    path, valid = valid_containers
    if raw is None:
        tail = bytearray(valid[magic][4:])
        for pos, byte in edits:
            tail[pos % len(tail)] = byte
        raw = bytes(tail[:cut % (len(tail) + 1)]) + extra
    path.write_bytes(magic + raw)
    try:
        read_container(path, magic)
    except DataError:
        pass

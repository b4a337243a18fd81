from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from helpers import TINY_CONFIG, blob_dataset, max_rel_err
from qusecnets import nn
from qusecnets.errors import BadConfigError, ShapeMismatchError
from qusecnets.model import ModelConfig, build_model, train
from qusecnets.quantize import quantize

# Closed-form parameter count for the default 28x28x1 stack:
#   conv 8x8x1x64 + 64 = 4,160
#   conv 6x6x64x128 + 128 = 295,040
#   conv 5x5x128x128 + 128 = 409,728
#   dense 10x18432 + 10 = 184,330
DEFAULT_PARAM_COUNT = 893_258

# Untrained seed-123 default model on a fixed ramp image (regression pin).
GOLDEN_RAMP_PROBS = [
    0.09181815287614586, 0.09724671025368847, 0.10289595369717901,
    0.10330802753856684, 0.1005391230682076, 0.09725707144430873,
    0.10005931118364171, 0.10229890001716688, 0.10654747841602141,
    0.09802927150507335,
]


def ramp_image():
    return (np.arange(28 * 28, dtype=np.float64) / (28 * 28 - 1)).reshape(28, 28, 1)


# ---------------------------------------------------------------------------
# build_model
# ---------------------------------------------------------------------------

def test_default_parameter_count():
    model = build_model(ModelConfig(seed=0))
    assert sum(p.size for p in model.params.values()) == DEFAULT_PARAM_COUNT


def test_same_seed_bit_identical_weights():
    a = build_model(ModelConfig(seed=9))
    b = build_model(ModelConfig(seed=9))
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        npt.assert_array_equal(a.params[name], b.params[name])


def test_different_seed_differs():
    a = build_model(TINY_CONFIG)
    b = build_model(replace(TINY_CONFIG, seed=TINY_CONFIG.seed + 1))
    assert any(not np.array_equal(a.params[n], b.params[n]) for n in a.params)


def test_defense_prepends_quantizer():
    assert build_model(TINY_CONFIG).quantizer is None
    cq = build_model(replace(TINY_CONFIG, defense="cq", levels=2))
    assert cq.quantizer is not None and not cq.quantizer.trainable
    tq = build_model(replace(TINY_CONFIG, defense="tq", levels=3, steepness=5.0))
    assert tq.quantizer is not None and tq.quantizer.trainable


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(defense="maybe")
    with pytest.raises(ValueError):
        ModelConfig(defense="cq", levels=1)
    with pytest.raises(ValueError):
        ModelConfig(defense="cq", steepness=0.0)
    with pytest.raises(ValueError):
        ModelConfig(loss="hinge")
    with pytest.raises(ValueError, match="does not fit"):
        ModelConfig(input_shape=(4, 4, 1))  # 8x8 kernel cannot fit
    with pytest.raises(ValueError, match="dense"):
        ModelConfig(input_shape=(8, 8, 1), architecture=(("conv", 2, 3),))
    with pytest.raises(ValueError, match="conv layer after dense"):
        ModelConfig(input_shape=(8, 8, 1),
                    architecture=(("dense", 4), ("conv", 2, 1), ("dense", 10)))


@pytest.mark.parametrize("defense", ["none", "cq"])
@pytest.mark.parametrize("overrides", [
    dict(levels="2"), dict(levels=True), dict(levels=2.0),
    dict(steepness="50"), dict(steepness=True), dict(per_pixel_thresholds=1),
], ids=["levels-str", "levels-bool", "levels-float", "steepness-str", "steepness-bool",
        "per-pixel-int"])
def test_config_types_checked_whatever_the_defense(defense, overrides):
    with pytest.raises(TypeError):
        ModelConfig(defense=defense, **overrides)


def test_config_range_checks_only_for_defended():
    ModelConfig(defense="none", levels=1, steepness=0.0)
    # an int is a real number, and echoes like the equal float
    assert ModelConfig(steepness=50).canonical_text() == ModelConfig(steepness=50.0).canonical_text()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="steepness"):
            ModelConfig(defense="cq", steepness=bad)


@pytest.mark.parametrize("defense", ["cq", "tq"])
def test_defended_levels_stop_at_the_pixel_values(defense):
    assert ModelConfig(defense=defense, levels=256).levels == 256
    for levels in (257, 10 ** 12):  # 10^12 thresholds would be 7.28 TiB
        with pytest.raises(BadConfigError, match="levels"):
            ModelConfig(defense=defense, levels=levels)


MISTYPED_CONFIGS = [
    (dict(architecture=[["conv", "4", 3], ["dense", 10]]), TypeError),
    (dict(architecture=[["conv", 4, 3], ["dense", "10"]]), TypeError),
    (dict(architecture=[["conv", 4, True], ["dense", 10]]), TypeError),
    (dict(architecture=[["conv", 4, 3.0], ["dense", 10]]), TypeError),
    (dict(input_shape=[8.7, 8, 1]), TypeError),
    (dict(input_shape=[8, True, 1]), TypeError),
    (dict(seed=True), TypeError),
    (dict(seed=1.0), TypeError),
    (dict(architecture=[["conv", 4], ["dense", 10]]), ValueError),
    (dict(architecture=[["conv", 4, 3], ["dense", 10, 1]]), ValueError),
    (dict(architecture=[[5, 4, 3], ["dense", 10]]), ValueError),
    (dict(architecture=[["conv", 0, 3], ["dense", 10]]), ValueError),
    (dict(architecture=[["conv", 4, 3], ["dense", 0]]), ValueError),
]
MISTYPED_IDS = ["conv-filters-str", "dense-width-str", "kernel-bool", "kernel-float",
                "extent-float", "extent-bool", "seed-bool", "seed-float", "conv-arity",
                "dense-arity", "kind-int", "filters-zero", "width-zero"]


@pytest.mark.parametrize("overrides, error", MISTYPED_CONFIGS, ids=MISTYPED_IDS)
def test_config_checks_architecture_input_shape_and_seed(overrides, error):
    with pytest.raises(error):
        replace(TINY_CONFIG, **overrides)


def test_valid_config_canonical_text_is_unchanged():
    assert ModelConfig().canonical_text() == (
        '{"architecture":[["conv",64,8],["conv",128,6],["conv",128,5],["dense",10]],'
        '"defense":"none","input_shape":[28,28,1],"levels":2,"loss":"mse",'
        '"per_pixel_thresholds":false,"seed":0,"steepness":50.0}')
    assert TINY_CONFIG.canonical_text() == (
        '{"architecture":[["conv",4,3],["dense",10]],"defense":"none","input_shape":[8,8,1],'
        '"levels":2,"loss":"cross_entropy","per_pixel_thresholds":false,"seed":5,'
        '"steepness":50.0}')
    # numpy integers and lists give the same config as Python ints and tuples
    as_numpy = replace(TINY_CONFIG, input_shape=[np.int64(8), 8, 1],
                       architecture=[["conv", np.int32(4), 3], ["dense", 10]],
                       seed=np.int64(5))
    assert as_numpy == TINY_CONFIG
    assert as_numpy.canonical_text() == TINY_CONFIG.canonical_text()


def test_config_canonical_text_round_trip():
    cfg = replace(TINY_CONFIG, defense="tq", levels=4, steepness=5.0)
    assert ModelConfig.from_canonical_text(cfg.canonical_text()) == cfg
    # canonical: byte-stable across round trips
    again = ModelConfig.from_canonical_text(cfg.canonical_text())
    assert again.canonical_text() == cfg.canonical_text()


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_golden_regression():
    model = build_model(ModelConfig(seed=123, loss="mse"))
    npt.assert_allclose(model.predict(ramp_image()), GOLDEN_RAMP_PROBS, atol=1e-14)


def test_predict_sums_to_one():
    model = build_model(TINY_CONFIG)
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = model.predict(rng.random((8, 8, 1)))
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= 0.0)


def test_defended_predict_is_composition():
    rng = np.random.default_rng(1)
    plain = build_model(TINY_CONFIG)
    defended = build_model(replace(TINY_CONFIG, defense="cq", levels=2))
    for name in plain.params:
        npt.assert_array_equal(plain.params[name], defended.params[name])
    for _ in range(5):
        x = rng.random((8, 8, 1))
        npt.assert_allclose(defended.predict(x),
                            plain.predict(quantize(x, defended.quantizer)),
                            atol=1e-12)


def test_predict_shape_mismatch():
    model = build_model(TINY_CONFIG)
    with pytest.raises(ShapeMismatchError):
        model.predict(np.zeros((9, 9, 1)))


def test_binarized_input_passes_through_sharp_quantizer():
    """A staircase-valued input is (numerically) a fixed point of n=2 quantization."""
    defended = build_model(replace(TINY_CONFIG, defense="cq", levels=2,
                                        steepness=1e6))
    plain = build_model(TINY_CONFIG)
    x = np.zeros((8, 8, 1))
    x[:4] = 1.0
    npt.assert_allclose(defended.predict(x), plain.predict(quantize(x, defended.quantizer)),
                        atol=1e-9)


# ---------------------------------------------------------------------------
# gradients through the whole model
# ---------------------------------------------------------------------------

# Every boundary between layer kinds: a loop in each gradient test runs them all.
STACKS = {
    "conv-dense": TINY_CONFIG.architecture,
    "conv-conv-dense": (("conv", 3, 3), ("conv", 4, 2), ("dense", 10)),
    "conv-dense-dense": (("conv", 4, 3), ("dense", 6), ("dense", 10)),
    "dense": (("dense", 10),),
}


@pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
@pytest.mark.parametrize("defense", ["none", "cq"])
def test_input_gradient_matches_finite_differences(loss, defense):
    rng = np.random.default_rng(2)
    x = rng.random((6, 8, 8, 1)) * 0.8 + 0.1
    labels = rng.integers(0, 10, 6)
    for stack, architecture in STACKS.items():
        cfg = replace(TINY_CONFIG, loss=loss, defense=defense, levels=3,
                      steepness=4.0, architecture=architecture)
        model = build_model(cfg)
        _, analytic = model.input_gradient_batch(x, labels)

        def f(img, label):
            # one image's share of the batch-mean loss
            probs = model.predict(img)
            if loss == "mse":
                truth = np.zeros(10)
                truth[label] = 1.0
                return nn.mse_cost(probs, truth)[0] / 6
            return nn.cross_entropy(probs, label)[0] / 6

        for i in range(3):
            fd = nn.finite_difference_gradient(lambda v: f(v, labels[i]), x[i])
            assert max_rel_err(analytic[i], fd, floor=1e-3) < 1e-4, stack


def test_param_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.random((4, 8, 8, 1))
    labels = rng.integers(0, 10, 4)
    for stack, architecture in STACKS.items():
        model = build_model(replace(TINY_CONFIG, loss="cross_entropy", architecture=architecture))
        probs, cache = model.forward_batch(x, keep_cache=True)
        _, d_logits = model.loss_and_grad_batch(probs, labels)
        grads, _ = model.backward_batch(cache, d_logits)

        def total_loss():
            p = model.forward_batch(x)
            return model.loss_and_grad_batch(p, labels)[0]

        biases = [name for name in model.params if name.endswith((".bias", ".b"))]
        assert len(biases) == len(architecture)
        for name in biases:
            param = model.params[name]
            fd = np.zeros_like(param)
            h = 1e-5
            flat, fdflat = param.reshape(-1), fd.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = total_loss()
                flat[i] = orig - h
                down = total_loss()
                flat[i] = orig
                fdflat[i] = (up - down) / (2 * h)
            assert max_rel_err(grads[name], fd, floor=1e-3) < 1e-4, (stack, name)


@pytest.mark.parametrize("defense", ["none", "cq", "tq"])
def test_backward_batch_runs_one_of_two_passes(defense):
    model = build_model(replace(TINY_CONFIG, defense=defense, levels=3, steepness=5.0))
    x = np.random.default_rng(4).random((3, 8, 8, 1))
    probs, cache = model.forward_batch(x, keep_cache=True)
    _, d_logits = model.loss_and_grad_batch(probs, np.array([0, 1, 2]))
    grads, d_raw = model.backward_batch(cache, d_logits)
    assert d_raw is None and grads.keys() == model.params.keys()
    assert (cache["quantizer_delta"] is not None) == (defense == "tq")
    probs, cache = model.forward_batch(x, keep_cache=True)
    grads, d_raw = model.backward_batch(cache, d_logits, need_input_grad=True)
    assert grads is None and d_raw.shape == x.shape


def test_probability_jacobian_matches_per_class_fd():
    model = build_model(TINY_CONFIG)
    rng = np.random.default_rng(4)
    x = rng.random((8, 8, 1))
    jac = model.probability_jacobian(x)
    assert jac.shape == (10, 8, 8, 1)
    for cls in (0, 7):
        fd = nn.finite_difference_gradient(lambda v: float(model.predict(v)[cls]), x)
        assert max_rel_err(jac[cls], fd, floor=1e-3) < 1e-4


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_overfit_two_images():
    cfg = replace(TINY_CONFIG, loss="mse")
    model = build_model(cfg)
    rng = np.random.default_rng(5)
    ds = blob_dataset(n_per_class=1, seed=5)
    two = type(ds)(ds.images[:2], ds.labels[:2], ds.name, ds.split)
    model, trace = train(model, two, epochs=200, batch_size=2, lr=0.5, seed=0)
    assert trace[-1].loss < trace[0].loss


def test_training_is_deterministic():
    ds = blob_dataset(n_per_class=4, seed=1)
    runs = []
    for _ in range(2):
        model = build_model(TINY_CONFIG)
        model, trace = train(model, ds, epochs=3, batch_size=16, lr=0.05, seed=3)
        runs.append((model, trace))
    a, b = runs
    for name in a[0].params:
        npt.assert_array_equal(a[0].params[name], b[0].params[name])
    assert [t.loss for t in a[1]] == [t.loss for t in b[1]]


def test_constant_quantizer_frozen_and_tq_thresholds_move_in_bounds():
    ds = blob_dataset(n_per_class=4, seed=2)
    cq = build_model(replace(TINY_CONFIG, defense="cq", levels=3,
                                  steepness=5.0))
    before = cq.quantizer.thresholds.copy()
    train(cq, ds, epochs=2, batch_size=16, lr=0.05, seed=0)
    npt.assert_array_equal(cq.quantizer.thresholds, before)

    tq = build_model(replace(TINY_CONFIG, defense="tq", levels=3,
                                  steepness=5.0))
    init = tq.quantizer.thresholds.copy()
    moved = []

    def check(stats):
        t = tq.quantizer.thresholds
        assert np.all(t >= 0.0) and np.all(t <= 1.0)
        moved.append(not np.array_equal(t, init))

    train(tq, ds, epochs=3, batch_size=16, lr=0.5, seed=0, log=check)
    assert any(moved), "trainable thresholds never moved"


def test_train_rejects_empty_and_bad_lr():
    from types import SimpleNamespace

    model = build_model(TINY_CONFIG)
    ds = blob_dataset(n_per_class=1)
    empty = SimpleNamespace(images=np.zeros((0, 8, 8, 1)), labels=np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="empty"):
        train(model, empty, epochs=1)
    with pytest.raises(ValueError, match="learning rate"):
        train(model, ds, epochs=1, lr=0.0)


@pytest.mark.parametrize("kwargs, field", [
    ({"lr": 0.0}, "learning rate"), ({"lr": -0.1}, "learning rate"),
    ({"lr": np.nan}, "learning rate"), ({"lr": np.inf}, "learning rate"),
    ({"batch_size": 0}, "batch_size"), ({"epochs": -1}, "epochs"),
])
def test_train_rejects_out_of_range_options_as_bad_config(kwargs, field):
    model = build_model(TINY_CONFIG)
    before = {name: p.copy() for name, p in model.params.items()}
    with pytest.raises(BadConfigError, match=field):
        train(model, blob_dataset(n_per_class=1), **{"epochs": 1, **kwargs})
    assert all(np.array_equal(p, before[name]) for name, p in model.params.items())


def test_train_aborts_on_nan_loss_naming_batch():
    model = build_model(TINY_CONFIG)
    model.params["dense1.W"][:] = np.nan
    ds = blob_dataset(n_per_class=2)
    with pytest.raises(RuntimeError, match="batch 0"):
        train(model, ds, epochs=1, batch_size=8, lr=0.01)

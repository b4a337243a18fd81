import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from helpers import TINY_CONFIG, blob_dataset, max_rel_err
from qusecnets import nn
from qusecnets.errors import BadConfigError, BadTypeError, DataError, ShapeMismatchError
from qusecnets.model import DEFAULT_ARCHITECTURE, Model, ModelConfig, _step, build_model, train
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


def test_config_range_checks_hold_whatever_the_defense():
    # the report echoes levels and steepness, and its schema needs levels >= 2
    for field, bad in [("levels", 1), ("steepness", 0.0), ("steepness", float("nan"))]:
        with pytest.raises(BadConfigError, match=field):
            ModelConfig(defense="none", **{field: bad})
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
    (dict(input_shape=(0, 8, 1)), BadConfigError),
    (dict(input_shape=(8, 8)), BadConfigError),
    (dict(seed=-1), BadConfigError),
    # every number goes through errors.checked: BadTypeError for a wrong type
    # (numpy bools and non-integral floats included), BadConfigError for a bad value
    (dict(seed=np.bool_(True)), BadTypeError),
    (dict(seed=None), BadTypeError),
    (dict(levels=np.bool_(True)), BadTypeError),
    (dict(levels=None), BadTypeError),
    (dict(levels="1"), BadTypeError),
    (dict(levels=2.5), BadTypeError),
    (dict(levels=np.nan), BadTypeError),
    (dict(levels=-1), BadConfigError),
    (dict(steepness=np.bool_(True)), BadTypeError),
    (dict(steepness=None), BadTypeError),
    (dict(steepness=np.inf), BadConfigError),
    (dict(steepness=-5.0), BadConfigError),
    (dict(input_shape=(8, np.bool_(True), 1)), BadTypeError),
    (dict(architecture=[["conv", 4, 3], ["dense", None]]), BadTypeError),
    (dict(architecture=[["conv", -4, 3], ["dense", 10]]), BadConfigError),
    (dict(per_pixel_thresholds=np.bool_(True)), BadTypeError),
]
MISTYPED_IDS = ["conv-filters-str", "dense-width-str", "kernel-bool", "kernel-float",
                "extent-float", "extent-bool", "seed-bool", "seed-float", "conv-arity",
                "dense-arity", "kind-int", "filters-zero", "width-zero", "extent-zero",
                "shape-rank-2", "seed-negative", "seed-numpy-bool", "seed-none",
                "levels-numpy-bool", "levels-none", "levels-str", "levels-fraction",
                "levels-nan", "levels-negative", "steepness-numpy-bool", "steepness-none",
                "steepness-inf", "steepness-negative", "extent-numpy-bool", "width-none",
                "filters-negative", "per-pixel-numpy-bool"]


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
    grads, quantizer_delta = model.backward_batch(cache, d_logits)
    assert grads.keys() == model.params.keys()
    assert (quantizer_delta is not None) == (defense == "tq")
    probs, cache = model.forward_batch(x, keep_cache=True)
    grads, d_raw = model.backward_batch(cache, d_logits, need_input_grad=True)
    assert grads is None and d_raw.shape == x.shape


def test_training_pass_on_a_stale_cache_raises():
    """Conv inputs live in the pool: the next forward overwrites an older cache's."""
    model = build_model(replace(TINY_CONFIG, architecture=(
        ("conv", 3, 3), ("conv", 4, 3), ("dense", 10))))
    rng = np.random.default_rng(8)
    x_a, x_b = rng.random((2, 3, 8, 8, 1))
    labels = np.array([0, 1, 2])
    probs_a, cache_a = model.forward_batch(x_a, keep_cache=True)
    _, d_logits = model.loss_and_grad_batch(probs_a, labels)
    model.forward_batch(x_b, keep_cache=True)
    with pytest.raises(ValueError, match="stale cache"):
        model.backward_batch(cache_a, d_logits)
    # an input-gradient pass would write its conv input gradients over the newer cache's inputs
    with pytest.raises(ValueError, match="stale cache"):
        model.backward_batch(cache_a, d_logits, need_input_grad=True)
    # a training pass right after its own forward is the one train runs
    probs_b, cache_b = model.forward_batch(x_b, keep_cache=True)
    grads, _ = model.backward_batch(cache_b, model.loss_and_grad_batch(probs_b, labels)[1])
    assert grads.keys() == model.params.keys()


@pytest.mark.parametrize("defense", ["none", "cq", "tq"])
def test_tensors_are_the_inverse_of_build_model(defense):
    model = build_model(replace(TINY_CONFIG, defense=defense, levels=3, steepness=5.0))
    tensors = model.tensors()
    expected = list(model.params) + ([] if defense == "none" else ["quantizer.thresholds"])
    assert list(tensors) == expected
    rebuilt = build_model(model.config, tensors).tensors()
    assert list(rebuilt) == expected
    for name in expected:
        npt.assert_array_equal(rebuilt[name], tensors[name])


def test_kernel_gradients_of_stacked_convs_match_finite_differences():
    """The layers above overwrite a conv's row patches: a training pass rebuilds them."""
    rng = np.random.default_rng(4)
    x = rng.random((4, 8, 8, 1))
    labels = rng.integers(0, 10, 4)
    model = build_model(replace(TINY_CONFIG, defense="tq", levels=3, steepness=5.0, architecture=(
        ("conv", 3, 3), ("conv", 4, 2), ("conv", 3, 2), ("dense", 10))))
    probs, cache = model.forward_batch(x, keep_cache=True)
    _, d_logits = model.loss_and_grad_batch(probs, labels)
    grads, _ = model.backward_batch(cache, d_logits)
    for name in ("conv0.kernels", "conv1.kernels", "conv2.kernels"):
        kernels = model.params[name]

        def loss(v):
            model.params[name] = v
            return model.loss_and_grad_batch(model.forward_batch(x), labels)[0]

        fd = nn.finite_difference_gradient(loss, kernels)
        model.params[name] = kernels
        assert max_rel_err(grads[name], fd, floor=1e-3) < 1e-4, name


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


@pytest.mark.parametrize("config, side", [(TINY_CONFIG, 8), (ModelConfig(seed=0), 28)],
                         ids=["tiny", "default"])
def test_trained_parameters_stay_c_contiguous(config, side):
    """Kernel gradients are transposed views; the weights they step must not be.

    A non-C-contiguous kernel would make every conv forward copy it to
    reshape it to (k, k*Cin, Cout). Batch 64 puts the default conv1/conv2
    forwards on the wide side.
    """
    model = build_model(config)
    train(model, blob_dataset(n_per_class=7, side=side), epochs=1, batch_size=64, lr=0.01)
    assert all(p.flags.c_contiguous for p in model.params.values())


def test_no_forward_cache_outlives_its_training_step(monkeypatch):
    """A step's cache (its masks, here) must be freed before the next step's forward."""
    model = build_model(replace(TINY_CONFIG, defense="tq", levels=3, steepness=5.0,
                                architecture=(("conv", 4, 3), ("conv", 3, 2), ("dense", 10))))
    forward = Model.forward_batch
    masks, alive = [], []

    def tracked(self, x, keep_cache=False):
        alive.append(sum(ref() is not None for ref in masks))
        probs, cache = forward(self, x, keep_cache=keep_cache)
        masks.extend(weakref.ref(c["mask"]) for c in cache["layers"] if "mask" in c)
        return probs, cache

    monkeypatch.setattr(Model, "forward_batch", tracked)
    train(model, blob_dataset(n_per_class=4, seed=2), epochs=2, batch_size=16, lr=0.5, seed=0)
    assert len(masks) == 12 and alive == [0] * 6  # 3 batches an epoch, 2 convs each


def test_a_step_drops_its_cache_and_each_gradient_as_it_applies_them(monkeypatch):
    """Past the backward a step keeps only the raw input of its cache, and each
    gradient lives until its update, so the updates peak at the gradients left."""
    model = build_model(replace(TINY_CONFIG, defense="tq", levels=3, steepness=5.0,
                                architecture=(("conv", 4, 3), ("conv", 3, 2), ("dense", 10))))
    backward, update = Model.backward_batch, nn.sgd_update
    step, alive = {}, []

    def tracked_backward(self, cache, d_logits, need_input_grad=False):
        step["masks"] = [weakref.ref(c["mask"]) for c in cache["layers"] if "mask" in c]
        grads, delta = backward(self, cache, d_logits, need_input_grad)
        step["grads"] = [weakref.ref(g) for g in grads.values()]
        return grads, delta

    def tracked_update(param, grad, lr):
        alive.append((sum(r() is not None for r in step["masks"]),
                      sum(r() is not None for r in step["grads"])))
        return update(param, grad, lr)

    monkeypatch.setattr(Model, "backward_batch", tracked_backward)
    monkeypatch.setattr(nn, "sgd_update", tracked_update)
    ds = blob_dataset(n_per_class=1, seed=2)
    _step(model, ds.images, ds.labels, 0.1)
    # 3 layers of a weight and a bias each, then the TQ thresholds
    assert alive == [(0, 6 - i) for i in range(6)] + [(0, 0)]


def test_a_step_writes_into_the_models_own_arrays():
    """No update rebinds a parameter or the thresholds: each keeps its object."""
    model = build_model(replace(TINY_CONFIG, defense="tq", levels=3, steepness=5.0))
    params, thresholds = dict(model.params), model.quantizer.thresholds
    before = {name: t.copy() for name, t in model.tensors().items()}
    ds = blob_dataset(n_per_class=1, seed=2)
    _step(model, ds.images, ds.labels, 0.1)
    assert all(model.params[name] is p for name, p in params.items())
    assert model.quantizer.thresholds is thresholds
    assert all(not np.array_equal(t, before[name]) for name, t in model.tensors().items())


def test_models_built_from_one_tensors_dict_train_independently():
    config = replace(TINY_CONFIG, defense="tq", levels=3, steepness=5.0)
    tensors = build_model(config).tensors()
    saved = {name: t.copy() for name, t in tensors.items()}
    a, b = build_model(config, tensors), build_model(config, tensors)
    ds = blob_dataset(n_per_class=4, seed=2)
    train(a, ds, epochs=1, batch_size=16, lr=0.5, seed=0)
    for t in (tensors, b.tensors()):
        assert {name: v.tobytes() for name, v in t.items()} == {
            name: v.tobytes() for name, v in saved.items()}
    train(b, ds, epochs=1, batch_size=16, lr=0.5, seed=0)
    assert {name: v.tobytes() for name, v in b.tensors().items()} == {
        name: v.tobytes() for name, v in a.tensors().items()}
    assert not any(np.shares_memory(x, y) for x in a.tensors().values()
                   for y in [*b.tensors().values(), *tensors.values()])


# The dense input is the top conv's output, H' x N x F/H' in memory; F its flattened size.
TOP_CONV_STACKS = {
    "default": ((28, 28, 1), DEFAULT_ARCHITECTURE, 12 * 12 * 128),
    "quarter": ((28, 28, 1), (("conv", 16, 8), ("conv", 32, 6), ("conv", 32, 5), ("dense", 10)),
                12 * 12 * 32),
    "32x32x3": ((32, 32, 3), DEFAULT_ARCHITECTURE, 16 * 16 * 128),
}


@pytest.mark.parametrize("stack", TOP_CONV_STACKS)
def test_the_dense_layer_hands_the_top_conv_its_upstream_in_the_conv_output(monkeypatch, stack):
    """No (N, F) flattened copy of the dense input is cached, and its d_input
    goes over the top conv's spent output, which that conv reads in place."""
    shape, architecture, flat = TOP_CONV_STACKS[stack]
    model = build_model(ModelConfig(input_shape=shape, defense="tq", levels=4, steepness=5.0,
                                    architecture=architecture, loss="cross_entropy"))
    conv_backward, upstreams = nn.conv_backward_batch, []

    def tracked(rows, kernels, upstream, *args, **kwargs):
        if kwargs["key"] == "conv2":
            upstreams.append(upstream)
        return conv_backward(rows, kernels, upstream, *args, **kwargs)

    monkeypatch.setattr(nn, "conv_backward_batch", tracked)
    rng = np.random.default_rng(16)
    n = 3
    x, labels = rng.random((n,) + shape), rng.integers(0, 10, n)
    for need_input_grad in (False, True):
        probs, cache = model.forward_batch(x, keep_cache=True)
        top = model._pool._bufs["conv2.out"]
        assert all(v.shape != (n, flat) for c in cache["layers"] for v in c.values())
        assert np.shares_memory(cache["layers"][-1]["input"], top)
        _, d_logits = model.loss_and_grad_batch(probs, labels)
        model.backward_batch(cache, d_logits, need_input_grad=need_input_grad)
        assert np.shares_memory(upstreams[-1], top)
    assert len(upstreams) == 2


@pytest.mark.parametrize("n", [1, 2, 63, 64])
def test_the_dense_backward_gives_the_bytes_of_nn_dense_on_a_flattened_copy(n):
    """Block by block over H', each element is the flattened GEMM's dot."""
    model = build_model(ModelConfig(defense="tq", levels=4, steepness=5.0, seed=3))
    dense, name = model.layers[-1], model.layers[-1].name
    rng = np.random.default_rng([17, n])
    x, d = rng.random((n, 28, 28, 1)), rng.standard_normal((n, 10))
    for grads in ({}, None):  # a training pass, then an input-gradient pass
        _, cache = model.forward_batch(x, keep_cache=True)
        a = cache["layers"][-1]["input"]
        want = nn.dense(a.reshape(n, -1).copy(), model.params[name + ".W"],
                        model.params[name + ".b"], upstream=d)
        d_input = dense.backward(d, cache["layers"][-1], model.params, model._pool, grads,
                                 need_input=True)
        assert d_input.shape == a.shape and np.shares_memory(d_input, a)
        assert d_input.reshape(n, -1).tobytes() == want.d_input.tobytes()
        if grads is not None:
            assert grads[name + ".W"].tobytes() == want.d_params["W"].tobytes()
            assert grads[name + ".b"].tobytes() == want.d_params["b"].tobytes()


@pytest.mark.parametrize("architecture", [(("dense", 10),), (("dense", 6), ("dense", 10)),
                                          (("conv", 3, 3), ("dense", 10))],
                         ids=["dense", "dense-dense", "conv-dense"])
def test_a_bottom_dense_layer_leaves_the_callers_images(architecture):
    """Every layer writes its input gradient over its input, and an undefended
    model's bottom layer gets a copy of the images, not the caller's array."""
    model = build_model(replace(TINY_CONFIG, architecture=architecture))
    rng = np.random.default_rng(18)
    x, labels = rng.random((5, 8, 8, 1)), rng.integers(0, 10, 5)
    before = x.copy()
    probs, cache = model.forward_batch(x, keep_cache=True)
    _, d_logits = model.loss_and_grad_batch(probs, labels)
    model.backward_batch(cache, d_logits)
    assert x.tobytes() == before.tobytes()
    probs, d_x = model.input_gradient_batch(x, labels)
    assert x.tobytes() == before.tobytes()
    assert not np.shares_memory(d_x, x)
    if len(architecture) == 1:
        want = nn.dense(x.reshape(5, -1), model.params["dense0.W"], model.params["dense0.b"],
                        upstream=d_logits)
        assert d_x.reshape(5, -1).tobytes() == want.d_input.tobytes()


def test_a_training_step_holds_no_flattened_dense_input_past_its_forward(monkeypatch):
    """Above the pool, a step's backward and updates peak below one (N, F) array.

    The forward still flattens the top conv's H'-major output for its GEMM,
    but that copy dies with the forward: the dense backward works in the
    conv's spent output, and no cache keeps a flattened copy.
    """
    model = build_model(ModelConfig(defense="tq", levels=4, steepness=5.0, loss="cross_entropy",
                                    architecture=(("conv", 32, 3), ("dense", 10))))
    rng = np.random.default_rng(19)
    n, flat = 64, 26 * 26 * 32
    x, labels = rng.random((n, 28, 28, 1)), rng.integers(0, 10, n)
    _step(model, x, labels, 0.01)  # sizes the pool
    backward = Model.backward_batch

    def traced(self, *args, **kwargs):
        tracemalloc.reset_peak()
        return backward(self, *args, **kwargs)

    monkeypatch.setattr(Model, "backward_batch", traced)
    tracemalloc.start()
    try:
        _step(model, x, labels, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * flat


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


@pytest.mark.parametrize("defense, per_pixel", [
    ("none", False), ("cq", False), ("tq", False), ("tq", True)])
def test_epoch_stats_time_each_epoch_and_give_tq_threshold_drift(defense, per_pixel):
    ds = blob_dataset(n_per_class=4, seed=2)
    config = replace(TINY_CONFIG, defense=defense, levels=3, steepness=5.0,
                     per_pixel_thresholds=per_pixel)
    model = build_model(config)
    drifts = []

    def log(stats):
        t = model.quantizer.thresholds if defense == "tq" else None
        drifts.append(None if t is None else float(np.abs(t - [1 / 3, 2 / 3]).max()))

    _, trace = train(model, ds, epochs=2, batch_size=16, lr=0.5, seed=0, log=log)
    assert [s.threshold_drift for s in trace] == drifts
    assert all(s.seconds > 0.0 for s in trace)
    if defense == "tq":
        assert all(d > 0.0 for d in drifts)


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
    # bools are not numbers, and an int option takes no fraction
    ({"lr": True}, "learning rate"), ({"lr": np.bool_(True)}, "learning rate"),
    ({"lr": "0.1"}, "learning rate"), ({"lr": None}, "learning rate"),
    ({"batch_size": True}, "batch_size"), ({"batch_size": np.bool_(True)}, "batch_size"),
    ({"batch_size": "8"}, "batch_size"), ({"batch_size": None}, "batch_size"),
    ({"batch_size": 2.5}, "batch_size"), ({"batch_size": np.nan}, "batch_size"),
    ({"batch_size": -2}, "batch_size"), ({"epochs": True}, "epochs"),
    ({"epochs": 1.5}, "epochs"), ({"epochs": np.inf}, "epochs"), ({"epochs": None}, "epochs"),
    ({"seed": -1}, "seed"), ({"seed": True}, "seed"), ({"seed": 0.5}, "seed"),
])
def test_train_rejects_out_of_range_options_as_bad_config(kwargs, field):
    model = build_model(TINY_CONFIG)
    before = {name: p.copy() for name, p in model.params.items()}
    with pytest.raises(BadConfigError, match=field):
        train(model, blob_dataset(n_per_class=1), **{"epochs": 1, **kwargs})
    assert all(np.array_equal(p, before[name]) for name, p in model.params.items())


@pytest.mark.parametrize("bad_label", [-1, 10, None], ids=["negative", "num-classes", "float"])
def test_train_rejects_labels_outside_the_classes_before_any_step(bad_label):
    # a label of -1 must not train as the last class, nor 10 reach an index
    model = build_model(TINY_CONFIG)
    before = {name: p.copy() for name, p in model.params.items()}
    ds = blob_dataset(n_per_class=1)
    labels = ds.labels.astype(np.float64) if bad_label is None else ds.labels.copy()
    if bad_label is not None:
        labels[3] = bad_label
    with pytest.raises(DataError, match=r"labels must lie in \[0, 10\)"):
        train(model, type(ds)(ds.images, labels, ds.name, ds.split), epochs=1)
    assert all(np.array_equal(p, before[name]) for name, p in model.params.items())


@pytest.mark.parametrize("first", ["training", "input-gradient"])
def test_a_cache_serves_one_backward(first):
    """A backward pass writes input gradients over the conv inputs its cache holds."""
    model = build_model(replace(TINY_CONFIG, defense="tq", levels=3, steepness=5.0,
                                architecture=(("conv", 3, 3), ("conv", 4, 3), ("dense", 10))))
    rng = np.random.default_rng(9)
    x = rng.random((3, 8, 8, 1))
    labels = np.array([0, 1, 2])
    probs, cache = model.forward_batch(x, keep_cache=True)
    _, d_logits = model.loss_and_grad_batch(probs, labels)
    fresh_grads, _ = model.backward_batch(model.forward_batch(x, keep_cache=True)[1], d_logits)
    _, fresh_d_raw = model.backward_batch(
        model.forward_batch(x, keep_cache=True)[1], d_logits, need_input_grad=True)
    probs, cache = model.forward_batch(x, keep_cache=True)
    grads, d = model.backward_batch(cache, d_logits, need_input_grad=first == "input-gradient")
    if first == "training":
        for name, g in grads.items():
            assert g.tobytes() == fresh_grads[name].tobytes()
    else:
        assert d.tobytes() == fresh_d_raw.tobytes()
    for need_input_grad in (False, True):
        with pytest.raises(ValueError, match="stale cache"):
            model.backward_batch(cache, d_logits, need_input_grad=need_input_grad)


def test_train_aborts_on_nan_loss_naming_batch():
    model = build_model(TINY_CONFIG)
    model.params["dense1.W"][:] = np.nan
    ds = blob_dataset(n_per_class=2)
    with pytest.raises(RuntimeError, match="batch 0"):
        train(model, ds, epochs=1, batch_size=8, lr=0.01)


def test_scratch_pool_holds_layer_buffers_plus_one_per_shared_role(monkeypatch):
    """After a TQ step: out per conv, and one rows/part for all convs.

    A layer's H' output rows, N*W' GEMM rows each, split forward into
    max(1, min(H', H'*N*W' // TILE_ROWS)) near-equal tiles of whole rows,
    and its H input rows backward into max(1, min(H, 2*H*N*W' // TILE_ROWS)),
    as each input-gradient tile takes twice its GEMM rows of scratch. part
    holds one forward tile: a wide forward (k*Cin >= WIDE_DEPTH over >=
    TILE_ROWS GEMM rows) takes one (Cout, tile) plane of it, as a narrow one
    takes one (tile, Cout). rows holds the largest layer's row patches, and
    after each kernel gradient one input-gradient tile's two blocks of k*Cin
    columns (row gradients and a GEMM result). The dense layer's d_input
    goes over the top conv's out, an upper conv's over the lower conv's
    output, and conv0's over the quantizer's output, which no pool buffer
    holds.
    """
    config = ModelConfig(input_shape=(12, 12, 1), defense="tq", levels=4, steepness=5.0,
                         architecture=(("conv", 4, 3), ("conv", 6, 3), ("conv", 5, 2),
                                       ("dense", 10)), seed=1)
    n = 5
    # every layer one tile; several forward tiles per layer, and backward tiles
    # 12/8/5 for conv0/conv1/conv2; and conv0 (k*Cin 3, 500 GEMM rows) forward
    # as a wide layer in one tile, its backward in two and the others' in one
    for tile_rows, wide_depth, split in (
            (nn.TILE_ROWS, nn.WIDE_DEPTH, False),
            (100, nn.WIDE_DEPTH, True),
            (500, 3, False)):
        monkeypatch.setattr(nn, "TILE_ROWS", tile_rows)
        monkeypatch.setattr(nn, "WIDE_DEPTH", wide_depth)
        rng = np.random.default_rng(0)
        model = build_model(config)
        probs, cache = model.forward_batch(rng.random((n, 12, 12, 1)), keep_cache=True)
        _, d_logits = model.loss_and_grad_batch(probs, rng.integers(0, 10, n))
        model.backward_batch(cache, d_logits)

        def tile(rows, stride):  # scratch rows of the largest tile
            count = min(rows, rows * stride // tile_rows)
            return -(-rows // max(1, count)) * stride

        outs = part = dtile = whole = 0
        h, w, cin = config.input_shape
        for cout, k in ((4, 3), (6, 3), (5, 2)):
            oh, ow = h - k + 1, w - k + 1
            stride, m = n * ow, oh * n * ow
            outs += m * cout
            part = max(part, tile(oh, stride) * cout)  # forward tiles only
            dtile = max(dtile, tile(h, 2 * stride) * k * cin)  # both input-gradient blocks
            whole = max(whole, h * stride * k * cin)  # the rows of the largest layer
            h, w, cin = oh, ow, cout
        bufs = model._pool._bufs
        assert set(bufs) == {f"conv{i}.out" for i in range(3)} | {"rows", "part"}
        assert sum(b.nbytes for b in bufs.values()) == 8 * (
            outs + max(whole, dtile) + part)
        assert dtile < whole if split else dtile == 2 * whole


@pytest.mark.parametrize("shape, defense, n, pass_, total, rows", [
    ((32, 32, 3), "cq", 8, "train", 24_317_952, 13_107_200),  # 23.19 MiB; one tile a layer: 35.69
    ((28, 28, 1), "tq", 64, "train", 109_084_672, 66_060_288),  # 104.03 MiB
    ((32, 32, 3), "cq", 1, "input", 4_678_144, 3_276_800),  # 4.46 MiB
    ((28, 28, 1), "cq", 1, "input", 2_961_920, 2_064_384),  # 2.82 MiB
], ids=["32x32x3-cq-b8-train", "28x28x1-tq-b64-train", "32x32x3-cq-b1-input",
        "28x28x1-cq-b1-input"])
def test_default_stack_pool_bytes_after_one_pass(shape, defense, n, pass_, total, rows):
    """The pool's bytes after one pass of the default stack, by input, batch and pass.

    At batch 8 on 32x32x3, conv2's 20 input rows of 8*16 GEMM rows each
    split into two input-gradient tiles, whose scratch fits in conv2's
    (20*8*16, 5*128) row patches, so rows holds those patches once; one
    tile a layer took twice them. The batch-64 step splits every layer, and
    the batch-1 passes keep every layer in one tile, whose scratch is twice
    conv2's patches.
    """
    model = build_model(ModelConfig(input_shape=shape, defense=defense))
    rng = np.random.default_rng(0)
    x, labels = rng.random((n,) + shape), rng.integers(0, 10, n)
    if pass_ == "train":
        probs, cache = model.forward_batch(x, keep_cache=True)
        model.backward_batch(cache, model.loss_and_grad_batch(probs, labels)[1])
    else:
        model.input_gradient_batch(x, labels)
    bufs = model._pool._bufs
    assert bufs["rows"].nbytes == rows
    assert sum(b.nbytes for b in bufs.values()) == total


def test_a_model_built_from_float32_tensors_computes_in_float64():
    """build_model and forward_batch own the dtype: float32 inputs are widened on entry."""
    config = replace(TINY_CONFIG, defense="tq", levels=3, steepness=10.0)
    narrow = {name: t.astype(np.float32) for name, t in build_model(config).tensors().items()}
    model32 = build_model(config, narrow)
    model64 = build_model(config, {name: t.astype(np.float64) for name, t in narrow.items()})
    assert {t.dtype for t in model32.tensors().values()} == {np.dtype(np.float64)}
    images = blob_dataset(n_per_class=1).images.astype(np.float32)
    probs = model32.forward_batch(images)
    assert probs.dtype == np.float64
    assert probs.tobytes() == model64.forward_batch(images.astype(np.float64)).tobytes()


def test_a_tq_training_pass_returns_a_delta_the_caller_owns():
    """The quantizer delta survives the next backward pass on the same model."""
    model = build_model(replace(TINY_CONFIG, defense="tq", levels=3, steepness=10.0))
    ds = blob_dataset(n_per_class=2)
    deltas = []
    for batch in (slice(0, 8), slice(8, 16)):
        probs, cache = model.forward_batch(ds.images[batch], keep_cache=True)
        _, d_logits = model.loss_and_grad_batch(probs, ds.labels[batch])
        _, delta = model.backward_batch(cache, d_logits)
        deltas.append((delta, delta.copy()))
    (first, first_values), (second, second_values) = deltas
    assert not np.shares_memory(first, second)
    npt.assert_array_equal(first, first_values)
    assert not np.array_equal(first_values, second_values)


def test_the_bottom_delta_goes_over_the_quantizer_output_not_a_pool_buffer():
    """conv0 writes its input gradient over its own input, the quantizer's
    output, and the pass returns that array: no pool buffer holds it."""
    config = replace(TINY_CONFIG, levels=3, steepness=10.0,
                     architecture=(("conv", 3, 3), ("conv", 4, 2), ("dense", 10)))
    ds = blob_dataset(n_per_class=1)
    model = build_model(replace(config, defense="tq"))
    probs, cache = model.forward_batch(ds.images, keep_cache=True)
    quantized = cache["layers"][0]["input"]
    _, d_logits = model.loss_and_grad_batch(probs, ds.labels)
    _, delta = model.backward_batch(cache, d_logits)
    assert np.shares_memory(delta, quantized)
    assert not any(np.shares_memory(delta, b) for b in model._pool._bufs.values())
    model = build_model(replace(config, defense="cq"))
    model.input_gradient_batch(ds.images, ds.labels)
    assert model._pool._bufs and not any(k.endswith(".dinput") for k in model._pool._bufs)

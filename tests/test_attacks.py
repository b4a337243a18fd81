from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from helpers import (
    TINY_CONFIG,
    PassCounter,
    blob_dataset,
    reference_fgsm_batch,
    reference_jsma,
    saliency_pair,
    trained_tiny_model,
)
import qusecnets
from qusecnets import attacks
from qusecnets.attacks import (
    AttackSpec,
    _cw_optimize,
    _top_pair,
    fgsm_batch,
    fgsm_signs,
    generate_batch,
    jsma,
    next_class_targets,
)
from qusecnets.errors import BadConfigError, ShapeMismatchError
from qusecnets.evaluate import CHUNK, evaluate, predict_all
from qusecnets.model import Model, build_model, train


@pytest.fixture(scope="module")
def victim():
    model, ds = trained_tiny_model()
    return model, ds


# ---------------------------------------------------------------------------
# AttackSpec
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(kind="pgd")
    with pytest.raises(ValueError):
        AttackSpec(kind="fgsm", epsilon=1.5)
    with pytest.raises(ValueError):
        AttackSpec(kind="fgsm", iterations=-1)


@pytest.mark.parametrize("field, value", [
    ("epsilon", np.nan), ("theta", 0.0), ("theta", np.inf), ("gamma", -1.0), ("gamma", 1.5),
    ("kappa", -0.5), ("kappa", np.nan), ("c", -1.0), ("c", np.inf), ("step_size", 0.0),
    ("step_size", np.nan), ("targeted", 1), ("target_class", -1), ("target_class", 3),
    # mistyped: a .qsa spec echo is rebuilt through these checks
    ("iterations", 2.5), ("iterations", True), ("iterations", "3"), ("target_class", 1.0),
    ("target_class", False), ("epsilon", "abc"), ("epsilon", True), ("c", None),
    ("step_size", [0.1]),
])
def test_spec_rejects_out_of_range_values_as_bad_config(field, value):
    with pytest.raises(BadConfigError, match=field):
        AttackSpec(kind="cw_l2", **{field: value})


def test_spec_numpy_numbers_become_python_numbers():
    spec = AttackSpec(kind="cw_l2", targeted=True, target_class=np.int64(3),
                      iterations=np.int32(5), epsilon=np.float32(0.25))
    d = spec.to_dict()
    assert (type(d["target_class"]), type(d["iterations"]), type(d["epsilon"])) == (int, int, float)
    assert (d["target_class"], d["iterations"], d["epsilon"]) == (3, 5, 0.25)


def test_spec_targeted_defaults_by_kind():
    assert AttackSpec(kind="jsma").targeted is True
    assert AttackSpec(kind="fgsm").targeted is False
    assert AttackSpec(kind="cw_l2").to_dict()["targeted"] is False
    with pytest.raises(BadConfigError, match="targeted"):
        AttackSpec(kind="jsma", targeted=False)


@pytest.mark.parametrize("field, value", [("targeted", True), ("target_class", 3)])
def test_spec_rejects_targeted_fgsm(field, value):
    with pytest.raises(BadConfigError, match=field):
        AttackSpec(kind="fgsm", **{field: value})


def test_spec_target_class_on_targeted_kinds():
    assert AttackSpec(kind="cw_l2", targeted=True, target_class=3).target_class == 3
    assert AttackSpec(kind="jsma", target_class=0).to_dict()["target_class"] == 0


def test_package_exports_one_entry_per_attack():
    names = qusecnets.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    assert all(hasattr(qusecnets, name) for name in names)
    for gone in ("fgsm", "cw_l2", "transfer_attack"):
        assert gone not in names
        assert not hasattr(qusecnets, gone) and not hasattr(attacks, gone)


# ---------------------------------------------------------------------------
# FGSM
# ---------------------------------------------------------------------------

def test_fgsm_zero_epsilon_is_identity(victim):
    model, ds = victim
    batch = generate_batch(model, ds.images[:8], ds.labels[:8],
                           AttackSpec(kind="fgsm", epsilon=0.0))
    npt.assert_array_equal(batch.perturbed, batch.originals)


def test_fgsm_budget_and_range(victim):
    model, ds = victim
    for eps in (0.05, 0.3, 1.0):
        spec = AttackSpec(kind="fgsm", epsilon=eps)
        adv = fgsm_batch(model, ds.images[:8], ds.labels[:8], spec)
        assert np.abs(adv - ds.images[:8]).max() <= eps + 1e-12
        assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_fgsm_deterministic(victim):
    model, ds = victim
    spec = AttackSpec(kind="fgsm", epsilon=0.2)
    a = generate_batch(model, ds.images[1:9], ds.labels[1:9], spec)
    b = generate_batch(model, ds.images[1:9], ds.labels[1:9], spec)
    npt.assert_array_equal(a.perturbed, b.perturbed)


def test_fgsm_actually_degrades_accuracy(victim):
    model, ds = victim
    spec = AttackSpec(kind="fgsm", epsilon=0.3)
    adv = fgsm_batch(model, ds.images[:64], ds.labels[:64], spec)
    clean_acc = (np.array([model.predict(x).argmax() for x in ds.images[:64]])
                 == ds.labels[:64]).mean()
    adv_acc = (np.array([model.predict(x).argmax() for x in adv])
               == ds.labels[:64]).mean()
    assert adv_acc < clean_acc


@pytest.fixture(scope="module")
def cq_victim():
    """A CQ-defended tiny model, so FGSM's gradient runs through the quantizer."""
    return trained_tiny_model(replace(TINY_CONFIG, defense="cq", levels=3, steepness=10.0),
                              epochs=5)


def test_fgsm_signs_probs_equal_predict_all(cq_victim):
    model, ds = cq_victim
    signs, probs = fgsm_signs(model, ds.images[:130], ds.labels[:130])
    assert probs.tobytes() == predict_all(model, ds.images[:130]).tobytes()
    assert signs.shape == ds.images[:130].shape
    assert set(np.unique(signs)) <= {-1.0, 0.0, 1.0}


@pytest.mark.parametrize("n", [1, 64, 130])
def test_fgsm_batch_matches_per_chunk_reference(cq_victim, n):
    model, ds = cq_victim
    for eps in (0.0, 0.1, 0.3):
        adv = fgsm_batch(model, ds.images[:n], ds.labels[:n], AttackSpec(kind="fgsm", epsilon=eps))
        ref = reference_fgsm_batch(model, ds.images[:n], ds.labels[:n], eps)
        assert adv.tobytes() == ref.tobytes()


def test_fgsm_signs_rejects_non_finite_gradient(cq_victim):
    model, ds = cq_victim
    images = ds.images[:3].copy()
    images[1, 0, 0, 0] = np.nan
    with pytest.raises(RuntimeError, match="non-finite FGSM gradient"):
        fgsm_signs(model, images, ds.labels[:3])


# ---------------------------------------------------------------------------
# JSMA
# ---------------------------------------------------------------------------

def test_jsma_rejects_untargeted(victim):
    model, ds = victim
    with pytest.raises(ValueError, match="targeted"):
        jsma(model, ds.images[0], 3, AttackSpec(kind="jsma", targeted=False))


def test_jsma_already_target_returns_unchanged(victim):
    model, ds = victim
    x = ds.images[0]
    current = int(model.predict(x).argmax())
    other = (current + 1) % 10
    ex = jsma(model, x, current, AttackSpec(kind="jsma", targeted=True),
              true_label=other)
    npt.assert_array_equal(ex.perturbed, x)
    assert ex.iterations_used == 0
    assert ex.success


def test_jsma_zero_budget_flagged_failed(victim):
    model, ds = victim
    x = ds.images[0]
    true = int(ds.labels[0])
    target = (true + 1) % 10
    spec = AttackSpec(kind="jsma", targeted=True, gamma=0.0)
    ex = jsma(model, x, target, spec, true_label=true)
    if int(model.predict(x).argmax()) != target:
        npt.assert_array_equal(ex.perturbed, x)
        assert not ex.success
        assert ex.iterations_used == 0


def test_jsma_respects_pixel_budget_and_range(victim):
    model, ds = victim
    x = ds.images[3]
    true = int(ds.labels[3])
    spec = AttackSpec(kind="jsma", targeted=True, theta=1.0, gamma=0.05,
                      iterations=50)
    ex = jsma(model, x, (true + 1) % 10, spec, true_label=true)
    changed = int((np.abs(ex.perturbed - x) > 1e-12).sum())
    assert changed <= int(0.05 * x.size)
    assert ex.perturbed.min() >= 0.0 and ex.perturbed.max() <= 1.0


def test_jsma_succeeds_on_separable_data(victim):
    """Flooding the target class's bright patch should flip the prediction."""
    model, ds = victim
    spec = AttackSpec(kind="jsma", targeted=True, theta=1.0, gamma=0.2,
                      iterations=100)
    successes = 0
    for i in range(6):
        true = int(ds.labels[i])
        ex = jsma(model, ds.images[i], (true + 1) % 10, spec, true_label=true)
        successes += ex.success
    assert successes >= 3


def test_jsma_deterministic(victim):
    model, ds = victim
    spec = AttackSpec(kind="jsma", targeted=True, gamma=0.2, iterations=30)
    true = int(ds.labels[4])
    a = jsma(model, ds.images[4], (true + 1) % 10, spec, true_label=true)
    b = jsma(model, ds.images[4], (true + 1) % 10, spec, true_label=true)
    npt.assert_array_equal(a.perturbed, b.perturbed)


def test_jsma_rejects_target_equal_true_label(victim):
    model, ds = victim
    with pytest.raises(ValueError, match="differ"):
        jsma(model, ds.images[0], int(ds.labels[0]),
             AttackSpec(kind="jsma", targeted=True), true_label=int(ds.labels[0]))


@pytest.mark.parametrize("kind", ["jsma", "cw_l2"])
def test_target_equal_to_a_label_fails_before_any_pass(victim, monkeypatch, kind):
    model, ds = victim
    counter = PassCounter(monkeypatch)
    spec = AttackSpec(kind=kind, targeted=True, target_class=int(ds.labels[5]))
    with pytest.raises(BadConfigError, match="target_class"):
        generate_batch(model, ds.images[:8], ds.labels[:8], spec)
    with pytest.raises(BadConfigError, match="differ"):
        jsma(model, ds.images[5], spec.target_class, AttackSpec(kind="jsma"),
             true_label=int(ds.labels[5]))
    assert counter.forward_images == 0 and counter.input_grad_rows == 0


def test_probability_gradients_sum_to_rounding_level(victim):
    """sum_c dP_c/dx = 0 because softmax sums to 1, so JSMA-F's beta is -alpha."""
    model, ds = victim
    cq = build_model(replace(TINY_CONFIG, defense="cq", steepness=10.0))
    for m in (model, cq):
        for x in ds.images[:3]:
            jac = m.probability_jacobian(x)
            assert np.abs(jac).max() > 1e-6
            assert np.abs(jac.sum(axis=0)).max() <= 1e-12 * np.abs(jac).max()


@pytest.mark.parametrize("alpha, eligible, expected", [
    ([1.0, 3.0, 2.0, 3.0, 2.0], None, (1, 3)),          # tie for first
    ([3.0, 2.0, 1.0, 2.0], None, (0, 1)),               # tie for second
    ([1.0, 1.0, 1.0], None, (0, 1)),
    ([-1.0, 0.5, -2.0], None, (1,)),                    # top-2 sum < 0
    ([0.5, -0.5], None, (0,)),                          # top-2 sum == 0
    ([-1.0, -2.0, 0.0], None, None),                    # nothing positive
    ([0.0, 0.0], None, None),
    ([5.0, 1.0, 2.0], [False, True, True], (1, 2)),     # saturated pixel left out
    ([5.0, 1.0, 2.0], [False, True, False], (1,)),      # one eligible pixel
    ([5.0, -1.0, 2.0], [False, True, False], None),
    ([5.0, 1.0], [False, False], None),
])
def test_top_pair_rule(alpha, eligible, expected):
    alpha = np.asarray(alpha)
    eligible = np.ones(alpha.size, bool) if eligible is None else np.asarray(eligible)
    assert _top_pair(alpha, eligible) == expected
    assert saliency_pair(alpha, -alpha, eligible) == expected


def test_top_pair_matches_pair_matrix_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        alpha = rng.integers(-3, 4, n).astype(np.float64)
        eligible = rng.random(n) < 0.8
        assert _top_pair(alpha, eligible) == saliency_pair(alpha, -alpha, eligible)


@pytest.mark.parametrize("defense", ["none", "cq", "tq"])
def test_jsma_matches_full_jacobian_reference(defense):
    config = replace(TINY_CONFIG, defense=defense, levels=3, steepness=10.0)
    model, ds = trained_tiny_model(config, epochs=10)
    for gamma in (0.05, 0.2, 0.5):
        spec = AttackSpec(kind="jsma", targeted=True, theta=1.0, gamma=gamma,
                          iterations=100)
        for i in range(40):
            true = int(ds.labels[i])
            args = (model, ds.images[i], (true + 1) % 10, spec)
            ex, ref = jsma(*args, true_label=true), reference_jsma(*args, true_label=true)
            assert ex.perturbed.tobytes() == ref.perturbed.tobytes()
            assert (ex.iterations_used, ex.success) == (ref.iterations_used, ref.success)


def test_jsma_example_fields_match_reference(victim):
    """Label before, label after and confidence come from the attack's own forwards."""
    model, ds = victim
    for iterations, gamma in ((0, 0.2), (3, 0.2), (100, 0.2), (100, 0.0)):
        spec = AttackSpec(kind="jsma", targeted=True, gamma=gamma, iterations=iterations)
        for i in range(6):
            true = int(ds.labels[i])
            args = (model, ds.images[i], (true + 1) % 10, spec)
            ex, ref = jsma(*args, true_label=true), reference_jsma(*args, true_label=true)
            assert ex.perturbed.tobytes() == ref.perturbed.tobytes()
            assert (ex.predicted_label_before, ex.predicted_label_after, ex.confidence_after,
                    ex.iterations_used, ex.success) == (
                ref.predicted_label_before, ref.predicted_label_after, ref.confidence_after,
                ref.iterations_used, ref.success)


def test_jsma_forwards_each_image_state_once(victim, monkeypatch):
    model, ds = victim
    spec = AttackSpec(kind="jsma", targeted=True, gamma=0.2, iterations=100)
    counter = PassCounter(monkeypatch)
    for i in range(6):
        true = int(ds.labels[i])
        before = counter.forward_images
        ex = jsma(model, ds.images[i], (true + 1) % 10, spec, true_label=true)
        # the clean image, then the image after each pixel update
        assert counter.forward_images - before == 1 + ex.iterations_used
    assert counter.predict_calls == 0


# ---------------------------------------------------------------------------
# C&W-L2
# ---------------------------------------------------------------------------

def test_cw_zero_iterations_is_identity(victim):
    model, ds = victim
    spec = AttackSpec(kind="cw_l2", targeted=False, iterations=0, epsilon=0.1)
    batch = generate_batch(model, ds.images[:3], ds.labels[:3], spec)
    npt.assert_array_equal(batch.perturbed, ds.images[:3])


def test_cw_budget_contract(victim):
    model, ds = victim
    spec = AttackSpec(kind="cw_l2", targeted=True, iterations=40, epsilon=0.1,
                      step_size=0.05)
    # the targets default to the next class, (label + 1) % 10
    batch = generate_batch(model, ds.images[:3], ds.labels[:3], spec)
    assert np.abs(batch.perturbed - ds.images[:3]).max() <= 0.1 + 1e-12
    assert batch.perturbed.min() >= 0.0 and batch.perturbed.max() <= 1.0


def test_cw_objective_mostly_non_increasing(victim):
    model, ds = victim
    spec = AttackSpec(kind="cw_l2", targeted=True, iterations=60, epsilon=0.5,
                      step_size=0.01)
    pivots = next_class_targets(ds.labels[:6])
    _, objectives = _cw_optimize(model, ds.images[:6], pivots, spec)
    increases = (np.diff(objectives, axis=0) > 1e-9).mean()
    assert increases <= 0.05


def test_cw_untargeted_pushes_away_from_label(victim):
    model, ds = victim
    spec = AttackSpec(kind="cw_l2", targeted=False, iterations=80, epsilon=0.5,
                      step_size=0.05, c=5.0)
    batch = generate_batch(model, ds.images[:5], ds.labels[:5], spec)
    flipped = int((predict_all(model, batch.perturbed).argmax(axis=1) != ds.labels[:5]).sum())
    assert flipped >= 3


def test_cw_deterministic(victim):
    model, ds = victim
    spec = AttackSpec(kind="cw_l2", targeted=True, iterations=25, epsilon=0.2)
    a = generate_batch(model, ds.images[:3], ds.labels[:3], spec)
    b = generate_batch(model, ds.images[:3], ds.labels[:3], spec)
    npt.assert_array_equal(a.perturbed, b.perturbed)


def test_cw_batch_forwards_at_most_chunk_images(victim, monkeypatch):
    model, _ = victim
    ds = blob_dataset(n_per_class=7, seed=3)  # 70 images: one full chunk and a rest
    sizes = []
    forward = Model.forward_batch

    def recorded(model, x, keep_cache=False):
        sizes.append(len(x))
        return forward(model, x, keep_cache)

    monkeypatch.setattr(Model, "forward_batch", recorded)
    spec = AttackSpec(kind="cw_l2", iterations=2, epsilon=0.1)
    batch = generate_batch(model, ds.images, ds.labels, spec)
    assert max(sizes) <= CHUNK
    monkeypatch.undo()
    whole, _ = _cw_optimize(model, ds.images[:CHUNK], ds.labels[:CHUNK], spec)
    npt.assert_array_equal(batch.perturbed[:CHUNK], whole)


# ---------------------------------------------------------------------------
# generate_batch, and black-box transfer: generate_batch on a substitute, evaluate on a victim
# ---------------------------------------------------------------------------

def test_generate_batch_fgsm_spec_echo(victim):
    model, ds = victim
    spec = AttackSpec(kind="fgsm", epsilon=0.2)
    batch = generate_batch(model, ds.images[:8], ds.labels[:8], spec)
    assert batch.spec["kind"] == "fgsm"
    assert batch.spec["epsilon"] == 0.2
    npt.assert_array_equal(batch.originals, ds.images[:8])
    assert np.abs(batch.perturbed - batch.originals).max() <= 0.2 + 1e-12


def test_transfer_zero_epsilon_keeps_clean_accuracy(victim):
    model, ds = victim
    other = build_model(replace(TINY_CONFIG, seed=99))
    train(other, blob_dataset(seed=3), epochs=10, batch_size=32, lr=0.05, seed=1)
    small = ds.subset(32)
    batch = generate_batch(other, small.images, small.labels, AttackSpec(kind="fgsm", epsilon=0.0))
    report = evaluate(model, small, adversarial=batch)
    assert report.adv_accuracy == report.clean_accuracy


def test_transfer_shape_mismatch():
    a = build_model(TINY_CONFIG)
    b = build_model(replace(TINY_CONFIG, input_shape=(9, 9, 1)))
    ds = blob_dataset(n_per_class=1)
    batch = generate_batch(a, ds.images, ds.labels, AttackSpec(kind="fgsm"))
    with pytest.raises(ShapeMismatchError, match="shape"):
        evaluate(b, ds, adversarial=batch)

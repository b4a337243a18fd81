"""The paper's FGSM claim on synthetic data: input quantization closes the gap.

The desk-scale MNIST criteria (test_acceptance.py) skip without real data;
this runs the same comparison on the separable blob images in well under a
second. TQ's row is printed, not asserted: at z=5 it scores below CQ at z=50
here, while the paper ranks TQ the stronger defense.
"""

from dataclasses import replace

from helpers import TINY_CONFIG, blob_dataset
from qusecnets.attacks import AttackSpec, generate_batch
from qusecnets.evaluate import evaluate
from qusecnets.model import build_model, train

EPSILON = 0.3
CONFIGS = {
    "none": TINY_CONFIG,
    "cq n=2 z=50": replace(TINY_CONFIG, defense="cq", levels=2, steepness=50.0),
    "tq n=2 z=5": replace(TINY_CONFIG, defense="tq", levels=2, steepness=5.0),
}


def test_quantization_defends_against_fgsm():
    train_set, test_set = blob_dataset(seed=0), blob_dataset(seed=1)
    spec = AttackSpec(kind="fgsm", epsilon=EPSILON)
    clean, adv = {}, {}
    for name, config in CONFIGS.items():
        model = build_model(config)
        train(model, train_set, epochs=30, batch_size=32, lr=0.05)
        batch = generate_batch(model, test_set.images, test_set.labels, spec)
        report = evaluate(model, test_set, adversarial=batch)
        clean[name], adv[name] = report.clean_accuracy, report.adv_accuracy
    print(f"\nFGSM eps={EPSILON}, blob images: defense, clean accuracy, adversarial accuracy")
    for name in CONFIGS:
        print(f"  {name:12s} {clean[name]:.3f} {adv[name]:.3f}")
    assert clean["none"] >= 0.95 and clean["cq n=2 z=50"] >= 0.95
    assert adv["none"] <= 0.15
    assert adv["cq n=2 z=50"] >= 0.9
    assert adv["cq n=2 z=50"] - adv["none"] >= 0.5

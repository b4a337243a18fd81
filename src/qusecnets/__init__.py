"""Input-quantization defense for small CNNs, with attacks and evaluation."""

from .attacks import AdversarialExample, AttackSpec, generate_batch, jsma
from .data import Dataset, load_cifar10, load_mnist
from .evaluate import EvalReport, evaluate, perturbation_stats
from .model import Model, ModelConfig, build_model, train
from .quantize import (
    Quantizer,
    linear_thresholds,
    quantize,
    quantize_grad_input,
    quantize_grad_threshold,
    sigmoid_unit,
    update_thresholds,
)
from .serial import (
    AdversarialBatch,
    load_adversarial_batch,
    load_weights,
    save_adversarial_batch,
    save_weights,
)
from .sweep import ModelCache, sweep, sweep_to_csv

__version__ = "0.1.0"

__all__ = [
    "AdversarialBatch", "AdversarialExample", "AttackSpec", "Dataset",
    "EvalReport", "Model", "ModelCache", "ModelConfig", "Quantizer",
    "build_model", "evaluate", "generate_batch", "jsma",
    "linear_thresholds", "load_adversarial_batch", "load_cifar10",
    "load_mnist", "load_weights", "perturbation_stats", "quantize",
    "quantize_grad_input", "quantize_grad_threshold",
    "save_adversarial_batch", "save_weights", "sigmoid_unit", "sweep",
    "sweep_to_csv", "train", "update_thresholds",
]

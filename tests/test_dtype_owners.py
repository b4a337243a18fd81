"""float64 is fixed only where arrays enter the package; inner code takes the dtype it is given."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qusecnets"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}

# every function that names float64, each a place where arrays enter the package
OWNERS = {
    "model.Model.forward_batch",
    "model.build_model",
    "quantize.Quantizer.__post_init__",
    "quantize.linear_thresholds",
    "quantize.sigmoid_unit",  # the quantizer's one owner: its entry points pass x on as given
    "attacks.fgsm_signs",  # fgsm_batch reaches it without converting first
    "attacks.jsma",
    "attacks.generate_batch",
    "evaluate.perturbation_stats",
    "sweep.sweep",
    "data._read_idx_images",
    "data.load_cifar10",
    "serial.save_adversarial_batch",  # the file format's payload dtype
    "nn.finite_difference_gradient",  # the float64 reference
}


def _float64_scopes(node, scope):
    """The qualified name of the innermost def or class around each float64 attribute."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    if isinstance(node, ast.Attribute) and node.attr == "float64":
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _float64_scopes(child, scope)


def test_float64_is_named_only_by_the_listed_owners():
    found = {scope for module, tree in MODULES.items() for scope in _float64_scopes(tree, module)}
    assert found == OWNERS

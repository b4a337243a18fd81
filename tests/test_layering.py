"""The package's modules form layers: top-level imports only, public names only, no cycle.

Outside the package they import only the standard library and the declared dependencies,
and every function, class and method they define is used somewhere in the package, or
exported, or a CLI command, or a listed exception with its reason.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qusecnets"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}
# the runtime dependencies pyproject.toml declares; everything else is the standard library
DEPENDENCIES = {"numpy", "click"}
# definitions that no code in the package reaches, and why each stays
UNREACHED = {
    "model.Model.predict": "criterion 8 calls it",
    "model.Model.probability_jacobian":
        "perfbench/spans.py patches it; ROADMAP item 2 moves it to tests/helpers.py",
    "nn.conv2d": "criterion 1's body calls it",
    "nn.relu": "criterion 1's body calls it",
    "nn.softmax": "criterion 1's body calls it",
    "nn.cross_entropy": "criterion 1's body calls it",
    "nn.finite_difference_gradient": "criterion 1's body calls it",
}


def _relative_imports(tree):
    """(node, imported module, imported names) for every relative import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names]
            if node.module is not None:
                yield node, node.module, names
            else:  # `from . import nn` imports the module nn; `__version__` comes from __init__
                for name in names:
                    yield node, name if name in MODULES else "__init__", [name]


def _edges(module):
    return {target for _, target, _ in _relative_imports(MODULES[module])}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_relative_imports_sit_at_module_top_level(module):
    tree = MODULES[module]
    nested = [node.lineno for node, _, _ in _relative_imports(tree) if node not in tree.body]
    assert nested == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_private_name_crosses_a_module(module):
    private = [name for _, _, names in _relative_imports(MODULES[module]) for name in names
               if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]
    assert private == []


def test_module_graph_has_no_cycle():
    done, path = set(), []

    def visit(module):
        if module in path:
            pytest.fail(f"import cycle: {' -> '.join(path[path.index(module):] + [module])}")
        if module in done:
            return
        path.append(module)
        for target in sorted(_edges(module)):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(MODULES):
        visit(module)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_imports_only_the_standard_library_and_declared_dependencies(module):
    imported = []
    for node in ast.walk(MODULES[module]):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.append((node.lineno, node.module))
    outside = [(line, name) for line, name in imported
               if name.partition(".")[0] not in sys.stdlib_module_names | DEPENDENCIES]
    assert outside == []


def _definitions(node, prefix):
    """(node, dotted name) for every function and class under node, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            yield child, name
            yield from _definitions(child, name)
        else:
            yield from _definitions(child, prefix)


def test_every_definition_is_reached_from_the_package():
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in MODULES.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    exported = next(ast.literal_eval(node.value) for node in MODULES["__init__"].body
                    if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))

    def exempt(node):
        return (node.name.startswith("__") and node.name.endswith("__")
                or node.name in exported
                or any(isinstance(d, ast.Call) and ast.unparse(d.func) == "group.command"
                       for d in node.decorator_list))

    unreached = [name for module, tree in MODULES.items()
                 for node, name in _definitions(tree, module)
                 if node.name not in used and not exempt(node)]
    assert sorted(unreached) == sorted(UNREACHED)

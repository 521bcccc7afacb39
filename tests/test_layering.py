"""The low layers never import the pass layer.

``repro.passes`` sits above ``ir``, ``analysis``, ``core`` and
``heuristics`` (``docs/ARCHITECTURE.md``).  An AST scan checks every
module of those four packages for an import of ``repro.passes`` at any
depth, inside functions too.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
LOW_LAYERS = ("ir", "analysis", "core", "heuristics")


def modules():
    for package in LOW_LAYERS:
        for root, _, files in os.walk(os.path.join(SRC, package)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(root, name), SRC)


def imported_names(tree):
    """Every dotted name an import anywhere in the module brings in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_the_scan_sees_every_low_layer():
    assert {path.split(os.sep)[0] for path in modules()} == set(LOW_LAYERS)


@pytest.mark.parametrize("path", sorted(modules()))
def test_no_low_layer_module_imports_the_pass_layer(path):
    with open(os.path.join(SRC, path), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    upward = [
        name
        for name in imported_names(tree)
        if name == "repro.passes" or name.startswith("repro.passes.")
    ]
    assert not upward, (path, upward)

"""No module in ``src/repro`` imports a name it never uses.

An AST scan: a module-level import binds a name, and some expression of
the module (a function body, an annotation -- string annotations
included -- or a decorator) must read it.  Names listed in ``__all__``
count as read, and so does every import of an ``__init__.py``, which
re-exports its package's API.  An import kept for its side effect says
so with ``# noqa: F401`` on its line.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


def modules():
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.relpath(os.path.join(root, name), SRC)


def imported_names(tree, lines):
    """name -> line of each module-level import binding ``name``."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.If):  # ``if TYPE_CHECKING:`` and the like
            body = node.body + node.orelse
        elif isinstance(node, ast.Try):
            body = node.body + [n for handler in node.handlers for n in handler.body]
        else:
            body = [node]
        for statement in body:
            if not isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                continue
            if "noqa" in lines[statement.lineno - 1]:
                continue
            for alias in statement.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = statement.lineno
    return bound


def read_names(tree):
    """Every name an expression of the module reads, ``__all__`` included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "Function" or "List[Token]"
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", sorted(modules()))
def test_every_import_is_used(path):
    with open(os.path.join(SRC, path), encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source)
    used = read_names(tree)
    unused = {
        name: line
        for name, line in imported_names(tree, source.splitlines()).items()
        if name not in used
    }
    assert not unused, f"{path}: unused imports {unused}"

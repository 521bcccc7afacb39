"""No analysis path needs numpy.

numpy is a test-only dependency (the flow oracle of
:mod:`tests.flow_reference`).  An AST scan checks that no module in
``src/repro`` imports it, and a subprocess with numpy made unimportable
runs the CLI commands that analyse a program, the function-order pass
and the Figure 5/6 scatter fit.
"""

import ast
import os
import subprocess
import sys

import pytest

REPO = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(REPO, "src", "repro")


def modules():
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(root, name), SRC)


def imported_modules(tree):
    """Top-level package of every import anywhere in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(modules()))
def test_no_module_imports_numpy(path):
    with open(os.path.join(SRC, path), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    assert "numpy" not in set(imported_modules(tree)), path


WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any ``import numpy`` now raises ImportError

from repro.cli import main
from repro.evalharness.reporting import format_scatter

program = sys.argv[1]
for argv in (
    ["predict", program],
    ["check", program],
    ["ranges", program],
    ["opt", program, "--passes", "function-order"],
):
    status = main(argv)
    assert status in (0, None), (argv, status)
print(format_scatter([(1, 3), (2, 5), (4, 9)], "x", "y").splitlines()[-1])
"""


def run_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed


def test_importing_the_library_leaves_numpy_out():
    run_python(
        "import sys\n"
        "import repro, repro.core, repro.diagnostics, repro.incremental, repro.cli\n"
        "assert 'numpy' not in sys.modules\n"
    )


def test_analysis_runs_without_numpy():
    program = os.path.join(REPO, "examples", "countdown.toy")
    completed = run_python(WITHOUT_NUMPY, program)
    assert completed.stdout.splitlines()[-1] == (
        "linear fit: y = 2.000x + 1.0  (rms residual 0.0% of mean)"
    )

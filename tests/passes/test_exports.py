"""Export hygiene for the pass layer and its optimisation clients.

``repro.passes``'s package import must stay cheap and side-effect free,
and both it and ``repro.opt`` promise a curated ``__all__``.  These
tests pin the contract: every public symbol is exported exactly once,
every export resolves, and importing the packages pulls in nothing
eagerly and prints nothing.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

PACKAGES = ["repro.opt", "repro.passes"]


def _public_surface(module) -> set:
    return {name for name in dir(module) if not name.startswith("_")}


@pytest.mark.parametrize("package", PACKAGES)
def test_all_has_no_duplicates(package):
    module = __import__(package, fromlist=["__all__"])
    exported = module.__all__
    assert len(exported) == len(set(exported)), (
        f"duplicate names in {package}.__all__"
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = __import__(package, fromlist=["__all__"])
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{package}.{name} is None"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_surface_matches_all(package):
    module = __import__(package, fromlist=["__all__"])
    exported = set(module.__all__)
    public = _public_surface(module) - {"annotations"}
    # Submodules show up in dir() once they have been imported; only
    # genuine API names belong in __all__.
    public = {
        name
        for name in public
        if not _is_submodule(getattr(module, name), f"{package}.{name}")
    }
    missing = public - exported
    assert not missing, f"{package}: public but not in __all__: {sorted(missing)}"
    phantom = exported - public
    assert not phantom, f"{package}: in __all__ but not public: {sorted(phantom)}"


def _is_submodule(obj, dotted: str) -> bool:
    import types

    return isinstance(obj, types.ModuleType) and obj.__name__ == dotted


@pytest.mark.parametrize("package", PACKAGES)
def test_import_is_silent(package):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == ""
    assert proc.stderr == ""


def test_passes_package_import_is_lazy():
    # The PEP 562 shim must not drag in the pass library (or the
    # pipeline machinery) at package-import time.
    code = (
        "import sys\n"
        "import repro.passes\n"
        "eager = [m for m in ('repro.passes.library', 'repro.passes.pipeline')\n"
        "         if m in sys.modules]\n"
        "assert not eager, eager\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)

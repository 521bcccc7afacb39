"""Pass base classes: declarative units of work over the IR.

A pass is the unit the :class:`~repro.passes.pipeline.PassPipeline`
schedules.  It requests analyses from the
:class:`~repro.passes.cache.AnalysisCache` while it runs, and declares

* ``preserves`` -- the analyses still valid after it mutated the IR
  (the manager drops everything else from the cache);
* ``mutates`` -- whether it rewrites the IR at all.  Non-mutating
  passes implicitly preserve every analysis and are never followed by
  verification or invalidation.

Two granularities mirror the Venom/LLVM split: a :class:`FunctionPass`
runs once per function of the module (in module insertion order, which
keeps pipelines deterministic); a :class:`ModulePass` runs once over
the whole module (inlining, function ordering, diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Set, Tuple

from repro.ir.function import Function, Module

#: Names of every analysis the cache knows how to compute.  Kept here
#: (not in ``cache.py``) so declaring a pass needs no heavy imports.
ANALYSIS_NAMES: Tuple[str, ...] = (
    "cfg",
    "dominators",
    "postdominators",
    "loops",
    "context",
    "prediction",
    "callgraph",
)

#: ``preserves`` value meaning "everything survives" (pure analyses).
PRESERVES_ALL: FrozenSet[str] = frozenset(ANALYSIS_NAMES)

#: ``preserves`` value for passes that change the CFG itself.
PRESERVES_NONE: FrozenSet[str] = frozenset()

#: Analyses that only read instruction *structure* (blocks and
#: terminators), untouched by passes that rewrite operands in place.
STRUCTURAL: FrozenSet[str] = frozenset(
    ("cfg", "dominators", "postdominators", "loops")
)


@dataclass
class PassResult:
    """What one pass execution did.

    ``changed`` counts rewrites (0 for pure analyses); ``data`` carries
    the pass's product (reports, orders, traces -- whatever the client
    wants back); ``touched`` names the functions whose IR was mutated,
    which is what the manager verifies and invalidates.  Function
    passes get ``touched`` filled in by the pipeline; module passes
    must report it themselves.
    """

    changed: int = 0
    data: object = None
    touched: Set[str] = field(default_factory=set)


class Pass:
    """Common declaration surface; instantiate a subclass, not this."""

    #: Registry/CLI name (kebab-case).
    name: str = "pass"
    #: Analyses still valid after the pass mutated the IR.
    preserves: FrozenSet[str] = PRESERVES_NONE
    #: Whether the pass rewrites IR at all.
    mutates: bool = False

    def describe(self) -> str:
        """One-line summary for ``repro opt --list-passes``."""
        doc = (self.__class__.__doc__ or "").strip().splitlines()
        return doc[0] if doc else self.name

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.name!r})"


class FunctionPass(Pass):
    """A pass the pipeline applies to every function of the module."""

    def run_on_function(self, function: Function, cache) -> PassResult:
        raise NotImplementedError


class ModulePass(Pass):
    """A pass that runs once over the whole module."""

    def run_on_module(self, module: Module, cache) -> PassResult:
        raise NotImplementedError


def as_result(value) -> PassResult:
    """Normalise a pass return value (int, None, or PassResult)."""
    if isinstance(value, PassResult):
        return value
    if value is None:
        return PassResult()
    if isinstance(value, int):
        return PassResult(changed=value)
    return PassResult(data=value)

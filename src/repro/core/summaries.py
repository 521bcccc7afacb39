"""Per-function summaries and k-limited calling contexts (paper §3.7).

A :class:`FunctionSummary` is the immutable interprocedural digest of
one function after the bottom-up fixed point converged:

* **parameter jump functions** -- the call-frequency weighted merge of
  the argument ranges over every call site (what the callee's formal
  parameters were seeded with);
* **return range** -- the frequency-weighted merge of the function's
  return values (what callers' call results were seeded with);
* **call frequency** -- how much weighted call traffic reached the
  function, plus the number of syntactic call sites;
* **purity bit** -- whether the function is provably *range-effect
  free*: it never reads external input (``input()``) and only calls
  defined, pure functions.  A pure callee's return range is a function
  of its argument ranges alone, which is exactly the property that
  makes context-sensitive memoization sound.

Context sensitivity is k-limited: a calling context is the tuple of
*abstracted* argument range sets at one call site
(:func:`abstract_argument_set` strips caller-local symbols), and
``k = VRPConfig.context_depth`` bounds how deep contexts nest through
chained calls.  ``k = 0`` asks no context questions at all and
reproduces the context-insensitive analysis byte-for-byte.

The (function, context) → return-range memo is a bounded
:class:`~repro.core.perf.stats.LRUCache` of ``DEFAULT_CONTEXT_CACHE_SIZE``
entries whose hit/miss/eviction counts feed the perf layer's statistics
under the ``summary_context`` cache name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.callgraph import CallGraph
from repro.core.rangeset import BOTTOM, RangeSet
from repro.ir.function import Module
from repro.ir.instructions import Call, Input

#: Default capacity of the (function, context) → summary memo.
DEFAULT_CONTEXT_CACHE_SIZE = 256


# -- purity ------------------------------------------------------------------


def compute_purity(module: Module, callgraph: Optional[CallGraph] = None) -> Dict[str, bool]:
    """The range-effect-free bit for every defined function.

    Optimistic fixed point over the call graph: a function starts pure
    and becomes impure when it reads ``input()``, calls an undefined
    function, or (transitively) calls an impure one.  Recursive cycles
    of otherwise-effect-free functions therefore stay pure.
    """
    callgraph = callgraph if callgraph is not None else CallGraph(module)
    pure: Dict[str, bool] = {}
    for name, function in module.functions.items():
        impure = False
        for block in function.blocks.values():
            for instr in block.instructions:
                if isinstance(instr, Input):
                    impure = True
                elif isinstance(instr, Call) and instr.callee not in module.functions:
                    impure = True
            if impure:
                break
        pure[name] = not impure
    changed = True
    while changed:
        changed = False
        for name in module.functions:
            if not pure[name]:
                continue
            if any(not pure.get(callee, False) for callee in callgraph.callees[name]):
                pure[name] = False
                changed = True
    return pure


# -- summaries ---------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSummary:
    """Immutable interprocedural digest of one analysed function."""

    function: str
    params: Tuple[str, ...]
    #: Parameter jump functions: formal name → merged argument range.
    param_ranges: Tuple[Tuple[str, RangeSet], ...]
    #: Frequency-weighted merge of the function's return values.
    return_range: RangeSet
    #: Total weighted call frequency over every call site.
    call_frequency: float
    #: Number of syntactic call sites targeting the function.
    call_sites: int
    #: Range-effect free: return range is a function of arguments alone.
    pure: bool

    def param_range(self, name: str) -> RangeSet:
        for param, rangeset in self.param_ranges:
            if param == name:
                return rangeset
        return BOTTOM

    def as_dict(self) -> dict:
        return {
            "function": self.function,
            "params": list(self.params),
            "param_ranges": {name: str(r) for name, r in self.param_ranges},
            "return_range": str(self.return_range),
            "call_frequency": self.call_frequency,
            "call_sites": self.call_sites,
            "pure": self.pure,
        }


class ModuleSummaries:
    """All function summaries of one module, plus the purity map."""

    def __init__(self, module_name: str, summaries: Dict[str, FunctionSummary]):
        self.module_name = module_name
        self._summaries = dict(summaries)

    def of(self, function: str) -> Optional[FunctionSummary]:
        return self._summaries.get(function)

    def __contains__(self, function: str) -> bool:
        return function in self._summaries

    def __iter__(self):
        return iter(sorted(self._summaries))

    def __len__(self) -> int:
        return len(self._summaries)

    def as_dict(self) -> dict:
        return {name: self._summaries[name].as_dict() for name in sorted(self._summaries)}

    def __repr__(self) -> str:
        return f"ModuleSummaries({self.module_name!r}, {len(self)} functions)"


def build_summaries(
    module: Module,
    callgraph: CallGraph,
    purity: Dict[str, bool],
    param_sets: Dict[str, Dict[str, RangeSet]],
    return_sets: Dict[str, RangeSet],
    block_frequencies: Dict[str, Dict[str, float]],
) -> ModuleSummaries:
    """Assemble :class:`ModuleSummaries` from a converged fixed point.

    ``param_sets``/``return_sets`` are the driver's jump- and
    return-function results; ``block_frequencies`` maps each function to
    its blocks' execution frequencies (used to weigh call traffic).
    """
    frequency: Dict[str, float] = {name: 0.0 for name in module.functions}
    sites: Dict[str, int] = {name: 0 for name in module.functions}
    for site in callgraph.call_sites:
        callee = site.callee
        if callee not in module.functions:
            continue
        sites[callee] += 1
        caller_blocks = block_frequencies.get(site.caller, {})
        frequency[callee] += caller_blocks.get(site.block_label, 0.0)
    summaries: Dict[str, FunctionSummary] = {}
    for name, function in module.functions.items():
        params = tuple(function.params)
        merged = param_sets.get(name, {})
        summaries[name] = FunctionSummary(
            function=name,
            params=params,
            param_ranges=tuple(
                (param, merged.get(param, BOTTOM)) for param in params
            ),
            return_range=return_sets.get(name, BOTTOM),
            call_frequency=frequency[name],
            call_sites=sites[name],
            pure=purity.get(name, False),
        )
    return ModuleSummaries(module.name, summaries)


# -- contexts ----------------------------------------------------------------

#: A calling context: (callee, remaining depth, abstracted argument sets).
ContextKey = Tuple[str, int, Tuple[RangeSet, ...]]


def abstract_argument_set(rangeset: RangeSet) -> RangeSet:
    """Abstract one argument range for use as callee-side context.

    Symbolic bounds name SSA variables of the *caller*; they are
    meaningless inside the callee, so symbolic sets widen to their
    numeric hull (or ⊥ when even the hull is symbolic).  ⊤ arguments
    (not yet computed) abstract to ⊥ -- a context must never be more
    optimistic than the merge it refines.
    """
    if rangeset.is_top:
        return BOTTOM
    if rangeset.is_set and rangeset.symbols():
        hull = rangeset.hull()
        if hull is not None and not hull.symbols():
            return RangeSet.from_ranges([hull])
        return BOTTOM
    return rangeset


def context_key(
    callee: str, arg_sets: Sequence[RangeSet], depth: int
) -> ContextKey:
    """The memo key for one k-limited calling context.

    Range sets hash-cons under the perf layer and define value-based
    ``__hash__``/``__eq__`` regardless, so the tuple is usable as a
    dictionary key either way.
    """
    return (callee, depth, tuple(arg_sets))

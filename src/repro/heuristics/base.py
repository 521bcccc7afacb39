"""Common infrastructure for static branch predictors.

A predictor maps every conditional branch of a function to P(true edge).
Predictors share a :class:`FunctionContext` bundling the structural
analyses the Ball–Larus heuristics consult (loops, postdominators,
def-use information).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.loops import LoopInfo
from repro.ir.cfg import CFG
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Branch, Cmp, Instruction, Jump, Pi
from repro.ir.postdominance import PostDominatorTree
from repro.ir.values import Temp


class FunctionContext:
    """Cached structural analyses over one function.

    Prebuilt analyses (from the pass layer's ``AnalysisCache``) can
    be injected; anything omitted is built here, the postdominator tree
    by the CFG snapshot, which keeps it.
    """

    def __init__(
        self,
        function: Function,
        cfg: Optional[CFG] = None,
        loops: Optional[LoopInfo] = None,
        postdom: Optional[PostDominatorTree] = None,
    ):
        self.function = function
        self.cfg = cfg if cfg is not None else CFG(function)
        self.loops = loops if loops is not None else LoopInfo(self.cfg)
        self.postdom = postdom if postdom is not None else self.cfg.postdominators
        self._effective: Dict[str, str] = {}

    def branches(self) -> Iterator[Tuple[str, Branch]]:
        """(label, branch) for every block ending in a conditional branch."""
        for label in self.cfg.reachable():
            term = self.function.block(label).terminator
            if isinstance(term, Branch):
                yield label, term

    def condition_of(self, label: str) -> Optional[Cmp]:
        """The Cmp feeding the block's branch, if defined in the block."""
        block = self.function.block(label)
        term = block.terminator
        if not isinstance(term, Branch) or not isinstance(term.cond, Temp):
            return None
        for instr in reversed(block.instructions):
            result = instr.result
            if result is not None and result == term.cond:
                return instr if isinstance(instr, Cmp) else None
        return None

    def effective_successor(self, label: str) -> str:
        """Look through pure forwarding blocks (assertions + jump).

        Critical-edge splitting introduces semantically empty blocks; the
        Ball–Larus successor-content heuristics should see through them.
        """
        cached = self._effective.get(label)
        if cached is not None:
            return cached
        current = label
        for _ in range(8):
            block = self.function.block(current)
            if not _is_forwarding(block):
                break
            current = block.terminator.target  # type: ignore[union-attr]
        self._effective[label] = current
        return current

    def effective_instructions(self, label: str) -> List[Instruction]:
        """Instructions of the block a successor effectively lands in."""
        return list(self.function.block(self.effective_successor(label)).instructions)


def _is_forwarding(block: BasicBlock) -> bool:
    if not isinstance(block.terminator, Jump):
        return False
    return all(
        isinstance(instr, (Pi, Jump)) for instr in block.instructions
    )


class Predictor:
    """Base class: produce P(true) for every conditional branch."""

    name = "predictor"

    def predict_function(
        self, function: Function, context: Optional[FunctionContext] = None
    ) -> Dict[str, float]:
        """Map each branch block label to P(taking the true edge)."""
        if context is None:
            context = FunctionContext(function)
        return {
            label: self.predict_branch(context, label, branch)
            for label, branch in context.branches()
        }

    def predict_branch(
        self, context: FunctionContext, label: str, branch: Branch
    ) -> float:
        raise NotImplementedError

    def as_fallback(self, analyses=None):
        """Adapt to the propagation engine's ``(function, label, cfg,
        loops) -> p`` hook.

        ``analyses`` (the pass layer's ``AnalysisCache``) supplies
        the :class:`FunctionContext` from its cache when given;
        otherwise the context is built over the CFG and loops the
        engine hands in (each built afresh when not given).
        """
        cache: Dict[int, Dict[str, float]] = {}

        def fallback(
            function: Function,
            label: str,
            cfg: Optional[CFG] = None,
            loops: Optional[LoopInfo] = None,
        ) -> float:
            key = id(function)
            if key not in cache:
                context = (
                    analyses.context(function)
                    if analyses is not None
                    else FunctionContext(function, cfg=cfg, loops=loops)
                )
                cache[key] = self.predict_function(function, context=context)
            return cache[key].get(label, 0.5)

        return fallback

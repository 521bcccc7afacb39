"""Speculation assessment for global instruction scheduling (paper §6).

The paper's first application: "the degree of speculation involved in
moving a particular instruction can be accurately assessed", and its
motivating arithmetic: "If each branch is taken 60% of the time, our
instruction will only be useful 36% of the time."

Given branch predictions, this module computes for every block the
probability it executes *given* that one of its dominators executes --
exactly the usefulness of hoisting an instruction from the block into
the dominator -- and ranks hoisting candidates for a scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.propagation import FunctionPrediction
from repro.ir.cfg import CFG
from repro.ir.function import Function


def execution_probability(
    prediction: FunctionPrediction, block: str, given: str
) -> float:
    """P(``block`` executes | ``given`` executes), from frequencies.

    Meaningful when ``given`` dominates ``block`` (each execution of
    ``block`` is preceded by one of ``given``); capped at 1 because loop
    frequencies can make the ratio exceed it for blocks inside deeper
    loops.
    """
    given_frequency = prediction.block_frequency.get(given, 0.0)
    if given_frequency <= 0.0:
        return 0.0
    ratio = prediction.block_frequency.get(block, 0.0) / given_frequency
    return min(1.0, ratio)


def path_probability(prediction: FunctionPrediction, path: List[str]) -> float:
    """Probability of following a specific block path, edge by edge."""
    probability = 1.0
    for src, dst in zip(path, path[1:]):
        probability *= prediction.probability_of_edge(src, dst)
    return probability


@dataclass
class HoistCandidate:
    """Moving instructions from ``block`` up to ``target`` (a dominator)."""

    block: str
    target: str
    usefulness: float  # P(block | target): fraction of speculated work used
    speculation_depth: int  # dominator-tree distance crossed

    def __repr__(self) -> str:
        return (
            f"HoistCandidate({self.block} -> {self.target}, "
            f"useful {self.usefulness:.0%}, depth {self.speculation_depth})"
        )


def hoisting_candidates(
    function: Function,
    prediction: FunctionPrediction,
    min_usefulness: float = 0.0,
) -> List[HoistCandidate]:
    """All (block, dominator) hoists with their usefulness, best first.

    A scheduler would combine usefulness with latency benefit; here the
    ranking alone reproduces the paper's argument that probabilities --
    not taken/not-taken bits -- are what speculation decisions need.
    """
    cfg = CFG(function)
    dom = cfg.dominators
    candidates: List[HoistCandidate] = []
    for block in cfg.reachable():
        depth = 0
        ancestor: Optional[str] = dom.idom.get(block)
        while ancestor is not None:
            depth += 1
            usefulness = execution_probability(prediction, block, ancestor)
            if usefulness >= min_usefulness:
                candidates.append(
                    HoistCandidate(
                        block=block,
                        target=ancestor,
                        usefulness=usefulness,
                        speculation_depth=depth,
                    )
                )
            ancestor = dom.idom.get(ancestor)
    candidates.sort(key=lambda c: (-c.usefulness, c.speculation_depth))
    return candidates


def useless_speculation(
    function: Function,
    prediction: FunctionPrediction,
    threshold: float = 0.2,
) -> List[HoistCandidate]:
    """Hoists a taken/not-taken predictor would green-light but whose
    *probability* shows to be mostly wasted work (usefulness below the
    threshold despite every branch on the way being 'likely')."""
    out = []
    for candidate in hoisting_candidates(function, prediction):
        if candidate.usefulness < threshold and candidate.speculation_depth >= 2:
            out.append(candidate)
    return out

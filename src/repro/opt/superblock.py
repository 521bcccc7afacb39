"""Trace (superblock) formation from predicted probabilities.

The paper cites trace scheduling [Fisher81] and tail duplication
[ChangMahlkeHwu91] as consumers of branch predictions: a scheduler wants
long straight-line *traces* of blocks that execute together with high
probability.  This module grows traces greedily along the most likely
out-edge, stopping when the cumulative path probability drops below a
threshold -- exactly the selection step of trace scheduling, driven by
static predictions instead of a profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.core.propagation import FunctionPrediction
from repro.ir.cfg import CFG
from repro.ir.function import Function


@dataclass
class Trace:
    """A straight-line trace of blocks with its path probability."""

    blocks: List[str] = field(default_factory=list)
    probability: float = 1.0  # P(reaching the end | entering the head)
    frequency: float = 0.0  # predicted executions of the head

    @property
    def length(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return (
            f"Trace({' -> '.join(self.blocks)}, p={self.probability:.2f}, "
            f"freq={self.frequency:.1f})"
        )


def form_traces(
    function: Function,
    prediction: FunctionPrediction,
    min_path_probability: float = 0.5,
    min_edge_probability: float = 0.6,
) -> List[Trace]:
    """Partition the reachable blocks into traces, hottest seeds first.

    Growth is bidirectional (as in classic trace selection): forward
    along the most probable successor edge, then backward along
    predecessors whose most probable successor is the trace head.  An
    extension requires (a) the edge to be likely
    (``min_edge_probability``), (b) the cumulative forward path to stay
    above ``min_path_probability``, (c) the block to be unclaimed, and
    (d) the edge not to be a back edge (traces do not wrap around loops;
    the loop body itself becomes the trace).
    """
    cfg = CFG(function)
    # Seeds in reverse postorder among equal frequencies: never set
    # order, which varies with the hash seed.
    order = cfg.reverse_postorder()
    unclaimed: Set[str] = set(order)
    seeds = sorted(
        order,
        key=lambda label: -prediction.block_frequency.get(label, 0.0),
    )
    traces: List[Trace] = []
    for seed in seeds:
        if seed not in unclaimed:
            continue
        trace = Trace(
            blocks=[seed],
            probability=1.0,
            frequency=prediction.block_frequency.get(seed, 0.0),
        )
        unclaimed.discard(seed)
        current = seed
        while True:  # grow forward
            successors = cfg.successors[current]
            if not successors:
                break
            best = max(
                successors,
                key=lambda succ: prediction.probability_of_edge(current, succ),
            )
            edge_probability = prediction.probability_of_edge(current, best)
            extended = trace.probability * edge_probability
            if (
                best not in unclaimed
                or cfg.is_back_edge(current, best)
                or edge_probability < min_edge_probability
                or extended < min_path_probability
            ):
                break
            trace.blocks.append(best)
            trace.probability = extended
            unclaimed.discard(best)
            current = best
        head = seed
        while True:  # grow backward
            candidates = [
                pred
                for pred in cfg.predecessors[head]
                if pred in unclaimed and not cfg.is_back_edge(pred, head)
            ]
            best_pred = None
            best_probability = 0.0
            for pred in candidates:
                edge_probability = prediction.probability_of_edge(pred, head)
                # The predecessor must fall through to the head most of
                # the time, or splicing it in breaks its own hot path.
                if edge_probability >= min_edge_probability and (
                    edge_probability > best_probability
                ):
                    best_pred = pred
                    best_probability = edge_probability
            if best_pred is None:
                break
            trace.blocks.insert(0, best_pred)
            unclaimed.discard(best_pred)
            head = best_pred
            trace.frequency = max(
                trace.frequency, prediction.block_frequency.get(head, 0.0)
            )
        traces.append(trace)
    traces.sort(key=lambda t: -t.frequency)
    return traces


def trace_statistics(traces: List[Trace]) -> Dict[str, float]:
    """Summary numbers a trace scheduler cares about."""
    if not traces:
        return {"count": 0, "mean_length": 0.0, "weighted_length": 0.0}
    total_weight = sum(t.frequency for t in traces) or 1.0
    return {
        "count": float(len(traces)),
        "mean_length": sum(t.length for t in traces) / len(traces),
        # Average trace length experienced by a dynamic instruction.
        "weighted_length": sum(t.length * t.frequency for t in traces) / total_weight,
        "longest": float(max(t.length for t in traces)),
    }


def dynamic_trace_coverage(
    traces: List[Trace],
    dynamic_edge_counts: Dict[tuple, int],
) -> float:
    """Fraction of dynamic control transfers that stay inside a trace.

    Measured against real (interpreter) edge counts: high coverage means
    the statically selected traces are the paths the program actually
    takes -- the property trace scheduling's profitability rests on.
    """
    position: Dict[str, tuple] = {}
    for index, trace in enumerate(traces):
        for offset, label in enumerate(trace.blocks):
            position[label] = (index, offset)
    total = 0
    inside = 0
    for (src, dst), count in dynamic_edge_counts.items():
        if src not in position or dst not in position:
            continue
        total += count
        src_trace, src_offset = position[src]
        dst_trace, dst_offset = position[dst]
        if src_trace == dst_trace and dst_offset == src_offset + 1:
            inside += count
    return inside / total if total else 0.0

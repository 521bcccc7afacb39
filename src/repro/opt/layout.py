"""Profile-guided code layout from predicted branch probabilities.

One of the paper's headline applications: "coding likely paths as
straight-line code with branches to less likely code placed
out-of-line" (Pettis–Hansen style).  The bottom-up chaining algorithm
consumes *predicted* edge frequencies (from VRP or any predictor) and
emits a block order; the quality metric is the fraction of dynamic
control transfers that become fall-throughs, evaluated against a real
execution profile.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.cfg import CFG
from repro.ir.function import Function

Edge = Tuple[str, str]


def chain_layout(function: Function, edge_frequency: Dict[Edge, float]) -> List[str]:
    """Pettis–Hansen bottom-up chaining.

    Edges are visited hottest-first; an edge merges two chains when its
    source is a chain tail and its destination a chain head.  Chains are
    then emitted starting with the entry's chain, hottest-connection
    first.
    """
    cfg = CFG(function)
    blocks = list(cfg.reachable())
    chain_of: Dict[str, List[str]] = {label: [label] for label in blocks}

    hot_edges = sorted(
        (edge for edge in cfg.edges() if edge[0] in chain_of and edge[1] in chain_of),
        key=lambda edge: -edge_frequency.get(edge, 0.0),
    )
    for src, dst in hot_edges:
        src_chain = chain_of[src]
        dst_chain = chain_of[dst]
        if src_chain is dst_chain:
            continue
        if src_chain[-1] != src or dst_chain[0] != dst:
            continue  # only tail-to-head merges keep the fall-through
        merged = src_chain + dst_chain
        for label in merged:
            chain_of[label] = merged

    # Unique chains, entry's chain first, then by total heat.
    seen: List[int] = []
    chains: List[List[str]] = []
    for label in blocks:
        chain = chain_of[label]
        if id(chain) not in seen:
            seen.append(id(chain))
            chains.append(chain)
    entry = function.entry_label

    def chain_heat(chain: List[str]) -> float:
        return sum(
            edge_frequency.get((a, b), 0.0)
            for a in chain
            for b in cfg.successors[a]
        )

    chains.sort(key=lambda chain: (entry not in chain, -chain_heat(chain)))
    return [label for chain in chains for label in chain]


def fallthrough_fraction(
    layout: List[str],
    dynamic_edge_counts: Dict[Edge, int],
) -> float:
    """Fraction of dynamic control transfers that fall through.

    ``dynamic_edge_counts`` comes from a real (interpreter) run; an edge
    falls through when its destination is laid out immediately after its
    source.
    """
    position = {label: index for index, label in enumerate(layout)}
    total = 0
    fallthrough = 0
    for (src, dst), count in dynamic_edge_counts.items():
        if src not in position or dst not in position:
            continue
        total += count
        if position[dst] == position[src] + 1:
            fallthrough += count
    return fallthrough / total if total else 0.0


def layout_quality(
    function: Function,
    predicted_edge_frequency: Dict[Edge, float],
    dynamic_edge_counts: Dict[Edge, int],
) -> Tuple[float, float]:
    """(original order fall-through fraction, optimised fraction)."""
    original = list(function.blocks)
    optimised = chain_layout(function, predicted_edge_frequency)
    return (
        fallthrough_fraction(original, dynamic_edge_counts),
        fallthrough_fraction(optimised, dynamic_edge_counts),
    )

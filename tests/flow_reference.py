"""A numpy oracle for block and function frequencies.

The engine computes block frequencies in closed form while it
propagates (``FunctionPrediction.block_frequency``: a loop header's
frequency is its non-back inflow over ``1 - cyclic probability``), and
:func:`repro.opt.function_order.function_order` reads them.  This module
keeps the independent solver the library used before, as test-only
code, so the tests can hold the closed form to the exact answer.

The paper's applications section points at [WuLarus94]: given a
probability for every conditional branch, the expected execution
frequency of each block satisfies the flow equations

    freq(entry) = 1
    freq(b)     = sum over predecessors p of freq(p) * prob(p -> b)

which form a linear system -- the linear equational view of program
behaviour of Di Pierro & Wiklicky (PAPERS.md).  Loops make it genuinely
simultaneous (a header's frequency is the geometric closure of its body
probability).  It is solved exactly with numpy instead of Wu–Larus's
interval-based elimination -- same fixed point, and it also handles
irreducible graphs.  Near-certain loops (probability ~1) are damped
slightly so the matrix stays non-singular.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.instructions import Branch, Jump

Edge = Tuple[str, str]

# Loop-continuation probabilities are clamped below 1 by this margin so
# the flow system stays solvable (an always-taken loop has no finite
# frequency).
DAMPING = 1e-9
FREQUENCY_CAP = 1e12


class FrequencyResult:
    """Block and edge frequencies relative to one function entry."""

    def __init__(self, block_frequency: Dict[str, float], edge_frequency: Dict[Edge, float]):
        self.block_frequency = block_frequency
        self.edge_frequency = edge_frequency

    def frequency(self, label: str) -> float:
        return self.block_frequency.get(label, 0.0)


def edge_probabilities(
    function: Function, branch_probability: Dict[str, float]
) -> Dict[Edge, float]:
    """Per-edge local probability: P(edge taken | block executed)."""
    out: Dict[Edge, float] = {}
    for label, block in function.blocks.items():
        term = block.terminator
        if isinstance(term, Jump):
            out[(label, term.target)] = 1.0
        elif isinstance(term, Branch):
            p = min(1.0 - DAMPING, max(DAMPING, branch_probability.get(label, 0.5)))
            if term.true_target == term.false_target:
                out[(label, term.true_target)] = 1.0
            else:
                out[(label, term.true_target)] = p
                out[(label, term.false_target)] = 1.0 - p
    return out


def propagate_frequencies(
    function: Function, branch_probability: Dict[str, float]
) -> FrequencyResult:
    """Solve the flow equations for expected block/edge frequencies."""
    cfg = CFG(function)
    labels = [label for label in cfg.reverse_postorder()]
    index = {label: i for i, label in enumerate(labels)}
    probabilities = edge_probabilities(function, branch_probability)

    n = len(labels)
    matrix = np.eye(n)
    rhs = np.zeros(n)
    entry = function.entry_label
    assert entry is not None
    rhs[index[entry]] = 1.0
    for (src, dst), p in probabilities.items():
        if src in index and dst in index:
            matrix[index[dst], index[src]] -= p * (1.0 - DAMPING)

    try:
        solution = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    block_frequency = {
        label: float(min(max(solution[index[label]], 0.0), FREQUENCY_CAP))
        for label in labels
    }
    edge_frequency = {
        (src, dst): block_frequency.get(src, 0.0) * p
        for (src, dst), p in probabilities.items()
        if src in index
    }
    return FrequencyResult(block_frequency, edge_frequency)


def function_frequencies(
    functions: Dict[str, Function],
    branch_probabilities: Dict[str, Dict[str, float]],
    entry: str = "main",
    max_rounds: int = 32,
) -> Dict[str, float]:
    """Whole-program function invocation frequencies.

    Iterates call-site frequencies through the call graph: a function's
    invocation frequency is the frequency-weighted sum of its call sites
    (the entry function gets 1).  Recursion converges geometrically and
    is cut off after ``max_rounds``.
    """
    from repro.ir.instructions import Call

    local: Dict[str, FrequencyResult] = {
        name: propagate_frequencies(func, branch_probabilities.get(name, {}))
        for name, func in functions.items()
    }
    call_weights: Dict[str, Dict[str, float]] = {name: {} for name in functions}
    for name, func in functions.items():
        result = local[name]
        for label, block in func.blocks.items():
            weight = result.frequency(label)
            for instr in block.instructions:
                if isinstance(instr, Call):
                    weights = call_weights[name]
                    weights[instr.callee] = weights.get(instr.callee, 0.0) + weight

    freq = {name: (1.0 if name == entry else 0.0) for name in functions}
    for _ in range(max_rounds):
        new_freq = {name: (1.0 if name == entry else 0.0) for name in functions}
        for caller, callees in call_weights.items():
            for callee, weight in callees.items():
                if callee in new_freq:
                    new_freq[callee] += freq[caller] * weight
        if all(
            abs(new_freq[name] - freq[name]) <= 1e-6 * max(1.0, freq[name])
            for name in functions
        ):
            freq = new_freq
            break
        freq = {name: min(value, FREQUENCY_CAP) for name, value in new_freq.items()}
    return freq

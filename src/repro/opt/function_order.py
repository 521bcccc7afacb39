"""Frequency-driven function ordering (paper §6, "coagulation" order).

"Optimizations can then be applied in descending order of execution
frequency.  This is particularly effective for optimizations which
allocate a limited resource" -- and the same order is the classic
function-layout order for instruction caches.

The frequencies come from predicted branch probabilities alone, no
profile: each call site is weighted by its block's frequency, which the
engine already solved in closed form
(``FunctionPrediction.block_frequency``), and invocation frequencies
are iterated through the call graph from the entry function.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.interprocedural import ModulePrediction
from repro.ir.function import Module
from repro.ir.instructions import Call

MAX_ROUNDS = 32
FREQUENCY_CAP = 1e12


def _invocation_frequencies(
    module: Module, prediction: ModulePrediction, entry: str = "main"
) -> Dict[str, float]:
    """Whole-program function invocation frequencies.

    A function's invocation frequency is the frequency-weighted sum of
    its call sites (the entry function gets 1).  Recursion converges
    geometrically and is cut off after ``MAX_ROUNDS``.  A function
    without a prediction calls nothing.
    """
    call_weights: Dict[str, Dict[str, float]] = {name: {} for name in module.functions}
    for name, function in module.functions.items():
        function_prediction = prediction.functions.get(name)
        if function_prediction is None:
            continue
        block_frequency = function_prediction.block_frequency
        weights = call_weights[name]
        for label, block in function.blocks.items():
            weight = block_frequency.get(label, 0.0)
            for instr in block.instructions:
                if isinstance(instr, Call):
                    weights[instr.callee] = weights.get(instr.callee, 0.0) + weight

    freq = {name: (1.0 if name == entry else 0.0) for name in module.functions}
    for _ in range(MAX_ROUNDS):
        new_freq = {name: (1.0 if name == entry else 0.0) for name in module.functions}
        for caller, callees in call_weights.items():
            for callee, weight in callees.items():
                if callee in new_freq:
                    new_freq[callee] += freq[caller] * weight
        if all(
            abs(new_freq[name] - freq[name]) <= 1e-6 * max(1.0, freq[name])
            for name in module.functions
        ):
            freq = new_freq
            break
        freq = {name: min(value, FREQUENCY_CAP) for name, value in new_freq.items()}
    return freq


def function_order(
    module: Module,
    prediction: ModulePrediction,
    entry: str = "main",
) -> List[Tuple[str, float]]:
    """Functions with predicted invocation frequencies, hottest first.

    Ties break toward the entry function, then by name, so the result
    is deterministic.
    """
    frequencies = _invocation_frequencies(module, prediction, entry=entry)
    return sorted(
        frequencies.items(), key=lambda item: (-item[1], item[0] != entry, item[0])
    )


def allocation_priority(
    module: Module,
    prediction: ModulePrediction,
    entry: str = "main",
) -> List[str]:
    """Just the names, hottest first -- feed to resource allocators."""
    return [name for name, _ in function_order(module, prediction, entry=entry)]

"""Work-count measurements for the Figure 5/6 linearity claims.

Figure 5 plots expression evaluations against program size; Figure 6
plots evaluation sub-operations.  Both should grow (near-)linearly.  We
measure over the real workload suite and over a scalable synthetic
program family (so the x-axis spans a wide, controlled size range, like
the paper's 50-program collection).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import VRPConfig, VRPPredictor
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.workloads import all_workloads


def measure_source(
    source: str, config: Optional[VRPConfig] = None
) -> Tuple[int, int, int]:
    """(instructions, expression evaluations, sub-operations) for a program."""
    module = compile_source(source)
    ssa_infos = prepare_module(module)
    predictor = VRPPredictor(config=config)
    prediction = predictor.predict_module(module, ssa_infos)
    return (
        module.instruction_count(),
        prediction.counters.expr_evaluations,
        prediction.counters.sub_operations,
    )


def measure_workloads(
    config: Optional[VRPConfig] = None,
) -> List[Tuple[str, int, int, int]]:
    """Work counts for the full 20-program suite."""
    out: List[Tuple[str, int, int, int]] = []
    for workload in all_workloads():
        instructions, evaluations, subops = measure_source(workload.source, config)
        out.append((workload.name, instructions, evaluations, subops))
    return out


def synthetic_program(units: int) -> str:
    """A program family whose size scales linearly with ``units``.

    Each unit is a block with a counted loop, a data-dependent branch
    and an accumulation -- a miniature of real workload structure, so
    the work profile scales the way real programs do.
    """
    parts: List[str] = ["func main(n) {", "  var acc = 0;"]
    for unit in range(units):
        limit = 10 + (unit % 7)
        threshold = 3 + (unit % 5)
        parts.append(f"  var v{unit} = 0;")
        parts.append(f"  for (i{unit} = 0; i{unit} < {limit}; i{unit} = i{unit} + 1) {{")
        parts.append(f"    if (i{unit} > {threshold}) {{ v{unit} = v{unit} + 2; }}")
        parts.append(f"    else {{ v{unit} = v{unit} + 1; }}")
        parts.append(f"    if (v{unit} % 3 == 0) {{ acc = acc + 1; }}")
        parts.append("  }")
        parts.append(f"  if (v{unit} > {limit}) {{ acc = acc + v{unit}; }}")
    parts.append("  return acc;")
    parts.append("}")
    return "\n".join(parts)


def measure_scaling(
    unit_counts: Optional[List[int]] = None, config: Optional[VRPConfig] = None
) -> List[Tuple[int, int, int]]:
    """(instructions, evaluations, sub-operations) over the synthetic family."""
    if unit_counts is None:
        unit_counts = [2, 4, 8, 16, 32, 64]
    out: List[Tuple[int, int, int]] = []
    for units in unit_counts:
        instructions, evaluations, subops = measure_source(
            synthetic_program(units), config
        )
        out.append((instructions, evaluations, subops))
    return out


def linearity_ratio(points: List[Tuple[int, int]]) -> float:
    """How much the per-instruction work grows from smallest to largest.

    A perfectly linear relationship gives 1.0; superlinear behaviour
    gives ratios substantially above 1.  (Robust to intercepts by using
    the two extreme points.)
    """
    if len(points) < 2:
        return 1.0
    ordered = sorted(points)
    x0, y0 = ordered[0]
    x1, y1 = ordered[-1]
    if x0 == 0 or y0 == 0 or x1 == x0:
        return 1.0
    per_unit_small = y0 / x0
    per_unit_large = y1 / x1
    if per_unit_small == 0:
        return 1.0
    return per_unit_large / per_unit_small

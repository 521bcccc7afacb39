"""The accumulator family as exact work counts.

``top_i(n)`` sums ``f_i(k)`` over ``k < n``, where ``f_i`` returns one
of three non-negative values picked by its argument: the shape of the
large-modules call-graph components (``acc = acc + mid_i(k)``).  The
family is scaled by its number of components.  Laps of such a loop come
from its weights converging, not from ``n``, so only derivation makes
the work per instruction a small constant.

Rows of ``seed_work_counts.json["accumulator"]``: ``[components,
instructions, expression evaluations, sub-operations, top accumulators
derived]``.  The test asserts the rows exactly, that evaluations per
instruction stay within a constant band across the component counts,
and that every ``top_i`` accumulator is derived.

Regenerate the rows (only for a change meant to move them) with
``PYTHONPATH=src python -m benchmarks.test_bench_accumulator_family``.
"""

import json
import pathlib

from repro.core import VRPConfig, VRPPredictor
from repro.ir import prepare_module
from repro.lang import compile_source

SEED_COUNTS = pathlib.Path(__file__).parent / "seed_work_counts.json"

COMPONENTS = [2, 4, 8, 16]

#: Evaluations per instruction may vary across the family by this factor.
BAND = 1.25


def accumulator_module(components: int) -> str:
    parts = []
    for i in range(components):
        a, b, c = i % 4, 2 + i % 5, 5 + i % 3
        parts.append(
            f"func f_{i}(x) {{\n"
            "  var r = x % 3;\n"
            f"  if (r == 0) {{ return {a}; }}\n"
            f"  if (r == 1) {{ return {b}; }}\n"
            f"  return {c};\n"
            "}\n"
            f"func top_{i}(n) {{\n"
            "  var acc = 0;\n"
            f"  for (k = 0; k < n; k = k + 1) {{ acc = acc + f_{i}(k); }}\n"
            "  return acc;\n"
            "}\n"
        )
    body = "".join(f"  total = total + top_{i}(n);\n" for i in range(components))
    parts.append(f"func main(n) {{\n  var total = 0;\n{body}  return total;\n}}\n")
    return "\n".join(parts)


def measure(components: int, config=None) -> list:
    module = compile_source(accumulator_module(components))
    prediction = VRPPredictor(config=config or VRPConfig()).predict_module(
        module, prepare_module(module)
    )
    derived = sum(
        "acc.1" in prediction.functions[f"top_{i}"].derived for i in range(components)
    )
    return [
        components,
        module.instruction_count(),
        prediction.counters.expr_evaluations,
        prediction.counters.sub_operations,
        derived,
    ]


def test_accumulator_family_work_counts():
    rows = [measure(components) for components in COMPONENTS]
    assert rows == json.loads(SEED_COUNTS.read_text())["accumulator"]
    per_instruction = [evaluations / instructions for _, instructions, evaluations, _, _ in rows]
    assert max(per_instruction) <= BAND * min(per_instruction), per_instruction
    for components, *_, derived in rows:
        assert derived == components


if __name__ == "__main__":
    seed = json.loads(SEED_COUNTS.read_text())
    seed["accumulator"] = [measure(components) for components in COMPONENTS]
    SEED_COUNTS.write_text(json.dumps(seed, indent=1) + "\n")

"""The ledger's two diagnostic commands: ``truth`` and ``probe-coverage``."""

from __future__ import annotations

import json
import re
from typing import List


def truth_main(write: bool = False) -> int:
    """Recompute the interpreter ref runs and diff (or rewrite) ``truth.json``."""
    from benchmarks.ledger import corpus

    fresh = corpus.build_truth(corpus.truth_corpus())
    if write:
        corpus.TRUTH_PATH.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {corpus.TRUTH_PATH} ({len(fresh['programs'])} programs)")
        return 0
    try:
        stored = json.loads(corpus.TRUTH_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        stored = {"programs": {}}
    differences = []
    names = sorted(set(fresh["programs"]) | set(stored.get("programs", {})))
    for name in names:
        old = stored.get("programs", {}).get(name)
        new = fresh["programs"].get(name)
        if old != new:
            if old is None or new is None:
                differences.append(f"{name}: {'added' if old is None else 'removed'}")
                continue
            changed = sorted(
                key for key in set(old["branches"]) | set(new["branches"])
                if old["branches"].get(key) != new["branches"].get(key)
            )
            source = "source changed; " if old["sha256"] != new["sha256"] else ""
            differences.append(f"{name}: {source}{len(changed)} branch counts differ {changed[:4]}")
    executed = sum(
        1
        for program in fresh["programs"].values()
        for taken, not_taken in program["branches"].values()
        if taken + not_taken
    )
    for line in differences:
        print(line)
    print(
        f"{len(names)} programs, {executed} executed branches: "
        + ("truth.json is up to date" if not differences else f"{len(differences)} differ")
    )
    return 0 if not differences else 1


def _label_order(label: str) -> int:
    digits = re.findall(r"\d+", label)
    return int(digits[-1]) if digits else 0


def loop_exit_frequencies(function, function_prediction) -> List[float]:
    """Per natural loop, in source order: the frequency of leaving it."""
    from repro.analysis.loops import LoopInfo
    from repro.ir.cfg import CFG

    cfg = CFG(function)
    info = LoopInfo(cfg)
    out = []
    for header in sorted(info.loops, key=_label_order):
        edges = info.loops[header].exit_edges(cfg)
        out.append(sum(function_prediction.edge_frequency.get(edge, 0.0) for edge in edges))
    return out


def probe_coverage(units_list: List[int]) -> int:
    """Branch coverage and loop-exit frequency leak of ``synthetic_program(N)``."""
    from benchmarks.ledger.corpus import conditional_branches
    from repro.core import VRPConfig, VRPPredictor
    from repro.evalharness import synthetic_program
    from repro.ir import prepare_module
    from repro.lang import compile_source

    tolerance = VRPConfig().tolerance
    print(
        f"{'units':>5s} {'instrs':>7s} {'branches':>8s} {'predicted':>9s} {'coverage':>8s} "
        f"{'exit freq 0':>11s} {'min exit freq':>13s} {'first loop < tol':>16s}"
    )
    for units in units_list:
        module = compile_source(synthetic_program(units))
        prediction = VRPPredictor().predict_module(module, prepare_module(module))
        main = module.functions["main"]
        exits = loop_exit_frequencies(main, prediction.functions["main"])
        reached = [freq for freq in exits if freq >= tolerance]
        below = [index for index, freq in enumerate(exits) if freq < tolerance]
        branches = conditional_branches(module)
        predicted = len(prediction.all_branches())
        lowest = f"{min(reached):.3g}" if reached else "-"
        first_below = str(below[0]) if below else "-"
        print(
            f"{units:>5d} {module.instruction_count():>7d} {branches:>8d} {predicted:>9d} "
            f"{predicted / branches:>8.3f} {exits[0]:>11.3g} {lowest:>13s} {first_below:>16s}"
        )
    return 0

"""Calling contexts: context-insensitive analysis against procedure cloning.

The paper's §3.7 interprocedural propagation merges every call site
into one parameter range per function; one unanalysable site therefore
poisons the summary for all of them.  The paper's answer for "a
procedure called in two (or more) significantly different contexts" is
to clone it (:mod:`repro.core.cloning`): each group of call sites with
agreeing argument ranges gets its own copy, analysed by the same
context-insensitive engine.

This benchmark measures, per suite, for the plain analysis and for
analyse-clone-reanalyse (clone predictions projected back onto the
original branches, weighted by clone frequency):

* the number of original branches that fell back to heuristics in any
  copy,
* the weighted static miss rate against the ref-input ground truth,
* the weighted mean error in percentage points (the Figure 7/8 metric),
* which workloads cloning changed,

and asserts:

* on the ``inter`` suite cloning strictly removes fallbacks;
* on every suite cloning's miss rate is no higher than the plain
  analysis's.

Results land in ``BENCH_interprocedural.json``.
"""

from __future__ import annotations

import json

from benchmarks.conftest import emit
from repro.core import VRPPredictor
from repro.core.cloning import analyse_with_cloning
from repro.evalharness.accuracy import branch_errors, mean_error
from repro.ir import prepare_module
from repro.lang import compile_source

MODES = ("plain", "cloning")


def _weighted_miss_rate(records) -> float:
    """Execution-weighted rate of statically mispredicted directions."""
    total = sum(r.weight for r in records)
    if total == 0:
        return 0.0
    missed = sum(
        ((1.0 - r.actual) if r.predicted >= 0.5 else r.actual) * r.weight
        for r in records
    )
    return missed / total


def _predict(workload, mode: str):
    """``(probabilities, fallback branches, cloned?)`` keyed by the
    original ``(function, label)``."""
    module = compile_source(workload.source, module_name=workload.name)
    infos = prepare_module(module)
    if mode == "plain":
        prediction = VRPPredictor().predict_module(module, infos)
        return prediction.all_branches(), prediction.heuristic_branches(), False
    prediction, report, projected = analyse_with_cloning(module, infos)
    fallbacks = {
        (report.original_of.get(function, function), label)
        for function, label in prediction.heuristic_branches()
    }
    return projected, fallbacks, bool(report.variants)


def _measure_suite(prepared_workloads, mode: str) -> dict:
    heuristic = 0
    total = 0
    cloned = []
    per_workload = {}
    records = []
    for prepared in prepared_workloads:
        workload = prepared.workload
        probabilities, fallbacks, was_cloned = _predict(workload, mode)
        heuristic += len(fallbacks)
        total += len(probabilities)
        if was_cloned:
            cloned.append(workload.name)
        per_workload[workload.name] = {
            "heuristic_branches": len(fallbacks),
            "total_branches": len(probabilities),
        }
        records.extend(branch_errors(probabilities, prepared.truth_profile))
    return {
        "heuristic_branches": heuristic,
        "total_branches": total,
        "miss_rate_weighted": _weighted_miss_rate(records),
        "mean_error_weighted": mean_error(records, weighted=True),
        "cloned": cloned,
        "per_workload": per_workload,
    }


def _table(name: str, by_mode: dict) -> str:
    lines = [
        f"Calling contexts on the {name} suite",
        "",
        f"{'mode':<8s} {'fallback':>9s} {'branches':>9s} "
        f"{'miss rate':>10s} {'mean err':>9s}  cloned",
    ]
    for mode in MODES:
        row = by_mode[mode]
        lines.append(
            f"{mode:<8s} {row['heuristic_branches']:9d} "
            f"{row['total_branches']:9d} {row['miss_rate_weighted']:10.4f} "
            f"{row['mean_error_weighted']:9.3f}  {', '.join(row['cloned']) or '-'}"
        )
    return "\n".join(lines)


def test_cloning_on_every_suite(
    results_dir, prepared_inter_suite, prepared_int_suite, prepared_fp_suite
):
    report = {"benchmark": "interprocedural"}
    for name, prepared in (
        ("inter", prepared_inter_suite),
        ("int", prepared_int_suite),
        ("fp", prepared_fp_suite),
    ):
        by_mode = {mode: _measure_suite(prepared, mode) for mode in MODES}
        emit(results_dir, f"interprocedural_{name}.txt", _table(name, by_mode))
        plain, cloning = by_mode["plain"], by_mode["cloning"]
        assert cloning["total_branches"] == plain["total_branches"], (name, by_mode)
        if name == "inter":
            # The headline claim: divergent call sites stop poisoning
            # each other's summaries.
            assert (
                cloning["heuristic_branches"] < plain["heuristic_branches"]
            ), by_mode
        assert (
            cloning["miss_rate_weighted"] <= plain["miss_rate_weighted"] + 1e-12
        ), (name, by_mode)
        report[f"suite_{name}"] = by_mode

    (results_dir / "BENCH_interprocedural.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )

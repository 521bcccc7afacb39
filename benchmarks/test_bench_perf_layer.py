"""Perf-layer benchmark: cache hit rates, wall time and work counts.

Times whole-suite analysis from empty caches (cold) and warm, and
asserts the layer's contract:

* predictions and worklist counters are identical cold and warm;
* Figure-5/6 work counts stay byte-identical to the seed snapshot
  (``benchmarks/seed_work_counts.json``) -- memo hits replay their
  recorded sub-operation tally.

Emits ``BENCH_perf_layer.json`` with the wall times, aggregated cache
hit rates, and worklist-pressure counters.
"""

import json
import pathlib
import time

from benchmarks.conftest import emit
from repro.core import VRPConfig, VRPPredictor, perf
from repro.evalharness import measure_scaling, measure_workloads, synthetic_program
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.workloads import suite

SEED_PATH = pathlib.Path(__file__).parent / "seed_work_counts.json"

TIMING_ROUNDS = 5
SYNTHETIC_UNITS = [4, 8, 16, 32, 64]

WORKLIST_COUNTERS = (
    "flow_pushes",
    "ssa_pushes",
    "flow_dedup_hits",
    "ssa_dedup_hits",
)


def _prepare_suite():
    prepared = []
    for workload in suite("int") + suite("fp"):
        module = compile_source(workload.source, module_name=workload.name)
        prepared.append((workload.name, module, prepare_module(module)))
    return prepared


def _prepare_synthetic():
    prepared = []
    for units in SYNTHETIC_UNITS:
        module = compile_source(synthetic_program(units))
        prepared.append((f"units{units}", module, prepare_module(module)))
    return prepared


def _analyse(prepared, config, collect_caches=False):
    """One full pass; returns (predictions, worklist totals, cache stats)."""
    predictor = VRPPredictor(config=config)
    predictions = {}
    worklist = {name: 0 for name in WORKLIST_COUNTERS}
    caches: dict = {}
    for name, module, infos in prepared:
        prediction = predictor.predict_module(module, infos)
        predictions[name] = prediction.all_branches()
        counter_dict = prediction.counters.as_dict()
        for counter in WORKLIST_COUNTERS:
            worklist[counter] += counter_dict[counter]
        if collect_caches:
            # Stats reset per predict_module: aggregate across workloads.
            for cache_name, stats in perf.snapshot().items():
                bucket = caches.setdefault(
                    cache_name, {"hits": 0, "misses": 0, "evictions": 0}
                )
                for key in bucket:
                    bucket[key] += stats[key]
    for bucket in caches.values():
        probes = bucket["hits"] + bucket["misses"]
        bucket["hit_rate"] = round(bucket["hits"] / probes, 4) if probes else 0.0
    return predictions, worklist, caches


def _time_rounds(prepared, config, rounds=TIMING_ROUNDS):
    """Per-round wall times; round 1 starts from empty perf caches."""
    perf.reset()
    predictor = VRPPredictor(config=config)
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _, module, infos in prepared:
            predictor.predict_module(module, infos)
        times.append(time.perf_counter() - start)
    return times


def test_perf_layer_work_counts_and_hit_rates(results_dir):
    config = VRPConfig()
    suite_programs = _prepare_suite()
    synthetic_programs = _prepare_synthetic()

    # -- neutrality: cache state changes neither predictions nor counts --
    perf.reset()
    predictions_cold, worklist_cold, caches = _analyse(
        suite_programs, config, collect_caches=True
    )
    predictions_warm, worklist_warm, _ = _analyse(suite_programs, config)
    assert predictions_cold == predictions_warm
    assert worklist_cold == worklist_warm

    seed = json.loads(SEED_PATH.read_text())
    measured = {
        "scaling": measure_scaling(config=config),
        "workloads": measure_workloads(config=config),
    }
    work_counts_match = json.loads(json.dumps(measured)) == seed
    assert work_counts_match, "perf layer changed Figure-5/6 work counts"

    # -- wall time -------------------------------------------------------
    suite_rounds = _time_rounds(suite_programs, config)
    synthetic_rounds = _time_rounds(synthetic_programs, config)

    _, synthetic_worklist, _ = _analyse(synthetic_programs, config)

    report = {
        "suite": {
            "workloads": len(suite_programs),
            "seconds_cold": round(suite_rounds[0], 4),
            "seconds_warm": round(min(suite_rounds), 4),
            "worklist": worklist_cold,
            "cache_stats": caches,
        },
        "synthetic": {
            "units": SYNTHETIC_UNITS,
            "seconds_cold": round(synthetic_rounds[0], 4),
            "seconds_warm": round(min(synthetic_rounds), 4),
            "worklist": synthetic_worklist,
        },
        "neutrality": {
            "cold_equals_warm": True,
            "work_counts_match_seed": work_counts_match,
        },
    }
    (results_dir / "BENCH_perf_layer.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )

    lines = ["Perf layer: interning + memoization", ""]
    lines.append(f"{'collection':<12s} {'cold (s)':>9s} {'warm (s)':>9s}")
    for name, rounds in (("suite", suite_rounds), ("synthetic", synthetic_rounds)):
        lines.append(f"{name:<12s} {rounds[0]:>9.3f} {min(rounds):>9.3f}")
    lines.append("")
    lines.append(f"{'cache':<18s} {'hits':>9s} {'misses':>9s} {'hit rate':>9s}")
    for name in sorted(caches):
        bucket = caches[name]
        if bucket["hits"] + bucket["misses"] == 0:
            continue
        lines.append(
            f"{name:<18s} {bucket['hits']:>9d} {bucket['misses']:>9d} "
            f"{bucket['hit_rate']:>9.2f}"
        )
    emit(results_dir, "perf_layer.txt", "\n".join(lines))

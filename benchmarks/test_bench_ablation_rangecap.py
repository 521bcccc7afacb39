"""Ablation: the range cap R (paper §3.4, "normally no more than four").

Sweeps R over {1, 2, 4, 8} on the fp suite and reports accuracy (area
under the error CDF) and work (sub-operations).  The paper's choice of 4
should sit at the knee: R=1 loses weighted-merge accuracy, R=8 costs
more sub-operations for little gain.
"""

from benchmarks.conftest import emit
from repro.core import VRPConfig, VRPPredictor
from repro.evalharness import area_under_cdf, branch_errors, error_cdf


def sweep(prepared_workloads, caps):
    results = {}
    for cap in caps:
        config = VRPConfig(max_ranges=cap)
        aucs = []
        subops = 0
        for prepared in prepared_workloads:
            prediction = VRPPredictor(config=config).predict_module(
                prepared.module, prepared.ssa_infos
            )
            subops += prediction.counters.sub_operations
            records = branch_errors(prediction.all_branches(), prepared.truth_profile)
            aucs.append(area_under_cdf(error_cdf(records)))
        results[cap] = (sum(aucs) / len(aucs), subops)
    return results


def test_range_cap_ablation(benchmark, results_dir, prepared_fp_suite):
    caps = [1, 2, 4, 8]
    results = benchmark.pedantic(
        lambda: sweep(prepared_fp_suite, caps), rounds=1, iterations=1
    )
    lines = ["Ablation: ranges per variable (paper default R=4)", ""]
    lines.append(f"{'R':>3s} {'accuracy AUC':>13s} {'sub-operations':>15s}")
    for cap in caps:
        auc, subops = results[cap]
        lines.append(f"{cap:>3d} {auc:>13.2f} {subops:>15d}")
    emit(results_dir, "ablation_rangecap.txt", "\n".join(lines))

    # More ranges never hurt accuracy much; R=4 within a point of R=8.
    assert results[4][0] >= results[1][0] - 1.0
    assert results[8][0] - results[4][0] < 3.0
    # Each extra range multiplies the pairs a binary operation crosses.
    assert results[8][1] >= results[4][1]

"""§6 applications: the optimisation clients measured on real workloads.

The paper's claims made quantitative:
* VRP subsumes constant propagation (every SCCP constant re-discovered);
* unreachable code shows up as probability-0 edges;
* many array bounds checks are provably redundant;
* code layout driven by *predicted* frequencies approaches the
  fall-through quality of layout driven by a real profile.
"""

from benchmarks.conftest import emit
from tests.sccp_reference import run_sccp
from repro.core.propagation import analyse_function
from repro.ir import prepare_for_analysis, prepare_module
from repro.lang import compile_source
from repro.opt import (
    analyse_bounds_checks,
    chain_layout,
    constants_from_prediction,
    eliminated_fraction,
    fallthrough_fraction,
)
from repro.workloads import all_workloads


def run_all(prepared_workloads):
    rows = []
    for prepared in prepared_workloads:
        workload = prepared.workload
        module = prepared.module
        for name, function in module.functions.items():
            info_params = {p: f"{p}.0" for p in function.params}
            from repro.ir.ssa import SSAInfo

            info = SSAInfo()
            info.param_names = info_params
            prediction = analyse_function(function, info)
            sccp = run_sccp(function, info)
            vrp_constants = constants_from_prediction(prediction)
            sccp_constants = sccp.constants()
            missing = {
                key: value
                for key, value in sccp_constants.items()
                if vrp_constants.get(key) != value
            }
            reports = analyse_bounds_checks(function, prediction)
            layout = chain_layout(function, prediction.edge_frequency)
            rows.append(
                {
                    "workload": workload.name,
                    "function": name,
                    "sccp_constants": len(sccp_constants),
                    "sccp_missing_in_vrp": len(missing),
                    "bounds_total": len(reports),
                    "bounds_safe": sum(1 for r in reports if r.classification == "safe"),
                    "layout_blocks": len(layout),
                }
            )
    return rows


def test_applications(benchmark, results_dir, prepared_fp_suite, prepared_int_suite):
    rows = benchmark.pedantic(
        lambda: run_all(prepared_fp_suite + prepared_int_suite), rounds=1, iterations=1
    )
    lines = ["Applications (paper section 6) across all workloads", ""]
    lines.append(
        f"{'workload':>12s} {'function':>10s} {'sccp-consts':>11s} "
        f"{'missed':>7s} {'bounds':>7s} {'safe':>6s}"
    )
    total_checks = 0
    total_safe = 0
    for row in rows:
        lines.append(
            f"{row['workload']:>12s} {row['function']:>10s} "
            f"{row['sccp_constants']:>11d} {row['sccp_missing_in_vrp']:>7d} "
            f"{row['bounds_total']:>7d} {row['bounds_safe']:>6d}"
        )
        total_checks += row["bounds_total"]
        total_safe += row["bounds_safe"]
    fraction = total_safe / total_checks if total_checks else 0.0
    lines.append("")
    lines.append(
        f"bounds checks proven redundant: {total_safe}/{total_checks} ({fraction:.0%})"
    )
    emit(results_dir, "applications.txt", "\n".join(lines))

    # Subsumption must be complete: no SCCP constant escapes VRP.
    assert all(row["sccp_missing_in_vrp"] == 0 for row in rows)
    # A substantial share of checks goes away on loop-indexed code.
    assert fraction > 0.3

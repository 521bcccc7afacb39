"""Figure 4: the paper's worked example, regenerated.

Prints the value ranges and branch probabilities of the Figure 2
program and asserts the paper's exact numbers (91% / 20% / 30%), while
benchmarking a full analysis run.
"""

import pytest

from benchmarks.conftest import emit, emit_metrics
from repro.core.propagation import analyse_function
from repro.ir import prepare_for_analysis
from repro.lang import compile_source
from repro.commands import execute
from repro.observability import (
    Tracer,
    build_metrics_report,
    use,
    validate_report_dict,
)

PAPER_FIGURE_2 = """
func main(n) {
  var y = 0;
  for (x = 0; x < 10; x = x + 1) {
    if (x > 7) { y = 1; } else { y = x; }
    if (y == 1) { n = n + 1; }
  }
  return n;
}
"""


def run_analysis():
    module = compile_source(PAPER_FIGURE_2)
    function = module.function("main")
    info = prepare_for_analysis(function)
    return analyse_function(function, info)


def test_figure4_worked_example(benchmark, results_dir):
    prediction = benchmark(run_analysis)

    lines = ["Figure 4 reproduction: paper's worked example", ""]
    lines.append("Value ranges (SSA name: paper name):")
    paper_names = {
        "x.0": "x0", "x.1": "x1", "x.3": "x2", "x.4": "x3", "x.6": "x4",
        "x.7": "x5", "y.0": "y0", "y.2": "y1", "y.4": "y2",
    }
    for ssa_name, paper_name in paper_names.items():
        lines.append(f"  {paper_name:3s} ({ssa_name:5s}) = {prediction.values[ssa_name]}")
    lines.append("")
    lines.append("Branch probabilities (paper: x1<10 91%, x2>7 20%, y2==1 30%):")
    for label, probability in sorted(prediction.branch_probability.items()):
        lines.append(f"  {label:8s} {probability:6.2%}")
    emit(results_dir, "fig4_example.txt", "\n".join(lines))

    assert prediction.branch_probability["for1"] == pytest.approx(10 / 11)
    assert prediction.branch_probability["body2"] == pytest.approx(0.2)
    assert prediction.branch_probability["join7"] == pytest.approx(0.3)
    assert str(prediction.values["x.1"]) == "{ 1[0:10:1] }"
    assert str(prediction.values["x.3"]) == "{ 1[0:9:1] }"


def test_figure4_metrics_report(results_dir):
    """The worked example as a machine-readable BENCH_*.json report."""
    tracer = Tracer()
    with use(tracer):
        outcome = execute("predict", PAPER_FIGURE_2, "fig4", {})
    report = build_metrics_report(outcome.prediction, tracer, program="fig4")
    path = emit_metrics(results_dir, "fig4_metrics", report)

    assert path.exists()
    assert validate_report_dict(report.to_dict()) is None
    by_label = {record["label"]: record for record in report.branches}
    assert by_label["for1"]["probability"] == pytest.approx(10 / 11)
    assert by_label["body2"]["probability"] == pytest.approx(0.2)
    assert by_label["join7"]["probability"] == pytest.approx(0.3)
    assert all(record["source"] == "ranges" for record in report.branches)
    assert report.phases["propagate"]["count"] >= 1

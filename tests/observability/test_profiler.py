"""Profiler invariants: self/cum partition, stacks, hot functions."""

from repro.observability.profiler import (
    ROOT_SPAN,
    ProfileReport,
    profile_source,
)
from repro.observability.tracer import Tracer

SOURCE = """
func main(n) {
  s = 0;
  for (i = 0; i < n; i = i + 1) {
    if (i > 10) { s = s + 2; } else { s = s + 1; }
  }
  return s;
}
"""


def profiled():
    from repro.core import perf

    # Cold, as a fresh ``repro profile`` process is: a function the
    # front-end memo supplies opens no "ssa" span.
    perf.reset()
    return profile_source(SOURCE, module_name="prof")


class TestSelfTimes:
    def test_self_times_partition_the_wall_exactly(self):
        report = profiled().report
        # The root span's children tile it: sum(self) == wall with no
        # float tolerance needed beyond repr-level noise.
        assert abs(report.self_seconds_total - report.wall_seconds) < 1e-9
        assert report.wall_seconds > 0.0

    def test_cumulative_bounds_self(self):
        for span in profiled().report.spans:
            assert span.cum_seconds >= span.self_seconds >= 0.0
            assert span.count >= 1

    def test_expected_spans_present(self):
        names = {span.name for span in profiled().report.spans}
        assert ROOT_SPAN in names
        assert "pass:predict" in names
        assert "pipeline:predict" in names
        assert "analysis:prediction" in names
        assert {"lex", "parse", "lower", "ssa"} <= names


class TestProducts:
    def test_hot_functions_counted(self):
        report = profiled().report
        assert report.hot_functions
        name, count = report.hot_functions[0]
        assert name == "main"
        assert count > 0

    def test_collapsed_stacks_are_rooted_and_weighted(self):
        report = profiled().report
        rendered = report.render_collapsed()
        assert rendered
        for line in rendered.splitlines():
            stack, _, weight = line.rpartition(" ")
            assert stack.startswith(ROOT_SPAN)
            assert int(weight) > 0

    def test_collapsed_total_approximates_wall(self):
        # Collapsed weights are self-times in integer microseconds, so
        # their sum reconstructs the wall up to 1us truncation per span.
        report = profiled().report
        total_us = sum(report.collapsed.values())
        span_count = sum(span.count for span in report.spans)
        assert abs(total_us - report.wall_seconds * 1e6) <= span_count + 1

    def test_render_text_shows_the_invariant(self):
        report = profiled().report
        text = report.render_text()
        assert "wall:" in text and "self-time sum:" in text
        assert "pipeline: predict" in text

    def test_as_metrics_shape(self):
        metrics = profiled().report.as_metrics()
        assert set(metrics) == {
            "wall_seconds", "self_seconds_total", "pipeline", "spans",
            "hot_functions",
        }
        assert metrics["pipeline"] == ["predict"]
        for span in metrics["spans"]:
            assert set(span) == {"name", "count", "self_seconds", "cum_seconds"}


class TestFromTracer:
    def test_without_root_span_falls_back_to_top_level(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        report = ProfileReport.from_tracer(tracer)
        expected = sum(span.seconds for span in tracer.spans)
        assert abs(report.wall_seconds - expected) < 1e-9

    def test_open_spans_are_ignored(self):
        tracer = Tracer()
        open_span = tracer.span("open")
        open_span.__enter__()
        with tracer.span("closed"):
            pass
        open_span.__exit__(None, None, None)
        # Recorded with the open span still open at aggregation time:
        tracer2 = Tracer()
        hanging = tracer2.span("hanging")
        hanging.__enter__()
        with tracer2.span("done"):
            pass
        report = ProfileReport.from_tracer(tracer2)
        names = {span.name for span in report.spans}
        assert "hanging" not in names
        assert "done" in names
        hanging.__exit__(None, None, None)

    def test_explicit_passes_name_the_pipeline(self):
        session = profile_source(SOURCE, passes=["predict"])
        assert session.report.pipeline == ["predict"]

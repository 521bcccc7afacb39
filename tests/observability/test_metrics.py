"""MetricsReport: schema, JSON round-trips, and report assembly."""

import json

import pytest

from repro.commands import execute
from repro.observability import (
    MetricsReport,
    SCHEMA_KEYS,
    Tracer,
    build_metrics_report,
    use,
    validate_report_dict,
)

PROGRAM = """
func main(n) {
  var t = 0;
  for (i = 0; i < 10; i = i + 1) { t = t + i; }
  if (t > 1000) { t = 0; }
  return t;
}
"""


@pytest.fixture(scope="module")
def tracer():
    return Tracer()


@pytest.fixture(scope="module")
def prediction(tracer):
    with use(tracer):
        return execute("predict", PROGRAM, "roundtrip", {}).prediction


@pytest.fixture(scope="module")
def report(prediction, tracer):
    return build_metrics_report(prediction, tracer, program="roundtrip")


class TestSchema:
    def test_report_has_every_schema_key(self, report):
        data = report.to_dict()
        assert sorted(data) == sorted(SCHEMA_KEYS)
        assert validate_report_dict(data) is None

    def test_phases_cover_the_pipeline(self, report):
        for phase in ("lex", "parse", "lower", "ssa", "propagate", "predict"):
            assert phase in report.phases, phase
            assert report.phases[phase]["count"] >= 1
            assert report.phases[phase]["seconds"] >= 0.0

    def test_branch_records_carry_provenance(self, report):
        assert report.branches
        by_label = {record["label"]: record for record in report.branches}
        loop = by_label["for1"]
        assert loop["probability"] == pytest.approx(10 / 11)
        assert loop["source"] == "ranges"
        assert loop["cmp_op"] == "lt"
        assert loop["operands"][0][1] == "{ 1[0:10:1] }"

    def test_counters_and_meta_present(self, report):
        assert report.counters["expr_evaluations"] > 0
        assert report.meta["functions"] == 1
        assert report.meta["dropped_events"] == 0
        assert report.meta["event_counts"]["lattice.transition"] > 0


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self, report):
        clone = MetricsReport.from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()

    def test_write_and_read(self, report, tmp_path):
        path = tmp_path / "metrics.json"
        report.write(str(path))
        loaded = MetricsReport.read(str(path))
        assert loaded.to_dict() == report.to_dict()
        # The file itself is plain, valid JSON.
        assert validate_report_dict(json.loads(path.read_text())) is None

    def test_json_output_is_deterministic(self, report):
        assert report.to_json() == report.to_json()


class TestValidation:
    def test_missing_top_level_key_is_reported(self, report):
        data = report.to_dict()
        del data["phases"]
        assert "phases" in validate_report_dict(data)

    def test_bad_schema_version_is_reported(self, report):
        data = report.to_dict()
        data["schema_version"] = "one"
        assert "schema_version" in validate_report_dict(data)

    def test_incomplete_branch_record_is_reported(self, report):
        data = report.to_dict()
        data["branches"].append({"function": "main"})
        assert "label" in validate_report_dict(data)


class TestDegradedAssembly:
    def test_report_without_tracer_still_validates(self, prediction):
        report = build_metrics_report(prediction, tracer=None, program="bare")
        data = report.to_dict()
        assert validate_report_dict(data) is None
        assert data["phases"] == {}
        assert "event_counts" not in data["meta"]
        # Branch probabilities survive even without provenance events.
        by_label = {r["label"]: r for r in report.branches}
        assert by_label["for1"]["probability"] == pytest.approx(10 / 11)
        assert "cond" not in by_label["for1"]

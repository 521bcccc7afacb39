"""``repro profile``: the per-pass profiler command and its artifacts."""

import json

import pytest

from repro.cli import main
from repro.observability.chrometrace import validate_chrome_trace
from repro.observability.metrics import validate_report_dict

PROGRAM = """
func main(n) {
  var total = 0;
  for (i = 0; i < 50; i = i + 1) {
    if (i > 40) { total = total + i; }
  }
  return total;
}
"""


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "p.toy"
    path.write_text(PROGRAM, encoding="utf-8")
    return str(path)


class TestProfileCommand:
    def test_report_shows_spans_and_the_invariant(self, capsys, program):
        assert main(["profile", program]) == 0
        out = capsys.readouterr().out
        assert "wall:" in out
        assert "self-time sum:" in out
        assert "pass:predict" in out
        assert "pipeline:predict" in out
        assert "analysis:prediction" in out

    def test_hot_functions_listed(self, capsys, program):
        assert main(["profile", program, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "main" in out

    def test_collapsed_stacks_artifact(self, capsys, program, tmp_path):
        collapsed = tmp_path / "stacks.collapsed"
        assert main(["profile", program, "--collapsed", str(collapsed)]) == 0
        assert f"collapsed stacks written to {collapsed}" in capsys.readouterr().out
        lines = collapsed.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack.startswith("profile")
            assert int(weight) > 0

    def test_trace_out_is_a_valid_chrome_trace(self, capsys, program, tmp_path):
        trace = tmp_path / "profile-trace.json"
        assert main(["profile", program, "--trace-out", str(trace)]) == 0
        document = json.loads(trace.read_text(encoding="utf-8"))
        assert validate_chrome_trace(document) == []
        names = {event["name"] for event in document["traceEvents"]}
        assert "profile" in names
        assert "pipeline:predict" in names

    def test_emit_metrics_carries_profile_and_tracing(
        self, capsys, program, tmp_path
    ):
        metrics = tmp_path / "metrics.json"
        assert main(["profile", program, "--emit-metrics", str(metrics)]) == 0
        document = json.loads(metrics.read_text(encoding="utf-8"))
        assert validate_report_dict(document) is None
        assert document["schema_version"] == 9
        profile = document["profile"]
        assert profile["wall_seconds"] > 0
        assert any(
            span["name"] == "pass:predict" for span in profile["spans"]
        )

    def test_explicit_passes(self, capsys, program):
        assert main(["profile", program, "--passes", "predict"]) == 0
        out = capsys.readouterr().out
        assert "pass:predict" in out

    def test_broken_program_exits_with_error(self, capsys, tmp_path):
        path = tmp_path / "bad.toy"
        path.write_text("func main( { oops", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["profile", str(path)])

"""``repro check``: exit codes, output formats, metrics, sanitizer flag."""

import json

import pytest

from repro.cli import main
from repro.diagnostics import validate_sarif
from repro.observability import validate_report_dict

DEFECTIVE = """
func main() {
  var d = 0;
  var x = input() % 10;
  if (x < 20) {
    return 100 / d;
  }
  return 0;
}
"""

CLEAN = """
func main(n) {
  var t = 0;
  for (i = 0; i < 10; i = i + 1) { t = t + i; }
  return t;
}
"""


@pytest.fixture()
def defective_file(tmp_path):
    path = tmp_path / "defective.toy"
    path.write_text(DEFECTIVE)
    return str(path)


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.toy"
    path.write_text(CLEAN)
    return str(path)


class TestExitCodes:
    def test_clean_program_exits_zero(self, clean_file, capsys):
        assert main(["check", clean_file]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_error_finding_fails(self, defective_file):
        assert main(["check", defective_file]) == 1

    def test_fail_on_never_passes(self, defective_file):
        assert main(["check", defective_file, "--fail-on", "never"]) == 0

    def test_fail_on_warning_catches_warnings(self, tmp_path):
        path = tmp_path / "warn.toy"
        # Only a dead branch: a warning, not an error.
        path.write_text(
            "func main() { var n = 3; if (n > 5) { return 1; } return 0; }"
        )
        assert main(["check", str(path)]) == 0
        assert main(["check", str(path), "--fail-on", "warning"]) == 1


class TestFormats:
    def test_text_format(self, defective_file, capsys):
        main(["check", defective_file])
        out = capsys.readouterr().out
        assert "[div-by-zero]" in out
        assert "error" in out
        assert "finding(s)" in out

    def test_json_format(self, defective_file, capsys):
        main(["check", defective_file, "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in data["findings"]} >= {"div-by-zero"}
        assert data["summary"]["error"] >= 1

    def test_sarif_format_validates(self, defective_file, capsys):
        main(["check", defective_file, "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert validate_sarif(log) == []
        assert log["version"] == "2.1.0"

    def test_output_file(self, defective_file, tmp_path, capsys):
        out_path = tmp_path / "report.sarif"
        main([
            "check", defective_file,
            "--format", "sarif",
            "--output", str(out_path),
        ])
        assert "written to" in capsys.readouterr().out
        assert validate_sarif(json.loads(out_path.read_text())) == []


class TestMetrics:
    def test_emit_metrics_carries_findings(self, defective_file, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        main([
            "check", defective_file,
            "--fail-on", "never",
            "--emit-metrics", str(metrics_path),
        ])
        data = json.loads(metrics_path.read_text())
        assert validate_report_dict(data) is None
        assert data["schema_version"] == 9
        rules = {entry["rule"] for entry in data["diagnostics"]}
        assert "div-by-zero" in rules

    def test_clean_program_has_empty_diagnostics(self, clean_file, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        main(["check", clean_file, "--emit-metrics", str(metrics_path)])
        data = json.loads(metrics_path.read_text())
        assert data["diagnostics"] == []


class TestSanitize:
    def test_check_accepts_sanitize_flag(self, defective_file):
        assert main(["check", defective_file, "--sanitize",
                     "--fail-on", "never"]) == 0

    def test_predict_accepts_sanitize_flag(self, clean_file):
        assert main(["predict", clean_file, "--sanitize"]) == 0

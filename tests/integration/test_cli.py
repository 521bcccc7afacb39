"""Command-line interface tests."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

PROGRAM = """
func main(n) {
  var t = 0;
  for (i = 0; i < 10; i = i + 1) { t = t + i; }
  if (t > 1000) { t = 0; }
  return t;
}
"""


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "program.toy"
    path.write_text(PROGRAM)
    return str(path)


class TestPredict:
    def test_predict_prints_branches(self, program_file, capsys):
        assert main(["predict", program_file]) == 0
        out = capsys.readouterr().out
        assert "main" in out
        assert "90.9%" in out  # the 10/11 loop branch

    def test_numeric_flag_accepted(self, program_file, capsys):
        assert main(["predict", program_file, "--numeric", "--intra"]) == 0
        assert "main" in capsys.readouterr().out

    def test_max_ranges_flag(self, program_file, capsys):
        assert main(["predict", program_file, "--max-ranges", "2"]) == 0


class TestOtherCommands:
    def test_ir_dump(self, program_file, capsys):
        assert main(["ir", program_file]) == 0
        out = capsys.readouterr().out
        assert "phi" in out
        assert "pi" in out  # assertions present

    def test_ranges_dump(self, program_file, capsys):
        assert main(["ranges", program_file]) == 0
        out = capsys.readouterr().out
        assert "func main:" in out
        assert "[0:10:1]" in out

    def test_run_with_profile(self, program_file, capsys):
        assert main(["run", program_file, "--args", "0", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "return value: 45" in out
        assert "90.9%" in out

    def test_run_with_inputs(self, tmp_path, capsys):
        path = tmp_path / "echo.toy"
        path.write_text("func main(n) { return input() + input(); }")
        assert main(["run", str(path), "--args", "0", "--inputs", "20,22"]) == 0
        assert "return value: 42" in capsys.readouterr().out

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out
        assert "tokenize" in out

    def test_evaluate_single_workload(self, capsys):
        assert main(["evaluate", "--workload", "interp"]) == 0
        out = capsys.readouterr().out
        assert "vrp" in out
        assert "profile" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestTrace:
    def test_trace_prints_timings_events_and_counters(self, program_file, capsys):
        assert main(["trace", program_file]) == 0
        out = capsys.readouterr().out
        assert "phase timings:" in out
        for phase in ("lex", "parse", "lower", "ssa", "propagate", "predict"):
            assert phase in out
        assert "event counts:" in out
        assert "lattice.transition" in out
        assert "counters:" in out
        assert "expr_evaluations" in out

    def test_trace_jsonl_dumps_the_event_stream(self, program_file, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(["trace", program_file, "--jsonl", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "worklist.push" in kinds
        assert "lattice.transition" in kinds
        assert "branch.resolve" in kinds

    def test_trace_missing_file_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "/no/such/file.toy"])
        assert "no such file" in str(excinfo.value)


class TestExplain:
    def test_explain_names_controlling_range(self, program_file, capsys):
        assert main(["explain", program_file, "main/for1"]) == 0
        out = capsys.readouterr().out
        assert "P(true) = 90.9%" in out
        assert "predicted from value ranges" in out
        assert "{ 1[0:10:1] }" in out

    def test_explain_bare_label_and_whole_function(self, program_file, capsys):
        assert main(["explain", program_file, "for1"]) == 0
        assert "main/for1" in capsys.readouterr().out
        assert main(["explain", program_file, "main"]) == 0
        out = capsys.readouterr().out
        assert "main/for1" in out and "main/exit4" in out

    def test_explain_heuristic_fallback_branch(self, tmp_path, capsys):
        path = tmp_path / "bottom.toy"
        path.write_text(
            "func main(n) {\n"
            "  var v = input();\n"
            "  if (v < 0) { return 0; }\n"
            "  return 1;\n"
            "}\n"
        )
        assert main(["explain", str(path), "main"]) == 0
        out = capsys.readouterr().out
        assert "heuristic fallback (controlling range is bottom)" in out
        assert "Ball-Larus heuristic chain" in out

    def test_explain_unknown_branch_lists_known(self, program_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["explain", program_file, "main/nope"])
        message = str(excinfo.value)
        assert "known branches" in message
        assert "main/for1" in message


class TestEmitMetrics:
    def test_predict_emit_metrics_writes_valid_report(
        self, program_file, tmp_path, capsys
    ):
        from repro.observability import validate_report_dict

        path = tmp_path / "metrics.json"
        assert main(["predict", program_file, "--emit-metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"metrics written to {path}" in out
        data = json.loads(path.read_text())
        assert validate_report_dict(data) is None
        assert data["schema_version"] == 8

    def test_emitted_probabilities_match_predict_output(
        self, program_file, tmp_path, capsys
    ):
        path = tmp_path / "metrics.json"
        assert main(["predict", program_file, "--emit-metrics", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        by_label = {record["label"]: record for record in data["branches"]}
        assert by_label["for1"]["probability"] == pytest.approx(10 / 11)
        assert by_label["for1"]["source"] == "ranges"
        # The plain predict output quotes the same number.
        assert main(["predict", program_file]) == 0
        assert "90.9%" in capsys.readouterr().out

    def test_evaluate_emit_metrics_single_workload(self, tmp_path, capsys):
        from repro.observability import validate_report_dict

        path = tmp_path / "workload.json"
        assert (
            main(["evaluate", "--workload", "interp", "--emit-metrics", str(path)])
            == 0
        )
        data = json.loads(path.read_text())
        assert validate_report_dict(data) is None
        assert data["program"] == "interp"
        assert data["counters"]["expr_evaluations"] > 0


class TestErrorHandling:
    def test_missing_file_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "/no/such/file.toy"])
        assert "no such file" in str(excinfo.value)

    def test_syntax_error_exits_cleanly(self, tmp_path):
        path = tmp_path / "bad.toy"
        path.write_text("func main(n) { returm 0; }")
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", str(path)])
        assert "error:" in str(excinfo.value)

    @pytest.mark.parametrize("command", ["predict", "check", "ranges", "ir", "trace"])
    def test_undecodable_file_exits_cleanly(self, command, tmp_path):
        path = tmp_path / "binary.toy"
        path.write_bytes(b"\xff\xfe")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", command, str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert completed.returncode == 1
        assert completed.stderr.startswith(
            f"error: cannot decode {path} as UTF-8: "
        )
        assert "Traceback" not in completed.stderr

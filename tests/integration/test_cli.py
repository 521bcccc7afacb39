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


class TestStoreDir:
    @pytest.mark.parametrize("command", ["predict", "check"])
    def test_a_store_dir_alone_turns_replay_on(self, command, tmp_path, capsys, monkeypatch):
        # ``--store-dir`` without ``--incremental``: the first run fills
        # the directory, the second replays every component from it, and
        # both print what a cold run prints.
        from tests.incremental.helpers import MULTI_COMPONENT

        program = tmp_path / "p.toy"
        program.write_text(MULTI_COMPONENT)
        store = tmp_path / "store"
        monkeypatch.chdir(tmp_path)
        main([command, str(program), "--emit-metrics", "cold.json"])
        cold = capsys.readouterr().out
        outcomes = []
        for run in ("first", "second"):
            metrics = tmp_path / f"{run}.json"
            main([command, "--store-dir", str(store), str(program),
                  "--emit-metrics", str(metrics)])
            out = capsys.readouterr().out
            assert out.replace(str(metrics), "cold.json") == cold
            outcomes.append(json.loads(metrics.read_text())["incremental"])
        assert any(files for _, _, files in os.walk(store))
        first, second = outcomes
        assert first["replayed"] == 0 and first["reanalyzed"] > 0
        assert second["reanalyzed"] == 0
        assert second["replayed"] == first["reanalyzed"]


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


def nested_program(kind: str, depth: int) -> str:
    """A program nested exactly ``depth`` deep (the function body is 1)."""
    k = depth - 1
    bodies = {
        "parens": "var x = " + "(" * k + "n" + ")" * k + "; return x;",
        "ifs": "var x = 0; " + "if (n > 1) { " * k + "x = x + 1; " + "} " * k + "return x;",
        "unary": "var x = " + "-" * k + "n; return x;",
        "calls": "var x = " + "f(" * k + "n" + ")" * k + "; return x;",
        "index": "array a[4]; var x = " + "a[" * k + "0" + "]" * k + "; return x;",
    }
    return "func f(a) { return a + 1; } func main(n) { " + bodies[kind] + " }"


def run_cli(command, path):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro", command, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestMalformedPrograms:
    """Programs that used to end in a traceback exit 1 with one error line."""

    @pytest.mark.parametrize("command", ["predict", "check", "ranges"])
    def test_superscript_digit_is_a_lex_error(self, command, tmp_path):
        path = tmp_path / "super.toy"
        path.write_text("func main() { var x = 2²; return x; }", encoding="utf-8")
        completed = run_cli(command, path)
        assert completed.returncode == 1
        assert completed.stderr == (
            "error: lex error at 1:24: unexpected character '²'\n"
        )

    @pytest.mark.parametrize("kind", ["parens", "ifs"])
    def test_one_level_past_the_cap_is_a_parse_error(self, kind, tmp_path):
        from repro.lang.parser import MAX_NESTING

        path = tmp_path / "deep.toy"
        path.write_text(nested_program(kind, MAX_NESTING + 1))
        completed = run_cli("predict", path)
        assert completed.returncode == 1
        assert f"nesting deeper than {MAX_NESTING}" in completed.stderr
        assert completed.stderr.startswith("error: parse error at ")
        assert "Traceback" not in completed.stderr

    @pytest.mark.parametrize("kind", ["parens", "ifs", "unary", "calls", "index"])
    @pytest.mark.parametrize("command", ["predict", "check", "ranges"])
    def test_a_program_at_the_cap_is_analysed(self, kind, command, tmp_path, capsys):
        from repro.lang.parser import MAX_NESTING

        path = tmp_path / "deep.toy"
        path.write_text(nested_program(kind, MAX_NESTING))
        assert main([command, str(path)]) == 0
        assert capsys.readouterr().out


DIVIDE = "func main(n) { var x = input(); return 10 / x; }\n"


class TestRunErrors:
    """A program that fails at run time prints the line submit prints."""

    @pytest.mark.parametrize(
        "source,argv,options,message",
        [
            (DIVIDE, ["--args", "1", "--inputs", "0"], {"args": [1], "inputs": [0]},
             "division by zero"),
            (DIVIDE, [], {}, "main expects 1 args, got 0"),
            (None, ["--args", "5", "--max-steps", "3"], {"args": [5], "max_steps": 3},
             "exceeded 3 steps"),
        ],
        ids=["division-by-zero", "missing-argument", "step-limit"],
    )
    def test_error_line_not_traceback(self, source, argv, options, message, tmp_path):
        from repro.server.service import analyze_payload

        if source is None:
            path = os.path.join(os.path.dirname(SRC), "examples", "countdown.toy")
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        else:
            path = tmp_path / "fails.toy"
            path.write_text(source)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(path), *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert completed.returncode == 1
        assert completed.stdout == ""
        assert completed.stderr == f"error: {message}\n"
        # `repro submit --command run` prints "error: " + this.
        assert analyze_payload("run", source, str(path), options)["error"] == message


def usage_error(argv, capsys):
    """Exit status and stderr of an argv that must not get past argparse."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code, capsys.readouterr().err


#: Every subcommand with the analysis flags, as argv before the flags.
ANALYSIS_COMMANDS = {
    "predict": ["predict", "{file}"],
    "check": ["check", "{file}"],
    "ranges": ["ranges", "{file}"],
    "explain": ["explain", "{file}", "main"],
    "trace": ["trace", "{file}"],
    "profile": ["profile", "{file}"],
    "opt": ["opt", "{file}"],
    "watch": ["watch", "{file}", "--max-cycles", "1"],
    "submit": ["submit", "{file}", "--port", "1"],
    "serve": ["serve", "--port", "0"],
}


class TestOptionBounds:
    """Out-of-range options are usage errors carrying the table's message."""

    @pytest.mark.parametrize("command", sorted(ANALYSIS_COMMANDS))
    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--max-ranges", "0", "argument --max-ranges: must be >= 1"),
            ("--context-depth", "-3", "argument --context-depth: must be >= 0"),
            ("--max-ranges", "two", "argument --max-ranges: must be an integer"),
        ],
    )
    def test_analysis_bounds(
        self, command, flag, value, message, program_file, capsys, monkeypatch
    ):
        def serve_daemon(**settings):
            pytest.fail(f"serve started with {settings}")

        monkeypatch.setattr("repro.server.serve_daemon", serve_daemon)
        argv = [part.format(file=program_file) for part in ANALYSIS_COMMANDS[command]]
        code, err = usage_error(argv + [flag, value], capsys)
        assert code == 2
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["serve", "--port", "0", "--shards", "0"], "--shards: must be >= 1"),
            (["serve", "--port", "0", "--queue-size", "0"],
             "--queue-size: must be >= 1"),
            (["serve", "--port", "0", "--memory-cache", "-5"],
             "--memory-cache: must be >= 0"),
            (["serve", "--port", "0", "--max-request-bytes", "-1"],
             "--max-request-bytes: must be >= 1"),
            (["check", "{file}", "--jobs", "0"], "--jobs: must be >= 1"),
            (["evaluate", "--workload", "fir", "--jobs", "0"], "--jobs: must be >= 1"),
            (["submit", "{file}", "--port", "1", "--jobs", "0"],
             "--jobs: must be >= 1"),
        ],
    )
    def test_cli_only_bounds(self, argv, message, program_file, capsys, monkeypatch):
        def serve_daemon(**settings):
            pytest.fail(f"serve started with {settings}")

        monkeypatch.setattr("repro.server.serve_daemon", serve_daemon)
        argv = [part.format(file=program_file) for part in argv]
        code, err = usage_error(argv, capsys)
        assert code == 2
        assert err.endswith(f"error: argument {message}\n")

    def test_evaluate_context_depth_is_not_clamped(self, capsys):
        code, err = usage_error(
            ["evaluate", "--workload", "fir", "--context-depth", "-3"], capsys
        )
        assert code == 2
        assert err.endswith("error: argument --context-depth: must be >= 0\n")

    @pytest.mark.parametrize("command", ["run", "submit"])
    @pytest.mark.parametrize("flag", ["--args", "--inputs"])
    def test_int_lists(self, command, flag, program_file, capsys):
        code, err = usage_error([command, program_file, flag, "abc"], capsys)
        assert code == 2
        assert err.endswith(f"error: argument {flag}: must be a list of integers\n")

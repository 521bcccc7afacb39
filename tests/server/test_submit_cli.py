"""``repro submit``: the client CLI against a live in-process daemon."""

import json

import pytest

from repro.cli import main
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

OTHER = "func main(n) { if (n > 0) { return 1; } return 0; }"

BROKEN = "func main( { oops"


@pytest.fixture
def served(start_server):
    server, _ = start_server(queue_size=8)
    return server


def submit(served, *argv):
    return main(["submit", "--port", str(served.port), *argv])


class TestSingleFile:
    def test_byte_parity_with_one_shot_predict(self, capsys, tmp_path, served):
        path = tmp_path / "p.toy"
        path.write_text(PROGRAM, encoding="utf-8")
        assert main(["predict", str(path)]) == 0
        expected = capsys.readouterr().out
        assert submit(served, str(path)) == 0
        assert capsys.readouterr().out == expected

    def test_byte_parity_for_check(self, capsys, tmp_path, served):
        path = tmp_path / "p.toy"
        path.write_text(PROGRAM, encoding="utf-8")
        code = main(["check", str(path)])
        expected = capsys.readouterr().out
        assert submit(served, "--command", "check", str(path)) == code
        assert capsys.readouterr().out == expected

    def test_run_with_args(self, capsys, tmp_path, served):
        path = tmp_path / "p.toy"
        path.write_text(OTHER, encoding="utf-8")
        assert main(["run", str(path), "--args", "7"]) == 0
        expected = capsys.readouterr().out
        code = submit(
            served, "--command", "run", "--args", "7", str(path)
        )
        assert code == 0
        assert capsys.readouterr().out == expected

    def test_stdin_submission(self, capsys, monkeypatch, served):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(PROGRAM))
        assert submit(served, "-") == 0
        out = capsys.readouterr().out
        assert out.startswith("function")

    def test_verbose_reports_cache_state(self, capsys, tmp_path, served):
        path = tmp_path / "p.toy"
        path.write_text(PROGRAM, encoding="utf-8")
        submit(served, str(path))
        capsys.readouterr()
        submit(served, "--verbose", str(path))
        err = capsys.readouterr().err
        assert "cached=memory" in err
        assert "key=" in err


class TestMultiFile:
    def test_headers_and_order(self, capsys, tmp_path, served):
        paths = []
        for index, source in enumerate((PROGRAM, OTHER)):
            path = tmp_path / f"p{index}.toy"
            path.write_text(source, encoding="utf-8")
            paths.append(str(path))
        assert submit(served, *paths) == 0
        out = capsys.readouterr().out
        assert out.index(f"== {paths[0]} ==") < out.index(f"== {paths[1]} ==")

    def test_broken_file_fails_alone(self, capsys, tmp_path, served):
        good = tmp_path / "good.toy"
        good.write_text(PROGRAM, encoding="utf-8")
        bad = tmp_path / "bad.toy"
        bad.write_text(BROKEN, encoding="utf-8")
        code = submit(served, str(good), str(bad))
        assert code == 1
        captured = capsys.readouterr()
        assert "function" in captured.out  # the good file still rendered
        assert "error:" in captured.err

    def test_stdin_must_be_alone(self, tmp_path, served):
        path = tmp_path / "p.toy"
        path.write_text(PROGRAM, encoding="utf-8")
        with pytest.raises(SystemExit):
            submit(served, "-", str(path))


class TestFailureModes:
    def test_unreachable_daemon_exits_with_error(self, tmp_path):
        path = tmp_path / "p.toy"
        path.write_text(PROGRAM, encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            # Port 1 is never listening.
            main(["submit", "--port", "1", "--http-timeout", "1", str(path)])
        assert "error:" in str(excinfo.value)

    def test_missing_file(self, served):
        with pytest.raises(SystemExit):
            submit(served, "no-such-file.toy")


class TestEmitMetrics:
    def test_writes_a_valid_v5_document(self, capsys, tmp_path, served):
        path = tmp_path / "p.toy"
        path.write_text(PROGRAM, encoding="utf-8")
        out_path = tmp_path / "metrics.json"
        assert submit(served, "--emit-metrics", str(out_path), str(path)) == 0
        assert f"metrics written to {out_path}" in capsys.readouterr().out
        document = json.loads(out_path.read_text(encoding="utf-8"))
        assert validate_report_dict(document) is None
        assert document["schema_version"] == 9
        assert document["server"]["endpoints"]["/v1/predict"]["count"] >= 1


class TestVerboseProvenance:
    def test_degraded_response_prints_the_reason(
        self, capsys, tmp_path, start_server
    ):
        server, _ = start_server(queue_size=8, timeout_s=0.0)
        path = tmp_path / "p.toy"
        path.write_text(PROGRAM, encoding="utf-8")
        assert submit(server, "--verbose", str(path)) == 0
        err = capsys.readouterr().err
        assert "degraded=True" in err
        assert "reason=" in err
        assert "deadline" in err

    def test_error_response_prints_the_error(self, capsys, tmp_path, served):
        path = tmp_path / "bad.toy"
        path.write_text(BROKEN, encoding="utf-8")
        assert submit(served, "--verbose", str(path)) == 1
        err = capsys.readouterr().err
        assert "status=error" in err
        assert "error=" in err

    def test_verbose_line_carries_the_trace_id(self, capsys, tmp_path, served):
        path = tmp_path / "p.toy"
        path.write_text(PROGRAM, encoding="utf-8")
        trace = tmp_path / "trace.json"
        code = submit(
            served, "--verbose", "--trace-out", str(trace), str(path)
        )
        assert code == 0
        err = capsys.readouterr().err
        document = json.loads(trace.read_text(encoding="utf-8"))
        assert f"trace_id={document['otherData']['trace_id']}" in err


class TestTraceOut:
    def test_writes_a_valid_chrome_trace(self, capsys, tmp_path, served):
        from repro.observability.chrometrace import validate_chrome_trace

        path = tmp_path / "p.toy"
        path.write_text(PROGRAM, encoding="utf-8")
        trace = tmp_path / "trace.json"
        assert submit(served, "--trace-out", str(trace), str(path)) == 0
        assert f"trace written to {trace}" in capsys.readouterr().out
        document = json.loads(trace.read_text(encoding="utf-8"))
        assert validate_chrome_trace(document) == []
        names = [event["name"] for event in document["traceEvents"]]
        # The client-side submit span plus the server's wire spans.
        assert any(name.startswith("submit:") for name in names)
        assert "request" in names

    def test_trace_out_does_not_change_stdout(self, capsys, tmp_path, served):
        path = tmp_path / "p.toy"
        path.write_text(PROGRAM, encoding="utf-8")
        assert main(["predict", str(path)]) == 0
        expected = capsys.readouterr().out
        trace = tmp_path / "trace.json"
        assert submit(served, "--trace-out", str(trace), str(path)) == 0
        out = capsys.readouterr().out
        # Only the trailing "trace written to" line is added.
        assert out.splitlines()[-1].startswith("trace written to")
        assert out.splitlines()[:-1] == expected.splitlines()

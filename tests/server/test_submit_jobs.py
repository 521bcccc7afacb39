"""``repro submit --jobs N``: concurrent fan-out, deterministic output."""

import pytest

from repro.cli import main
from repro.server import ServeClient
from repro.server.loadgen import make_corpus

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
    return start_server(queue_size=32)


class TestAnalyzeMany:
    def test_results_in_submission_order(self, served):
        _, client = served
        sources = make_corpus(12)
        items = [
            {"command": "predict", "source": source, "name": f"p{index}"}
            for index, source in enumerate(sources)
        ]
        sequential = client.analyze_many(items, jobs=1)
        concurrent = client.analyze_many(items, jobs=4)
        assert [r["output"] for r in concurrent] == [
            r["output"] for r in sequential
        ]
        assert [r["key"] for r in concurrent] == [r["key"] for r in sequential]

    def test_jobs_must_be_positive(self, served):
        _, client = served
        with pytest.raises(ValueError):
            client.analyze_many([], jobs=0)

    def test_failed_item_fills_its_slot(self, served):
        _, client = served
        items = [
            {"command": "predict", "source": PROGRAM},
            {"command": "predict", "source": BROKEN},
            {"command": "ir", "source": OTHER},
        ]
        results = client.analyze_many(items, jobs=3)
        assert results[0]["status"] == "ok"
        assert results[1]["status"] == "error"
        assert results[2]["status"] == "ok"

    def test_transport_failure_is_an_error_slot_not_an_exception(self):
        client = ServeClient(port=1)  # nothing listens there
        results = client.analyze_many(
            [{"command": "predict", "source": PROGRAM}], jobs=2
        )
        assert results[0]["status"] == "error"
        assert results[0]["http_status"] is None
        assert "cannot reach" in results[0]["error"]

    def test_unknown_command_goes_through_analyze_route(self, served):
        _, client = served
        results = client.analyze_many(
            [{"command": "bogus", "source": PROGRAM}], jobs=1
        )
        assert results[0]["status"] == "error"


class TestSubmitJobsCLI:
    def _write_corpus(self, tmp_path, count=6):
        paths = []
        for index, source in enumerate(make_corpus(count)):
            path = tmp_path / f"p{index}.toy"
            path.write_text(source, encoding="utf-8")
            paths.append(str(path))
        return paths

    def test_jobs_output_is_byte_identical_to_sequential(
        self, capsys, tmp_path, served
    ):
        server, _ = served
        paths = self._write_corpus(tmp_path)
        code = main(["submit", "--port", str(server.port), *paths])
        sequential = capsys.readouterr().out
        assert code == 0
        code = main(
            ["submit", "--port", str(server.port), "--jobs", "4", *paths]
        )
        fanned_out = capsys.readouterr().out
        assert code == 0
        assert fanned_out == sequential

    def test_jobs_against_sharded_daemon(self, capsys, tmp_path, start_server):
        server, _ = start_server(shards=2, queue_size=32)
        paths = self._write_corpus(tmp_path)
        code = main(["submit", "--port", str(server.port), *paths])
        sequential = capsys.readouterr().out
        code2 = main(
            ["submit", "--port", str(server.port), "--jobs", "3", *paths]
        )
        fanned_out = capsys.readouterr().out
        assert (code, code2) == (0, 0)
        assert fanned_out == sequential

    def test_single_file_ignores_jobs(self, capsys, tmp_path, served):
        server, _ = served
        path = tmp_path / "p.toy"
        path.write_text(PROGRAM, encoding="utf-8")
        code = main(
            ["submit", "--port", str(server.port), "--jobs", "8", str(path)]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("function")

    def test_jobs_propagates_worst_exit_code(self, capsys, tmp_path, served):
        server, _ = served
        good = tmp_path / "good.toy"
        good.write_text(PROGRAM, encoding="utf-8")
        bad = tmp_path / "bad.toy"
        bad.write_text(BROKEN, encoding="utf-8")
        code = main(
            [
                "submit", "--port", str(server.port), "--jobs", "2",
                str(good), str(bad),
            ]
        )
        capsys.readouterr()
        assert code == 1

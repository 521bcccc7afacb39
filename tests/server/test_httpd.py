"""The HTTP daemon: endpoints, backpressure, degradation, drain, CLI."""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.observability import context as tracecontext
from repro.observability.metrics import validate_report_dict
from repro.server import ServeClient, ServerError, ShardedServer

PROGRAM = """
func main(n) {
  var total = 0;
  for (i = 0; i < 100; i = i + 1) {
    if (i > 90) { total = total + i; }
  }
  return total;
}
"""

OTHER = "func main(n) { if (n > 0) { return 1; } return 0; }"


def raw_post(port, path, body_bytes, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("POST", path, body=body_bytes, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def raw_exchange(port, request, half_close=False):
    """Send raw request bytes; everything the daemon wrote before closing."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return raw
            raw += chunk


def post_bytes(path, body):
    return (
        f"POST {path} HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def wait_inflight(server, count):
    deadline = time.monotonic() + 5
    while server.inflight() < count and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.inflight() == count


def post_in_background(client, outcome):
    def post():
        try:
            outcome["response"] = client.analyze("predict", PROGRAM)
        except ServerError as error:
            outcome["error"] = error

    poster = threading.Thread(target=post, daemon=True)
    poster.start()
    return poster


class TestEndpoints:
    def test_healthz(self, served):
        _, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["inflight"] == 0

    def test_predict_roundtrip(self, served):
        _, client = served
        response = client.analyze("predict", PROGRAM)
        assert response["status"] == "ok"
        assert response["output"].startswith("function")
        assert response["cached"] is None
        assert client.analyze("predict", PROGRAM)["cached"] == "memory"

    def test_analyze_route_takes_command_from_body(self, served):
        _, client = served
        status, document = client.request_json(
            "POST", "/v1/analyze", {"command": "ir", "source": PROGRAM}
        )
        assert status == 200
        assert document["command"] == "ir"

    def test_command_endpoint_mismatch_is_rejected(self, served):
        _, client = served
        status, document = client.request_json(
            "POST", "/v1/predict", {"command": "ir", "source": PROGRAM}
        )
        assert status == 400
        assert "endpoint" in document["error"]

    def test_batch_preserves_order(self, served):
        _, client = served
        items = [
            {"command": "run", "source": f"func main(n) {{ return {i}; }}",
             "options": {"args": [0]}}
            for i in range(5)
        ]
        results = client.batch(items)
        assert [r["output"].splitlines()[0] for r in results] == [
            f"return value: {i}" for i in range(5)
        ]

    def test_unknown_routes_404(self, served):
        server, client = served
        status, _ = client.request_json("GET", "/nope")
        assert status == 404
        status, _, _ = raw_post(server.port, "/v1/nope", b"{}")
        assert status == 404

    def test_metricsz_is_a_valid_v5_document(self, served):
        _, client = served
        client.analyze("predict", PROGRAM)
        document = client.metricsz()
        assert validate_report_dict(document) is None
        assert document["schema_version"] == 8
        assert document["program"] == "repro-serve"
        server_block = document["server"]
        assert server_block["endpoints"]["/v1/predict"]["count"] == 1
        assert "le_1ms" in server_block["endpoints"]["/v1/predict"]["histogram"]
        assert server_block["cache"]["memory"]["entries"] == 1
        assert server_block["tracer"]["event_counts"]["server.request.begin"] >= 1


class TestRejection:
    def test_bad_json_is_400(self, served):
        server, _ = served
        status, _, body = raw_post(server.port, "/v1/predict", b"{not json")
        assert status == 400
        assert b"not valid JSON" in body

    def test_over_nested_program_is_a_parse_error_not_a_500(self, served):
        # Deep enough to exhaust Python's recursion limit without the
        # nesting cap: the answer must be the parse error, not a 500.
        from repro.lang.parser import MAX_NESTING

        server, _ = served
        source = "func main(n) { return " + "(" * 300 + "n" + ")" * 300 + "; }"
        body = json.dumps({"source": source}).encode("utf-8")
        status, _, raw = raw_post(server.port, "/v1/predict", body)
        document = json.loads(raw)
        assert status == 200
        assert document["status"] == "error"
        assert document["error"].startswith("parse error at 1:")
        assert f"nesting deeper than {MAX_NESTING}" in document["error"]

    def test_missing_length_is_411(self, served):
        server, _ = served
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/predict")
            connection.endheaders()
            assert connection.getresponse().status == 411
        finally:
            connection.close()

    def test_oversized_body_is_413(self, start_server):
        server, client = start_server(queue_size=2, max_request_bytes=64)
        with pytest.raises(ServerError) as excinfo:
            client.analyze("predict", PROGRAM)
        assert excinfo.value.status == 413
        assert server.stats.snapshot()["rejected"]["too_large"] == 1

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ShardedServer(port=0, shards=0)
        with pytest.raises(ValueError, match="queue_size must be >= 1"):
            ShardedServer(port=0, shards=1, queue_size=0)

    def test_protocol_violation_is_400(self, served):
        _, client = served
        with pytest.raises(ServerError) as excinfo:
            client.analyze("predict", PROGRAM, options={"typo": True})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("length", ["\u00b2", "\u00b3", "\u00b9"])
    def test_non_ascii_length_is_411(self, served, length):
        # Superscript digits pass str.isdigit() but not int().
        server, client = served
        raw = raw_exchange(server.port, (
            f"POST /v1/predict HTTP/1.0\r\nContent-Length: {length}\r\n\r\n{{}}"
        ).encode("latin-1"))
        assert raw.startswith(b"HTTP/1.0 411 ")
        assert b"Content-Length required" in raw
        assert client.healthz()["status"] == "ok"

    def test_huge_content_length_is_413(self, served):
        # Past int()'s 4,300-digit cap: refused by size, not a 500.
        server, client = served
        raw = raw_exchange(server.port, (
            "POST /v1/predict HTTP/1.0\r\nContent-Length: " + "9" * 5000
            + "\r\n\r\n{}"
        ).encode("latin-1"))
        assert raw.startswith(b"HTTP/1.0 413 ")
        assert b"5000-digit length exceeds the" in raw
        assert client.healthz()["status"] == "ok"

    def test_json_nested_too_deep_is_400(self, served):
        server, client = served
        raw = raw_exchange(server.port, post_bytes("/v1/predict", b"[" * 100_000))
        assert raw.startswith(b"HTTP/1.0 400 ")
        assert b"body is not valid JSON" in raw
        assert client.healthz()["status"] == "ok"

    def test_unknown_keys_never_reach_the_shard(self, served):
        # Deep enough that pickling it for the shard would recurse too far.
        server, client = served
        extra = "[" * 500 + "]" * 500
        body = f'{{"source": {json.dumps(PROGRAM)}, "extra": {extra}}}'.encode()
        raw = raw_exchange(server.port, post_bytes("/v1/predict", body))
        assert raw.startswith(b"HTTP/1.0 200 ")
        document = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert document["status"] == "ok"
        assert document["output"] == client.analyze("predict", PROGRAM)["output"]
        assert client.healthz()["status"] == "ok"

    def test_body_shorter_than_its_length_gets_no_response(self, served):
        server, client = served
        request = b"POST /v1/predict HTTP/1.0\r\nContent-Length: 100\r\n\r\n{}"
        assert raw_exchange(server.port, request, half_close=True) == b""
        assert client.healthz()["status"] == "ok"

    def test_front_end_error_is_500_and_the_loop_keeps_serving(
        self, served, monkeypatch
    ):
        server, client = served

        def broken():
            raise RuntimeError("boom")

        monkeypatch.setattr(server, "metrics_document", broken)
        status, document = client.request_json("GET", "/metricsz")
        assert status == 500
        assert document == {"status": "error", "error": "internal error"}
        assert client.healthz()["status"] == "ok"


class TestBackpressure:
    def test_full_queue_is_503_with_retry_after(self, start_server, paused):
        server, client = start_server(queue_size=1)
        outcome = {}
        with paused(server):
            # The frozen shard holds the one queue slot.
            poster = post_in_background(client, outcome)
            wait_inflight(server, 1)
            status, headers, body = raw_post(
                server.port,
                "/v1/predict",
                json.dumps({"source": OTHER}).encode("utf-8"),
            )
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert b"queue full" in body
            assert server.stats.snapshot()["rejected"]["queue_full"] == 1
        poster.join(timeout=10)
        assert outcome["response"]["status"] == "ok"

    def test_batch_is_admitted_atomically(self, start_server, paused):
        server, client = start_server(queue_size=2)
        outcome = {}
        with paused(server):
            poster = post_in_background(client, outcome)
            wait_inflight(server, 1)
            # Two items need two slots; one is free, so neither enters.
            items = [
                {"command": "predict", "source": PROGRAM},
                {"command": "predict", "source": OTHER},
            ]
            status, headers, body = raw_post(
                server.port,
                "/v1/batch",
                json.dumps({"items": items}).encode("utf-8"),
            )
            assert status == 503
            assert "Retry-After" in headers
            assert b"batch needs 2 slots" in body
            assert server.inflight() == 1
        poster.join(timeout=10)
        assert outcome["response"]["status"] == "ok"

    def test_high_water_tracks_peak_queue_depth(self, start_server, paused):
        server, client = start_server(queue_size=8)
        first, second = {}, {}
        with paused(server):
            posters = [post_in_background(client, first)]
            wait_inflight(server, 1)
            posters.append(post_in_background(client, second))
            wait_inflight(server, 2)
        for poster in posters:
            poster.join(timeout=10)
        queue = client.metricsz()["server"]["queue"]
        assert queue == {"depth": 0, "high_water": 2}


class TestDegradation:
    def test_tiny_timeout_degrades_predict(self, start_server):
        _, client = start_server(queue_size=8, timeout_s=0.0)
        response = client.analyze("predict", PROGRAM)
        assert response["degraded"] is True
        body = response["output"].splitlines()[1:]
        assert body and all("heuristic" in line for line in body)
        # Read through the event loop: it records a request's stats
        # right after writing the response, before serving the next.
        assert client.metricsz()["server"]["degraded"] == 1


class TestDrain:
    def test_drain_finishes_inflight_requests(self, start_server, paused):
        server, client = start_server(queue_size=8)
        first, second = {}, {}
        with paused(server):
            posters = [post_in_background(client, first)]
            wait_inflight(server, 1)
            # The second request waits in the front end's queue.
            posters.append(post_in_background(client, second))
            wait_inflight(server, 2)
            threading.Timer(0.1, os.kill, (
                server.shards[0].process.pid, signal.SIGCONT,
            )).start()
            assert server.drain(timeout=10) is True
        for poster in posters:
            poster.join(timeout=10)
        for outcome in (first, second):
            assert "response" in outcome, outcome.get("error")
            assert outcome["response"]["status"] == "ok"

    def test_drain_times_out_on_stuck_work(self, start_server, paused):
        server, client = start_server()
        outcome = {}
        with paused(server):
            poster = post_in_background(client, outcome)
            wait_inflight(server, 1)
            # The frozen shard cannot finish inside the drain timeout;
            # thaw it afterwards so the shard can still be collected.
            threading.Timer(0.5, os.kill, (
                server.shards[0].process.pid, signal.SIGCONT,
            )).start()
            assert server.drain(timeout=0.2) is False
        poster.join(timeout=10)
        assert "response" not in outcome

    def test_drained_server_stops_answering(self, served):
        server, client = served
        assert server.drain(timeout=10) is True
        with pytest.raises(ServerError):
            client.healthz()


class TestServeDaemonProcess:
    def test_sigterm_drains_cleanly(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shards", "1", "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            ready = process.stdout.readline()
            assert "listening on" in ready
            port = int(ready.split("listening on ")[1].split()[0].split(":")[1])
            client = ServeClient(port=port)
            trace = tracecontext.mint()
            with tracecontext.use(trace):
                response = client.analyze("predict", PROGRAM)
            assert response["status"] == "ok"
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "draining" in out
        assert "drained" in out
        # One JSON access-log line per request, joined by the trace id.
        access = [
            record
            for record in map(json.loads, (
                line for line in out.splitlines() if line.startswith("{")
            ))
            if record["logger"] == "repro.server.access"
            and record.get("endpoint") == "/v1/predict"
        ]
        assert len(access) == 1
        assert access[0]["status"] == 200
        assert access[0]["method"] == "POST"
        assert access[0]["trace_id"] == trace.trace_id

    @pytest.mark.parametrize("shards", ["0", "-1"])
    def test_shards_below_one_is_a_usage_error(self, capsys, shards):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", f"--shards={shards}"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("error: argument --shards: must be >= 1\n")
        assert captured.out == ""

    def test_negative_shards_exits_2_without_a_traceback(self):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shards", "-1"],
            capture_output=True,
            env=env,
            text=True,
            timeout=30,
        )
        assert result.returncode == 2
        assert result.stderr.endswith("error: argument --shards: must be >= 1\n")
        assert "Traceback" not in result.stderr

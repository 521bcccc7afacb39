"""The sharded tier: routing, affinity, backpressure, drain, parity."""

import http.client
import json
import threading

import pytest

from repro.cli import main
from repro.observability.metrics import validate_report_dict
from repro.server import ServerError
from repro.server.frontend import ShardedServer
from repro.server.service import request_identity

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


@pytest.fixture
def sharded(start_server):
    return start_server(shards=2, queue_size=8)


def raw_post(port, path, body_bytes, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("POST", path, body=body_bytes, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz(self, sharded):
        _, client = sharded
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["inflight"] == 0
        assert health["shards"] == 2

    def test_predict(self, sharded):
        _, client = sharded
        response = client.analyze("predict", PROGRAM)
        assert response["status"] == "ok"
        assert response["output"].startswith("function")
        assert "main" in response["output"]
        assert response["cached"] is None

    def test_batch_preserves_order_and_isolates_errors(self, sharded):
        _, client = sharded
        results = client.batch(
            [
                {"command": "predict", "source": PROGRAM},
                {"command": "predict", "source": "func main( { oops"},
                {"command": "ir", "source": OTHER},
            ]
        )
        assert [r["status"] for r in results] == ["ok", "error", "ok"]
        assert "define" in results[2]["output"] or results[2]["output"]

    def test_unknown_route_404(self, sharded):
        server, _ = sharded
        status, _, _ = raw_post(server.port, "/v1/nope", b"{}")
        assert status == 404

    def test_malformed_json_400(self, sharded):
        server, _ = sharded
        status, _, body = raw_post(server.port, "/v1/predict", b"{nope")
        assert status == 400
        assert json.loads(body)["status"] == "error"

    def test_protocol_error_400(self, sharded):
        server, _ = sharded
        status, _, body = raw_post(server.port, "/v1/predict", b"{}")
        assert status == 400
        assert "source" in json.loads(body)["error"]

    def test_missing_content_length_411(self, sharded):
        server, _ = sharded
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/predict", skip_host=False)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 411
        finally:
            connection.close()

    def test_oversized_body_413(self, start_server):
        _, client = start_server(max_request_bytes=256)
        with pytest.raises(ServerError) as info:
            client.analyze("predict", "x" * 500)
        assert info.value.status == 413

    def test_trace_id_echoed(self, sharded):
        server, _ = sharded
        trace_id = "ab" * 16
        status, headers, _ = raw_post(
            server.port,
            "/v1/predict",
            json.dumps({"source": OTHER}).encode(),
            headers={"X-Repro-Trace-Id": trace_id},
        )
        assert status == 200
        assert headers.get("X-Repro-Trace-Id") == trace_id


class TestCacheAffinity:
    def test_repeat_hits_shard_memory_cache(self, sharded):
        _, client = sharded
        first = client.analyze("predict", PROGRAM)
        second = client.analyze("predict", PROGRAM)
        assert first["cached"] is None
        assert second["cached"] == "memory"
        assert first["key"] == second["key"]

    def test_routing_follows_the_ring(self, sharded):
        server, client = sharded
        # The request's content address must land on the ring's shard:
        # compute the route the front end will take, submit, and check
        # that exactly that shard's served counter moved.
        *_, key = request_identity({"source": PROGRAM}, "predict")
        expected = server.ring.route(key)
        before = [s["served"] for s in server.shard_snapshots()]
        client.analyze("predict", PROGRAM)
        after = [s["served"] for s in server.shard_snapshots()]
        for shard_id, (was, now) in enumerate(zip(before, after)):
            if shard_id == expected:
                assert now == was + 1
            else:
                assert now == was

    def test_distinct_programs_spread_over_shards(self, sharded):
        server, client = sharded
        from repro.server.loadgen import make_corpus

        for source in make_corpus(16):
            client.analyze("predict", source)
        served = [s["served"] for s in server.shard_snapshots()]
        assert sum(served) >= 16
        assert all(count > 0 for count in served), served

    def test_disk_cache_shared_across_shard_boundaries(
        self, tmp_path, start_server
    ):
        # Same cache dir, two servers: an entry written by server A's
        # shard is a disk hit in server B (whose memory LRU is cold),
        # then promotes into B's shard-local memory tier.
        cache_dir = str(tmp_path / "cache")
        first, client = start_server(shards=1, cache_dir=cache_dir)
        client.analyze("predict", PROGRAM)
        assert first.drain(timeout=10)
        second, client = start_server(shards=2, cache_dir=cache_dir)
        warm = client.analyze("predict", PROGRAM)
        assert warm["cached"] == "disk"
        again = client.analyze("predict", PROGRAM)
        assert again["cached"] == "memory"
        assert second.drain(timeout=10)


class TestMetrics:
    def test_metricsz_document_validates_and_carries_shards(self, sharded):
        _, client = sharded
        client.analyze("predict", PROGRAM)
        document = client.metricsz()
        validate_report_dict(document)
        server_doc = document["server"]
        assert document["meta"]["shards"] == 2
        shards = server_doc["shards"]
        assert [s["shard"] for s in shards] == [0, 1]
        for shard in shards:
            assert shard["alive"] is True
            assert shard["queue"]["depth"] == 0
        assert sum(s["served"] for s in shards) >= 1
        # Aggregated cache stats keep the legacy shape CI asserts on.
        assert server_doc["cache"]["memory"]["entries"] >= 1
        assert "tracer" in server_doc

    def test_prometheus_scrape_has_shard_labels(self, sharded):
        _, client = sharded
        from tests.prometheus_parser import parse_prometheus_text

        client.analyze("predict", PROGRAM)
        families = parse_prometheus_text(client.metricsz_prometheus())
        depth = families["repro_shard_queue_depth"]["samples"]
        assert sorted(labels["shard"] for _, labels, _ in depth) == ["0", "1"]
        assert "repro_shard_queue_high_water" in families
        assert "repro_queue_depth" in families  # aggregate survives

    def test_prometheus_scrape_reports_the_shard_count(self, sharded):
        server, client = sharded
        lines = client.metricsz_prometheus().splitlines()
        assert "# HELP repro_shards Analysis shard processes." in lines
        assert f"repro_shards {server.shard_count}" in lines
        assert server.shard_count == 2
        assert not any(line.startswith("repro_workers") for line in lines)


class TestBackpressure:
    def test_full_shard_queue_is_503_with_retry_after(self, start_server):
        _, client = start_server(queue_size=1)
        # Saturate the single shard: its queue admits one request,
        # so concurrent extras must bounce with 503 + Retry-After.
        import concurrent.futures

        slow = PROGRAM.replace("50", "200000")
        outcomes = []

        def submit():
            try:
                response = client.analyze("predict", slow)
                outcomes.append(("ok", response["status"]))
            except ServerError as error:
                outcomes.append(("rejected", error.status))

        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(lambda _: submit(), range(6)))
        rejected = [o for o in outcomes if o[0] == "rejected"]
        assert all(status == 503 for _, status in rejected)
        # At least one must have been served; with queue_size=1 at
        # least one of six concurrent submissions must bounce.
        assert any(o[0] == "ok" for o in outcomes)
        assert rejected

    def test_retry_after_header_is_integer_seconds(self, start_server):
        server, _ = start_server(queue_size=1)
        import concurrent.futures

        slow = json.dumps(
            {"source": PROGRAM.replace("50", "200000")}
        ).encode()

        def submit(_):
            return raw_post(server.port, "/v1/predict", slow)

        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(submit, range(6)))
        rejected = [r for r in responses if r[0] == 503]
        assert rejected
        for _, headers, _ in rejected:
            retry_after = headers.get("Retry-After")
            assert retry_after is not None
            assert 1 <= int(retry_after) <= 60


class TestDrain:
    def test_drain_collects_every_shard(self, start_server):
        server, client = start_server(shards=2)
        client.analyze("predict", OTHER)
        assert server.drain(timeout=10) is True
        for handle in server.shards:
            assert not handle.process.is_alive()

    def test_drain_is_idempotent(self, start_server):
        server, _ = start_server()
        assert server.drain(timeout=10) is True
        assert server.drain(timeout=10) is True

    def test_drain_without_serving_collects_shards(self):
        server = ShardedServer(port=0, shards=1)
        assert server.drain(timeout=10) is True
        assert not server.shards[0].process.is_alive()

    def test_post_during_drain_is_503(self, start_server, paused):
        import socket
        import time

        server, client = start_server()
        # A request held by the frozen shard keeps the drain in its
        # finish-in-flight phase while the test pokes at it.
        background = threading.Thread(
            target=lambda: client.analyze("predict", PROGRAM), daemon=True
        )
        drainer = threading.Thread(
            target=lambda: server.drain(timeout=30), daemon=True
        )
        with paused(server):
            # A connection opened *before* the drain with partial bytes
            # on the wire survives the idle sweep; its request completes
            # during the drain and must bounce with 503.
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            )
            sock.sendall(b"PO")
            background.start()
            time.sleep(0.2)  # let the request reach its shard
            drainer.start()
            time.sleep(0.3)  # listener closed, loop finishing in-flight
            assert server.draining is True
            body = json.dumps({"source": OTHER}).encode()
            sock.sendall(
                b"ST /v1/predict HTTP/1.0\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            raw = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                raw += chunk
            sock.close()
        assert b"503" in raw.split(b"\r\n", 1)[0]
        assert b"draining" in raw
        background.join(timeout=30)
        drainer.join(timeout=30)
        assert server._drained.is_set()


class TestByteParity:
    def test_sharded_matches_cli(self, capsys, tmp_path, start_server, sharded):
        path = tmp_path / "p.toy"
        path.write_text(PROGRAM, encoding="utf-8")
        assert main(["predict", str(path)]) == 0
        cli_output = capsys.readouterr().out
        *_, key = request_identity({"source": PROGRAM}, "predict")

        _, one_shard = start_server(shards=1)
        _, two_shards = sharded
        for client in (one_shard, two_shards):
            cold = client.analyze("predict", PROGRAM)
            cached = client.analyze("predict", PROGRAM)
            assert (cold["cached"], cached["cached"]) == (None, "memory")
            for response in (cold, cached):
                assert response["output"] == cli_output
                assert response["key"] == key

    def test_shard_count_does_not_change_bytes(self, start_server, sharded):
        _, client2 = sharded
        _, client1 = start_server(shards=1)
        for source in (PROGRAM, OTHER):
            one = client1.analyze("predict", source)
            many = client2.analyze("predict", source)
            assert one["output"] == many["output"]
            assert one["key"] == many["key"]


class TestShardCrash:
    def test_dead_shard_fails_pending_and_respawns(self, sharded):
        server, client = sharded
        victim = server.shards[0]
        old_pid = victim.process.pid
        # SIGKILL: shards ignore SIGTERM on purpose (drain protocol).
        victim.process.kill()
        victim.process.join(timeout=5)
        # The next request routed to the dead shard observes the EOF,
        # triggers a respawn, and subsequent requests succeed on the
        # replacement process.
        deadline_responses = []
        from repro.server.loadgen import make_corpus

        for source in make_corpus(8, offset=9000):
            try:
                deadline_responses.append(client.analyze("predict", source))
            except ServerError:
                deadline_responses.append(None)
        assert any(r is not None for r in deadline_responses)
        assert server.shards[0].process.is_alive()
        assert server.shards[0].process.pid != old_pid
        assert server.shards[0].restarts >= 1
        response = client.analyze("predict", PROGRAM)
        assert response["status"] == "ok"

    def test_killed_frozen_shard_fails_its_whole_queue(self, start_server, paused):
        import time

        server, client = start_server(queue_size=2)
        outcomes = [{}, {}]

        def post(outcome, source):
            try:
                client.analyze("predict", source)
            except ServerError as error:
                outcome["error"] = error

        def wait_inflight(count):
            deadline = time.monotonic() + 10
            while server.inflight() != count and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.inflight() == count

        posters = []
        with paused(server):
            # One request in the shard's pipe, one waiting behind it.
            for outcome, source in zip(outcomes, (PROGRAM, OTHER)):
                posters.append(threading.Thread(
                    target=post, args=(outcome, source), daemon=True
                ))
                posters[-1].start()
                wait_inflight(len(posters))
            old_pid = server.shards[0].process.pid
            server.shards[0].process.kill()
            for poster in posters:
                poster.join(timeout=30)
        for outcome in outcomes:
            assert outcome["error"].status == 500
            assert str(outcome["error"]) == "shard 0 worker died"
        assert server.inflight() == 0
        assert client.metricsz()["server"]["queue"]["depth"] == 0
        assert server.shards[0].process.pid != old_pid
        assert server.shards[0].restarts == 1
        assert client.analyze("predict", PROGRAM)["status"] == "ok"

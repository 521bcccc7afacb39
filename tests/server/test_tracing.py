"""End-to-end tracing through the daemon: headers, spans, Prometheus.

Covers the v6 observability surface at the HTTP boundary: trace-id
adoption and echo, per-request wire spans in traced responses,
``degraded_reason`` provenance, and the Prometheus flavour of
``/metricsz`` parsing cleanly against the strict parser.
"""

import http.client
import time

from repro.observability import context as tracecontext
from repro.observability.chrometrace import events_from_wire_spans

from tests.prometheus_parser import parse_prometheus_text

PROGRAM = """
func main(n) {
  var total = 0;
  for (i = 0; i < 100; i = i + 1) {
    if (i > 90) { total = total + i; }
  }
  return total;
}
"""


def get_with_header(port, path, headers):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path, headers=headers)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestTraceHeader:
    def test_valid_header_is_adopted_and_echoed(self, served):
        server, _ = served
        trace_id = "ab" * 16
        status, headers, _ = get_with_header(
            server.port, "/healthz", {tracecontext.TRACE_HEADER: trace_id}
        )
        assert status == 200
        assert headers["X-Repro-Trace-Id"] == trace_id

    def test_invalid_header_gets_a_fresh_id(self, served):
        server, _ = served
        status, headers, _ = get_with_header(
            server.port, "/healthz", {tracecontext.TRACE_HEADER: "not-hex"}
        )
        assert status == 200
        minted = headers["X-Repro-Trace-Id"]
        assert minted != "not-hex"
        assert tracecontext.valid_trace_id(minted)

    def test_client_attaches_ambient_trace_id(self, served):
        server, client = served
        context = tracecontext.mint()
        with tracecontext.use(context):
            response = client.analyze(
                "predict", PROGRAM, options={"trace": True}
            )
        assert response["trace_id"] == context.trace_id


class TestTracedResponses:
    def test_trace_option_returns_wire_spans(self, served):
        _, client = served
        response = client.analyze("predict", PROGRAM, options={"trace": True})
        assert response["status"] == "ok"
        spans = response["trace"]
        names = {span["name"] for span in spans}
        # The server-side root plus the engine's phase spans.
        assert "request" in names
        assert "predict" in names
        assert len(spans) >= 3
        # Wire spans re-base into valid chrome events on the client clock.
        events = events_from_wire_spans(spans, 1000.0)
        assert len(events) == len(spans)
        assert all(event["ts"] >= 1000.0 for event in events)

    def test_untraced_response_has_no_trace_key(self, served):
        _, client = served
        response = client.analyze("predict", PROGRAM)
        assert "trace" not in response

    def test_trace_is_excluded_from_the_cache_key(self, served):
        _, client = served
        first = client.analyze("predict", PROGRAM, options={"trace": True})
        second = client.analyze("predict", PROGRAM)
        assert first["key"] == second["key"]
        assert second["cached"] == "memory"

    def test_degraded_response_carries_the_reason(self, start_server):
        _, client = start_server(queue_size=8, timeout_s=0.0)
        response = client.analyze("predict", PROGRAM)
        assert response["degraded"] is True
        assert "deadline" in response["degraded_reason"]


class TestPrometheusEndpoint:
    def test_scrape_parses_cleanly(self, served):
        _, client = served
        client.analyze("predict", PROGRAM)
        client.analyze("predict", PROGRAM)  # memory hit
        # Stats are recorded after the response body goes out, so a
        # scrape racing its own request may lag one update; retry.
        deadline = time.monotonic() + 5.0
        while True:
            families = parse_prometheus_text(client.metricsz_prometheus())
            tiers = {
                labels["tier"]: value
                for _, labels, value in families["repro_results_total"]["samples"]
            }
            if tiers["memory"] >= 1 or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        assert families["repro_requests_total"]["type"] == "counter"
        assert families["repro_request_latency_seconds"]["type"] == "histogram"
        assert tiers["fresh"] >= 1
        assert tiers["memory"] >= 1

    def test_accept_header_negotiates_prometheus(self, served):
        server, _ = served
        status, headers, body = get_with_header(
            server.port, "/metricsz", {"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        parse_prometheus_text(body.decode("utf-8"))

    def test_json_flavour_is_preserved(self, served):
        _, client = served
        document = client.metricsz()
        assert document["schema_version"] == 9
        assert "tracer" in document["server"]

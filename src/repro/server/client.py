"""Stdlib client for the serving daemon (the guts of ``repro submit``).

One :class:`ServeClient` talks to one daemon.  Each call opens its own
``http.client.HTTPConnection`` -- the daemon speaks one-request
HTTP/1.0, and per-call connections keep the client trivially
thread-safe.  Transport-level trouble (connection refused, daemon gone
mid-response) raises :class:`ServerError` with ``status=None``;
protocol rejections (400/413/503...) raise it with the HTTP status and
the daemon's error message, so callers can distinguish "retry later"
(503) from "fix the request" (400).
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Dict, List, Optional, Tuple

from repro.observability import context as tracecontext
from repro.server.protocol import error_response


class ServerError(Exception):
    """The daemon rejected the request or could not be reached."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class ServeClient:
    """Typed requests against one ``repro serve`` daemon."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8077, timeout: float = 60.0
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport -----------------------------------------------------------

    def request_json(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, dict]:
        """One HTTP exchange; returns ``(status, decoded JSON body)``.

        The ambient trace context (``repro.observability.context``), if
        any, rides along as ``X-Repro-Trace-Id`` so a ``repro submit``
        invocation and the daemon's access log share one id; an
        explicit ``headers`` entry for it wins.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            send_headers: Dict[str, str] = {}
            trace_id = tracecontext.current_trace_id()
            if trace_id is not None:
                send_headers[tracecontext.TRACE_HEADER] = trace_id
            if headers:
                send_headers.update(headers)
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                send_headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=send_headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                document = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, ValueError):
                raise ServerError(
                    f"daemon sent a non-JSON response (HTTP {response.status})",
                    status=response.status,
                )
            return response.status, document
        except (ConnectionError, socket.timeout, socket.gaierror, OSError) as error:
            raise ServerError(
                f"cannot reach {self.host}:{self.port}: {error}"
            ) from error
        finally:
            connection.close()

    def _post(self, path: str, body: dict) -> dict:
        status, document = self.request_json("POST", path, body)
        if status != 200:
            raise ServerError(
                document.get("error", f"HTTP {status}"), status=status
            )
        return document

    # -- endpoints -----------------------------------------------------------

    def healthz(self) -> dict:
        status, document = self.request_json("GET", "/healthz")
        if status != 200:
            raise ServerError(f"healthz answered HTTP {status}", status=status)
        return document

    def metricsz(self) -> dict:
        status, document = self.request_json("GET", "/metricsz")
        if status != 200:
            raise ServerError(f"metricsz answered HTTP {status}", status=status)
        return document

    def metricsz_prometheus(self) -> str:
        """Fetch ``/metricsz`` as Prometheus text (the scrape shape)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                "GET", "/metricsz?format=prometheus",
                headers={"Accept": "text/plain"},
            )
            response = connection.getresponse()
            raw = response.read()
            if response.status != 200:
                raise ServerError(
                    f"metricsz answered HTTP {response.status}",
                    status=response.status,
                )
            return raw.decode("utf-8")
        except (ConnectionError, socket.timeout, socket.gaierror, OSError) as error:
            raise ServerError(
                f"cannot reach {self.host}:{self.port}: {error}"
            ) from error
        finally:
            connection.close()

    def analyze(
        self,
        command: str,
        source: str,
        name: str = "-",
        options: Optional[Dict[str, object]] = None,
    ) -> dict:
        """Submit one program; returns the full response document."""
        return self._post(
            f"/v1/{command}",
            {"source": source, "name": name, "options": options or {}},
        )

    def batch(self, items: List[dict]) -> List[dict]:
        """Submit a micro-batch; results come back in submission order."""
        document = self._post("/v1/batch", {"items": items})
        results = document.get("results")
        if not isinstance(results, list):
            raise ServerError("batch response is missing 'results'")
        return results

    def analyze_many(
        self, items: List[dict], jobs: int = 1
    ) -> List[dict]:
        """Submit ``items`` as independent requests, ``jobs`` at a time.

        The client-side fan-out behind ``repro submit --jobs N``: each
        item posts to its own ``/v1/<command>`` endpoint on its own
        connection, up to ``jobs`` concurrently, and the result list
        comes back in *submission order* regardless of completion order
        -- so output is byte-identical to ``--jobs 1``.  Unlike
        :meth:`batch` the daemon sees N independent requests, which is
        what lets a sharded daemon spread them across shards while the
        consistent-hash router still pins repeats to warm caches.

        A failed item (transport error, 503 backpressure...) surfaces
        as a :class:`ServerError`-shaped dict (``status: "error"``,
        ``http_status``) in its slot rather than aborting the others;
        callers decide whether that fails the run.
        """
        if jobs < 1:
            raise ValueError("jobs must be >= 1")

        def one(item: dict) -> dict:
            command = str(item.get("command", "analyze"))
            path = (
                f"/v1/{command}"
                if command in ("predict", "check", "ranges", "ir", "run")
                else "/v1/analyze"
            )
            body = {key: value for key, value in item.items() if key != "command"}
            if path == "/v1/analyze":
                body["command"] = command
            try:
                return self._post(path, body)
            except ServerError as error:
                return error_response(
                    item.get("command"), str(error), http_status=error.status
                )

        if jobs == 1 or len(items) <= 1:
            return [one(item) for item in items]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(
            max_workers=min(jobs, len(items)), thread_name_prefix="repro-submit"
        ) as pool:
            # map() preserves submission order: determinism by construction.
            return list(pool.map(one, items))

    def wait_ready(self, attempts: int = 50, delay: float = 0.1) -> dict:
        """Poll ``/healthz`` until the daemon answers (for scripts/CI)."""
        import time

        last: Optional[ServerError] = None
        for _ in range(attempts):
            try:
                return self.healthz()
            except ServerError as error:
                last = error
                time.sleep(delay)
        raise ServerError(
            f"daemon at {self.host}:{self.port} never became ready: {last}"
        )

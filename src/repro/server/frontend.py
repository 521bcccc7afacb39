"""The ``repro serve`` daemon: N shard processes behind one event loop.

The front end is **one** non-blocking selector thread that only ever
accepts sockets, parses HTTP, routes, and writes responses; all the CPU
work happens in N shard *processes* (:mod:`repro.server.shard`), so
analysis throughput scales with cores instead of serialising on the
GIL.

Endpoints::

    GET  /healthz      liveness, in-flight count, shard count
    GET  /metricsz     metrics document: JSON schema by default,
                       Prometheus text when negotiated
    POST /v1/predict   one program  -> prediction table
    POST /v1/check     one program  -> diagnostics report
    POST /v1/ranges    one program  -> final range listing
    POST /v1/ir        one program  -> canonical SSA dump
    POST /v1/run       one program  -> interpret + profile
    POST /v1/analyze   one program  -> command named in the body
    POST /v1/batch     {"items": [...]} -> {"results": [...]}

Routing is by content address: the front end computes the same
:func:`repro.server.service.request_identity` key the caches use and
feeds it to the consistent-hash ring (:mod:`repro.server.router`), so a
repeat submission always lands on the shard whose memory LRU and perf
caches already hold it, and the shared on-disk cache tier picks up the
rest across restarts.

Contracts:

* **byte identity** -- shards run the same :class:`AnalysisService`
  over the same renderer, so a served response equals the one-shot CLI
  output at every shard count (CI-gated);
* **backpressure** -- each shard's :class:`ShardHandle` holds a bounded
  queue (``queue_size``); a request routed to a full shard answers 503
  with a ``Retry-After`` computed from queue depth and observed drain
  rate, and a batch enqueues atomically against all its target shards
  or fails 503 as a unit.  A ``Content-Length`` that is not ASCII
  digits answers 411, an oversized body 413, malformed or too deeply
  nested JSON and protocol violations 400, and an error escaping the
  loop while it handles a connection 500; analysis-level failures
  (parse errors, timeouts) are 200 with ``status: "error"`` or
  ``degraded: true``.  Every answer leaves through ``_respond``;
* **deadline degradation** -- per-request timeouts live in the service,
  inside each shard;
* **tracing** -- a request carrying ``X-Repro-Trace-Id`` keeps that id
  (otherwise one is minted); it is echoed on the response, stamped on
  the ``server.request.begin``/``end`` events and the request's span,
  handed to the shard, and written to the JSON access log
  (``repro.server.access``, silent unless
  :func:`repro.observability.logging.configure_json_logging` ran);
* **drain** -- SIGTERM stops the accept loop, lets every dispatched
  request finish and flush, then collects *every* shard process before
  exiting.

HTTP handling is deliberately minimal: HTTP/1.0, one request per
connection (so no idle keep-alive can hold a drain hostage),
``Content-Length`` required on POST.
"""

from __future__ import annotations

import json
import logging
import os
import selectors
import signal
import socket
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.commands import validate_options
from repro.core.perf.stats import STORE_MEMORY_ENTRIES
from repro.observability import context as tracecontext
from repro.observability.events import ServerRequestBegin, ServerRequestEnd
from repro.observability.logging import get_logger, log_event
from repro.observability.tracer import SpanRecord, Tracer
from repro.server.protocol import (
    UNCACHED,
    ProtocolError,
    error_response,
    validate_batch,
)
from repro.server.router import HashRing
from repro.server.service import request_identity
from repro.server.shard import ShardHandle
from repro.server.stats import ServerStats

#: POST route -> command pinned by the URL (None = the body decides).
POST_ROUTES: Dict[str, Optional[str]] = {
    "/v1/predict": "predict",
    "/v1/check": "check",
    "/v1/ranges": "ranges",
    "/v1/ir": "ir",
    "/v1/run": "run",
    "/v1/analyze": None,
}

#: Spans kept for /metricsz aggregation; past this the daemon keeps
#: counting events but stops retaining span records.
MAX_RETAINED_SPANS = 100_000

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest accepted request head (request line + headers).
MAX_HEAD_BYTES = 32_768

#: Longest ``Content-Length`` read as a number (2**64 has 20 digits); a
#: longer one is over any limit, and int() refuses 4,300 digits or more.
MAX_LENGTH_DIGITS = 20


class _ClientConn:
    """Per-socket state for the event loop."""

    __slots__ = (
        "sock", "inbuf", "outbuf", "out_offset", "state", "method",
        "path", "headers", "body_length", "started", "trace_id", "closed",
    )

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf: Optional[bytes] = None
        self.out_offset = 0
        self.state = "head"  # head -> body -> wait -> write
        self.method = ""
        self.path = ""
        self.headers: Dict[str, str] = {}
        self.body_length = 0
        self.started = 0.0
        self.trace_id: Optional[str] = None
        self.closed = False


class _Batch:
    """One in-flight ``/v1/batch`` request fanning out across shards."""

    __slots__ = ("conn", "results", "remaining")

    def __init__(self, conn: _ClientConn, size: int):
        self.conn = conn
        self.results: List[Optional[dict]] = [None] * size
        self.remaining = 0


class _Pending:
    """One request dispatched to a shard, awaiting its response."""

    __slots__ = ("conn", "command", "shard", "batch", "slot")

    def __init__(self, conn, command, shard, batch=None, slot=0):
        self.conn = conn
        self.command = command
        self.shard = shard
        self.batch = batch
        self.slot = slot


class ShardedServer:
    """N shard processes behind one consistent-hash selector front end."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: Optional[int] = None,
        queue_size: int = 64,
        cache_dir: Optional[str] = None,
        memory_cache_entries: int = STORE_MEMORY_ENTRIES,
        timeout_s: Optional[float] = None,
        max_request_bytes: int = 1 << 20,
        base_options: Optional[dict] = None,
        ready_timeout_s: float = 120.0,
        incremental: bool = False,
    ):
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        validate_options(None, base_options or {})
        self.shard_count = shards if shards else (os.cpu_count() or 1)
        self.queue_size = queue_size
        self.cache_dir = cache_dir
        self.timeout_s = timeout_s
        self.max_request_bytes = max_request_bytes
        self.base_options = dict(base_options or {})
        self.incremental = incremental
        self.draining = False
        self.started_monotonic = time.monotonic()

        settings = {
            "cache_dir": cache_dir,
            "memory_cache_entries": memory_cache_entries,
            "timeout_s": timeout_s,
            "base_options": self.base_options or None,
            "incremental": incremental,
        }
        # Shards fork/spawn *before* any server thread exists, so the
        # child processes never inherit a half-held lock.
        self.shards: List[ShardHandle] = []
        try:
            for shard_id in range(self.shard_count):
                self.shards.append(ShardHandle(shard_id, settings))
            for handle in self.shards:
                handle.wait_ready(ready_timeout_s)
        except BaseException:
            for handle in self.shards:
                try:
                    handle.shutdown(timeout_s=1.0)
                except Exception:  # pragma: no cover -- best-effort cleanup
                    pass
            raise
        self.ring = HashRing(self.shard_count)

        self.stats = ServerStats()
        self.tracer = Tracer(record_events=False)
        self.access_log = get_logger("server.access")
        self._tracer_lock = threading.Lock()

        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((host, port))
        self._listen.listen(128)
        self._listen.setblocking(False)

        self._wakeup_r, self._wakeup_w = os.pipe()
        os.set_blocking(self._wakeup_r, False)

        self._pending: Dict[int, _Pending] = {}
        self._next_id = 0
        self._conns: Dict[socket.socket, _ClientConn] = {}
        self._stop_requested = False
        self._force_stop = False
        self._loop_running = threading.Event()
        self._drained = threading.Event()
        self._shards_collected = False
        # The event loop's selector, made by serve_forever.
        self._selector: Optional[selectors.BaseSelector] = None

    # -- addresses -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._listen.getsockname()[0]

    @property
    def port(self) -> int:
        return self._listen.getsockname()[1]

    # -- observability (thread-safe wrappers) --------------------------------

    def emit_event(self, event) -> None:
        with self._tracer_lock:
            self.tracer.emit(event)

    def record_span(
        self, name: str, start: float, end: float, trace_id: Optional[str] = None
    ) -> None:
        with self._tracer_lock:
            if len(self.tracer.spans) >= MAX_RETAINED_SPANS:
                return
            record = SpanRecord(
                name, start, depth=0, index=len(self.tracer.spans),
                parent=None, trace_id=trace_id,
            )
            record.end = end
            self.tracer.spans.append(record)

    def tracer_summary(self) -> dict:
        """Span/event totals, copied under the tracer lock.

        ``/metricsz`` must never iterate the live ``event_counts`` while
        another thread is still ``emit()``-ing into it.
        """
        with self._tracer_lock:
            return {
                "spans": len(self.tracer.spans),
                "event_counts": dict(sorted(self.tracer.event_counts.items())),
                "dropped_events": self.tracer.dropped_events,
            }

    # -- metrics -------------------------------------------------------------

    def inflight(self) -> int:
        return sum(handle.inflight for handle in self.shards)

    def shard_snapshots(self) -> List[dict]:
        return [handle.snapshot() for handle in self.shards]

    def _sum_shard_stats(self, key: str, *extra: str) -> dict:
        """The shards' ``key`` two-tier store counters, summed.

        Covers the memory/disk tiers, ``stores`` and the integer fields
        named in ``extra``, in the shape of one store's ``stats()``.
        """
        total: dict = {
            "memory": {"hits": 0, "misses": 0, "evictions": 0, "entries": 0},
            "disk": {"hits": 0, "misses": 0, "errors": 0,
                     "enabled": self.cache_dir is not None},
        }
        fields = ("stores",) + extra
        total.update(dict.fromkeys(fields, 0))
        for handle in self.shards:
            stats = handle.stats_snapshot.get(key) or {}
            for tier in ("memory", "disk"):
                for field, value in (stats.get(tier) or {}).items():
                    if isinstance(value, bool):
                        continue
                    if field in total[tier]:
                        total[tier][field] += int(value)
            for field in fields:
                total[field] += int(stats.get(field, 0))
        return total

    def _server_snapshot(self) -> dict:
        return self.stats.snapshot(
            cache_stats=self._sum_shard_stats("cache"),
            queue_depth=self.inflight(),
            queue_high_water=max(
                (handle.high_water for handle in self.shards), default=0
            ),
            tracer_summary=self.tracer_summary(),
            shards=self.shard_snapshots(),
            # None without the summary store keeps the snapshot's
            # pre-incremental shape.
            incremental=(
                self._sum_shard_stats(
                    "incremental", "function_hits", "function_misses"
                )
                if self.incremental
                else None
            ),
        )

    def metrics_document(self) -> dict:
        from repro.observability.metrics import MetricsReport

        with self._tracer_lock:
            phases = {
                name: {"count": timing.count, "seconds": timing.seconds}
                for name, timing in self.tracer.phase_timings().items()
            }
        report = MetricsReport(
            program="repro-serve",
            phases=phases,
            server=self._server_snapshot(),
            meta={
                "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
                "shards": self.shard_count,
                "queue_size": self.queue_size,
                "draining": self.draining,
            },
        )
        return report.to_dict()

    def prometheus_document(self) -> str:
        from repro.observability.prometheus import render_server_metrics

        return render_server_metrics(
            self._server_snapshot(),
            uptime_s=round(time.monotonic() - self.started_monotonic, 3),
            shards=self.shard_count,
        )

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the event loop until drained (usually on its own thread)."""
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listen, selectors.EVENT_READ, ("listen", None))
        self._selector.register(self._wakeup_r, selectors.EVENT_READ, ("wakeup", None))
        for handle in self.shards:
            self._selector.register(handle.conn, selectors.EVENT_READ, ("shard", handle))
        self._loop_running.set()
        listener_open = True
        try:
            while True:
                if self._stop_requested and listener_open:
                    self.draining = True
                    self._selector.unregister(self._listen)
                    self._listen.close()
                    listener_open = False
                    self._close_idle_conns()
                if self._force_stop:
                    break
                if self.draining and not self._pending and not self._has_unflushed():
                    break
                for key, _mask in self._selector.select(timeout=0.1):
                    kind, payload = key.data
                    if kind == "listen":
                        self._on_accept()
                    elif kind == "wakeup":
                        try:
                            os.read(self._wakeup_r, 4096)
                        except OSError:
                            pass
                    elif kind == "shard":
                        self._on_shard_readable(payload)
                    elif kind == "client":
                        try:
                            self._on_client_event(payload)
                        except Exception:  # noqa: BLE001 -- keep serving
                            self._internal_error(payload)
        finally:
            for conn in list(self._conns.values()):
                self._close_conn(conn)
            if listener_open:
                try:
                    self._selector.unregister(self._listen)
                except KeyError:
                    pass
                self._listen.close()
            for handle in self.shards:
                try:
                    self._selector.unregister(handle.conn)
                except (KeyError, ValueError):
                    pass
            self._selector.close()
            # Drain collects *every* shard: sentinel, join, account.
            self._shards_collected = all(
                handle.shutdown() for handle in self.shards
            )
            self._drained.set()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting, finish in-flight work, collect all shards.

        Returns True when the loop drained and every shard process was
        collected inside ``timeout``.  Safe to call from any thread (the
        signal handler's thread included); idempotent.
        """
        self.draining = True
        self._stop_requested = True
        self._wake()
        if not self._loop_running.is_set():
            # serve_forever never ran: shut the shards down inline.
            if not self._drained.is_set():
                self._shards_collected = all(
                    handle.shutdown() for handle in self.shards
                )
                self._drained.set()
            return self._shards_collected
        finished = self._drained.wait(timeout=timeout)
        if not finished:
            self._force_stop = True
            self._wake()
            self._drained.wait(timeout=5.0)
        return finished and self._shards_collected

    def _wake(self) -> None:
        try:
            os.write(self._wakeup_w, b"x")
        except OSError:  # pragma: no cover -- already closed
            pass

    def _has_unflushed(self) -> bool:
        return any(conn.outbuf is not None for conn in self._conns.values())

    def _close_idle_conns(self) -> None:
        """At drain start, drop connections that never sent a byte."""
        for conn in list(self._conns.values()):
            if conn.state == "head" and not conn.inbuf:
                self._close_conn(conn)

    # -- socket plumbing -----------------------------------------------------

    def _on_accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listen.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            sock.setblocking(False)
            conn = _ClientConn(sock)
            self._conns[sock] = conn
            self._selector.register(sock, selectors.EVENT_READ, ("client", conn))

    def _close_conn(self, conn: _ClientConn) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._conns.pop(conn.sock, None)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _on_client_event(self, conn: _ClientConn) -> None:
        if conn.outbuf is not None:
            self._on_client_writable(conn)
            return
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        conn.inbuf += data
        self._advance(conn)

    def _internal_error(self, conn: _ClientConn) -> None:
        """An exception escaped while handling ``conn``: answer it 500."""
        log_event(
            self.access_log, "internal error", level=logging.ERROR,
            traceback=traceback.format_exc(), trace_id=conn.trace_id,
        )
        if conn.outbuf is None and not conn.closed:
            self._reject(conn, 500, "internal error")
        else:
            self._close_conn(conn)

    def _on_client_writable(self, conn: _ClientConn) -> None:
        assert conn.outbuf is not None
        try:
            sent = conn.sock.send(conn.outbuf[conn.out_offset:])
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        conn.out_offset += sent
        if conn.out_offset >= len(conn.outbuf):
            self._close_conn(conn)

    # -- HTTP parsing --------------------------------------------------------

    def _advance(self, conn: _ClientConn) -> None:
        if conn.state == "head":
            if not self._parse_head(conn):
                return
        if conn.state == "body":
            if len(conn.inbuf) < conn.body_length:
                return
            self._dispatch_post(conn)

    def _parse_head(self, conn: _ClientConn) -> bool:
        conn.started = time.perf_counter()
        index = conn.inbuf.find(b"\r\n\r\n")
        if index < 0:
            if len(conn.inbuf) > MAX_HEAD_BYTES:
                self._reject(conn, 400, "request head too large")
            return False
        head = bytes(conn.inbuf[:index])
        del conn.inbuf[: index + 4]
        lines = head.split(b"\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            self._reject(conn, 400, "malformed request line")
            return False
        conn.method = parts[0].decode("latin-1")
        conn.path = parts[1].decode("latin-1")
        for line in lines[1:]:
            name, _sep, value = line.partition(b":")
            conn.headers[name.strip().lower().decode("latin-1")] = (
                value.strip().decode("latin-1")
            )
        incoming = conn.headers.get(tracecontext.TRACE_HEADER.lower())
        if incoming and tracecontext.valid_trace_id(incoming):
            conn.trace_id = incoming
        else:
            conn.trace_id = tracecontext.new_trace_id()

        if conn.method == "GET":
            self._dispatch_get(conn)
            return False
        if conn.method != "POST":
            self._reject(conn, 404, "not found")
            return False
        length = conn.headers.get("content-length")
        if length is None or not (length.isascii() and length.isdigit()):
            self._reject(conn, 411, "Content-Length required")
            return False
        digits = length.lstrip("0")
        if len(digits) > MAX_LENGTH_DIGITS:
            size = f"a {len(digits)}-digit length"
        else:
            conn.body_length = int(length)
            if conn.body_length <= self.max_request_bytes:
                conn.state = "body"
                return True
            size = f"{conn.body_length} bytes"
        self.stats.record_rejected("too_large")
        self._reject(
            conn, 413,
            f"request of {size} exceeds the {self.max_request_bytes} byte limit",
        )
        return False

    # -- GET -----------------------------------------------------------------

    def _dispatch_get(self, conn: _ClientConn) -> None:
        parsed = urlparse(conn.path)
        if parsed.path not in ("/healthz", "/metricsz"):
            self._reject(conn, 404, "not found")
            return
        self.emit_event(
            ServerRequestBegin(
                endpoint=parsed.path, command=None, trace_id=conn.trace_id
            )
        )
        if parsed.path == "/healthz":
            document = {
                "status": "draining" if self.draining else "ok",
                "inflight": self.inflight(),
                "shards": self.shard_count,
                "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
            }
            self._respond(conn, 200, document, endpoint="/healthz")
        elif self._wants_prometheus(parsed.query, conn.headers.get("accept", "")):
            self._respond(
                conn, 200, None, endpoint="/metricsz",
                body=self.prometheus_document().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._respond(
                conn, 200, self.metrics_document(), endpoint="/metricsz"
            )

    @staticmethod
    def _wants_prometheus(query: str, accept: str) -> bool:
        formats = parse_qs(query).get("format")
        if formats:
            return formats[-1] == "prometheus"
        return "text/plain" in accept or "openmetrics" in accept

    # -- POST routing --------------------------------------------------------

    def _dispatch_post(self, conn: _ClientConn) -> None:
        is_batch = conn.path == "/v1/batch"
        if not is_batch and conn.path not in POST_ROUTES:
            self._reject(conn, 404, "not found")
            return
        command = POST_ROUTES.get(conn.path)
        self.emit_event(
            ServerRequestBegin(
                endpoint=conn.path, command=command, trace_id=conn.trace_id
            )
        )
        try:
            body = json.loads(bytes(conn.inbuf[: conn.body_length]).decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError):
            self._reject(conn, 400, "body is not valid JSON", command)
            return
        del conn.inbuf[: conn.body_length]
        conn.state = "wait"
        if self.draining:
            self.stats.record_rejected("draining")
            self._reject(
                conn, 503, "server is draining", command,
                retry_after=self.stats.retry_after(0, 1),
            )
            return
        if is_batch:
            self._dispatch_batch(conn, body)
            return
        try:
            handle, message = self._route(body, command)
        except ProtocolError as error:
            self._reject(conn, 400, str(error), command)
            return
        if handle.inflight >= self.queue_size:
            self._reject_queue_full(
                conn, handle, command,
                f"queue full on shard {handle.shard_id}",
            )
            return
        self._enqueue(_Pending(conn, command, handle), message)

    def _route(self, body, command: Optional[str]) -> Tuple[ShardHandle, dict]:
        """The shard for one request and the body to forward to it.

        Only the validated protocol fields travel: unknown keys of the
        client's body never reach the pipe, and the options are the
        request's own (the shard merges the server-wide ones itself).
        Raises :class:`ProtocolError` on a malformed body.
        """
        command, source, name, _merged, _config, key = request_identity(
            body, command, self.base_options
        )
        message = {
            "command": command,
            "source": source,
            "name": name,
            "options": body.get("options", {}),
        }
        return self.shards[self.ring.route(key)], message

    def _dispatch_batch(self, conn: _ClientConn, body) -> None:
        try:
            items = validate_batch(body)
        except ProtocolError as error:
            self._reject(conn, 400, str(error))
            return
        routed: List[Tuple[int, Optional[ShardHandle], dict]] = []
        demand: Dict[int, int] = {}
        for slot, item in enumerate(items):
            if not isinstance(item, dict):
                item = {"source": item}  # fails validation with a clear error
            try:
                handle, message = self._route(item, None)
            except ProtocolError as error:
                declared = item.get("command")
                failure = error_response(
                    declared if isinstance(declared, str) else None,
                    str(error),
                    **UNCACHED,
                )
                routed.append((slot, None, failure))
                continue
            demand[handle.shard_id] = demand.get(handle.shard_id, 0) + 1
            routed.append((slot, handle, message))
        # Atomic admission: every target shard must have room for its
        # whole share, or the batch bounces as a unit.
        for shard_id, count in demand.items():
            handle = self.shards[shard_id]
            if handle.inflight + count > self.queue_size:
                self._reject_queue_full(
                    conn, handle, None,
                    f"batch needs {count} slots on shard {shard_id}",
                )
                return
        batch = _Batch(conn, len(items))
        for slot, handle, message in routed:
            if handle is None:
                batch.results[slot] = message
                continue
            batch.remaining += 1
            self._enqueue(_Pending(conn, None, handle, batch, slot), message)
        if batch.remaining == 0:
            self._finish_batch(batch)

    def _reject_queue_full(
        self, conn: _ClientConn, handle: ShardHandle,
        command: Optional[str], what: str,
    ) -> None:
        self.stats.record_rejected("queue_full")
        self._reject(
            conn, 503,
            f"{what} ({handle.inflight} in flight, capacity {self.queue_size})",
            command,
            retry_after=self.stats.retry_after(handle.inflight, 1),
        )

    def _enqueue(self, pending: _Pending, body: dict) -> None:
        self._next_id += 1
        self._pending[self._next_id] = pending
        try:
            pending.shard.submit({
                "op": "request",
                "id": self._next_id,
                "body": body,
                "command": pending.command,
                "trace_id": pending.conn.trace_id,
            })
        except OSError:
            self._shard_failed(pending.shard)

    # -- shard replies -------------------------------------------------------

    def _on_shard_readable(self, handle: ShardHandle) -> None:
        while True:
            try:
                if not handle.conn.poll():
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                self._shard_failed(handle)
                return
            if not isinstance(message, dict) or message.get("op") != "response":
                continue
            handle.stats_snapshot = message.get("stats") or handle.stats_snapshot
            try:
                handle.answered()
            except OSError:
                self._shard_failed(handle)
                return
            pending = self._pending.pop(message.get("id"), None)
            if pending is not None:
                self._settle(
                    pending,
                    message.get("response") or {},
                    int(message.get("http_status", 200)),
                )

    def _shard_failed(self, handle: ShardHandle) -> None:
        """A shard died mid-flight: fail its requests, then respawn it."""
        try:
            self._selector.unregister(handle.conn)
        except (KeyError, ValueError):
            pass
        # Empty the queue before answering: a client that has its 500
        # must find the request no longer in flight.
        handle.drop()
        failed = [
            (request_id, pending)
            for request_id, pending in self._pending.items()
            if pending.shard is handle
        ]
        for request_id, pending in failed:
            del self._pending[request_id]
            self._settle(
                pending,
                error_response(
                    pending.command, f"shard {handle.shard_id} worker died",
                    **UNCACHED,
                ),
                500,
            )
        log_event(
            self.access_log, "shard died", shard=handle.shard_id,
            restarts=handle.restarts,
        )
        if self.draining:
            return
        try:
            handle.respawn()
        except RuntimeError:
            log_event(
                self.access_log, "shard respawn failed", shard=handle.shard_id
            )
            return
        self._selector.register(handle.conn, selectors.EVENT_READ, ("shard", handle))

    def _settle(
        self, pending: _Pending, response: dict, http_status: int
    ) -> None:
        if pending.batch is not None:
            batch = pending.batch
            batch.results[pending.slot] = response
            batch.remaining -= 1
            if batch.remaining == 0:
                self._finish_batch(batch)
            return
        self._respond(
            pending.conn, http_status, response,
            command=response.get("command", pending.command),
            cached=response.get("cached"),
            degraded=bool(response.get("degraded")),
        )

    def _finish_batch(self, batch: _Batch) -> None:
        results = [result or {} for result in batch.results]
        self._respond(
            batch.conn, 200, {"status": "ok", "results": results},
            degraded=any(result.get("degraded") for result in results),
        )

    # -- responses -----------------------------------------------------------

    def _reject(
        self, conn: _ClientConn, status: int, message: str,
        command: Optional[str] = None, retry_after: Optional[int] = None,
    ) -> None:
        """Answer ``status`` with the front end's own error document."""
        self._respond(
            conn, status, {"status": "error", "error": message},
            command=command, retry_after=retry_after,
        )

    def _respond(
        self, conn: _ClientConn, status: int, document: Optional[dict],
        endpoint: Optional[str] = None, command: Optional[str] = None,
        cached: Optional[str] = None, degraded: bool = False,
        body: Optional[bytes] = None, content_type: str = "application/json",
        retry_after: Optional[int] = None,
    ) -> None:
        """Write one response and account for it: every answer ends here.

        ``endpoint`` defaults to the request path; ``body`` replaces the
        JSON rendering of ``document``; ``retry_after`` goes with a 503.
        """
        endpoint = endpoint or conn.path or "?"
        if body is None:
            body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        if not conn.closed:
            lines = [
                f"HTTP/1.0 {status} {_REASONS.get(status, 'Unknown')}",
                "Server: repro-serve",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
            ]
            if conn.trace_id:
                lines.append(f"{tracecontext.TRACE_HEADER}: {conn.trace_id}")
            if status == 503:
                lines.append(f"Retry-After: {retry_after}")
            lines.append("Connection: close")
            head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
            conn.outbuf = head + body
            conn.out_offset = 0
            conn.state = "write"
            try:
                self._selector.modify(conn.sock, selectors.EVENT_WRITE, ("client", conn))
            except (KeyError, ValueError):  # pragma: no cover -- raced close
                self._close_conn(conn)
            else:
                # Try an eager write: most responses fit the socket
                # buffer, so the common case needs no further iteration.
                self._on_client_writable(conn)
        elapsed_ms = (time.perf_counter() - conn.started) * 1000
        self.stats.record_request(
            endpoint, status, elapsed_ms, cached=cached, degraded=degraded
        )
        self.emit_event(
            ServerRequestEnd(
                endpoint=endpoint,
                command=command,
                status=status,
                elapsed_ms=round(elapsed_ms, 3),
                cached=cached,
                degraded=degraded,
                trace_id=conn.trace_id,
            )
        )
        self.record_span(
            endpoint, conn.started, time.perf_counter(), trace_id=conn.trace_id
        )
        log_event(
            self.access_log,
            "request",
            method=conn.method,
            endpoint=endpoint,
            status=status,
            cached=cached,
            degraded=degraded,
            elapsed_ms=round(elapsed_ms, 3),
            trace_id=conn.trace_id,
        )


def serve_daemon(drain_timeout_s: float, **settings) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain and exit.

    This is the body of ``repro serve``.  ``settings`` are
    :class:`ShardedServer`'s keyword arguments, defaults included;
    ``drain_timeout_s`` bounds the drain.  The readiness line
    (``listening on HOST:PORT``) is printed only after the socket is
    bound, so supervisors and CI scripts can wait for it; with
    ``port=0`` the kernel-assigned port is the one printed.  A signal
    starts a drain that finishes in-flight work and collects every
    shard process; the exit status is 0 only on a clean drain.

    The access log (one JSON line per request, stderr) is enabled here
    and only here: in-process embedders get a silent server unless they
    call :func:`repro.observability.logging.configure_json_logging`
    themselves.
    """
    from repro.observability.logging import configure_json_logging

    configure_json_logging()
    # Shards fork inside the constructor, before any thread starts.
    server = ShardedServer(**settings)
    timeout = "none" if server.timeout_s is None else f"{server.timeout_s}s"
    print(
        f"repro serve: listening on {server.host}:{server.port} "
        f"(shards={server.shard_count}, queue={server.queue_size}/shard, "
        f"cache={'disk+memory' if server.cache_dir else 'memory'}, "
        f"timeout={timeout})",
        flush=True,
    )

    stop = threading.Event()

    def _signal_handler(signum, frame) -> None:  # noqa: ARG001
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _signal_handler)
    loop = threading.Thread(
        target=server.serve_forever, name="repro-serve-frontend", daemon=True
    )
    loop.start()
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(f"repro serve: draining ({server.inflight()} in flight)...", flush=True)
    finished = server.drain(timeout=drain_timeout_s)
    loop.join(timeout=5.0)
    snapshot = server.stats.snapshot()
    print(
        f"repro serve: drained; served "
        f"{sum(snapshot['responses'].values())} responses "
        f"({snapshot['degraded']} degraded)",
        flush=True,
    )
    return 0 if finished else 1

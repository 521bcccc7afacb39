"""Shard worker processes for the scale-out serving tier.

A shard is one OS process holding everything expensive to rebuild: the
imported engine, the perf layer's interning/memoization caches, and a
shard-local in-memory result LRU over the *shared* on-disk cache
directory.  The GIL caps a single Python process at roughly one core of
analysis no matter how many threads it runs; N shard processes are N
cores of analysis, and the consistent-hash router
(:mod:`repro.server.router`) keeps each shard's hot caches hot by
always sending the same content address to the same shard.

Wire protocol (pickled dicts over a duplex :func:`multiprocessing.Pipe`,
all sends complete messages so the selector-driven parent never blocks
mid-frame):

parent -> shard
    ``{"op": "request", "id": n, "body": {...}, "command": ..., "trace_id": ...}``
    ``None``                          -- drain: finish up and exit

shard -> parent
    ``{"op": "ready", "shard": i, "pid": p, "stats": {...}}``  once, at boot
    ``{"op": "response", "id": n, "response": {...},
       "http_status": 200|500, "shard": i, "stats": {...}}``

Every response piggybacks a small stats snapshot (cache counters +
served count), so the front end always has a recent per-shard view for
``/metricsz`` without a blocking round trip into a shard that may be
mid-analysis.

Shards process one request at a time: cross-request concurrency is the
*shard count*, which is the whole point -- in-shard thread pools would
just re-serialise on the GIL.  Per-request deadlines and degradation
work inside each shard because they live in
:class:`~repro.server.service.AnalysisService`, which runs here
unchanged; that is also what makes sharded responses byte-identical to
the one-shot CLI at every shard count.

Shards ignore SIGINT/SIGTERM: shutdown is the parent's drain protocol
(a ``None`` sentinel after all in-flight responses are collected), so a
Ctrl-C delivered to the process group cannot kill a shard while the
front end still owes its clients responses.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import Dict, Optional

#: Analysed once at shard boot, result discarded: pulls the whole
#: lexer->predictor import chain and primes the perf layer before the
#: shard reports ready, so the first real request pays no import tax.
WARMUP_SOURCE = "func main(n) { if (n > 0) { return n; } return 0; }"


def _shard_stats(cache, served: int, degraded: int, incremental_store=None) -> dict:
    """The per-shard telemetry piggybacked on every reply."""
    stats = {"cache": cache.stats(), "served": served, "degraded": degraded}
    if incremental_store is not None:
        stats["incremental"] = incremental_store.stats()
    return stats


def shard_main(conn, shard_id: int, settings: dict) -> None:
    """The shard process body: serve requests from ``conn`` until drained.

    ``settings`` carries the picklable subset of the daemon's
    configuration: ``cache_dir`` (shared across shards),
    ``memory_cache_entries`` (the shard-local LRU bound), ``timeout_s``,
    ``base_options``, and ``incremental`` (consult the per-function
    summary store on whole-file cache misses; its disk tier, when
    ``cache_dir`` is set, is shared across shards like the result
    cache's).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)

    from repro.incremental.store import IncrementalStore, TwoTierStore
    from repro.server.service import AnalysisService, analyze_payload

    cache = TwoTierStore(
        memory_entries=int(settings.get("memory_cache_entries", 1024)),
        disk_dir=settings.get("cache_dir"),
    )
    incremental_store = None
    if settings.get("incremental"):
        cache_dir = settings.get("cache_dir")
        incremental_store = IncrementalStore(
            disk_dir=os.path.join(cache_dir, "incremental") if cache_dir else None
        )
    service = AnalysisService(
        cache=cache,
        timeout_s=settings.get("timeout_s"),
        base_options=settings.get("base_options"),
        incremental_store=incremental_store,
    )
    try:
        # Warm the resident engine outside the cache: the warmup result
        # must not occupy an LRU slot or write a disk entry.
        analyze_payload("predict", WARMUP_SOURCE, "-", {})
    except Exception:  # pragma: no cover -- warmup is best-effort
        pass

    served = 0
    degraded = 0
    try:
        conn.send(
            {
                "op": "ready",
                "shard": shard_id,
                "pid": os.getpid(),
                "stats": _shard_stats(cache, served, degraded, incremental_store),
            }
        )
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent died; nothing left to answer to
            if message is None:
                return  # drain sentinel
            if not isinstance(message, dict) or message.get("op") != "request":
                continue
            http_status = 200
            try:
                response = service.execute_item(
                    message.get("body"),
                    message.get("command"),
                    trace_id=message.get("trace_id"),
                )
            except Exception as error:  # noqa: BLE001 -- a shard must not die
                response = {
                    "status": "error",
                    "command": message.get("command"),
                    "output": "",
                    "exit_code": 1,
                    "degraded": False,
                    "error": f"internal error: {error}",
                    "key": None,
                    "cached": None,
                    "elapsed_ms": 0.0,
                }
                http_status = 500
            served += 1
            if response.get("degraded"):
                degraded += 1
            try:
                conn.send(
                    {
                        "op": "response",
                        "id": message.get("id"),
                        "response": response,
                        "http_status": http_status,
                        "shard": shard_id,
                        "stats": _shard_stats(cache, served, degraded, incremental_store),
                    }
                )
            except (BrokenPipeError, OSError):
                return
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class ShardHandle:
    """The parent-side view of one shard: process + pipe + counters.

    All mutation happens on the front end's event-loop thread, so the
    counters need no locks; ``/metricsz`` reads go through the front
    end's snapshot methods which copy them.
    """

    def __init__(self, shard_id: int, settings: dict, mp_context=None):
        self.shard_id = shard_id
        self.settings = dict(settings)
        self._mp = mp_context if mp_context is not None else multiprocessing.get_context()
        #: Requests dispatched and not yet answered (the bounded queue).
        self.inflight = 0
        self.high_water = 0
        self.restarts = 0
        #: Latest piggybacked stats snapshot from the shard.
        self.stats_snapshot: dict = {"cache": {}, "served": 0, "degraded": 0}
        self.ready = False
        self.process = None
        self.conn = None
        self._spawn()

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self) -> None:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        self.process = self._mp.Process(
            target=shard_main,
            args=(child_conn, self.shard_id, self.settings),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.ready = False

    def wait_ready(self, timeout_s: float = 60.0) -> dict:
        """Block until the shard's ready handshake (boot-time only)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.conn.poll(0.05):
                message = self.conn.recv()
                if isinstance(message, dict) and message.get("op") == "ready":
                    self.stats_snapshot = message.get("stats") or self.stats_snapshot
                    self.ready = True
                    return message
            if not self.process.is_alive():
                break
        raise RuntimeError(
            f"shard {self.shard_id} never became ready "
            f"(alive={self.process.is_alive()})"
        )

    def respawn(self) -> None:
        """Replace a dead shard process (crash resilience, not drain)."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():  # pragma: no cover -- defensive
            self.process.terminate()
        self.process.join(timeout=5.0)
        self.restarts += 1
        self.inflight = 0
        self._spawn()
        self.wait_ready()

    def shutdown(self, timeout_s: float = 10.0) -> bool:
        """Send the drain sentinel and collect the process."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=timeout_s)
        collected = not self.process.is_alive()
        if not collected:
            self.process.terminate()
            self.process.join(timeout=5.0)
            collected = not self.process.is_alive()
        try:
            self.conn.close()
        except OSError:
            pass
        return collected

    # -- event-loop-side accessors -------------------------------------------

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def fileno(self) -> int:
        return self.conn.fileno()

    def send_request(
        self,
        request_id: int,
        body: dict,
        command: Optional[str],
        trace_id: Optional[str],
    ) -> None:
        """Dispatch one request; the caller accounts ``inflight``."""
        self.conn.send(
            {
                "op": "request",
                "id": request_id,
                "body": body,
                "command": command,
                "trace_id": trace_id,
            }
        )
        self.inflight += 1
        self.high_water = max(self.high_water, self.inflight)

    def snapshot(self) -> Dict[str, object]:
        """The per-shard document for ``/metricsz`` (``server.shards``)."""
        out = {
            "shard": self.shard_id,
            "queue": {"depth": self.inflight, "high_water": self.high_water},
            "cache": dict(self.stats_snapshot.get("cache") or {}),
            "served": int(self.stats_snapshot.get("served", 0)),
            "degraded": int(self.stats_snapshot.get("degraded", 0)),
            "alive": self.alive,
            "restarts": self.restarts,
        }
        incremental = self.stats_snapshot.get("incremental")
        if incremental is not None:
            # Present only when the shard runs with the summary store,
            # so non-incremental snapshots keep their pre-store shape.
            out["incremental"] = dict(incremental)
        return out

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
    (``body`` holds only the validated ``command``, ``source``, ``name``
    and the request's own ``options``)
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
from collections import deque
from typing import Deque, Dict, Optional

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


def shard_main(
    conn, shard_id: int, *, cache_dir, memory_cache_entries, timeout_s,
    base_options, incremental,
) -> None:
    """The shard process body: serve requests from ``conn`` until drained.

    The keyword arguments are the picklable subset of the daemon's
    settings, always passed by :class:`ShardHandle` (their defaults
    live on :class:`~repro.server.frontend.ShardedServer`):
    ``cache_dir`` is shared across shards, ``memory_cache_entries``
    bounds the shard-local LRU, and ``incremental`` consults the
    per-function summary store on whole-file cache misses (its disk
    tier, when ``cache_dir`` is set, is shared across shards like the
    result cache's).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)

    from repro.incremental.store import IncrementalStore, TwoTierStore
    from repro.server.protocol import UNCACHED, error_response
    from repro.server.service import AnalysisService, analyze_payload

    cache = TwoTierStore(memory_entries=memory_cache_entries, disk_dir=cache_dir)
    incremental_store = None
    if incremental:
        incremental_store = IncrementalStore(
            disk_dir=os.path.join(cache_dir, "incremental") if cache_dir else None
        )
    service = AnalysisService(
        cache=cache,
        timeout_s=timeout_s,
        base_options=base_options,
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
                response = error_response(
                    message.get("command"), f"internal error: {error}", **UNCACHED
                )
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
    """The parent-side view of one shard: process, pipe and request queue.

    The queue is the shard's bounded backlog: one message in the pipe
    (the shard is either analysing it or blocked in ``recv()``, so a
    send from the event loop never blocks on a full pipe buffer) and
    the rest waiting here.  :meth:`submit`, :meth:`answered` and
    :meth:`drop` are its only mutators; the first two raise
    ``OSError`` when the pipe is broken.

    All mutation happens on the front end's event-loop thread, so the
    counters need no locks; ``/metricsz`` reads go through the front
    end's snapshot methods which copy them.
    """

    def __init__(self, shard_id: int, settings: dict):
        self.shard_id = shard_id
        self.settings = dict(settings)
        self.waiting: Deque[dict] = deque()
        self.in_pipe: Optional[dict] = None
        self.high_water = 0
        self.restarts = 0
        #: Latest piggybacked stats snapshot from the shard.
        self.stats_snapshot: dict = {"cache": {}, "served": 0, "degraded": 0}
        self.process = None
        self.conn = None
        self._spawn()

    # -- the request queue ---------------------------------------------------

    @property
    def inflight(self) -> int:
        """Requests queued and not yet answered."""
        return len(self.waiting) + (self.in_pipe is not None)

    def submit(self, message: dict) -> None:
        """Queue one request message, sending it if the pipe is free."""
        self.waiting.append(message)
        self.high_water = max(self.high_water, self.inflight)
        self._fill_pipe()

    def answered(self) -> None:
        """The shard answered the message in its pipe: send the next."""
        self.in_pipe = None
        self._fill_pipe()

    def drop(self) -> None:
        """Forget every queued message (the shard died)."""
        self.waiting.clear()
        self.in_pipe = None

    def _fill_pipe(self) -> None:
        if self.in_pipe is None and self.waiting:
            self.in_pipe = self.waiting.popleft()
            self.conn.send(self.in_pipe)

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self) -> None:
        context = multiprocessing.get_context()
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=shard_main,
            args=(child_conn, self.shard_id),
            kwargs=self.settings,
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def wait_ready(self, timeout_s: float = 60.0) -> dict:
        """Block until the shard's ready handshake (boot-time only)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.conn.poll(0.05):
                message = self.conn.recv()
                if isinstance(message, dict) and message.get("op") == "ready":
                    self.stats_snapshot = message.get("stats") or self.stats_snapshot
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

    def snapshot(self) -> Dict[str, object]:
        """The per-shard document for ``/metricsz`` (``server.shards``)."""
        out = {
            "shard": self.shard_id,
            "queue": {"depth": self.inflight, "high_water": self.high_water},
            "cache": dict(self.stats_snapshot.get("cache") or {}),
            "served": int(self.stats_snapshot.get("served", 0)),
            "degraded": int(self.stats_snapshot.get("degraded", 0)),
            "alive": self.process.is_alive(),
            "restarts": self.restarts,
        }
        incremental = self.stats_snapshot.get("incremental")
        if incremental is not None:
            # Present only when the shard runs with the summary store,
            # so non-incremental snapshots keep their pre-store shape.
            out["incremental"] = dict(incremental)
        return out

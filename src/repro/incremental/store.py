"""The content-addressed two-tier store behind every on-disk cache.

:class:`TwoTierStore` maps a hex key to a JSON-serialisable payload:

* **memory** -- a bounded :class:`~repro.core.perf.stats.LRUCache`;
  fastest, per-process;
* **disk** -- one JSON file per key under ``<dir>/<key[:2]>/<key>.json``
  written atomically (temp file + ``os.replace``), so warm entries
  survive restarts, a crashed writer never leaves a half-written
  entry, and several processes (server shards, the CLI) can share one
  directory without coordination.  A disk hit is promoted into the
  memory tier.

The serving tier keys it on whole requests (:func:`repro.server.cache.
request_key`); :class:`IncrementalStore` keys it on callgraph components
(see :mod:`repro.incremental.driver`) and additionally tracks
**function_hits** / **function_misses** -- how many functions were
replayed vs. reanalyzed across all lookups -- which the serve tier
surfaces in ``/metricsz`` and the Prometheus families.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from typing import Optional, Tuple

from repro.core.perf.stats import CacheStats, LRUCache


class TwoTierStore:
    """Thread-safe two-tier (memory over disk) content-addressed store.

    ``memory_entries`` bounds the LRU tier (0 disables it); ``disk_dir``
    of ``None`` disables the disk tier entirely.
    """

    def __init__(
        self,
        memory_entries: int = 1024,
        disk_dir: Optional[str] = None,
    ):
        if memory_entries < 0:
            raise ValueError("memory_entries must be >= 0")
        self.memory_entries = memory_entries
        self.disk_dir = disk_dir
        self._memory_stats = CacheStats()
        self._memory = LRUCache(memory_entries, self._memory_stats)
        self._lock = threading.RLock()
        self._disk_stats = {"hits": 0, "misses": 0, "errors": 0}
        self._stores = 0
        if disk_dir is not None:
            os.makedirs(disk_dir, exist_ok=True)

    # -- lookup --------------------------------------------------------------

    def get(self, key: str) -> Tuple[Optional[dict], Optional[str]]:
        """Return ``(copy of payload, tier)``; ``(None, None)`` on a miss.

        The copy is shallow: callers may add or replace top-level fields
        without touching the stored entry.
        """
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                return dict(payload), "memory"
            if self.disk_dir is None:
                return None, None
            payload = self._read_disk(key)
            if payload is None:
                self._disk_stats["misses"] += 1
                return None, None
            self._disk_stats["hits"] += 1
            self._remember(key, payload)
            return dict(payload), "disk"

    def put(self, key: str, payload: dict) -> None:
        """Store a deterministic payload in both tiers."""
        with self._lock:
            self._stores += 1
            self._remember(key, dict(payload))
            if self.disk_dir is not None:
                self._write_disk(key, payload)

    def clear(self) -> None:
        """Drop the memory tier (the disk tier is left alone)."""
        with self._lock:
            self._memory.clear()

    def stats(self) -> dict:
        """A serialisable copy of the per-tier counters."""
        with self._lock:
            memory = self._memory_stats
            return {
                "memory": {
                    "hits": memory.hits,
                    "misses": memory.misses,
                    "evictions": memory.evictions,
                    "entries": len(self._memory),
                },
                "disk": {
                    **self._disk_stats,
                    "enabled": self.disk_dir is not None,
                },
                "stores": self._stores,
            }

    # -- internals -----------------------------------------------------------

    def _remember(self, key: str, payload: dict) -> None:
        if self.memory_entries:
            self._memory.put(key, payload)

    def _disk_path(self, key: str) -> str:
        assert self.disk_dir is not None
        return os.path.join(self.disk_dir, key[:2], f"{key}.json")

    def _read_disk(self, key: str) -> Optional[dict]:
        path = self._disk_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # A corrupt or unreadable entry is a miss; drop it so the
            # next store rewrites it cleanly.
            self._disk_stats["errors"] += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        if not isinstance(payload, dict):
            self._disk_stats["errors"] += 1
            return None
        return payload

    def _write_disk(self, key: str, payload: dict) -> None:
        path = self._disk_path(key)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                prefix=f".{key[:8]}-", suffix=".tmp", dir=directory
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    # One dumps call takes json's C encoder; json.dump
                    # streams through the pure-Python one (same bytes).
                    handle.write(json.dumps(payload, sort_keys=True))
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError:
            # Disk trouble degrades the store to memory-only for this
            # entry; correctness never depends on the disk tier.
            self._disk_stats["errors"] += 1


class IncrementalStore(TwoTierStore):
    """The per-component summary store, with per-function accounting.

    One memory entry per callgraph component; ``disk_dir`` of ``None``
    keeps the store memory-only, which is the right shape for
    ``repro watch`` (one process, many rechecks).
    """

    def __init__(
        self,
        memory_entries: int = 256,
        disk_dir: Optional[str] = None,
    ):
        super().__init__(memory_entries, disk_dir)
        self._function_hits = 0
        self._function_misses = 0

    def note_functions(self, hits: int = 0, misses: int = 0) -> None:
        """Account per-function replay/reanalysis (driver callback)."""
        with self._lock:
            self._function_hits += hits
            self._function_misses += misses

    def stats(self) -> dict:
        """The tier counters plus the per-function ones."""
        with self._lock:
            out = super().stats()
            out["function_hits"] = self._function_hits
            out["function_misses"] = self._function_misses
            return out

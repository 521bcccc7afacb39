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
(see :mod:`repro.incremental.driver`), keeps each component's decoded
:class:`~repro.incremental.serialize.ComponentState` in memory (JSON is
only its disk format), and additionally tracks **function_hits** /
**function_misses** -- how many functions were replayed vs. reanalyzed
across all lookups -- which the serve tier surfaces in ``/metricsz`` and
the Prometheus families.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from typing import Any, Callable, Optional, Tuple

from repro.core.perf.stats import STORE_MEMORY_ENTRIES, CacheStats, LRUCache
from repro.incremental.serialize import ComponentState

#: Turns a parsed disk entry into what the memory tier keeps; ``None``
#: (or a ``ValueError``) marks the entry damaged.
Decode = Callable[[Any], Any]


class TwoTierStore:
    """Thread-safe two-tier (memory over disk) content-addressed store.

    ``memory_entries`` bounds the LRU tier (0 disables it); ``disk_dir``
    of ``None`` disables the disk tier entirely.
    """

    def __init__(
        self,
        memory_entries: int = STORE_MEMORY_ENTRIES,
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

    def get(
        self, key: str, valid: Optional[Callable[[dict], bool]] = None
    ) -> Tuple[Optional[dict], Optional[str]]:
        """Return ``(copy of payload, tier)``; ``(None, None)`` on a miss.

        The copy is shallow: callers may add or replace top-level fields
        without touching the stored entry.  ``valid``, when given, is
        what a disk entry must satisfy: one that does not is damaged,
        like one that does not parse (see :meth:`_read_disk`).
        """

        def decode(payload):
            if isinstance(payload, dict) and (valid is None or valid(payload)):
                return payload
            return None

        payload, tier = self._lookup(key, decode)
        return (None if payload is None else dict(payload)), tier

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

    def _lookup(self, key: str, decode: Decode) -> Tuple[Any, Optional[str]]:
        """The memory entry, else the decoded disk entry promoted into
        memory: ``(value, tier)``, ``(None, None)`` on a miss."""
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                return value, "memory"
            if self.disk_dir is None:
                return None, None
            value = self._read_disk(key, decode)
            if value is None:
                self._disk_stats["misses"] += 1
                return None, None
            self._disk_stats["hits"] += 1
            self._remember(key, value)
            return value, "disk"

    def _remember(self, key: str, value: Any) -> None:
        if self.memory_entries:
            self._memory.put(key, value)

    def _disk_path(self, key: str) -> str:
        assert self.disk_dir is not None
        return os.path.join(self.disk_dir, key[:2], f"{key}.json")

    def _read_disk(self, key: str, decode: Decode) -> Any:
        """The decoded entry under ``key``, or ``None``.

        A corrupt, unreadable, too deeply nested or undecodable entry is
        a miss and a disk error; it is dropped so the next store
        rewrites it cleanly, and it never reaches the memory tier.
        """
        path = self._disk_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                value = decode(json.load(handle))
        except FileNotFoundError:
            return None
        except (OSError, ValueError, RecursionError):
            value = None
        if value is not None:
            return value
        self._disk_stats["errors"] += 1
        try:
            os.unlink(path)
        except OSError:
            pass
        return None

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

    The memory tier holds one decoded, IR-free
    :class:`~repro.incremental.serialize.ComponentState` per callgraph
    component, handed out as is and shared read-only by every replay.
    JSON is only the disk format: ``put`` encodes a state for the disk
    tier alone, and a disk hit is decoded once and promoted into memory;
    an entry that does not decode is a disk error and a miss.
    ``disk_dir`` of ``None`` keeps the store memory-only, which is the
    right shape for ``repro watch`` (one process, many rechecks).
    """

    def __init__(
        self,
        memory_entries: int = 256,
        disk_dir: Optional[str] = None,
    ):
        super().__init__(memory_entries, disk_dir)
        self._function_hits = 0
        self._function_misses = 0

    def get(self, key: str) -> Tuple[Optional[ComponentState], Optional[str]]:
        """Return ``(state, tier)``; ``(None, None)`` on a miss."""
        return self._lookup(key, ComponentState.from_json)

    def put(self, key: str, state: ComponentState) -> None:
        """Keep ``state`` in memory as is; encode it for the disk tier."""
        with self._lock:
            self._stores += 1
            self._remember(key, state)
            if self.disk_dir is not None:
                self._write_disk(key, state.to_json())

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

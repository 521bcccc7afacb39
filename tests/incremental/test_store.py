"""The two-tier store: LRU tier, disk tier, counters, and the shared directory.

One class backs both the serve tier's result cache (:class:`TwoTierStore`)
and the incremental summary store (:class:`IncrementalStore`, which adds
per-function accounting).
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.incremental.store import IncrementalStore, TwoTierStore
from tests.incremental.helpers import MULTI_COMPONENT

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62
KEY_C = "cc" + "0" * 62

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestMemoryTier:
    def test_round_trip(self):
        store = TwoTierStore()
        store.put(KEY_A, {"v": 1})
        payload, tier = store.get(KEY_A)
        assert payload == {"v": 1}
        assert tier == "memory"

    def test_miss(self):
        store = TwoTierStore()
        assert store.get(KEY_A) == (None, None)
        assert store.stats()["memory"]["misses"] == 1

    def test_lru_evicts_the_coldest_entry(self):
        store = TwoTierStore(memory_entries=2)
        store.put(KEY_A, {"n": 1})
        store.put(KEY_B, {"n": 2})
        store.get(KEY_A)  # A is now hotter than B
        store.put(KEY_C, {"n": 3})
        assert store.get(KEY_B) == (None, None)
        assert store.get(KEY_A) == ({"n": 1}, "memory")
        assert store.get(KEY_C)[0] == {"n": 3}
        assert store.stats()["memory"]["evictions"] == 1

    def test_zero_entries_disables_the_tier(self):
        store = TwoTierStore(memory_entries=0)
        store.put(KEY_A, {"n": 1})
        assert store.get(KEY_A) == (None, None)
        assert store.stats()["memory"]["entries"] == 0
        assert store.stats()["memory"]["evictions"] == 0

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            TwoTierStore(memory_entries=-1)

    def test_put_copies_the_payload(self):
        store = TwoTierStore()
        payload = {"n": 1}
        store.put(KEY_A, payload)
        payload["n"] = 99
        assert store.get(KEY_A)[0] == {"n": 1}

    def test_returns_a_copy(self, tmp_path):
        # Callers add fields to what they get back (the service stamps
        # ``cached``/``key``); neither tier may leak that into the entry.
        store = TwoTierStore(disk_dir=str(tmp_path))
        store.put(KEY_A, {"output": "x"})
        for expected_tier in ("memory", "disk"):
            if expected_tier == "disk":
                store.clear()
            first, tier = store.get(KEY_A)
            assert tier == expected_tier
            first["output"] = "mutated"
            assert store.get(KEY_A)[0] == {"output": "x"}

    def test_default_capacities(self):
        assert TwoTierStore().memory_entries == 1024
        assert IncrementalStore().memory_entries == 256


class TestDiskTier:
    def test_survives_a_process_restart(self, tmp_path):
        first = TwoTierStore(disk_dir=str(tmp_path))
        first.put(KEY_A, {"rounds": 3})
        fresh = TwoTierStore(disk_dir=str(tmp_path))
        payload, tier = fresh.get(KEY_A)
        assert payload == {"rounds": 3}
        assert tier == "disk"
        # Promoted into memory: the next lookup is a memory hit.
        assert fresh.get(KEY_A)[1] == "memory"

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        TwoTierStore(disk_dir=str(tmp_path)).put(KEY_A, {"n": 1})
        fresh = TwoTierStore(disk_dir=str(tmp_path))
        assert fresh.get(KEY_A)[1] == "disk"
        assert fresh.get(KEY_A)[1] == "memory"
        stats = fresh.stats()
        assert stats["disk"]["hits"] == 1
        assert stats["memory"]["hits"] == 1
        assert stats["memory"]["entries"] == 1

    def test_sharded_path_layout(self, tmp_path):
        store = TwoTierStore(disk_dir=str(tmp_path))
        store.put(KEY_A, {"n": 1})
        path = tmp_path / KEY_A[:2] / f"{KEY_A}.json"
        assert path.is_file()
        assert json.loads(path.read_text()) == {"n": 1}

    def test_corrupt_entry_is_a_miss_and_is_dropped(self, tmp_path):
        # Not JSON, and JSON nested past the decoder's recursion limit.
        for corrupt in ("{not json", "[" * 100_000 + "]" * 100_000):
            store = TwoTierStore(disk_dir=str(tmp_path))
            store.put(KEY_A, {"n": 1})
            path = tmp_path / KEY_A[:2] / f"{KEY_A}.json"
            path.write_text(corrupt)
            store.clear()  # force the disk read
            assert store.get(KEY_A) == (None, None)
            assert store.stats()["disk"]["errors"] == 1
            assert not path.exists()

    def test_non_dict_entry_is_a_miss(self, tmp_path):
        store = TwoTierStore(disk_dir=str(tmp_path))
        path = tmp_path / KEY_A[:2]
        os.makedirs(path, exist_ok=True)
        (path / f"{KEY_A}.json").write_text("[1, 2]")
        assert store.get(KEY_A) == (None, None)
        assert store.stats()["disk"]["errors"] == 1
        assert not (path / f"{KEY_A}.json").exists()

    def test_invalid_entry_is_an_error_not_a_hit(self, tmp_path):
        # An entry that parses but fails the caller's shape test is as
        # damaged as one that does not parse: never a hit, never kept
        # in the memory tier.
        TwoTierStore(disk_dir=str(tmp_path)).put(KEY_A, {"n": 1})
        store = TwoTierStore(disk_dir=str(tmp_path))
        assert store.get(KEY_A, valid=lambda payload: "v" in payload) == (None, None)
        stats = store.stats()
        assert stats["disk"] == {"hits": 0, "misses": 1, "errors": 1, "enabled": True}
        assert stats["memory"]["entries"] == 0
        assert not (tmp_path / KEY_A[:2] / f"{KEY_A}.json").exists()
        store.put(KEY_A, {"v": 2})
        store.clear()
        assert store.get(KEY_A, valid=lambda payload: "v" in payload) == ({"v": 2}, "disk")

    def test_clear_keeps_the_disk_tier(self, tmp_path):
        store = TwoTierStore(disk_dir=str(tmp_path))
        store.put(KEY_A, {"n": 1})
        store.clear()
        payload, tier = store.get(KEY_A)
        assert payload == {"n": 1}
        assert tier == "disk"

    def test_no_temp_files_left_behind(self, tmp_path):
        store = TwoTierStore(disk_dir=str(tmp_path))
        for key in (KEY_A, KEY_B, KEY_C):
            store.put(key, {"k": key})
        leftovers = [
            name
            for _, _, names in os.walk(tmp_path)
            for name in names
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_cli_warmed_store_is_replayed_by_the_daemon(self, tmp_path):
        # docs/INCREMENTAL.md: `repro predict --incremental --store-dir
        # D/incremental` and `repro serve --cache-dir D --incremental`
        # share one summary store.  Warm it from a CLI process, then
        # serve the same file from a daemon whose result cache is cold.
        from repro.server import ServeClient, ShardedServer

        program = tmp_path / "p.toy"
        program.write_text(MULTI_COMPONENT, encoding="utf-8")
        cache_dir = tmp_path / "cache"
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        cli = subprocess.run(
            [
                sys.executable, "-m", "repro", "predict", "--incremental",
                "--store-dir", str(cache_dir / "incremental"), str(program),
            ],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        server = ShardedServer(
            port=0, shards=1, cache_dir=str(cache_dir), incremental=True
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            client = ServeClient(port=server.port)
            client.wait_ready()
            response = client.analyze("predict", MULTI_COMPONENT)
            assert response["cached"] is None
            assert response["output"] == cli.stdout
            incremental = client.metricsz()["server"]["incremental"]
            assert incremental["function_hits"] > 0
            assert incremental["function_misses"] == 0
        finally:
            assert server.drain(timeout=10)


class TestCounters:
    def test_stats_shape(self):
        stats = TwoTierStore().stats()
        assert set(stats) == {"memory", "disk", "stores"}
        assert set(stats["memory"]) == {"hits", "misses", "evictions", "entries"}
        assert set(stats["disk"]) == {"hits", "misses", "errors", "enabled"}
        assert stats["disk"]["enabled"] is False
        assert set(IncrementalStore().stats()) == {
            "memory", "disk", "stores", "function_hits", "function_misses"
        }

    def test_function_accounting(self):
        store = IncrementalStore()
        store.note_functions(hits=3, misses=1)
        store.note_functions(hits=2)
        stats = store.stats()
        assert stats["function_hits"] == 5
        assert stats["function_misses"] == 1

    def test_tier_counters_track_lookups(self, tmp_path):
        store = TwoTierStore(disk_dir=str(tmp_path))
        store.get(KEY_A)                     # memory miss + disk miss
        store.put(KEY_A, {"n": 1})
        store.get(KEY_A)                     # memory hit
        store.clear()
        store.get(KEY_A)                     # memory miss + disk hit
        stats = store.stats()
        assert stats["memory"] == {
            "hits": 1, "misses": 2, "evictions": 0, "entries": 1
        }
        assert stats["disk"] == {
            "hits": 1, "misses": 1, "errors": 0, "enabled": True
        }
        assert stats["stores"] == 1

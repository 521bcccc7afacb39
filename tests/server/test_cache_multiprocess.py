"""Cross-process safety of the shared on-disk result cache.

The sharded tier points every shard process at one ``--cache-dir``.
Safety rests on the atomic write protocol (temp file + ``os.replace``
in the same directory): a reader can never observe a half-written
entry, racing writers of the same key each land a *complete* entry
(last replace wins), and a corrupt entry is evicted on read without
disturbing concurrent readers.  These tests drive real processes, not
threads -- the GIL serialises threads enough to mask real races.
"""

import json
import multiprocessing
import os

from repro.incremental.store import TwoTierStore

KEY = "ab" + "0" * 62  # well-formed sha256-shaped key


def _writer(disk_dir: str, key: str, rounds: int, seed: int) -> None:
    cache = TwoTierStore(memory_entries=4, disk_dir=disk_dir)
    for round_index in range(rounds):
        cache.put(key, {"output": f"writer-{seed}-round-{round_index}", "n": seed})


def _reader(disk_dir: str, key: str, rounds: int, queue) -> None:
    # memory_entries=0 forces every get to the disk tier.
    cache = TwoTierStore(memory_entries=0, disk_dir=disk_dir)
    bad = 0
    for _ in range(rounds):
        payload, tier = cache.get(key)
        if payload is None:
            continue
        if tier != "disk" or not str(payload.get("output", "")).startswith("writer-"):
            bad += 1
    queue.put((bad, cache.stats()["disk"]["errors"]))


def _hammer(disk_dir: str, worker_id: int, rounds: int, queue) -> None:
    """Mixed load: each process writes its own keys and reads everyone's."""
    cache = TwoTierStore(memory_entries=2, disk_dir=disk_dir)
    bad = 0
    for round_index in range(rounds):
        own = f"{worker_id:02x}" + "c" * 62
        cache.put(own, {"output": f"w{worker_id}", "round": round_index})
        for other in range(4):
            key = f"{other:02x}" + "c" * 62
            payload, _ = cache.get(key)
            if payload is not None and payload.get("output") != f"w{other}":
                bad += 1
    queue.put(bad)


class TestRacingWriters:
    def test_same_key_racing_writers_never_corrupt(self, tmp_path):
        disk_dir = str(tmp_path / "cache")
        context = multiprocessing.get_context()
        queue = context.Queue()
        writers = [
            context.Process(target=_writer, args=(disk_dir, KEY, 50, seed))
            for seed in range(4)
        ]
        readers = [
            context.Process(target=_reader, args=(disk_dir, KEY, 200, queue))
            for _ in range(2)
        ]
        for process in writers + readers:
            process.start()
        for process in writers + readers:
            process.join(timeout=60)
            assert process.exitcode == 0
        for _ in readers:
            bad, disk_errors = queue.get(timeout=10)
            assert bad == 0
            # Atomic replace means a racing read never sees a torn
            # file, so the error counter stays at zero.
            assert disk_errors == 0
        # The surviving entry is one complete write, valid JSON.
        final = TwoTierStore(memory_entries=0, disk_dir=disk_dir)
        payload, tier = final.get(KEY)
        assert tier == "disk"
        assert payload["output"].startswith("writer-")

    def test_mixed_read_write_load_across_processes(self, tmp_path):
        disk_dir = str(tmp_path / "cache")
        context = multiprocessing.get_context()
        queue = context.Queue()
        processes = [
            context.Process(target=_hammer, args=(disk_dir, worker, 30, queue))
            for worker in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        for _ in processes:
            assert queue.get(timeout=10) == 0


class TestCorruptEntries:
    def _corrupt(self, disk_dir: str, key: str) -> str:
        path = os.path.join(disk_dir, key[:2], f"{key}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"output": "trunca')  # torn write, pre-atomicity
        return path

    def test_corrupt_entry_is_a_miss_and_evicted(self, tmp_path):
        disk_dir = str(tmp_path / "cache")
        cache = TwoTierStore(memory_entries=4, disk_dir=disk_dir)
        path = self._corrupt(disk_dir, KEY)
        assert cache.get(KEY) == (None, None)
        assert cache.stats()["disk"]["errors"] == 1
        assert not os.path.exists(path)  # evicted, next store rewrites

    def test_concurrent_readers_of_a_corrupt_entry(self, tmp_path):
        # Every reader process sees a clean miss; whichever one evicts
        # first does not break the others mid-read.
        disk_dir = str(tmp_path / "cache")
        self._corrupt(disk_dir, KEY)
        context = multiprocessing.get_context()
        queue = context.Queue()
        readers = [
            context.Process(target=_reader, args=(disk_dir, KEY, 50, queue))
            for _ in range(4)
        ]
        for process in readers:
            process.start()
        for process in readers:
            process.join(timeout=60)
            assert process.exitcode == 0
        for _ in readers:
            bad, _errors = queue.get(timeout=10)
            assert bad == 0

    def test_rewrite_after_eviction_round_trips(self, tmp_path):
        disk_dir = str(tmp_path / "cache")
        cache = TwoTierStore(memory_entries=0, disk_dir=disk_dir)
        self._corrupt(disk_dir, KEY)
        assert cache.get(KEY) == (None, None)
        cache.put(KEY, {"output": "clean"})
        payload, tier = cache.get(KEY)
        assert (payload["output"], tier) == ("clean", "disk")


class TestDiskPromotion:
    def test_disk_hit_promotes_into_local_memory_tier(self, tmp_path):
        # Two caches over one directory model two shards sharing
        # --cache-dir: shard A's store is shard B's disk hit, and the
        # hit lands in B's *own* memory LRU (never in A's).
        disk_dir = str(tmp_path / "cache")
        shard_a = TwoTierStore(memory_entries=8, disk_dir=disk_dir)
        shard_b = TwoTierStore(memory_entries=8, disk_dir=disk_dir)
        shard_a.put(KEY, {"output": "from-a"})

        payload, tier = shard_b.get(KEY)
        assert (payload["output"], tier) == ("from-a", "disk")
        payload, tier = shard_b.get(KEY)
        assert tier == "memory"  # promoted into B's LRU
        assert shard_b.stats()["memory"]["entries"] == 1
        # A's memory tier holds its own store; B's promotion did not
        # touch it (stats are shard-local).
        assert shard_a.stats()["memory"]["hits"] == 0

    def test_promotion_respects_local_lru_bound(self, tmp_path):
        disk_dir = str(tmp_path / "cache")
        writer = TwoTierStore(memory_entries=16, disk_dir=disk_dir)
        keys = [f"{index:02x}" + "d" * 62 for index in range(8)]
        for index, key in enumerate(keys):
            writer.put(key, {"output": f"v{index}"})
        reader = TwoTierStore(memory_entries=2, disk_dir=disk_dir)
        for key in keys:
            assert reader.get(key)[1] == "disk"
        stats = reader.stats()
        assert stats["memory"]["entries"] == 2  # bound held
        assert stats["memory"]["evictions"] == 6
        # The most recent promotions are the residents.
        assert reader.get(keys[-1])[1] == "memory"
        assert reader.get(keys[0])[1] == "disk"

    def test_disk_payload_matches_store_bytes(self, tmp_path):
        # The disk file is the payload, verbatim JSON: what one shard
        # stores is byte-for-byte what another serves.
        disk_dir = str(tmp_path / "cache")
        cache = TwoTierStore(memory_entries=4, disk_dir=disk_dir)
        payload = {"output": "table\n", "exit_code": 0, "status": "ok"}
        cache.put(KEY, payload)
        path = os.path.join(disk_dir, KEY[:2], f"{KEY}.json")
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == payload

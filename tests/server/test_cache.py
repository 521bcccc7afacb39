"""Content addressing and the two-tier store as the result cache."""

import json
import os

from repro.core import VRPConfig
from repro.incremental.store import TwoTierStore
from repro.server.cache import request_key

SOURCE = "func main(n) { return n; }"


def key_of(**overrides) -> str:
    params = {
        "command": "predict",
        "source": SOURCE,
        "name": "-",
        "options": {"intra": False},
        "config": VRPConfig(),
    }
    params.update(overrides)
    return request_key(
        params["command"],
        params["source"],
        params["name"],
        params["options"],
        params["config"],
    )


class TestRequestKey:
    def test_stable(self):
        assert key_of() == key_of()

    def test_source_is_key_material(self):
        assert key_of(source="func main(n) { return n + 1; }") != key_of()

    def test_command_is_key_material(self):
        assert key_of(command="ranges") != key_of()

    def test_options_are_key_material(self):
        assert key_of(options={"intra": True}) != key_of()

    def test_name_is_key_material(self):
        # The service normalises the name away for every command except
        # check; when a name does reach the key, it must count.
        assert key_of(name="examples/foo.toy") != key_of()

    def test_neutral_config_fields_are_not(self):
        assert key_of(config=VRPConfig(sanitize=True)) == key_of()
        assert key_of(config=VRPConfig(incremental=True)) == key_of()
        assert key_of(config=VRPConfig(max_ranges=9)) != key_of()



class TestMemoryTier:
    def test_roundtrip(self):
        cache = TwoTierStore(memory_entries=8)
        cache.put("k1", {"output": "x"})
        payload, tier = cache.get("k1")
        assert payload == {"output": "x"}
        assert tier == "memory"

    def test_miss(self):
        cache = TwoTierStore(memory_entries=8)
        assert cache.get("absent") == (None, None)

    def test_returns_a_copy(self):
        cache = TwoTierStore(memory_entries=8)
        cache.put("k1", {"output": "x"})
        first, _ = cache.get("k1")
        first["output"] = "mutated"
        second, _ = cache.get("k1")
        assert second["output"] == "x"

    def test_lru_eviction(self):
        cache = TwoTierStore(memory_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", {"v": 3})
        assert cache.get("b") == (None, None)
        assert cache.get("a")[1] == "memory"
        assert cache.stats()["memory"]["evictions"] == 1

    def test_zero_entries_disables_the_tier(self):
        cache = TwoTierStore(memory_entries=0)
        cache.put("k1", {"v": 1})
        assert cache.get("k1") == (None, None)


class TestDiskTier:
    def test_survives_restart(self, tmp_path):
        warm = TwoTierStore(memory_entries=8, disk_dir=str(tmp_path))
        warm.put("deadbeef", {"output": "x"})
        cold = TwoTierStore(memory_entries=8, disk_dir=str(tmp_path))
        payload, tier = cold.get("deadbeef")
        assert payload == {"output": "x"}
        assert tier == "disk"

    def test_sharded_layout(self, tmp_path):
        cache = TwoTierStore(memory_entries=8, disk_dir=str(tmp_path))
        cache.put("deadbeef", {"v": 1})
        assert (tmp_path / "de" / "deadbeef.json").is_file()

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = TwoTierStore(memory_entries=8, disk_dir=str(tmp_path))
        cache.put("deadbeef", {"v": 1})
        path = tmp_path / "de" / "deadbeef.json"
        path.write_text("{not json", encoding="utf-8")
        cold = TwoTierStore(memory_entries=8, disk_dir=str(tmp_path))
        assert cold.get("deadbeef") == (None, None)
        assert not path.exists()
        assert cold.stats()["disk"]["errors"] == 1

    def test_non_object_entry_is_a_miss(self, tmp_path):
        cache = TwoTierStore(memory_entries=8, disk_dir=str(tmp_path))
        path = tmp_path / "de" / "deadbeef.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
        assert cache.get("deadbeef") == (None, None)

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        cache = TwoTierStore(memory_entries=8, disk_dir=str(tmp_path))
        for i in range(10):
            cache.put(f"ke{i:06x}", {"v": i})
        leftovers = [
            name
            for _, _, files in os.walk(tmp_path)
            for name in files
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_stats_shape(self, tmp_path):
        cache = TwoTierStore(memory_entries=8, disk_dir=str(tmp_path))
        cache.put("deadbeef", {"v": 1})
        cache.get("deadbeef")
        cache.get("absent00")
        stats = cache.stats()
        assert stats["stores"] == 1
        assert stats["memory"]["hits"] == 1
        assert stats["disk"]["enabled"] is True
        assert stats["disk"]["misses"] == 1

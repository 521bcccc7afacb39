"""Config fingerprinting: what does and does not shatter the cache."""

from repro import __version__
from repro.core import VRPConfig
from repro.core.perf.fingerprint import (
    NEUTRAL_FIELDS,
    config_fingerprint,
    config_items,
    engine_salt,
)


class TestConfigItems:
    def test_excludes_behaviour_neutral_fields(self):
        names = {name for name, _ in config_items(VRPConfig())}
        assert not names & NEUTRAL_FIELDS

    def test_covers_result_affecting_fields(self):
        names = {name for name, _ in config_items(VRPConfig())}
        for expected in ("max_ranges", "symbolic", "derive_loops", "track_arrays"):
            assert expected in names


class TestConfigFingerprint:
    def test_deterministic(self):
        assert config_fingerprint(VRPConfig()) == config_fingerprint(VRPConfig())

    def test_neutral_fields_do_not_change_it(self):
        base = config_fingerprint(VRPConfig())
        assert config_fingerprint(VRPConfig(sanitize=True)) == base
        assert config_fingerprint(VRPConfig(incremental=True)) == base

    def test_engine_knobs_change_it(self):
        base = config_fingerprint(VRPConfig())
        assert config_fingerprint(VRPConfig(max_ranges=9)) != base
        assert config_fingerprint(VRPConfig(symbolic=False)) != base
        assert config_fingerprint(VRPConfig(derive_loops=False)) != base

    def test_default_config_is_pinned(self):
        # A change here silently invalidates every warmed server and
        # incremental store.  Update the value only on purpose (a new
        # result-affecting field, a changed default, a version bump).
        assert config_fingerprint(VRPConfig()) == (
            "7c28d6e6b456bcfa987b74ef9f7b2094d2b2bca8d4c4c7343b75dcf8fcaa94b6"
        )

    def test_salted_with_package_version(self):
        # An engine upgrade must invalidate every cached result.
        assert __version__ in engine_salt()

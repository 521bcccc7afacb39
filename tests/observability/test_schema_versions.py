"""Metrics schema compatibility: v1-v8 documents still validate under v9."""

from repro.observability.metrics import (
    OPTIONAL_KEYS,
    SCHEMA_KEYS,
    SCHEMA_VERSION,
    MetricsReport,
    validate_report_dict,
)


def base_document(version: int) -> dict:
    return {
        "schema_version": version,
        "program": "p",
        "phases": {},
        "counters": {},
        "branches": [
            {"function": "main", "label": "if1", "probability": 0.5,
             "source": "ranges"},
        ],
        "meta": {},
    }


class TestHistoricalDocuments:
    def test_v1_validates(self):
        assert validate_report_dict(base_document(1)) is None

    def test_v2_with_diagnostics_validates(self):
        document = dict(base_document(2), diagnostics=[])
        assert validate_report_dict(document) is None

    def test_v3_with_perf_validates(self):
        document = dict(base_document(3), diagnostics=[], perf={})
        assert validate_report_dict(document) is None

    def test_v4_with_passes_validates(self):
        document = dict(base_document(4), diagnostics=[], perf={}, passes={})
        assert validate_report_dict(document) is None

    def test_v5_with_server_validates(self):
        document = dict(
            base_document(5), diagnostics=[], perf={}, passes={}, server={}
        )
        assert validate_report_dict(document) is None

    def test_v6_with_profile_and_tracing_validates(self):
        document = dict(
            base_document(6),
            diagnostics=[], perf={}, passes={}, server={},
            profile={"wall_seconds": 0.1}, tracing={"trace_id": "0" * 32},
        )
        assert validate_report_dict(document) is None

    def test_v7_with_interprocedural_validates(self):
        document = dict(
            base_document(7),
            diagnostics=[], perf={}, passes={}, server={},
            profile={}, tracing={},
            interprocedural={
                "rounds": 2, "max_rounds": 8, "converged": True,
                "round_cap_hits": 0, "context_depth": 1,
                "contexts_analyzed": 4,
                "summary_cache": {"hits": 3, "misses": 4, "evictions": 0},
            },
        )
        assert validate_report_dict(document) is None

    def test_v8_with_incremental_validates(self):
        document = dict(
            base_document(8),
            diagnostics=[], perf={}, passes={}, server={},
            profile={}, tracing={}, interprocedural={},
            incremental={
                "reanalyzed": 1, "replayed": 4,
                "components": {"reanalyzed": 1, "replayed": 2},
                "store": {"hits": 2, "misses": 1, "evictions": 0},
            },
        )
        assert validate_report_dict(document) is None

    def test_v9_interprocedural_without_context_keys_validates(self):
        document = dict(
            base_document(9),
            diagnostics=[], perf={}, passes={}, server={},
            profile={}, tracing={},
            interprocedural={
                "rounds": 2, "max_rounds": 8, "converged": True,
                "round_cap_hits": 0,
            },
            incremental={},
        )
        assert validate_report_dict(document) is None


class TestSchemaShape:
    def test_current_version_is_9(self):
        assert SCHEMA_VERSION == 9

    def test_every_new_key_since_v1_is_optional(self):
        required = set(SCHEMA_KEYS) - set(OPTIONAL_KEYS)
        assert required == {
            "schema_version", "program", "phases", "counters", "branches",
            "meta",
        }

    def test_v6_keys_are_optional(self):
        for key in ("profile", "tracing"):
            assert key in OPTIONAL_KEYS
            assert key in SCHEMA_KEYS

    def test_v7_key_is_optional(self):
        assert "interprocedural" in OPTIONAL_KEYS
        assert "interprocedural" in SCHEMA_KEYS

    def test_v8_key_is_optional(self):
        assert "incremental" in OPTIONAL_KEYS
        assert "incremental" in SCHEMA_KEYS

    def test_missing_required_key_is_an_error(self):
        document = base_document(6)
        del document["counters"]
        assert "counters" in validate_report_dict(document)

    def test_malformed_branch_record_is_an_error(self):
        document = base_document(6)
        document["branches"] = [{"function": "main"}]
        assert "label" in validate_report_dict(document)

    def test_report_roundtrip_preserves_the_server_key(self):
        report = MetricsReport(program="p", server={"degraded": 3})
        clone = MetricsReport.from_dict(report.to_dict())
        assert clone.server == {"degraded": 3}
        assert clone.schema_version == SCHEMA_VERSION

    def test_report_roundtrip_preserves_profile_and_tracing(self):
        report = MetricsReport(
            program="p",
            profile={"wall_seconds": 1.5, "spans": []},
            tracing={"trace_id": "ab" * 16, "span_id": "cd" * 8},
        )
        clone = MetricsReport.from_dict(report.to_dict())
        assert clone.profile == {"wall_seconds": 1.5, "spans": []}
        assert clone.tracing == {"trace_id": "ab" * 16, "span_id": "cd" * 8}

    def test_report_roundtrip_preserves_the_incremental_key(self):
        report = MetricsReport(
            program="p", incremental={"reanalyzed": 2, "replayed": 7}
        )
        clone = MetricsReport.from_dict(report.to_dict())
        assert clone.incremental == {"reanalyzed": 2, "replayed": 7}

    def test_from_dict_accepts_documents_without_new_keys(self):
        report = MetricsReport.from_dict(base_document(4))
        assert report.server == {}
        assert report.profile == {}
        assert report.tracing == {}
        assert report.incremental == {}

"""Prometheus exposition: rendering from ServerStats and the strict parser."""

import pytest

from repro.observability.prometheus import MetricFamily, render_server_metrics
from repro.server.stats import LATENCY_BUCKETS_MS, ServerStats

from tests.prometheus_parser import PrometheusParseError, parse_prometheus_text


def populated_snapshot() -> dict:
    stats = ServerStats()
    stats.record_request("/v1/predict", 200, 3.0, cached="memory")
    stats.record_request("/v1/predict", 200, 30.0)
    stats.record_request("/v1/predict", 400, 1.0)
    stats.record_request("/healthz", 200, 0.5)
    stats.record_request("/v1/check", 200, 9000.0, degraded=True)
    stats.record_rejected("queue_full")
    return stats.snapshot(
        cache_stats={
            "memory": {"entries": 2, "hits": 1, "misses": 4},
            "disk": {"hits": 0, "misses": 0},
        },
        queue_depth=1,
        queue_high_water=3,
    )


class TestRender:
    def test_round_trips_through_the_parser(self):
        text = render_server_metrics(
            populated_snapshot(), uptime_s=12.5, shards=4
        )
        families = parse_prometheus_text(text)
        assert families["repro_requests_total"]["type"] == "counter"
        assert families["repro_request_latency_seconds"]["type"] == "histogram"
        assert families["repro_uptime_seconds"]["type"] == "gauge"

    def test_counter_values(self):
        text = render_server_metrics(populated_snapshot())
        families = parse_prometheus_text(text)

        def value(family, wanted_labels, name=None):
            for sample_name, labels, sample_value in families[family]["samples"]:
                if labels == wanted_labels and (
                    name is None or sample_name == name
                ):
                    return sample_value
            raise AssertionError(f"no sample {wanted_labels} in {family}")

        assert value("repro_requests_total", {"endpoint": "/v1/predict"}) == 3
        assert value("repro_request_errors_total", {"endpoint": "/v1/predict"}) == 1
        assert value("repro_responses_total", {"status": "200"}) == 4
        assert value("repro_results_total", {"tier": "memory"}) == 1
        assert value("repro_results_total", {"tier": "fresh"}) == 3
        assert value("repro_degraded_total", {}) == 1
        assert value("repro_rejected_total", {"reason": "queue_full"}) == 1
        assert value("repro_cache_entries", {"tier": "memory"}) == 2
        assert value("repro_queue_depth", {}) == 1
        assert value("repro_queue_high_water", {}) == 3

    def test_histogram_is_cumulative_with_inf(self):
        text = render_server_metrics(populated_snapshot())
        families = parse_prometheus_text(text)
        samples = families["repro_request_latency_seconds"]["samples"]
        buckets = [
            (labels["le"], value)
            for name, labels, value in samples
            if name.endswith("_bucket") and labels["endpoint"] == "/v1/predict"
        ]
        # One bucket per SLO bound plus +Inf.
        assert len(buckets) == len(LATENCY_BUCKETS_MS) + 1
        values = [value for _, value in buckets]
        assert values == sorted(values)  # cumulative
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == 3  # total count
        count = [
            value
            for name, labels, value in samples
            if name.endswith("_count") and labels == {"endpoint": "/v1/predict"}
        ]
        assert count == [3]

    def test_slow_request_lands_in_inf_only(self):
        text = render_server_metrics(populated_snapshot())
        families = parse_prometheus_text(text)
        check_buckets = {
            labels["le"]: value
            for name, labels, value in families[
                "repro_request_latency_seconds"
            ]["samples"]
            if name.endswith("_bucket") and labels["endpoint"] == "/v1/check"
        }
        assert check_buckets["5"] == 0  # 9s is past the last 5s bound
        assert check_buckets["+Inf"] == 1

    def test_invalid_metric_name_rejected_at_construction(self):
        with pytest.raises(ValueError):
            MetricFamily("bad name", "counter", "help")


def sharded_snapshot() -> dict:
    """A snapshot as the sharded tier produces it (with ``shards``)."""
    stats = ServerStats()
    stats.record_request("/v1/predict", 200, 3.0)
    return stats.snapshot(
        cache_stats={
            "memory": {"entries": 3, "hits": 1, "misses": 2},
            "disk": {"hits": 1, "misses": 1},
        },
        queue_depth=2,
        queue_high_water=5,
        shards=[
            {
                "shard": 0,
                "queue": {"depth": 2, "high_water": 4},
                "cache": {
                    "memory": {"entries": 2, "hits": 1, "misses": 1},
                    "disk": {"hits": 1, "misses": 0},
                },
                "served": 7,
                "degraded": 0,
                "alive": True,
                "restarts": 0,
            },
            {
                "shard": 1,
                "queue": {"depth": 0, "high_water": 1},
                "cache": {
                    "memory": {"entries": 1, "hits": 0, "misses": 1},
                    "disk": {"hits": 0, "misses": 1},
                },
                "served": 2,
                "degraded": 1,
                "alive": False,
                "restarts": 3,
            },
        ],
    )


class TestShardLabels:
    def sample_value(self, families, family, wanted_labels):
        for _name, labels, value in families[family]["samples"]:
            if labels == wanted_labels:
                return value
        raise AssertionError(f"no sample {wanted_labels} in {family}")

    def test_per_shard_series_round_trip_the_strict_parser(self):
        text = render_server_metrics(sharded_snapshot(), shards=2)
        families = parse_prometheus_text(text)
        assert families["repro_shard_queue_depth"]["type"] == "gauge"
        assert families["repro_shard_served_total"]["type"] == "counter"
        assert self.sample_value(
            families, "repro_shard_queue_depth", {"shard": "0"}
        ) == 2
        assert self.sample_value(
            families, "repro_shard_queue_high_water", {"shard": "1"}
        ) == 1
        assert self.sample_value(
            families, "repro_shard_served_total", {"shard": "0"}
        ) == 7
        assert self.sample_value(
            families, "repro_shard_alive", {"shard": "1"}
        ) == 0
        assert self.sample_value(
            families, "repro_shard_restarts_total", {"shard": "1"}
        ) == 3
        assert self.sample_value(
            families, "repro_shard_cache_entries", {"shard": "0"}
        ) == 2
        assert self.sample_value(
            families,
            "repro_shard_cache_hits_total",
            {"shard": "0", "tier": "disk"},
        ) == 1

    def test_aggregate_families_survive_next_to_shard_families(self):
        # The fleet-wide series stay exactly as before; the shard
        # series are additive.
        text = render_server_metrics(sharded_snapshot(), shards=2)
        families = parse_prometheus_text(text)
        assert self.sample_value(families, "repro_queue_depth", {}) == 2
        assert self.sample_value(
            families, "repro_cache_entries", {"tier": "memory"}
        ) == 3

    def test_unsharded_snapshot_has_no_shard_series(self):
        # Regression: the single-process daemon (1-shard legacy tier)
        # never passes shards=, and its exposition must remain free of
        # shard-labelled families -- dashboards scraping the old daemon
        # see an unchanged series set.
        text = render_server_metrics(
            populated_snapshot(), uptime_s=12.5, shards=4
        )
        assert "repro_shard_" not in text
        families = parse_prometheus_text(text)
        assert not any(name.startswith("repro_shard_") for name in families)
        for family in families.values():
            for _name, labels, _value in family["samples"]:
                assert "shard" not in labels

    def test_empty_shard_list_renders_no_shard_series(self):
        stats = ServerStats()
        snapshot = stats.snapshot(shards=[])
        assert "repro_shard_" not in render_server_metrics(snapshot)


class TestParser:
    def test_requires_type_before_samples(self):
        with pytest.raises(PrometheusParseError, match="no preceding TYPE"):
            parse_prometheus_text("repro_x_total 1\n")

    def test_rejects_unknown_type(self):
        with pytest.raises(PrometheusParseError, match="unknown metric type"):
            parse_prometheus_text("# TYPE repro_x bogus\n")

    def test_rejects_duplicate_type(self):
        text = "# TYPE a counter\na 1\n# TYPE a counter\n"
        with pytest.raises(PrometheusParseError, match="duplicate TYPE"):
            parse_prometheus_text(text)

    def test_rejects_malformed_labels(self):
        text = '# TYPE a counter\na{key=unquoted} 1\n'
        with pytest.raises(PrometheusParseError, match="malformed label"):
            parse_prometheus_text(text)

    def test_rejects_unparseable_value(self):
        text = "# TYPE a counter\na notanumber\n"
        with pytest.raises(PrometheusParseError, match="unparseable value"):
            parse_prometheus_text(text)

    def test_rejects_histogram_without_count(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 1\n'
            "h_sum 0.5\n"
        )
        with pytest.raises(PrometheusParseError, match="_count"):
            parse_prometheus_text(text)

    def test_rejects_bucket_without_le(self):
        text = (
            "# TYPE h histogram\n"
            "h_bucket 1\n"
            "h_sum 0.5\n"
            "h_count 1\n"
        )
        with pytest.raises(PrometheusParseError, match="'le'"):
            parse_prometheus_text(text)

    def test_accepts_inf_values_and_labels(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.001"} 2\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1.25\n"
            "h_count 3\n"
        )
        families = parse_prometheus_text(text)
        assert len(families["h"]["samples"]) == 4

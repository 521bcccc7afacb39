"""The computed ``Retry-After`` estimate (replaces the hardcoded 1s)."""

import pytest

from repro.server.stats import (
    RETRY_AFTER_CEILING_S,
    RETRY_AFTER_FLOOR_S,
    ServerStats,
    compute_retry_after,
)


class TestComputeRetryAfter:
    def test_backlog_over_rate_rounded_up(self):
        # 10 queued, draining 3/s -> ceil(10/3) = 4 seconds.
        assert compute_retry_after(10, 3.0) == 4

    def test_exact_division(self):
        assert compute_retry_after(12, 4.0) == 3

    def test_floor_applies_to_fast_drains(self):
        # 2 queued at 50/s drains in 40ms; quoting 0 would invite an
        # immediate hammer-retry, so the floor holds.
        assert compute_retry_after(2, 50.0) == RETRY_AFTER_FLOOR_S

    def test_ceiling_applies_to_slow_drains(self):
        assert compute_retry_after(10_000, 1.0) == RETRY_AFTER_CEILING_S

    def test_empty_queue_is_floor(self):
        assert compute_retry_after(0, 5.0) == RETRY_AFTER_FLOOR_S

    def test_no_observed_rate_is_floor(self):
        # A cold daemon rejecting its first burst has no rate to
        # extrapolate from; the floor is the honest answer.
        assert compute_retry_after(8, 0.0) == RETRY_AFTER_FLOOR_S

    def test_custom_clamps(self):
        assert compute_retry_after(100, 1.0, floor=2, ceiling=10) == 10
        assert compute_retry_after(1, 100.0, floor=2, ceiling=10) == 2

    def test_invalid_clamps_raise(self):
        with pytest.raises(ValueError):
            compute_retry_after(1, 1.0, floor=-1)
        with pytest.raises(ValueError):
            compute_retry_after(1, 1.0, floor=5, ceiling=2)


class TestDrainRate:
    def test_zero_before_first_analysis(self):
        stats = ServerStats()
        assert stats.drain_rate(shards=4) == 0.0

    def test_healthz_does_not_inflate_the_rate(self):
        # /healthz answers in microseconds; counting it would claim an
        # absurd drain rate for *analysis* requests.
        stats = ServerStats()
        for _ in range(100):
            stats.record_request("/healthz", 200, 0.01)
        assert stats.drain_rate(shards=4) == 0.0

    def test_rate_is_mean_latency_scaled_by_workers(self):
        stats = ServerStats()
        for _ in range(10):
            stats.record_request("/v1/predict", 200, 100.0)  # 100ms each
        # One shard finishes 10/s at 100ms; four shards 40/s.
        assert stats.drain_rate(shards=1) == pytest.approx(10.0)
        assert stats.drain_rate(shards=4) == pytest.approx(40.0)

    def test_retry_after_uses_the_observed_rate(self):
        stats = ServerStats()
        for _ in range(10):
            stats.record_request("/v1/predict", 200, 1000.0)  # 1/s/worker
        assert stats.retry_after(queue_depth=6, shards=2) == 3
        assert stats.retry_after(queue_depth=0, shards=2) == RETRY_AFTER_FLOOR_S


class TestRetryAfterOnTheWire:
    def test_cold_daemon_quotes_the_floor(self, start_server):
        # No /v1 completions yet -> no rate -> floor; this is the exact
        # behaviour the old hardcoded header happened to give, so
        # existing clients see no change on a cold daemon.
        server, _ = start_server(queue_size=1)
        assert (
            server.stats.retry_after(server.inflight(), server.shard_count)
            == RETRY_AFTER_FLOOR_S
        )

    def test_warm_daemon_quotes_backlog_over_rate(self, start_server):
        server, _ = start_server(shards=2, queue_size=64)
        # Seed the latency history directly: 500ms mean at 2 shards is
        # 4 req/s; a 12-deep queue quotes ceil(12/4)=3.
        for _ in range(4):
            server.stats.record_request("/v1/predict", 200, 500.0)
        assert server.stats.retry_after(12, server.shard_count) == 3

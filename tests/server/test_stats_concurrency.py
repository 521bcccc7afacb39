"""Hammer tests: ServerStats and the server tracer summary under contention.

:class:`repro.server.stats.ServerStats` and the daemon's tracer are
written by the front end's event loop while other threads (an embedder
reading metrics, the drain on the signal thread) snapshot them.  These
tests drive writers and readers hard from many threads at once and
assert the totals reconcile exactly -- a lost update anywhere shows up
as a count mismatch.
"""

import threading

from repro.observability.events import PassBegin
from repro.server.stats import LATENCY_BUCKETS_MS, ServerStats

THREADS = 8
PER_THREAD = 250


def hammer(stats: ServerStats, snapshots: list) -> None:
    """THREADS writers interleaved with live snapshot readers."""
    barrier = threading.Barrier(THREADS + 1)

    def writer(seed: int) -> None:
        barrier.wait()
        for i in range(PER_THREAD):
            n = seed * PER_THREAD + i
            endpoint = "/v1/predict" if n % 3 else "/v1/check"
            status = 400 if n % 10 == 0 else 200
            cached = ("memory", "disk", None)[n % 3]
            stats.record_request(
                endpoint,
                status,
                elapsed_ms=float(n % 7000),
                cached=cached,
                degraded=(n % 25 == 0),
            )
            if n % 50 == 0:
                stats.record_rejected("queue_full")

    def reader() -> None:
        barrier.wait()
        for _ in range(100):
            snapshots.append(stats.snapshot())

    threads = [
        threading.Thread(target=writer, args=(seed,)) for seed in range(THREADS)
    ]
    threads.append(threading.Thread(target=reader))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def reconcile(snapshot: dict) -> None:
    """Every total in a snapshot must agree with every other."""
    endpoints = snapshot["endpoints"]
    for stats in endpoints.values():
        histogram = stats["histogram"]
        assert sum(histogram.values()) == stats["count"]
        assert stats["errors"] <= stats["count"]
    total = sum(stats["count"] for stats in endpoints.values())
    assert sum(snapshot["responses"].values()) == total
    ok = sum(
        count
        for status, count in snapshot["responses"].items()
        if int(status) < 400
    )
    assert sum(snapshot["results"].values()) == ok


class TestServerStatsHammer:
    def test_concurrent_totals_reconcile(self):
        stats = ServerStats()
        snapshots: list = []
        hammer(stats, snapshots)

        total = THREADS * PER_THREAD
        snapshot = stats.snapshot()
        reconcile(snapshot)
        endpoints = snapshot["endpoints"]
        assert sum(s["count"] for s in endpoints.values()) == total
        assert snapshot["responses"]["400"] == total // 10
        assert snapshot["degraded"] == total // 25
        assert snapshot["rejected"]["queue_full"] == total // 50
        # The bucket layout survived: one counter per bound, plus +inf.
        histogram = endpoints["/v1/predict"]["histogram"]
        assert len(histogram) == len(LATENCY_BUCKETS_MS) + 1

    def test_mid_flight_snapshots_are_internally_consistent(self):
        # Snapshots taken while writers run may be partial but must
        # never be torn: each one reconciles on its own.
        stats = ServerStats()
        snapshots: list = []
        hammer(stats, snapshots)
        assert snapshots
        for snapshot in snapshots:
            reconcile(snapshot)


class TestTracerSummaryHammer:
    def test_summary_during_concurrent_emit(self, start_server):
        # The pre-v6 bug: metrics_document iterated the live tracer's
        # event_counts outside the tracer lock while other threads
        # emitted.  tracer_summary() copies under the lock; hammering
        # both sides must not raise or tear.
        server, _ = start_server()
        barrier = threading.Barrier(6)
        summaries: list = []
        documents: list = []

        def emitter() -> None:
            barrier.wait()
            for i in range(500):
                server.emit_event(PassBegin(pass_name=f"p{i}", mutates=False))

        def summariser() -> None:
            barrier.wait()
            for _ in range(200):
                summaries.append(server.tracer_summary())

        def scraper() -> None:
            barrier.wait()
            for _ in range(50):
                documents.append(server.metrics_document())

        threads = [threading.Thread(target=emitter) for _ in range(4)]
        threads.append(threading.Thread(target=summariser))
        threads.append(threading.Thread(target=scraper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        final = server.tracer_summary()
        assert final["event_counts"]["pass.begin"] == 2000
        for summary in summaries:
            assert set(summary) == {
                "spans", "event_counts", "dropped_events",
            }
        assert len(documents) == 50
        for document in documents:
            assert set(document["server"]["tracer"]) == set(final)

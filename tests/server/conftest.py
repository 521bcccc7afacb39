"""Shared fixtures for the serving tests: one way to boot a live daemon."""

import contextlib
import os
import signal
import threading

import pytest

from repro.server import ServeClient, ShardedServer


@pytest.fixture
def start_server():
    """Factory: ``start_server(**kwargs) -> (server, client)``.

    Boots ``ShardedServer(port=0, shards=1, **kwargs)`` (``shards`` may
    be overridden) with its event loop on a daemon thread, waits until
    ``/healthz`` answers, and drains every server it started on
    teardown.  Draining is idempotent, so tests may drain early.
    """
    servers = []

    def start(**kwargs):
        kwargs.setdefault("shards", 1)
        server = ShardedServer(port=0, **kwargs)
        servers.append(server)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServeClient(port=server.port)
        client.wait_ready()
        return server, client

    yield start
    for server in servers:
        server.drain(timeout=10)


@pytest.fixture
def served(start_server):
    """A one-shard daemon with a small queue, as ``(server, client)``."""
    return start_server(queue_size=8)


@contextlib.contextmanager
def _paused(server):
    pid = server.shards[0].process.pid
    os.kill(pid, signal.SIGSTOP)
    try:
        yield
    finally:
        with contextlib.suppress(ProcessLookupError):  # drained meanwhile
            os.kill(pid, signal.SIGCONT)


@pytest.fixture
def paused():
    """``with paused(server):`` freezes shard 0 (SIGSTOP) until the block ends.

    Requests routed to a frozen shard stay in flight, which parks the
    shard's queue slot deterministically for backpressure and drain
    tests.
    """
    return _paused

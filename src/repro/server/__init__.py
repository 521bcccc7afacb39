"""Prediction-as-a-service: the long-running ``repro serve`` daemon.

Every other entry point in the package is one-shot: it pays full
startup plus analysis cost for a single program and exits, so the perf
layer's caches (PR 3) and the pass manager's analysis cache (PR 4) only
amortize *within* one process.  This package is the resident shape of
the paper's claim that VRP is cheap enough to run routinely: a daemon
that accepts program text and answers with predictions, diagnostics,
IR, or execution profiles -- byte-identical to the corresponding
one-shot CLI output (see ``docs/SERVING.md``).

The daemon is N shard *processes*, each with a resident engine and
shard-local caches, behind a non-blocking selector front end that
routes by consistent hash of the request's content address -- analysis
scales with cores instead of serialising on the GIL.

Layers, bottom up:

* :mod:`.cache`    -- the content address of a result (SHA-256 of source
  + config fingerprint), the key of a
  :class:`repro.incremental.store.TwoTierStore` whose on-disk tier
  survives restarts and is safely shared between shard processes;
* :mod:`.service`  -- command execution with per-request analysis
  timeouts and graceful degradation to heuristics-only prediction;
* :mod:`.stats`    -- per-endpoint request counts and latency
  histograms, cache tiers, degraded/rejected counters, and the
  computed ``Retry-After`` estimate;
* :mod:`.router`   -- the deterministic consistent-hash ring keyed by
  content address (cache affinity across shards);
* :mod:`.shard`    -- the shard worker process and its parent-side
  handle (pipe protocol, the shard's request queue, drain sentinel,
  respawn);
* :mod:`.frontend` -- the selector event loop in front of the shards,
  plus the ``repro serve`` entry point (signals, drain), which hands
  its settings to :class:`ShardedServer` unchanged;
* :mod:`.client`   -- the stdlib client behind ``repro submit``
  (including the ``--jobs N`` concurrent fan-out).

Everything is standard library only.
"""

from __future__ import annotations

from repro.server.cache import request_key
from repro.server.client import ServeClient, ServerError
from repro.server.frontend import ShardedServer, serve_daemon
from repro.server.protocol import (
    COMMANDS,
    ProtocolError,
    validate_request,
)
from repro.server.router import HashRing
from repro.server.service import AnalysisService, AnalysisTimeout, request_identity
from repro.server.shard import ShardHandle
from repro.server.stats import ServerStats, compute_retry_after

__all__ = [
    "COMMANDS",
    "AnalysisService",
    "AnalysisTimeout",
    "HashRing",
    "ProtocolError",
    "ServeClient",
    "ServerError",
    "ServerStats",
    "ShardHandle",
    "ShardedServer",
    "compute_retry_after",
    "request_identity",
    "request_key",
    "serve_daemon",
    "validate_request",
]

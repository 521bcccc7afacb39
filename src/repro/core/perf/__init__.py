"""Analysis performance layer: hash-consing, memoization, and cache stats.

The layer is behaviour-neutral by construction (see ``docs/PERFORMANCE.md``):
with it on, predictions and Figure-5/6 work counts are byte-identical to a
run with it off -- only wall time changes.  It is controlled by
``VRPConfig.perf`` (default: the process-global switch, itself seeded from
the ``REPRO_PERF`` environment variable).

Only :mod:`.context` is imported eagerly: the other submodules import the
lattice-value modules, which themselves import :mod:`.context`, so loading
them from here would be a cycle.  Access them lazily
(``perf.memo``/``perf.stats``) or via the helpers below.
"""

from __future__ import annotations

from repro.core.perf.context import (
    activate,
    globally_enabled,
    is_active,
    set_global_enabled,
)

__all__ = [
    "activate",
    "globally_enabled",
    "is_active",
    "set_global_enabled",
    "reset",
    "snapshot",
    "memo",
    "stats",
    "context",
    "fingerprint",
]

_SUBMODULES = ("memo", "stats", "context", "fingerprint")


def __getattr__(name: str):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.core.perf.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def reset() -> None:
    """Clear every cache and every hit/miss counter.

    Not called on the analysis path: caches persist across runs (results
    are cache-state-independent by construction, so persistence only
    buys hit rate).  Use this for isolation in tests and benchmarks --
    e.g. before timing a cold run.
    """
    from repro.core.perf import memo as _memo
    from repro.core.perf import stats as _stats

    _memo.clear()
    _stats.reset_stats()


def snapshot() -> dict:
    """A serialisable copy of all cache statistics (metrics ``perf`` key)."""
    from repro.core.perf import stats as _stats

    return _stats.snapshot()

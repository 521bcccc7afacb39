"""The ``repro watch`` polling loop.

Watches source files, re-renders a file's analysis whenever its content
changes, and keeps the process-local :class:`IncrementalStore` warm so
each recheck re-analyses only the call-graph components holding the
edited functions (see :mod:`repro.incremental.driver`) -- the
editor-loop mode ROADMAP describes.

The loop is deliberately plain polling (``mtime`` first, then a content
hash to ignore ``touch``-style no-ops): it needs no platform watcher
dependencies and the analysis itself dwarfs a ``stat`` per interval.
Rendering is injected as a callback so the CLI keeps sole ownership of
output formats; each re-render emits a ``watch.recheck`` trace event
carrying the reanalyzed/replayed function counts.

Time sources are injectable for the tests (a fake clock drives the loop
deterministically); ``max_cycles`` bounds the number of poll rounds so
smoke tests and benchmarks can run the loop to completion.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from typing import Callable, List, Optional, Sequence

#: render(path, source) -> (text, outcome, error) where ``outcome`` is
#: an IncrementalOutcome (or None) and ``error`` a message (or None).
RenderFn = Callable[[str, str], tuple]


class _Watched:
    __slots__ = ("path", "mtime", "digest", "missing")

    def __init__(self, path: str):
        self.path = path
        self.mtime: Optional[float] = None
        self.digest: Optional[str] = None
        self.missing = False


def _content_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def run_watch(
    paths: Sequence[str],
    render: RenderFn,
    *,
    interval_s: float = 0.5,
    max_cycles: Optional[int] = None,
    sleep: Callable[[float], None] = time.sleep,
    out=None,
    err=None,
) -> int:
    """Watch ``paths``, re-rendering on content change.  Returns 0.

    Every file renders once up front; afterwards each poll cycle
    rechecks files whose mtime moved and whose content hash actually
    changed.  ``max_cycles`` of N stops after N poll cycles (None runs
    until KeyboardInterrupt).
    """
    from repro.observability import events as trace_events
    from repro.observability import tracer as tracing

    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    tracer = tracing.active()
    watched: List[_Watched] = [_Watched(path) for path in paths]

    def recheck(state: _Watched, source: str, initial: bool) -> None:
        started = time.perf_counter()
        text, outcome, error = render(state.path, source)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if error is not None:
            err.write(f"watch: {state.path}: {error}\n")
            err.flush()
            return
        reanalyzed = len(outcome.reanalyzed) if outcome is not None else 0
        replayed = len(outcome.replayed) if outcome is not None else 0
        out.write(f"== {state.path} ==\n")
        out.write(text)
        if not text.endswith("\n"):
            out.write("\n")
        out.flush()
        err.write(
            f"watch: {state.path} reanalyzed={reanalyzed} "
            f"replayed={replayed} ({elapsed_ms:.1f} ms)\n"
        )
        err.flush()
        tracer.emit(
            trace_events.WatchRecheck(
                path=state.path,
                reanalyzed=reanalyzed,
                replayed=replayed,
                elapsed_ms=elapsed_ms,
                initial=initial,
            )
        )

    def poll(state: _Watched, initial: bool = False) -> None:
        try:
            mtime = os.stat(state.path).st_mtime
        except OSError:
            if not state.missing:
                err.write(f"watch: {state.path}: missing (waiting)\n")
                err.flush()
            state.missing = True
            return
        if state.missing:
            err.write(f"watch: {state.path}: back\n")
            err.flush()
        state.missing = False
        if not initial and mtime == state.mtime:
            return
        state.mtime = mtime
        try:
            with open(state.path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            err.write(f"watch: {state.path}: {error}\n")
            err.flush()
            return
        digest = _content_digest(source)
        if digest == state.digest:
            return  # touched, not changed
        state.digest = digest
        recheck(state, source, initial)

    for state in watched:
        poll(state, initial=True)

    cycles = 0
    try:
        while max_cycles is None or cycles < max_cycles:
            sleep(interval_s)
            cycles += 1
            for state in watched:
                poll(state)
    except KeyboardInterrupt:
        err.write("watch: interrupted\n")
        err.flush()
    return 0

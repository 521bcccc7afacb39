"""Command execution for the serving daemon.

The service turns one validated request into the *deterministic
response core*: the one-shot CLI's stdout (``output``), an exit code,
and error/degradation flags.  The output is
:func:`repro.commands.execute`'s -- the function the CLI's ``predict``,
``check``, ``ranges``, ``ir`` and ``run`` print through -- so
byte-identity between ``repro submit`` and the one-shot commands holds
by construction rather than by test luck.

Robustness semantics:

* **Per-request timeout.**  Analysis runs under a deadline
  (``timeout_s``).  A run that exceeds it is abandoned (the thread is a
  daemon; the toy analyses finish in milliseconds, the deadline exists
  for adversarial inputs) and the request *degrades* instead of
  failing:

  - ``predict`` falls back to heuristics-only prediction -- the
    Ball-Larus chain needs no fixed point, so it always terminates
    promptly; every row is marked ``heuristic`` and the response is
    marked ``degraded: true``;
  - ``check`` degrades to an empty report (its rules are
    proofs-from-ranges only; without converged ranges there is nothing
    it can soundly claim), again with ``degraded: true``;
  - ``ranges``/``ir``/``run`` have no heuristic stand-in and answer
    with a timeout error.

* **Degraded results are never cached.**  Degradation reflects the
  moment (load, deadline), not the content address; caching one would
  serve a wrong-but-fast answer forever.

* **Deterministic errors are cached.**  A parse error is as
  content-addressed as a prediction.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Tuple

from repro import commands, rendering
from repro.commands import build_config
from repro.core import VRPConfig
from repro.incremental.store import TwoTierStore
from repro.server import protocol
from repro.server.cache import request_key
from repro.server.protocol import ProtocolError, validate_request


class AnalysisTimeout(Exception):
    """The analysis ran past the per-request deadline."""


def request_identity(
    body: dict,
    command: Optional[str] = None,
    base_options: Optional[Dict[str, object]] = None,
) -> Tuple[str, str, str, Dict[str, object], VRPConfig, str]:
    """Validate one request and compute its content address.

    Returns ``(command, source, name, merged_options, config, key)``.
    This is the single definition of "what identifies a request": the
    service uses it for cache lookups, and the sharded front end uses
    it to route -- the router hashing the *same* key the shard's cache
    stores under is what makes cache affinity work at all.  Raises
    :class:`ProtocolError` on malformed bodies.

    The display name only reaches the output of ``check`` (report
    headers name the program); other commands normalise it out of the
    key so renames do not shatter the cache.  ``trace`` never reaches
    the key (``canonical_options`` drops it): a traced request and an
    untraced one share one cache entry.
    """
    command, source, name, options = validate_request(body, command)
    merged = dict(base_options or {})
    merged.update(options)
    config = build_config(merged)
    key_name = name if command == "check" else "-"
    key = request_key(
        command, source, key_name,
        protocol.canonical_options(command, merged), config,
    )
    return command, source, name, merged, config, key


def _ok(command: str, output: str, exit_code: int = 0, degraded: bool = False) -> dict:
    return {
        "status": "ok",
        "command": command,
        "output": output,
        "exit_code": exit_code,
        "degraded": degraded,
        "error": None,
    }


def analyze_payload(
    command: str,
    source: str,
    name: str,
    options: Dict[str, object],
    config: Optional[VRPConfig] = None,
    incremental_store=None,
) -> dict:
    """Execute one command fully; returns the deterministic core.

    Compile and runtime errors come back as ``status: "error"``
    payloads (they are deterministic and cacheable); only unexpected
    exceptions propagate.  ``incremental_store`` (an
    :class:`repro.incremental.IncrementalStore`) lets whole-file cache
    misses replay unchanged functions from per-function summaries --
    output stays byte-identical by the incremental contract
    (``docs/INCREMENTAL.md``), so the results *are* cacheable.
    """
    if command not in commands.COMMANDS:
        raise ProtocolError(f"unknown command {command!r}")
    try:
        outcome = commands.execute(
            command, source, name, options, config, incremental_store
        )
    except commands.PROGRAM_ERRORS as error:
        return protocol.error_response(command, str(error))
    return _ok(command, outcome.output, exit_code=outcome.exit_code)


def degraded_payload(
    command: str,
    source: str,
    name: str,
    options: Dict[str, object],
    reason: str = "timeout",
) -> dict:
    """The heuristics-only stand-in served after a timeout.

    ``reason`` travels on the payload as ``degraded_reason`` so clients
    (``repro submit --verbose``) can report *why* the answer degraded.
    Degraded payloads are never cached, so the field cannot leak into a
    cached fresh result.
    """
    from repro.heuristics import BallLarusPredictor

    try:
        module, _ = commands.prepare(source)
    except commands.PROGRAM_ERRORS as error:
        return protocol.error_response(command, str(error))
    if command == "predict":
        predictor = BallLarusPredictor()
        branches: Dict[tuple, float] = {}
        for function_name, function in module.functions.items():
            for label, probability in predictor.predict_function(function).items():
                branches[(function_name, label)] = probability
        output = rendering.branch_table(branches, set(branches))
        return dict(_ok(command, output, degraded=True), degraded_reason=reason)
    if command == "check":
        from repro.diagnostics.engine import CheckReport

        report = CheckReport(program=name if name != "-" else module.name)
        rendered = commands.render_check(
            report, commands.get(options, "format")
        )
        return dict(_ok(command, rendered, degraded=True), degraded_reason=reason)
    return dict(
        protocol.error_response(command, "analysis timed out"),
        degraded=True,
        degraded_reason=reason,
    )


def _run_with_deadline(fn, timeout_s: Optional[float]):
    """Run ``fn`` under a wall-clock deadline.

    The body runs in a daemon helper thread; on deadline the thread is
    abandoned (it finishes eventually and its result is discarded) and
    :class:`AnalysisTimeout` is raised.  ``None`` disables the deadline
    and costs nothing; a deadline of zero or less has already passed, so
    it times out without starting the body at all.
    """
    if timeout_s is None:
        return fn()
    if timeout_s <= 0:
        raise AnalysisTimeout(f"analysis exceeded {timeout_s}s")
    box: Dict[str, object] = {}
    done = threading.Event()

    def runner() -> None:
        try:
            box["value"] = fn()
        except BaseException as error:  # noqa: BLE001
            box["error"] = error
        finally:
            done.set()

    thread = threading.Thread(target=runner, daemon=True, name="repro-analysis")
    thread.start()
    if not done.wait(timeout_s):
        raise AnalysisTimeout(f"analysis exceeded {timeout_s}s")
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["value"]


class AnalysisService:
    """Validated requests in, deterministic (and cached) responses out."""

    def __init__(
        self,
        cache: Optional[TwoTierStore] = None,
        timeout_s: Optional[float] = None,
        base_options: Optional[Dict[str, object]] = None,
        incremental_store=None,
    ):
        self.cache = cache if cache is not None else TwoTierStore()
        self.timeout_s = timeout_s
        #: Server-wide option defaults, overridden per request.
        self.base_options = dict(base_options or {})
        commands.validate_options(None, self.base_options)
        #: Optional per-function summary store consulted on whole-file
        #: cache misses (:mod:`repro.incremental`).
        self.incremental_store = incremental_store

    # -- single requests -----------------------------------------------------

    def execute(
        self,
        body: dict,
        command: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> dict:
        """One request -> one response.  Raises ProtocolError on bad input.

        ``trace_id`` (minted or adopted by the HTTP layer) enters the
        ambient trace context for the duration of the request, so
        engine spans and the metrics ``tracing`` key correlate with the
        access log.  It runs here -- in the shard that analyses the
        request -- because :class:`contextvars.ContextVar` values do not
        cross the front end's process boundary on their own.
        """
        from repro.observability import context as tracecontext

        if trace_id is None:
            return self._execute(body, command)
        with tracecontext.use(tracecontext.mint(trace_id)):
            return self._execute(body, command)

    def _execute(self, body: dict, command: Optional[str] = None) -> dict:
        from repro.observability import chrometrace
        from repro.observability import context as tracecontext
        from repro.observability import tracer as tracing

        command, source, name, merged, config, key = request_identity(
            body, command, self.base_options
        )
        started = time.perf_counter()
        want_trace = bool(merged.get("trace"))
        # A disk entry without the response core is damaged: a miss,
        # which the fresh result below overwrites.
        payload, tier = self.cache.get(key, valid=protocol.RESPONSE_CORE.issubset)
        tracer = tracing.Tracer(record_events=False) if want_trace else None
        if payload is None:
            store = self.incremental_store

            def compute() -> dict:
                if tracer is None:
                    return analyze_payload(
                        command, source, name, merged, config, store
                    )
                # The tracer enters the context *inside* the closure:
                # under a deadline the closure runs on a helper thread
                # that does not inherit this thread's context vars.
                with tracing.use(tracer), tracer.span("request"):
                    return analyze_payload(
                        command, source, name, merged, config, store
                    )

            try:
                payload = _run_with_deadline(compute, self.timeout_s)
            except AnalysisTimeout:
                payload = degraded_payload(
                    command, source, name, merged,
                    reason=f"deadline: analysis exceeded {self.timeout_s}s",
                )
            if not payload.get("degraded"):
                self.cache.put(key, payload)
        response = dict(payload)
        response["key"] = key
        response["cached"] = tier
        response["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
        if want_trace:
            # tuple(): on a timeout the abandoned helper thread may
            # still be appending spans while we serialise.
            response["trace"] = chrometrace.serialize_spans(
                tuple(tracer.spans) if tracer is not None else ()
            )
            current_id = tracecontext.current_trace_id()
            if current_id is not None:
                response["trace_id"] = current_id
        return response

    def execute_item(
        self,
        body: dict,
        command: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> dict:
        """Like :meth:`execute`, but protocol errors become responses.

        Batch items use this so one malformed item fails *itself*, not
        the whole batch.
        """
        try:
            return self.execute(body, command, trace_id=trace_id)
        except ProtocolError as error:
            return protocol.error_response(
                body.get("command") if isinstance(body, dict) else None,
                str(error),
                **protocol.UNCACHED,
            )

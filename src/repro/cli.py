"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``predict FILE``   -- branch probabilities for a toy-language program;
* ``ir FILE``        -- dump the canonicalised SSA IR;
* ``run FILE``       -- interpret a program and print its profile;
* ``ranges FILE``    -- final value ranges per SSA variable;
* ``check FILE...``  -- static diagnostics from the computed ranges
  (dead branches, out-of-bounds accesses, division by zero, ...) as
  text, JSON, or SARIF 2.1.0; many files check in one invocation
  (``--jobs N`` fans out over processes, ``--output-dir`` writes one
  report per input);
* ``opt FILE``       -- run a pass pipeline (``--pipeline predict|
  optimize|diagnose`` or an explicit ``--passes a,b,c`` list) through
  the pass manager, with per-pass timing/cache statistics;
* ``trace FILE``     -- phase timings + propagation event stream;
* ``explain FILE BRANCH`` -- why a branch got its probability;
* ``workloads``      -- list the built-in benchmark suite;
* ``evaluate``       -- score all predictors on a workload or a suite;
* ``serve``          -- long-running prediction daemon (HTTP JSON API,
  content-addressed result cache, sharded analysis processes, graceful
  degradation -- see ``docs/SERVING.md``);
* ``submit FILE...`` -- send programs to a running daemon; output is
  byte-identical to the corresponding one-shot command (``--trace-out``
  additionally exports the exchange as Chrome trace-event JSON);
* ``profile FILE``   -- per-pass / per-analysis self and cumulative
  times, hot transfer functions, and collapsed stacks for flamegraphs
  (``--collapsed``, ``--trace-out``);
* ``watch FILE...``  -- re-run ``predict``/``check``/``ranges`` whenever
  a watched file changes, replaying unchanged functions from the
  incremental summary store (``docs/INCREMENTAL.md``) so each recheck
  re-analyses only the call-graph component holding the edit.

``predict``, ``check``, ``ranges``, ``ir`` and ``run`` print
:func:`repro.commands.execute`'s output -- the function the daemon
answers with -- and ``trace`` and ``explain`` render the same
``predict`` run, recorded by a tracer; ``opt`` and ``profile`` build
their pass pipeline with :meth:`repro.passes.PassPipeline.select`.
Every flag is a :class:`repro.commands.Option` row: the analysis,
``check`` and ``run`` flags come from :mod:`repro.commands`' tables, so
the CLI and the protocol share names, defaults, bounds and choices, and
the CLI-only flags are declared once below, shared rows such as
``--emit-metrics``, ``--jobs`` and ``--host``/``--port`` included.  An
out-of-range value is a usage error (exit 2); a program that fails to
lex, parse, lower or run is one ``error: ...`` line (exit 1), never a
traceback.

``predict`` and ``check`` accept ``--incremental`` (or ``--store-dir
DIR``, which adds a cross-run on-disk store and implies it) to replay unchanged
callgraph components from the content-addressed summary store; output
is byte-identical to a cold run.

``predict``, ``ir``, ``ranges``, ``submit`` and (single-file) ``check``
read from stdin when FILE is ``-``.  ``predict``, ``opt``, ``check``,
``evaluate``, ``profile`` and ``submit`` accept ``--emit-metrics PATH``
to write a machine-readable metrics JSON (schema in
``docs/OBSERVABILITY.md``; ``opt`` adds the ``passes`` key, ``profile``
the ``profile`` key, ``submit`` fetches the daemon's ``server`` key).
``evaluate``, ``check`` and ``submit`` accept ``--jobs N``; outputs are
byte-identical for every worker count (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import commands
from repro.commands import Option
from repro.core import VRPConfig
from repro.core.perf.stats import STORE_MEMORY_ENTRIES
from repro.ir import format_module
from repro.observability import NULL_TRACER, SCHEMA_VERSION, Tracer, use

#: The CLI-only flags several subcommands share, each declared once.
EMIT_METRICS = Option(
    "emit_metrics", str, None,
    f"write the run's metrics JSON (schema v{SCHEMA_VERSION}, "
    "docs/OBSERVABILITY.md) to PATH; check with many inputs writes "
    "PATH/<stem>.metrics.json, submit fetches the daemon's /metricsz",
    metavar="PATH",
)
JOBS = Option(
    "jobs", int, 1, "worker processes, or concurrent requests for submit; "
    "the output is the same for every N (default 1)", minimum=1, metavar="N",
)
DAEMON = (
    Option("host", str, "127.0.0.1", "daemon address (default 127.0.0.1)"),
    Option("port", int, 8077, "daemon port (default 8077; serve: 0 = "
           "kernel-assigned)"),
)
HTTP_TIMEOUT = Option("http_timeout", float, 60.0, "client-side HTTP timeout "
                      "(default 60)", metavar="SECONDS")
TRACE_OUT = Option(
    "trace_out", str, None, "write Chrome trace-event JSON (chrome://tracing, "
    "Perfetto) to PATH: the span tree (profile), or the exchange with the "
    "daemon's spans (submit)", metavar="PATH",
)
#: Mutually exclusive; ``profile`` defaults ``--pipeline`` to predict.
PIPELINE = (
    Option("pipeline", str, "optimize", "named pipeline: predict, optimize or "
           "diagnose (default optimize; profile: predict)", metavar="NAME"),
    Option("passes", str, None, "explicit comma-separated pass list "
           "(overrides --pipeline)", metavar="A,B,C"),
)
STORE_DIR = Option("store_dir", str, None, "on-disk tier for the incremental "
                   "summary store (summaries survive across invocations; "
                   "implies --incremental)",
                   metavar="DIR")
INCREMENTAL = Option("incremental", bool, False, "replay unchanged functions "
                     "from the content-addressed summary store (byte-identical "
                     "output; docs/INCREMENTAL.md)")
SANITIZE = Option("sanitize", bool, False,
                  "validate engine lattice invariants while propagating")

#: ``serve``'s own flags.  The servers raise ``ValueError`` for the same
#: bounds, for library callers.
SERVE = DAEMON + (
    Option("shards", int, None, "analysis shard processes (default: one per "
           "CPU core)", minimum=1, metavar="N"),
    Option("queue_size", int, 64, "waiting-request capacity (per shard) "
           "before 503 backpressure (default 64)", minimum=1, metavar="N"),
    Option("cache_dir", str, None, "on-disk result cache (warm results "
           "survive restarts)", metavar="DIR"),
    Option("memory_cache", int, STORE_MEMORY_ENTRIES, "in-memory result "
           f"cache entries (default {STORE_MEMORY_ENTRIES})", minimum=0,
           metavar="N"),
    Option("timeout", float, None, "per-request analysis deadline; past it "
           "the response degrades to heuristics-only prediction (default: "
           "none)", metavar="SECONDS"),
    Option("max_request_bytes", int, 1 << 20, "largest accepted request body "
           "(default 1 MiB)", minimum=1, metavar="N"),
    Option("drain_timeout", float, 30.0, "grace period for in-flight requests "
           "on SIGTERM (default 30)", metavar="SECONDS"),
    Option("incremental", bool, False, "consult the per-function summary "
           "store on whole-file cache misses (disk tier under "
           "<cache-dir>/incremental)"),
)

#: The served commands ``submit`` and ``loadgen`` ask for.
SERVED_COMMAND = Option("command", str, "predict", "command to ask the daemon "
                        "for (default predict)", choices=commands.COMMANDS)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        raise SystemExit(f"error: no such file: {path}")
    except UnicodeDecodeError as error:
        raise SystemExit(f"error: cannot decode {path} as UTF-8: {error}")


def _write_text_output(path: str, text: str, label: str = "report") -> None:
    """Write ``text`` to ``path`` with the CLI's uniform error contract.

    Every command that writes an artifact funnels through here: one
    error message shape (``error: cannot write <label>: ...``), one
    confirmation line (``<label> written to <path>``).
    """
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as error:
        raise SystemExit(f"error: cannot write {label}: {error}")
    print(f"{label} written to {path}")


def _emit_metrics(data, path: str) -> None:
    """Serialise a metrics document (MetricsReport or plain dict) to disk."""
    import json

    if hasattr(data, "to_json"):
        text = data.to_json() + "\n"
    else:
        text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    _write_text_output(path, text, label="metrics")


def _options(args: argparse.Namespace) -> dict:
    """The table options ``args`` carries (the flags its command has)."""
    return {
        name: getattr(args, name) for name in commands.OPTIONS if hasattr(args, name)
    }


def _request_options(args: argparse.Namespace, command=None) -> dict:
    """The options ``command`` takes whose flags differ from the default.

    ``serve`` (no command) sends the analysis options as base options;
    ``submit`` sends these per request.
    """
    return {
        row.name: getattr(args, row.name)
        for row in commands.accepted(command)
        if getattr(args, row.name, row.default) != row.default
    }


def _config(args: argparse.Namespace) -> VRPConfig:
    config = commands.build_config(_options(args))
    config.sanitize = getattr(args, "sanitize", False)
    return config


def _execute(command: str, args: argparse.Namespace, **kwargs) -> commands.Outcome:
    """Run ``command`` on ``args.file`` with the options on ``args``."""
    return commands.execute(
        command, _read_source(args.file), args.file, _options(args), _config(args),
        **kwargs,
    )


def _traced_predict(args: argparse.Namespace, tracer: Tracer) -> commands.Outcome:
    """``predict`` on ``args.file``, front end included, under ``tracer``."""
    with use(tracer):
        return _execute("predict", args)


def _metrics(prediction, tracer, incremental=None, **extra):
    """The metrics report of one ``predict``, ``check``, ``opt`` or
    ``profile`` run."""
    from repro.core import perf
    from repro.observability import build_metrics_report

    return build_metrics_report(
        prediction,
        tracer,
        perf_stats=perf.snapshot(),
        incremental=incremental.as_metrics() if incremental is not None else None,
        **extra,
    )


def _pipeline(args: argparse.Namespace, config: VRPConfig):
    """The pass pipeline ``--pipeline``/``--passes`` name; a bad name is
    an ``error:`` line before anything is read or analysed."""
    from repro.passes import PassPipeline, parse_passes

    try:
        passes = parse_passes(args.passes) if args.passes else None
        return PassPipeline.select(args.pipeline, passes, config)
    except (KeyError, ValueError) as error:
        raise SystemExit(f"error: {error.args[0]}")


def _incremental_store(incremental: bool, store_dir: Optional[str]):
    """The incremental summary store for this invocation, or ``None``.

    ``--incremental`` alone gets a process-local in-memory store (useful
    once per process only through ``watch``); ``--store-dir`` adds the
    on-disk tier so summaries survive across invocations, and turns
    replay on by itself.
    """
    if not incremental and store_dir is None:
        return None
    from repro.incremental import IncrementalStore

    return IncrementalStore(disk_dir=store_dir)


def cmd_predict(args: argparse.Namespace) -> int:
    tracer = Tracer() if args.emit_metrics else None
    store = _incremental_store(args.incremental, args.store_dir)
    outcome = _execute("predict", args, store=store, tracer=tracer)
    sys.stdout.write(outcome.output)
    if args.emit_metrics:
        report = _metrics(
            outcome.prediction, tracer, outcome.incremental,
            program=outcome.module.name,
        )
        _emit_metrics(report, args.emit_metrics)
    return 0


def cmd_opt(args: argparse.Namespace) -> int:
    from repro.ir import VerificationError
    from repro.passes import PIPELINES, available_passes, create_pass

    if args.list_passes:
        print("passes:")
        for name in available_passes():
            print(f"  {name:<16s} {create_pass(name).describe()}")
        print()
        print("pipelines:")
        for name in sorted(PIPELINES):
            print(f"  {name:<16s} {' -> '.join(PIPELINES[name])}")
        return 0
    if not args.file:
        raise SystemExit("error: FILE is required unless --list-passes is given")

    config = _config(args)
    if args.verify_ir:
        config.verify_ir = True
    pipeline = _pipeline(args, config)
    module, ssa_infos = commands.prepare(_read_source(args.file))
    tracer = Tracer() if args.emit_metrics else NULL_TRACER
    try:
        with use(tracer):
            result = pipeline.run(module, ssa_infos)
            if args.emit_metrics:
                prediction = result.cache.prediction()
    except VerificationError as error:
        raise SystemExit(f"error: {error}")

    print(f"{'pass':<16s} {'changed':>7s} {'seconds':>10s} {'hits':>5s} {'miss':>5s} {'inval':>6s}")
    for run in result.runs:
        print(
            f"{run.name:<16s} {run.changed:>7d} {run.seconds:>10.6f} "
            f"{run.cache_hits:>5d} {run.cache_misses:>5d} {run.invalidated:>6d}"
        )
    print(f"total rewrites: {result.changed}")
    if config.verify_ir:
        print("IR verified after each mutating pass")
    if args.print_ir:
        print()
        print(format_module(module))
    if args.emit_metrics:
        report = _metrics(
            prediction, tracer, program=module.name, passes=result.passes_metrics()
        )
        _emit_metrics(report, args.emit_metrics)
    return 0


def _check_file(item):
    """Compile, analyse, and render diagnostics for one file.

    Module-level (picklable) so ``--jobs N`` can run it in a process
    pool; the sequential path calls the same function, which keeps the
    rendered reports byte-identical for every worker count.  Returns a
    plain dict; a missing file or a program error comes back under an
    ``error`` key instead of raising, so the run fails on the first bad
    file in input order whatever the worker count.
    """
    path, options, config, with_metrics, incremental, store_dir = item
    tracer = Tracer() if with_metrics else None
    try:
        # The store is built per worker (it holds a lock and is not
        # picklable); the on-disk tier under ``store_dir`` is what the
        # worker processes actually share.
        outcome = commands.execute(
            "check",
            _read_source(path),
            path,
            options,
            config,
            store=_incremental_store(incremental, store_dir),
            tracer=tracer,
        )
    except SystemExit as error:
        return {"path": path, "error": str(error.code)}
    except commands.PROGRAM_ERRORS as error:
        return {"path": path, "error": f"error: {error}"}
    metrics = None
    if with_metrics:
        report = outcome.report
        metrics = _metrics(
            outcome.prediction, tracer, outcome.incremental,
            program=report.program, findings=report.findings,
        ).to_dict()
    return {
        "path": path,
        "rendered": outcome.output,
        "metrics": metrics,
        "fails": outcome.exit_code != 0,
    }


def _stem_of(path: str) -> str:
    import os

    return os.path.splitext(os.path.basename(path))[0]


def cmd_check(args: argparse.Namespace) -> int:
    import os

    files = args.files
    jobs = args.jobs
    output_dir = args.output_dir
    emit_metrics = args.emit_metrics
    multi = len(files) > 1 or output_dir is not None
    if "-" in files and (multi or jobs > 1):
        raise SystemExit("error: stdin ('-') requires a single file and --jobs 1")
    if args.output and multi:
        raise SystemExit(
            "error: --output is single-file; use --output-dir for many files"
        )
    if multi and (output_dir or emit_metrics):
        # Per-file outputs are named by stem: two inputs with the same
        # basename would silently overwrite each other.
        stems: dict = {}
        for path in files:
            stem = _stem_of(path)
            if stem in stems:
                raise SystemExit(
                    f"error: duplicate output stem {stem!r} "
                    f"({stems[stem]} and {path}); rename one input"
                )
            stems[stem] = path

    options, config = _options(args), _config(args)
    items = [
        (path, options, config, bool(emit_metrics), args.incremental, args.store_dir)
        for path in files
    ]
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # map() yields in submission order: deterministic output.
            results = list(pool.map(_check_file, items))
    else:
        results = [_check_file(item) for item in items]
    for result in results:
        if "error" in result:
            raise SystemExit(result["error"])

    extension = "txt" if args.format == "text" else args.format
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
    if emit_metrics and multi:
        os.makedirs(emit_metrics, exist_ok=True)
    failed = False
    for result in results:
        failed = failed or result["fails"]
        if output_dir is not None:
            target = os.path.join(
                output_dir, f"{_stem_of(result['path'])}.{extension}"
            )
            _write_text_output(
                target, result["rendered"], label=f"{args.format} report"
            )
        elif args.output:
            _write_text_output(
                args.output, result["rendered"], label=f"{args.format} report"
            )
        else:
            if len(results) > 1:
                print(f"== {result['path']} ==")
            sys.stdout.write(result["rendered"])
    if emit_metrics:
        for result in results:
            if multi:
                # With many files --emit-metrics names a directory.
                target = os.path.join(
                    emit_metrics, f"{_stem_of(result['path'])}.metrics.json"
                )
            else:
                target = emit_metrics
            _emit_metrics(result["metrics"], target)

    return 1 if failed else 0


def cmd_trace(args: argparse.Namespace) -> int:
    tracer = Tracer(record_events=not args.no_events)
    outcome = _traced_predict(args, tracer)

    print("phase timings:")
    print(f"  {'phase':<22s} {'count':>7s} {'seconds':>10s}")
    for timing in tracer.phase_timings().values():
        print(f"  {timing.name:<22s} {timing.count:>7d} {timing.seconds:>10.6f}")

    print()
    print("event counts:")
    for kind in sorted(tracer.event_counts):
        print(f"  {kind:<22s} {tracer.event_counts[kind]:>7d}")
    if tracer.dropped_events:
        print(f"  (dropped {tracer.dropped_events} events past the cap)")

    print()
    print("counters:")
    for name, value in outcome.prediction.counters.as_dict().items():
        print(f"  {name:<22s} {value:>7d}")

    if args.jsonl:
        import json

        try:
            with open(args.jsonl, "w", encoding="utf-8") as handle:
                for event in tracer.events:
                    handle.write(json.dumps(event.as_dict()) + "\n")
        except OSError as error:
            raise SystemExit(f"error: cannot write event stream: {error}")
        print()
        print(f"{len(tracer.events)} events written to {args.jsonl}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.observability.explain import explain_prediction

    tracer = Tracer()
    explanations = explain_prediction(_traced_predict(args, tracer).prediction, tracer)
    if not explanations:
        print("no conditional branches")
        return 0
    function, _, label = args.branch.partition("/")
    selected = [
        explanation
        for (fn, lbl), explanation in sorted(explanations.items())
        if (fn == function or (not label and lbl == function))
        and (not label or lbl == label)
    ]
    if not selected:
        known = ", ".join(f"{fn}/{lbl}" for fn, lbl in sorted(explanations))
        raise SystemExit(
            f"error: no branch matches {args.branch!r}; known branches: {known}"
        )
    for index, explanation in enumerate(selected):
        if index:
            print()
        print(explanation.render())
    return 0


def cmd_ir(args: argparse.Namespace) -> int:
    sys.stdout.write(_execute("ir", args).output)
    return 0


def cmd_ranges(args: argparse.Namespace) -> int:
    sys.stdout.write(_execute("ranges", args).output)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    sys.stdout.write(_execute("run", args).output)
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import all_workloads

    print(f"{'name':<12s} {'suite':<6s} description")
    for workload in all_workloads():
        print(f"{workload.name:<12s} {workload.suite:<6s} {workload.description}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evalharness import (
        evaluate_workload,
        format_cdf_table,
        format_suite_figure,
        prepare_workload,
        run_suite,
    )
    from repro.evalharness.accuracy import error_cdf
    from repro.workloads import get_workload, suite

    emit_metrics = args.emit_metrics
    if args.workload:
        workload = get_workload(args.workload)
        prepared = prepare_workload(workload)
        evaluation = evaluate_workload(workload, prepared=prepared)
        series = {
            name: error_cdf(records, weighted=args.weighted)
            for name, records in evaluation.records.items()
        }
        print(format_cdf_table(series, title=f"workload {workload.name}"))
        if emit_metrics:
            from repro.evalharness.runner import workload_metrics

            _emit_metrics(workload_metrics(prepared), emit_metrics)
        return 0
    suite_name = args.suite or "fp"
    if suite_name == "all":
        workloads = suite("int") + suite("fp")
    else:
        workloads = suite(suite_name)
    # One pass prepares, scores, and (when asked) collects metrics.
    evaluation, reports = run_suite(
        workloads,
        suite_name,
        jobs=args.jobs,
        with_metrics=bool(emit_metrics),
    )
    print(
        format_suite_figure(
            evaluation,
            weighted=args.weighted,
            title=f"{suite_name} suite",
        )
    )
    if emit_metrics:
        _emit_metrics({"suite": suite_name, "workloads": reports}, emit_metrics)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import serve_daemon

    return serve_daemon(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        cache_dir=args.cache_dir,
        memory_cache_entries=args.memory_cache,
        timeout_s=args.timeout,
        max_request_bytes=args.max_request_bytes,
        drain_timeout_s=args.drain_timeout,
        base_options=_request_options(args) or None,
        shards=args.shards,
        incremental=args.incremental,
    )


def _submit_verbose_line(response: dict) -> str:
    """The ``--verbose`` provenance line for one submit response.

    Always carries the full provenance -- key, status, cache tier,
    degradation (with the daemon's reason when it gave one), latency,
    and trace id -- so degraded and error responses explain themselves
    the same way cached hits do.
    """
    line = (
        f"# key={response.get('key')} status={response.get('status')} "
        f"cached={response.get('cached')} degraded={response.get('degraded')} "
        f"elapsed_ms={response.get('elapsed_ms')}"
    )
    reason = response.get("degraded_reason")
    if reason:
        line += f" reason={reason!r}"
    error = response.get("error")
    if error:
        line += f" error={error!r}"
    trace_id = response.get("trace_id")
    if trace_id:
        line += f" trace_id={trace_id}"
    return line


def _write_chrome_trace(path: str, process: str, events: list, trace_id: str) -> None:
    """Write ``events`` to ``path`` as one Chrome trace-event document,
    on a process track named ``process`` and tied to ``trace_id``."""
    import json

    from repro.observability import chrometrace

    events = [chrometrace.metadata_event("process_name", 1, process)] + events
    document = chrometrace.chrome_trace_document(events, trace_id=trace_id)
    _write_text_output(path, json.dumps(document, indent=1) + "\n", label="trace")


def _submit_trace_events(context, files, responses, started_us, elapsed_us):
    """Chrome trace events for one submit invocation.

    The client span covers the whole exchange on tid 1; each response's
    shipped server spans (relative offsets) are re-based at the client's
    request-start instant on their own tid, which nests them under the
    client span without synchronised clocks.
    """
    from repro.observability import chrometrace

    events = [
        chrometrace.metadata_event("thread_name", 1, "client", tid=1),
        chrometrace.complete_event(
            f"submit:{','.join(files)}",
            started_us,
            elapsed_us,
            tid=1,
            args={"trace_id": context.trace_id},
        ),
    ]
    for index, (path, response) in enumerate(zip(files, responses)):
        wire_spans = response.get("trace")
        if not isinstance(wire_spans, list) or not wire_spans:
            continue
        tid = 2 + index
        events.append(
            chrometrace.metadata_event(
                "thread_name", 1, f"server:{path}", tid=tid
            )
        )
        events.extend(
            chrometrace.events_from_wire_spans(
                wire_spans,
                started_us,
                tid=tid,
                trace_id=response.get("trace_id") or context.trace_id,
            )
        )
    return events


def cmd_submit(args: argparse.Namespace) -> int:
    import time

    from repro.observability import context as tracecontext
    from repro.server.client import ServeClient, ServerError

    files = args.files
    if "-" in files and len(files) > 1:
        raise SystemExit("error: stdin ('-') must be the only input")
    command = args.command
    options = _request_options(args, command)
    if args.trace_out:
        options["trace"] = True

    items = [
        {"command": command, "source": _read_source(path), "name": path,
         "options": options}
        for path in files
    ]
    client = ServeClient(args.host, args.port, timeout=args.http_timeout)
    # One trace id for the whole invocation: the client mints it, the
    # header carries it, the daemon's access log and events echo it.
    context = tracecontext.mint()
    started_us = time.perf_counter() * 1e6
    try:
        with tracecontext.use(context):
            if len(items) == 1:
                responses = [
                    client.analyze(
                        command, items[0]["source"], name=items[0]["name"],
                        options=options,
                    )
                ]
            elif args.jobs > 1:
                # Client-side fan-out: N concurrent independent
                # requests, results in submission order, so stdout is
                # byte-identical to --jobs 1 (asserted in tests).
                responses = client.analyze_many(items, jobs=args.jobs)
            else:
                responses = client.batch(items)
    except ServerError as error:
        suffix = f" (HTTP {error.status})" if error.status else ""
        raise SystemExit(f"error: {error}{suffix}")
    elapsed_us = time.perf_counter() * 1e6 - started_us

    exit_code = 0
    for path, response in zip(files, responses):
        if len(responses) > 1:
            print(f"== {path} ==")
        if response.get("status") == "error":
            print(f"error: {response.get('error')}", file=sys.stderr)
        sys.stdout.write(response.get("output") or "")
        if args.verbose:
            print(_submit_verbose_line(response), file=sys.stderr)
        exit_code = max(exit_code, int(response.get("exit_code", 0)))
    if args.trace_out:
        _write_chrome_trace(
            args.trace_out,
            "repro submit",
            _submit_trace_events(context, files, responses, started_us, elapsed_us),
            context.trace_id,
        )
    if args.emit_metrics:
        try:
            _emit_metrics(client.metricsz(), args.emit_metrics)
        except ServerError as error:
            raise SystemExit(f"error: {error}")
    return exit_code


def cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.server.client import ServeClient, ServerError
    from repro.server.loadgen import dump_report, format_report, run_load

    client = ServeClient(args.host, args.port, timeout=args.http_timeout)
    try:
        client.healthz()
    except ServerError as error:
        raise SystemExit(f"error: {error}")
    reports = []
    for workload in args.workloads.split(","):
        workload = workload.strip()
        report = run_load(
            args.host,
            args.port,
            requests=args.requests,
            concurrency=args.concurrency,
            command=args.command,
            workload=workload,
            hot_set=args.hot_set,
            corpus_offset=args.corpus_offset,
            http_timeout=args.http_timeout,
        )
        reports.append(report)
        print(format_report(report))
        print()
    if args.emit:
        document = reports[0] if len(reports) == 1 else {"runs": reports}
        if args.emit == "-":
            print(json.dumps(document, indent=1, sort_keys=True))
        else:
            dump_report(document, args.emit)
            print(f"loadgen: report written to {args.emit}", file=sys.stderr)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.observability import chrometrace
    from repro.observability import context as tracecontext
    from repro.observability.profiler import profile_source

    pipeline = _pipeline(args, _config(args))
    source = _read_source(args.file)
    context = tracecontext.mint()
    with tracecontext.use(context):
        session = profile_source(
            source, pipeline=pipeline, max_events=args.max_events
        )

    report = session.report
    sys.stdout.write(report.render_text(top=args.top))
    if args.collapsed:
        _write_text_output(
            args.collapsed, report.render_collapsed(), label="collapsed stacks"
        )
    if args.trace_out:
        wire_spans = chrometrace.serialize_spans(session.tracer.spans)
        _write_chrome_trace(
            args.trace_out,
            "repro profile",
            chrometrace.events_from_wire_spans(wire_spans, 0.0, trace_id=context.trace_id),
            context.trace_id,
        )
    if args.emit_metrics:
        with tracecontext.use(context):
            metrics = _metrics(
                session.prediction,
                session.tracer,
                program=report.program,
                profile=report.as_metrics(),
            )
        _emit_metrics(metrics, args.emit_metrics)
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    from repro.incremental.watch import run_watch

    if "-" in args.files:
        raise SystemExit("error: watch needs real files, not stdin ('-')")
    options, config = _options(args), _config(args)
    # One store for the whole loop: the in-memory tier is what makes
    # the second and later rechecks cheap; --store-dir persists it.
    store = _incremental_store(True, args.store_dir)

    def render(path: str, source: str):
        try:
            outcome = commands.execute(
                args.command, source, path, options, config, store
            )
        except commands.PROGRAM_ERRORS as error:
            return "", None, str(error)
        return outcome.output, outcome.incremental, None

    return run_watch(
        args.files,
        render,
        interval_s=max(0.05, args.interval),
        max_cycles=args.max_cycles,
    )


def _add_options(p: argparse.ArgumentParser, rows, hidden: bool = False) -> None:
    """Declare one flag per option-table row (``hidden``: no ``--help``)."""
    for row in rows:
        help_text = argparse.SUPPRESS if hidden else row.help
        if row.kind is bool:
            p.add_argument(row.flag, action="store_true", help=help_text)
        else:
            p.add_argument(
                row.flag,
                type=_argument_type(row) if row.kind is not str else None,
                default=row.default,
                choices=row.choices or None,
                metavar=row.metavar,
                help=help_text,
            )


def _argument_type(row: Option):
    def parse(text: str):
        try:
            return row.parse(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error))

    return parse




def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Value range propagation (Patterson, PLDI 1995) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, *rows, file="file", analysis=True):
        """Add subcommand ``name``: its ``file`` positional (``file?``
        optional, ``files`` one or more, ``None`` none), the analysis
        flags when it analyses, then ``rows``."""
        p = sub.add_parser(name, help=help)
        if file == "files":
            p.add_argument(
                "files",
                nargs="+",
                help="toy-language source files ('-' for stdin, single file only)",
            )
        elif file:
            p.add_argument(
                "file",
                nargs="?" if file == "file?" else None,
                help="toy-language source file ('-' for stdin)",
            )
        if analysis:
            _add_options(p, commands.ANALYSIS_OPTIONS + (SANITIZE,))
        _add_options(p, rows)
        p.set_defaults(handler=handler)
        return p

    command(
        "predict", "predict every conditional branch", cmd_predict,
        INCREMENTAL, STORE_DIR, EMIT_METRICS,
    )

    opt_cmd = command(
        "opt", "run a pass pipeline through the pass manager", cmd_opt,
        Option("list_passes", bool, False,
               "list registered passes and named pipelines, then exit"),
        Option("verify_ir", bool, False, "verify the IR after every mutating pass"),
        Option("print_ir", bool, False, "dump the IR after the pipeline ran"),
        EMIT_METRICS,
        file="file?",
    )
    _add_options(opt_cmd.add_mutually_exclusive_group(), PIPELINE)

    command("ranges", "print final value ranges", cmd_ranges)

    command(
        "check", "static diagnostics from the computed ranges", cmd_check,
        INCREMENTAL, STORE_DIR, *commands.COMMAND_OPTIONS["check"],
        Option("output", str, None, "write the report to a file (single input)",
               metavar="PATH"),
        Option("output_dir", str, None, "write one report per input file as "
               "DIR/<stem>.<format>", metavar="DIR"),
        EMIT_METRICS, JOBS,
        file="files",
    )

    command(
        "watch", "re-analyse files on change via the incremental summary store",
        cmd_watch,
        # The commands that analyse, so the summary store can replay them.
        Option("command", str, "predict", "what to re-render on each change "
               "(default predict)", choices=tuple(
                   name for name in commands.COMMANDS if name not in ("ir", "run"))),
        commands.OPTIONS["format"],
        Option("interval", float, 0.5, "poll interval (default 0.5)",
               metavar="SECONDS"),
        Option("max_cycles", int, None, "stop after N poll cycles (default: run "
               "until interrupted)", metavar="N"),
        STORE_DIR,
        file="files",
    )

    command(
        "trace", "phase timings and the propagation event stream", cmd_trace,
        Option("jsonl", str, None, "dump every trace event as JSONL", metavar="PATH"),
        Option("no_events", bool, False, "record phase timings and event counts only"),
    )

    explain_cmd = command(
        "explain", "explain one branch prediction (why this probability?)",
        cmd_explain,
    )
    explain_cmd.add_argument(
        "branch",
        help="branch to explain: FUNCTION/LABEL, LABEL, or FUNCTION (all its branches)",
    )

    command("ir", "dump canonicalised SSA IR", cmd_ir, analysis=False)
    command(
        "run", "interpret a program", cmd_run, *commands.COMMAND_OPTIONS["run"],
        analysis=False,
    )
    command(
        "workloads", "list benchmark workloads", cmd_workloads,
        file=None, analysis=False,
    )

    command(
        "evaluate", "score predictors (figures 7/8)", cmd_evaluate,
        Option("workload", str, None, "one workload by name"),
        Option("suite", str, None, "whole suite ('all' = int + fp)",
               choices=("int", "fp", "inter", "all")),
        Option("weighted", bool, False, "weight each branch by its execution count"),
        JOBS, EMIT_METRICS,
        file=None, analysis=False,
    )

    serve_cmd = command(
        "serve", "long-running prediction daemon (HTTP JSON API)", cmd_serve,
        *SERVE, file=None, analysis=False,
    )
    _add_options(serve_cmd, commands.ANALYSIS_OPTIONS, hidden=True)

    command(
        "submit", "send programs to a running repro serve daemon", cmd_submit,
        SERVED_COMMAND, *DAEMON, HTTP_TIMEOUT, JOBS,
        *commands.COMMAND_OPTIONS["check"], *commands.COMMAND_OPTIONS["run"],
        Option("verbose", bool, False, "print cache tier / degradation / latency "
               "per response (stderr)"),
        TRACE_OUT, EMIT_METRICS,
        file="files",
    )

    command(
        "loadgen", "drive load at a running daemon and measure", cmd_loadgen,
        *DAEMON,
        Option("requests", int, 200, "requests per workload (default 200)",
               metavar="N"),
        Option("concurrency", int, 8, "closed-loop client threads (default 8)",
               metavar="N"),
        SERVED_COMMAND,
        Option("workloads", str, "cold,hot,mixed", "comma-separated workloads: "
               "cold, hot, mixed (default all three)", metavar="LIST"),
        Option("hot_set", int, 8, "working-set size for hot/mixed workloads "
               "(default 8)", metavar="N"),
        Option("corpus_offset", int, 0, "shift the program corpus (fresh offset "
               "= cold caches)", metavar="N"),
        HTTP_TIMEOUT,
        Option("emit", str, None, "write the JSON load report to PATH ('-' for "
               "stdout)", metavar="PATH"),
        file=None, analysis=False,
    )

    profile_cmd = command(
        "profile", "per-pass and per-analysis self/cumulative profile",
        cmd_profile,
        Option("top", int, 10, "hot transfer functions to list (default 10)",
               metavar="N"),
        Option("collapsed", str, None, "write collapsed stacks (flamegraph.pl / "
               "speedscope input)", metavar="PATH"),
        TRACE_OUT,
        Option("max_events", int, 1_000_000, "event-stream retention cap "
               "(default 1000000)", metavar="N"),
        EMIT_METRICS,
    )
    _add_options(profile_cmd.add_mutually_exclusive_group(), PIPELINE)
    profile_cmd.set_defaults(pipeline="predict")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.core import SanitizerError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except commands.PROGRAM_ERRORS + (SanitizerError,) as error:
        raise SystemExit(f"error: {error}")


if __name__ == "__main__":
    raise SystemExit(main())

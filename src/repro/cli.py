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
answers with -- and every analysis, ``check`` and ``run`` flag is
generated from :mod:`repro.commands`' option tables, so the CLI and the
protocol share names, defaults, bounds and choices.  An out-of-range
value is a usage error (exit 2); a program that fails to lex, parse,
lower or run is one ``error: ...`` line (exit 1), never a traceback.
``--sanitize``, ``--incremental``/``--store-dir``, ``--jobs`` and
``--emit-metrics`` are CLI-only and live outside the tables.

``predict`` and ``check`` accept ``--incremental`` (with an optional
``--store-dir DIR`` for a cross-run on-disk store) to replay unchanged
callgraph components from the content-addressed summary store; output
is byte-identical to a cold run.

``predict``, ``ir``, ``ranges``, ``submit`` and (single-file) ``check``
read from stdin when FILE is ``-``.  ``predict``, ``opt``, ``check``,
``evaluate`` and ``submit`` accept ``--emit-metrics PATH`` to write a
machine-readable metrics JSON (schema in ``docs/OBSERVABILITY.md``;
``opt`` adds the ``passes`` key, ``submit`` fetches the daemon's
``server`` key).  ``evaluate`` and ``check`` accept ``--jobs N``;
outputs are byte-identical for every worker count (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import commands
from repro.core import VRPConfig
from repro.ir import format_module
from repro.observability import Tracer


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


def _metrics(outcome: commands.Outcome, tracer, **extra):
    """The metrics report of one ``predict`` or ``check`` run."""
    from repro.core import perf
    from repro.observability import build_metrics_report

    incremental = outcome.incremental
    return build_metrics_report(
        outcome.prediction,
        tracer,
        perf_stats=perf.snapshot(),
        incremental=incremental.as_metrics() if incremental is not None else None,
        **extra,
    )


def _incremental_store(incremental: bool, store_dir: Optional[str]):
    """The incremental summary store for this invocation, or ``None``.

    ``--incremental`` alone gets a process-local in-memory store (useful
    once per process only through ``watch``); ``--store-dir`` adds the
    on-disk tier so summaries survive across invocations.
    """
    if not incremental:
        return None
    from repro.incremental import IncrementalStore

    return IncrementalStore(disk_dir=store_dir)


def cmd_predict(args: argparse.Namespace) -> int:
    tracer = Tracer() if args.emit_metrics else None
    store = _incremental_store(args.incremental, args.store_dir)
    outcome = _execute("predict", args, store=store, tracer=tracer)
    sys.stdout.write(outcome.output)
    if args.emit_metrics:
        report = _metrics(outcome, tracer, program=outcome.module.name)
        _emit_metrics(report, args.emit_metrics)
    return 0


def cmd_opt(args: argparse.Namespace) -> int:
    from repro.passes import (
        PIPELINES,
        PassPipeline,
        available_passes,
        create_pass,
        parse_passes,
    )

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
    try:
        if args.passes:
            pipeline = PassPipeline(parse_passes(args.passes), config=config)
        else:
            pipeline = PassPipeline.named(args.pipeline, config=config)
    except (KeyError, ValueError) as error:
        raise SystemExit(f"error: {error.args[0]}")

    module, ssa_infos = commands.prepare(_read_source(args.file))
    emit_metrics = getattr(args, "emit_metrics", None)
    from repro.ir import VerificationError

    try:
        if emit_metrics:
            from repro.observability import Tracer, build_metrics_report, use

            tracer = Tracer()
            with use(tracer):
                result = pipeline.run(module, ssa_infos)
                prediction = result.cache.prediction()
        else:
            tracer = None
            result = pipeline.run(module, ssa_infos)
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
    if emit_metrics:
        from repro.core import perf

        report = build_metrics_report(
            prediction,
            tracer,
            program=module.name,
            perf_stats=perf.snapshot(),
            passes=result.passes_metrics(),
        )
        _emit_metrics(report, emit_metrics)
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
            outcome, tracer, program=report.program, findings=report.findings
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
    jobs = max(1, args.jobs)
    output_dir = args.output_dir
    emit_metrics = getattr(args, "emit_metrics", None)
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
    from repro.observability.instrument import trace_analysis

    session = trace_analysis(
        _read_source(args.file),
        config=_config(args),
        interprocedural=not args.intra,
        record_events=not args.no_events,
    )
    tracer = session.tracer

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
    for name, value in session.prediction.counters.as_dict().items():
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
    from repro.observability.explain import explain_module

    module, ssa_infos = commands.prepare(_read_source(args.file))
    explanations = explain_module(
        module,
        ssa_infos,
        config=_config(args),
        interprocedural=not args.intra,
    )
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

    emit_metrics = getattr(args, "emit_metrics", None)
    context_depth = args.context_depth
    if args.workload:
        workload = get_workload(args.workload)
        prepared = prepare_workload(workload)
        evaluation = evaluate_workload(
            workload, prepared=prepared, context_depth=context_depth
        )
        series = {
            name: error_cdf(records, weighted=args.weighted)
            for name, records in evaluation.records.items()
        }
        print(format_cdf_table(series, title=f"workload {workload.name}"))
        if emit_metrics:
            from repro.core import VRPConfig
            from repro.evalharness.runner import workload_metrics

            _emit_metrics(
                workload_metrics(
                    prepared, VRPConfig(context_depth=context_depth)
                ),
                emit_metrics,
            )
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
        jobs=max(1, args.jobs),
        with_metrics=bool(emit_metrics),
        context_depth=context_depth,
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

    if args.shards is not None and args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
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


def _submit_trace_events(context, files, responses, started_us, elapsed_us):
    """Chrome trace events for one submit invocation.

    The client span covers the whole exchange on tid 1; each response's
    shipped server spans (relative offsets) are re-based at the client's
    request-start instant on their own tid, which nests them under the
    client span without synchronised clocks.
    """
    from repro.observability import chrometrace

    events = [
        chrometrace.metadata_event("process_name", 1, "repro submit"),
        chrometrace.metadata_event("thread_name", 1, "client", tid=1),
    ]
    events.append(
        chrometrace.complete_event(
            f"submit:{','.join(files)}",
            started_us,
            elapsed_us,
            tid=1,
            args={"trace_id": context.trace_id},
        )
    )
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
    import json
    import time

    from repro.observability import chrometrace
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
        events = _submit_trace_events(
            context, files, responses, started_us, elapsed_us
        )
        document = chrometrace.chrome_trace_document(
            events, trace_id=context.trace_id
        )
        _write_text_output(
            args.trace_out,
            json.dumps(document, indent=1) + "\n",
            label="trace",
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
    import json

    from repro.observability import chrometrace
    from repro.observability import context as tracecontext
    from repro.observability.profiler import profile_source
    from repro.passes import parse_passes

    source = _read_source(args.file)
    try:
        passes = parse_passes(args.passes) if args.passes else None
    except ValueError as error:
        raise SystemExit(f"error: {error.args[0]}")
    context = tracecontext.mint()
    try:
        with tracecontext.use(context):
            session = profile_source(
                source,
                config=_config(args),
                pipeline=args.pipeline,
                passes=passes,
                max_events=args.max_events,
            )
    except KeyError as error:
        raise SystemExit(f"error: {error.args[0]}")

    report = session.report
    sys.stdout.write(report.render_text(top=args.top))
    if args.collapsed:
        _write_text_output(
            args.collapsed, report.render_collapsed(), label="collapsed stacks"
        )
    if args.trace_out:
        wire_spans = chrometrace.serialize_spans(session.tracer.spans)
        events = [
            chrometrace.metadata_event("process_name", 1, "repro profile"),
        ]
        events.extend(
            chrometrace.events_from_wire_spans(
                wire_spans, 0.0, trace_id=context.trace_id
            )
        )
        document = chrometrace.chrome_trace_document(
            events, trace_id=context.trace_id
        )
        _write_text_output(
            args.trace_out, json.dumps(document, indent=1) + "\n", label="trace"
        )
    if args.emit_metrics:
        from repro.core import perf
        from repro.observability import build_metrics_report

        with tracecontext.use(context):
            metrics = build_metrics_report(
                session.prediction,
                session.tracer,
                program=report.program,
                perf_stats=perf.snapshot(),
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
    store = _incremental_store(True, getattr(args, "store_dir", None))

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


def _argument_type(row: "commands.Option"):
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

    def add_analysis_flags(
        p: argparse.ArgumentParser,
        multi_file: bool = False,
        optional_file: bool = False,
    ) -> None:
        if multi_file:
            p.add_argument(
                "files",
                nargs="+",
                help="toy-language source files ('-' for stdin, single file only)",
            )
        elif optional_file:
            p.add_argument(
                "file",
                nargs="?",
                help="toy-language source file ('-' for stdin)",
            )
        else:
            p.add_argument("file", help="toy-language source file ('-' for stdin)")
        _add_options(p, commands.ANALYSIS_OPTIONS)
        p.add_argument(
            "--sanitize",
            action="store_true",
            help="validate engine lattice invariants while propagating",
        )

    def add_incremental_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--incremental",
            action="store_true",
            help="replay unchanged functions from the content-addressed "
            "summary store (byte-identical output; docs/INCREMENTAL.md)",
        )
        p.add_argument(
            "--store-dir",
            metavar="DIR",
            help="on-disk tier for the incremental summary store "
            "(summaries survive across invocations)",
        )

    predict = sub.add_parser("predict", help="predict every conditional branch")
    add_analysis_flags(predict)
    add_incremental_flags(predict)
    predict.add_argument(
        "--emit-metrics",
        metavar="PATH",
        help="write a metrics JSON (timings, counters, branch provenance)",
    )
    predict.set_defaults(handler=cmd_predict)

    opt_cmd = sub.add_parser(
        "opt", help="run a pass pipeline through the pass manager"
    )
    add_analysis_flags(opt_cmd, optional_file=True)
    opt_group = opt_cmd.add_mutually_exclusive_group()
    opt_group.add_argument(
        "--pipeline",
        default="optimize",
        metavar="NAME",
        help="named pipeline: predict, optimize, or diagnose (default optimize)",
    )
    opt_group.add_argument(
        "--passes",
        metavar="A,B,C",
        help="explicit comma-separated pass list (overrides --pipeline)",
    )
    opt_cmd.add_argument(
        "--list-passes",
        action="store_true",
        help="list registered passes and named pipelines, then exit",
    )
    opt_cmd.add_argument(
        "--verify-ir",
        action="store_true",
        help="verify the IR after every mutating pass",
    )
    opt_cmd.add_argument(
        "--print-ir",
        action="store_true",
        help="dump the IR after the pipeline ran",
    )
    opt_cmd.add_argument(
        "--emit-metrics",
        metavar="PATH",
        help="write a metrics JSON including per-pass telemetry (schema v4)",
    )
    opt_cmd.set_defaults(handler=cmd_opt)

    ranges_cmd = sub.add_parser("ranges", help="print final value ranges")
    add_analysis_flags(ranges_cmd)
    ranges_cmd.set_defaults(handler=cmd_ranges)

    check_cmd = sub.add_parser(
        "check", help="static diagnostics from the computed ranges"
    )
    add_analysis_flags(check_cmd, multi_file=True)
    add_incremental_flags(check_cmd)
    _add_options(check_cmd, commands.COMMAND_OPTIONS["check"])
    check_cmd.add_argument(
        "--output", metavar="PATH", help="write the report to a file (single input)"
    )
    check_cmd.add_argument(
        "--output-dir",
        metavar="DIR",
        help="write one report per input file as DIR/<stem>.<format>",
    )
    check_cmd.add_argument(
        "--emit-metrics",
        metavar="PATH",
        help=(
            "write a metrics JSON including the findings "
            "(a directory of <stem>.metrics.json files with many inputs)"
        ),
    )
    check_cmd.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="check files over N worker processes (same output as N=1)",
    )
    check_cmd.set_defaults(handler=cmd_check)

    watch_cmd = sub.add_parser(
        "watch",
        help="re-analyse files on change via the incremental summary store",
    )
    add_analysis_flags(watch_cmd, multi_file=True)
    watch_cmd.add_argument(
        "--command",
        choices=["predict", "check", "ranges"],
        default="predict",
        help="what to re-render on each change (default predict)",
    )
    _add_options(watch_cmd, [commands.OPTIONS["format"]])
    watch_cmd.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="poll interval (default 0.5)",
    )
    watch_cmd.add_argument(
        "--max-cycles",
        type=int,
        default=None,
        metavar="N",
        help="stop after N poll cycles (default: run until interrupted)",
    )
    watch_cmd.add_argument(
        "--store-dir",
        metavar="DIR",
        help="on-disk tier for the incremental summary store",
    )
    watch_cmd.set_defaults(handler=cmd_watch)

    trace_cmd = sub.add_parser(
        "trace", help="phase timings and the propagation event stream"
    )
    add_analysis_flags(trace_cmd)
    trace_cmd.add_argument(
        "--jsonl", metavar="PATH", help="dump every trace event as JSONL"
    )
    trace_cmd.add_argument(
        "--no-events",
        action="store_true",
        help="record phase timings and event counts only",
    )
    trace_cmd.set_defaults(handler=cmd_trace)

    explain_cmd = sub.add_parser(
        "explain", help="explain one branch prediction (why this probability?)"
    )
    add_analysis_flags(explain_cmd)
    explain_cmd.add_argument(
        "branch",
        help="branch to explain: FUNCTION/LABEL, LABEL, or FUNCTION (all its branches)",
    )
    explain_cmd.set_defaults(handler=cmd_explain)

    ir_cmd = sub.add_parser("ir", help="dump canonicalised SSA IR")
    ir_cmd.add_argument("file", help="toy-language source file ('-' for stdin)")
    ir_cmd.set_defaults(handler=cmd_ir)

    run_cmd = sub.add_parser("run", help="interpret a program")
    run_cmd.add_argument("file", help="toy-language source file ('-' for stdin)")
    _add_options(run_cmd, commands.COMMAND_OPTIONS["run"])
    run_cmd.set_defaults(handler=cmd_run)

    workloads_cmd = sub.add_parser("workloads", help="list benchmark workloads")
    workloads_cmd.set_defaults(handler=cmd_workloads)

    evaluate_cmd = sub.add_parser("evaluate", help="score predictors (figures 7/8)")
    evaluate_cmd.add_argument("--workload", help="one workload by name")
    evaluate_cmd.add_argument(
        "--suite",
        choices=["int", "fp", "inter", "all"],
        help="whole suite ('all' = int + fp)",
    )
    evaluate_cmd.add_argument("--weighted", action="store_true")
    _add_options(evaluate_cmd, [commands.OPTIONS["context_depth"]])
    evaluate_cmd.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="evaluate workloads over N worker processes (same output as N=1)",
    )
    evaluate_cmd.add_argument(
        "--emit-metrics",
        metavar="PATH",
        help="write VRP metrics JSON for the evaluated workload(s)",
    )
    evaluate_cmd.set_defaults(handler=cmd_evaluate)

    serve_cmd = sub.add_parser(
        "serve", help="long-running prediction daemon (HTTP JSON API)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_cmd.add_argument(
        "--port", type=int, default=8077, help="TCP port (0 = kernel-assigned)"
    )
    serve_cmd.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="analysis shard processes (default: one per CPU core)",
    )
    serve_cmd.add_argument(
        "--queue-size", type=int, default=64, metavar="N",
        help="waiting-request capacity (per shard) before 503 "
        "backpressure (default 64)",
    )
    serve_cmd.add_argument(
        "--cache-dir", metavar="DIR",
        help="on-disk result cache (warm results survive restarts)",
    )
    serve_cmd.add_argument(
        "--memory-cache", type=int, default=1024, metavar="N",
        help="in-memory result cache entries (default 1024)",
    )
    serve_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request analysis deadline; past it the response "
        "degrades to heuristics-only prediction (default: none)",
    )
    serve_cmd.add_argument(
        "--max-request-bytes", type=int, default=1 << 20, metavar="N",
        help="largest accepted request body (default 1 MiB)",
    )
    serve_cmd.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="grace period for in-flight requests on SIGTERM (default 30)",
    )
    serve_cmd.add_argument(
        "--incremental",
        action="store_true",
        help="consult the per-function summary store on whole-file "
        "cache misses (disk tier under <cache-dir>/incremental)",
    )
    _add_options(serve_cmd, commands.ANALYSIS_OPTIONS, hidden=True)
    serve_cmd.set_defaults(handler=cmd_serve)

    submit_cmd = sub.add_parser(
        "submit", help="send programs to a running repro serve daemon"
    )
    add_analysis_flags(submit_cmd, multi_file=True)
    submit_cmd.add_argument(
        "--command",
        choices=["predict", "check", "ranges", "ir", "run"],
        default="predict",
        help="what to ask the daemon for (default predict)",
    )
    submit_cmd.add_argument("--host", default="127.0.0.1", help="daemon address")
    submit_cmd.add_argument(
        "--port", type=int, default=8077, help="daemon port (default 8077)"
    )
    submit_cmd.add_argument(
        "--http-timeout", type=float, default=60.0, metavar="SECONDS",
        help="client-side HTTP timeout (default 60)",
    )
    submit_cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="concurrent submissions (client-side fan-out; results are "
        "printed in file order, byte-identical to --jobs 1)",
    )
    _add_options(
        submit_cmd, commands.COMMAND_OPTIONS["check"] + commands.COMMAND_OPTIONS["run"]
    )
    submit_cmd.add_argument(
        "--verbose",
        action="store_true",
        help="print cache tier / degradation / latency per response (stderr)",
    )
    submit_cmd.add_argument(
        "--trace-out",
        metavar="PATH",
        help=(
            "request server-side spans and write a Chrome trace-event "
            "JSON (chrome://tracing, Perfetto) for the exchange"
        ),
    )
    submit_cmd.add_argument(
        "--emit-metrics",
        metavar="PATH",
        help="fetch the daemon's /metricsz document (schema v6) into PATH",
    )
    submit_cmd.set_defaults(handler=cmd_submit)

    loadgen_cmd = sub.add_parser(
        "loadgen", help="drive load at a running daemon and measure"
    )
    loadgen_cmd.add_argument("--host", default="127.0.0.1", help="daemon address")
    loadgen_cmd.add_argument(
        "--port", type=int, default=8077, help="daemon port (default 8077)"
    )
    loadgen_cmd.add_argument(
        "--requests", type=int, default=200, metavar="N",
        help="requests per workload (default 200)",
    )
    loadgen_cmd.add_argument(
        "--concurrency", type=int, default=8, metavar="N",
        help="closed-loop client threads (default 8)",
    )
    loadgen_cmd.add_argument(
        "--command",
        choices=["predict", "check", "ranges", "ir", "run"],
        default="predict",
        help="endpoint to drive (default predict)",
    )
    loadgen_cmd.add_argument(
        "--workloads", default="cold,hot,mixed", metavar="LIST",
        help="comma-separated workloads: cold, hot, mixed "
        "(default all three)",
    )
    loadgen_cmd.add_argument(
        "--hot-set", type=int, default=8, metavar="N",
        help="working-set size for hot/mixed workloads (default 8)",
    )
    loadgen_cmd.add_argument(
        "--corpus-offset", type=int, default=0, metavar="N",
        help="shift the program corpus (fresh offset = cold caches)",
    )
    loadgen_cmd.add_argument(
        "--http-timeout", type=float, default=60.0, metavar="SECONDS",
        help="client-side HTTP timeout (default 60)",
    )
    loadgen_cmd.add_argument(
        "--emit", metavar="PATH",
        help="write the JSON load report to PATH ('-' for stdout)",
    )
    loadgen_cmd.set_defaults(handler=cmd_loadgen)

    profile_cmd = sub.add_parser(
        "profile", help="per-pass and per-analysis self/cumulative profile"
    )
    add_analysis_flags(profile_cmd)
    profile_group = profile_cmd.add_mutually_exclusive_group()
    profile_group.add_argument(
        "--pipeline",
        default="predict",
        metavar="NAME",
        help="named pipeline to profile (default predict)",
    )
    profile_group.add_argument(
        "--passes",
        metavar="A,B,C",
        help="explicit comma-separated pass list (overrides --pipeline)",
    )
    profile_cmd.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="hot transfer functions to list (default 10)",
    )
    profile_cmd.add_argument(
        "--collapsed",
        metavar="PATH",
        help="write collapsed stacks (flamegraph.pl / speedscope input)",
    )
    profile_cmd.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the span tree as Chrome trace-event JSON",
    )
    profile_cmd.add_argument(
        "--max-events",
        type=int,
        default=1_000_000,
        metavar="N",
        help="event-stream retention cap (default 1000000)",
    )
    profile_cmd.add_argument(
        "--emit-metrics",
        metavar="PATH",
        help="write a metrics JSON including the 'profile' key (schema v6)",
    )
    profile_cmd.set_defaults(handler=cmd_profile)

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

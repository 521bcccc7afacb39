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
  re-analyses only the edited function plus its summary-dependents.

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

from repro.core import VRPConfig, VRPPredictor
from repro.ir import format_module, prepare_module
from repro.lang import compile_source
from repro.profiling import run_module


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
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


def _parse_ints(text: Optional[str]) -> List[int]:
    if not text:
        return []
    return [int(part) for part in text.replace(",", " ").split()]


def _config_from_args(args: argparse.Namespace) -> VRPConfig:
    return VRPConfig(
        max_ranges=args.max_ranges,
        symbolic=not args.numeric,
        derive_loops=not args.no_derive,
        track_arrays=args.track_arrays,
        sanitize=getattr(args, "sanitize", False),
        context_depth=max(0, getattr(args, "context_depth", 0)),
        incremental=bool(getattr(args, "incremental", False)),
    )


def _incremental_store(args: argparse.Namespace):
    """The incremental summary store for this invocation, or ``None``.

    ``--incremental`` alone gets a process-local in-memory store (useful
    once per process only through ``watch``); ``--store-dir`` adds the
    on-disk tier so summaries survive across invocations.
    """
    if not getattr(args, "incremental", False):
        return None
    from repro.incremental import IncrementalStore

    return IncrementalStore(disk_dir=getattr(args, "store_dir", None))


def _prepare(args: argparse.Namespace):
    from repro.lang import LexError, LoweringError, ParseError

    try:
        module = compile_source(_read_source(args.file))
    except FileNotFoundError:
        raise SystemExit(f"error: no such file: {args.file}")
    except (LexError, ParseError, LoweringError) as error:
        raise SystemExit(f"error: {error}")
    ssa_infos = prepare_module(module)
    return module, ssa_infos


def cmd_predict(args: argparse.Namespace) -> int:
    module, ssa_infos = _prepare(args)
    predictor = VRPPredictor(
        config=_config_from_args(args),
        interprocedural=not args.intra,
        incremental_store=_incremental_store(args),
    )
    emit_metrics = getattr(args, "emit_metrics", None)
    if emit_metrics:
        from repro.observability import Tracer, build_metrics_report, use

        tracer = Tracer()
        with use(tracer):
            prediction = predictor.predict_module(module, ssa_infos)
    else:
        tracer = None
        prediction = predictor.predict_module(module, ssa_infos)
    from repro import rendering

    sys.stdout.write(
        rendering.branch_table(
            prediction.all_branches(), prediction.heuristic_branches()
        )
    )
    if emit_metrics:
        from repro.core import perf

        outcome = predictor.last_incremental
        report = build_metrics_report(
            prediction,
            tracer,
            program=module.name,
            perf_stats=perf.snapshot(),
            incremental=outcome.as_metrics() if outcome is not None else None,
        )
        _emit_metrics(report, emit_metrics)
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

    config = _config_from_args(args)
    if args.verify_ir:
        config.verify_ir = True
    try:
        if args.passes:
            pipeline = PassPipeline(parse_passes(args.passes), config=config)
        else:
            pipeline = PassPipeline.named(args.pipeline, config=config)
    except (KeyError, ValueError) as error:
        raise SystemExit(f"error: {error.args[0]}")

    module, ssa_infos = _prepare(args)
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


_CHECK_EXTENSIONS = {"text": "txt", "json": "json", "sarif": "sarif"}


def _check_file(item):
    """Compile, analyse, and render diagnostics for one file.

    Module-level (picklable) so ``--jobs N`` can run it in a process
    pool; the sequential path calls the same function, which keeps the
    rendered reports byte-identical for every worker count.  Returns a
    plain dict; compile errors come back under an ``error`` key instead
    of raising, so one bad file fails the run cleanly from the parent.
    """
    path, config, intra, fmt, with_metrics, fail_on, store_dir = item
    from repro.diagnostics import check_module, render_json, render_sarif, render_text
    from repro.lang import LexError, LoweringError, ParseError

    try:
        module = compile_source(_read_source(path))
    except FileNotFoundError:
        return {"path": path, "error": f"no such file: {path}"}
    except (LexError, ParseError, LoweringError) as error:
        return {"path": path, "error": str(error)}
    ssa_infos = prepare_module(module)
    # The store is built per worker (it holds a lock and is not
    # picklable); the on-disk tier under ``store_dir`` is what the
    # worker processes actually share.
    store = None
    if config.incremental:
        from repro.incremental import IncrementalStore

        store = IncrementalStore(disk_dir=store_dir)
    predictor = VRPPredictor(
        config=config, interprocedural=not intra, incremental_store=store
    )
    program = module.name if path == "-" else path
    if with_metrics:
        from repro.core import perf
        from repro.observability import Tracer, build_metrics_report, use

        tracer = Tracer()
        with use(tracer):
            prediction = predictor.predict_module(module, ssa_infos)
            report = check_module(module, prediction, program=program)
        outcome = predictor.last_incremental
        metrics = build_metrics_report(
            prediction,
            tracer,
            program=program,
            findings=report.findings,
            perf_stats=perf.snapshot(),
            incremental=outcome.as_metrics() if outcome is not None else None,
        ).to_dict()
    else:
        prediction = predictor.predict_module(module, ssa_infos)
        report = check_module(module, prediction, program=program)
        metrics = None

    if fmt == "json":
        rendered = render_json(report)
    elif fmt == "sarif":
        rendered = render_sarif(report, artifact_uri=program)
    else:
        rendered = render_text(report)
    return {
        "path": path,
        "rendered": rendered,
        "metrics": metrics,
        "fails": report.fails(fail_on),
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

    config = _config_from_args(args)
    store_dir = getattr(args, "store_dir", None)
    items = [
        (
            path,
            config,
            args.intra,
            args.format,
            bool(emit_metrics),
            args.fail_on,
            store_dir,
        )
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
            raise SystemExit(f"error: {result['error']}")

    extension = _CHECK_EXTENSIONS[args.format]
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
                target, result["rendered"] + "\n", label=f"{args.format} report"
            )
        elif args.output:
            _write_text_output(
                args.output, result["rendered"] + "\n", label=f"{args.format} report"
            )
        else:
            if len(results) > 1:
                print(f"== {result['path']} ==")
            print(result["rendered"])
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

    try:
        source = _read_source(args.file)
    except FileNotFoundError:
        raise SystemExit(f"error: no such file: {args.file}")
    from repro.lang import LexError, LoweringError, ParseError

    try:
        session = trace_analysis(
            source,
            config=_config_from_args(args),
            interprocedural=not args.intra,
            record_events=not args.no_events,
        )
    except (LexError, ParseError, LoweringError) as error:
        raise SystemExit(f"error: {error}")
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

    module, ssa_infos = _prepare(args)
    explanations = explain_module(
        module,
        ssa_infos,
        config=_config_from_args(args),
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
    from repro import rendering

    module, _ = _prepare(args)
    sys.stdout.write(rendering.ir_dump(module))
    return 0


def cmd_ranges(args: argparse.Namespace) -> int:
    from repro import rendering

    module, ssa_infos = _prepare(args)
    predictor = VRPPredictor(
        config=_config_from_args(args), interprocedural=not args.intra
    )
    prediction = predictor.predict_module(module, ssa_infos)
    sys.stdout.write(rendering.ranges_listing(prediction))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro import rendering

    module, _ = _prepare(args)
    result = run_module(
        module,
        args=_parse_ints(args.args),
        input_values=_parse_ints(args.inputs),
        max_steps=args.max_steps,
    )
    sys.stdout.write(rendering.run_report(result, profile=args.profile))
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
    context_depth = max(0, getattr(args, "context_depth", 0))
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
    base_options = {}
    if args.intra:
        base_options["intra"] = True
    if args.numeric:
        base_options["numeric"] = True
    if args.no_derive:
        base_options["no_derive"] = True
    if args.track_arrays:
        base_options["track_arrays"] = True
    if args.max_ranges != 4:
        base_options["max_ranges"] = args.max_ranges
    if args.context_depth:
        base_options["context_depth"] = args.context_depth
    return serve_daemon(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        cache_dir=args.cache_dir,
        memory_cache_entries=args.memory_cache,
        timeout_s=args.timeout,
        max_request_bytes=args.max_request_bytes,
        drain_timeout_s=args.drain_timeout,
        base_options=base_options or None,
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
    options: dict = {}
    if args.intra:
        options["intra"] = True
    if args.numeric:
        options["numeric"] = True
    if args.no_derive:
        options["no_derive"] = True
    if args.track_arrays:
        options["track_arrays"] = True
    if args.max_ranges != 4:
        options["max_ranges"] = args.max_ranges
    if args.context_depth:
        options["context_depth"] = args.context_depth
    if command == "check":
        options["format"] = args.format
        options["fail_on"] = args.fail_on
    if command == "run":
        if args.args:
            options["args"] = _parse_ints(args.args)
        if args.inputs:
            options["inputs"] = _parse_ints(args.inputs)
        options["max_steps"] = args.max_steps
        if args.profile:
            options["profile"] = True
    if args.trace_out:
        options["trace"] = True

    items = []
    for path in files:
        try:
            source = _read_source(path)
        except FileNotFoundError:
            raise SystemExit(f"error: no such file: {path}")
        items.append(
            {"command": command, "source": source, "name": path, "options": options}
        )
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

    from repro.lang import LexError, LoweringError, ParseError
    from repro.observability import chrometrace
    from repro.observability import context as tracecontext
    from repro.observability.profiler import profile_source
    from repro.passes import parse_passes

    try:
        source = _read_source(args.file)
    except FileNotFoundError:
        raise SystemExit(f"error: no such file: {args.file}")
    try:
        passes = parse_passes(args.passes) if args.passes else None
    except ValueError as error:
        raise SystemExit(f"error: {error.args[0]}")
    context = tracecontext.mint()
    try:
        with tracecontext.use(context):
            session = profile_source(
                source,
                config=_config_from_args(args),
                pipeline=args.pipeline,
                passes=passes,
                max_events=args.max_events,
            )
    except (LexError, ParseError, LoweringError) as error:
        raise SystemExit(f"error: {error}")
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
    from repro.diagnostics import check_module, render_json, render_sarif, render_text
    from repro.incremental import IncrementalStore
    from repro.incremental.watch import run_watch
    from repro.lang import LexError, LoweringError, ParseError
    from repro import rendering

    if "-" in args.files:
        raise SystemExit("error: watch needs real files, not stdin ('-')")
    config = _config_from_args(args)
    config.incremental = True  # the whole point of the watch loop
    # One store for the whole loop: the in-memory tier is what makes
    # the second and later rechecks cheap; --store-dir persists it.
    store = IncrementalStore(disk_dir=getattr(args, "store_dir", None))
    command = args.command

    def render(path: str, source: str):
        try:
            module = compile_source(source)
        except (LexError, ParseError, LoweringError) as error:
            return "", None, str(error)
        ssa_infos = prepare_module(module)
        predictor = VRPPredictor(
            config=config,
            interprocedural=not args.intra,
            incremental_store=store,
        )
        prediction = predictor.predict_module(module, ssa_infos)
        if command == "check":
            report = check_module(module, prediction, program=path)
            if args.format == "json":
                text = render_json(report) + "\n"
            elif args.format == "sarif":
                text = render_sarif(report, artifact_uri=path) + "\n"
            else:
                text = render_text(report) + "\n"
        elif command == "ranges":
            text = rendering.ranges_listing(prediction)
        else:
            text = rendering.branch_table(
                prediction.all_branches(), prediction.heuristic_branches()
            )
        return text, predictor.last_incremental, None

    return run_watch(
        args.files,
        render,
        interval_s=max(0.05, args.interval),
        max_cycles=args.max_cycles,
    )


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
        p.add_argument("--intra", action="store_true", help="disable interprocedural analysis")
        p.add_argument("--numeric", action="store_true", help="disable symbolic ranges")
        p.add_argument("--no-derive", action="store_true", help="disable loop derivation")
        p.add_argument("--track-arrays", action="store_true", help="track array contents")
        p.add_argument("--max-ranges", type=int, default=4, help="ranges per variable (default 4)")
        p.add_argument(
            "--context-depth",
            type=int,
            default=0,
            metavar="K",
            help="k-limited context-sensitive interprocedural analysis "
            "(default 0 = context-insensitive)",
        )
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
    check_cmd.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (default text)",
    )
    check_cmd.add_argument(
        "--fail-on",
        choices=["error", "warning", "never"],
        default="error",
        help="exit non-zero when a finding at/above this severity exists",
    )
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
    watch_cmd.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="check output format (default text)",
    )
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
    run_cmd.add_argument("--args", default="", help="main() arguments, comma separated")
    run_cmd.add_argument("--inputs", default="", help="input() stream, comma separated")
    run_cmd.add_argument("--max-steps", type=int, default=5_000_000)
    run_cmd.add_argument("--profile", action="store_true", help="print branch profile")
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
    evaluate_cmd.add_argument(
        "--context-depth",
        type=int,
        default=0,
        metavar="K",
        help="k-limited context sensitivity for the VRP lines (default 0)",
    )
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
    serve_cmd.add_argument("--intra", action="store_true", help=argparse.SUPPRESS)
    serve_cmd.add_argument("--numeric", action="store_true", help=argparse.SUPPRESS)
    serve_cmd.add_argument("--no-derive", action="store_true", help=argparse.SUPPRESS)
    serve_cmd.add_argument(
        "--track-arrays", action="store_true", help=argparse.SUPPRESS
    )
    serve_cmd.add_argument(
        "--max-ranges", type=int, default=4, help=argparse.SUPPRESS
    )
    serve_cmd.add_argument(
        "--context-depth", type=int, default=0, help=argparse.SUPPRESS
    )
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
    submit_cmd.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="check output format (default text)",
    )
    submit_cmd.add_argument(
        "--fail-on",
        choices=["error", "warning", "never"],
        default="error",
        help="check exit-code gate (default error)",
    )
    submit_cmd.add_argument("--args", default="", help="run: main() arguments")
    submit_cmd.add_argument("--inputs", default="", help="run: input() stream")
    submit_cmd.add_argument("--max-steps", type=int, default=5_000_000)
    submit_cmd.add_argument(
        "--profile", action="store_true", help="run: include the branch profile"
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

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SanitizerError as error:
        raise SystemExit(f"error: {error}")


if __name__ == "__main__":
    raise SystemExit(main())

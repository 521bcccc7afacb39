"""Running workloads: one fresh subprocess each, and the run document.

The parent (``run``) starts a ``worker`` subprocess per workload and
reads its result from the last line of the worker's stdout.  ``setup_s``
is the median over ``SETUP_REPEATS`` fresh processes of the time from
spawn to the end of ``warm``, each calibrated by kernel samples its own
process takes right after.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from benchmarks.ledger import corpus
from benchmarks.ledger.calibrate import Calibration
from benchmarks.ledger.layers import Recorder, chrome_trace, profile
from benchmarks.ledger.metrics import (
    END_TO_END,
    PER_LAYER,
    SHARE_LAYERS,
    TAIL_PERCENTILE,
    UNITS,
    calibrated,
    percentile,
    ratio,
)
from benchmarks.ledger.workloads import Check, layer_times

WORKLOADS = ("oneshot-suite", "large-modules", "edit-loop", "serve-mixed")
#: What ``run`` measures without ``--workload``: the workloads
#: ``BENCHMARK.json`` gates.  serve-mixed runs only when named.
DEFAULT_WORKLOADS = WORKLOADS[:3]
SETUP_REPEATS = 3
SETUP_KERNEL_SAMPLES = 9
#: Every invocation must end well inside three minutes.
DEADLINE_S = 170.0
WORK_ROOT = corpus.LEDGER_DIR / ".work"
SELF_TIME_TOLERANCE = 0.01
TRACED_ONLY = {f"{layer}.share" for layer in SHARE_LAYERS} | {
    "observability.trace_overhead_ratio"
}


def make_workload(name: str, seed: int, work_dir: str, quick: bool):
    from benchmarks.ledger import serve, workloads

    if name == "oneshot-suite":
        return workloads.OneshotSuite(seed, quick)
    if name == "large-modules":
        return workloads.LargeModules(seed, quick)
    if name == "edit-loop":
        return workloads.EditLoop(seed, work_dir, quick)
    if name == "serve-mixed":
        return serve.ServeMixed(seed, work_dir, quick)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# -- inside the worker process ---------------------------------------------------------


def run_in_child(args) -> dict:
    """Set up, measure and check one workload in this process."""
    workload = make_workload(args.workload, args.seed, args.work_dir, args.quick)
    try:
        workload.prepare()
        workload.warm()
        setup = {"raw_s": time.time() - args.t0}
        kernel = Calibration()
        kernel.sample(SETUP_KERNEL_SAMPLES)
        setup["factor"] = kernel.factor
        if args.setup_only:
            return {"setup": setup}
        traced = bool(args.trace)
        budget = args.seconds / 2 if traced else args.seconds
        period = workload.sample_period
        first = workload.run_pass(Recorder(sample_period=period), budget)
        second = None
        if traced:
            workload.warm()
            second = workload.run_pass(
                Recorder(traced=True, sample_period=period), budget, first.blocks
            )
        checks = Check()
        quality = workload.finish(first, checks)
    finally:
        workload.close()
    calibration = first.recorder.calibration
    result = {
        "setup": setup,
        "blocks": first.blocks,
        "calibration": calibration.as_dict(),
    }
    result.update(_end_to_end(workload, first, quality))
    result["layers"] = calibrated(_layers(first), calibration.factor)
    if second is not None:
        table = profile(second.recorder.tracer, second.recorder.wall)
        result["layers"].update(table["shares"])
        result["layers"]["observability.trace_overhead_ratio"] = ratio(
            statistics.fmean(second.recorder.latencies) * second.recorder.calibration.factor,
            statistics.fmean(first.recorder.latencies) * calibration.factor,
        )
        result["trace"] = {
            "wall_s": table["wall_s"],
            "self_sum_s": table["self_sum_s"],
            "spans": len(second.recorder.tracer.spans),
            "table": table["report"].render_text(top=0),
        }
        gap = abs(table["self_sum_s"] - table["wall_s"])
        checks.record(
            "trace_self_time_sums_to_wall",
            gap <= SELF_TIME_TOLERANCE * table["wall_s"],
            f"self {table['self_sum_s']:.6f}s vs wall {table['wall_s']:.6f}s",
        )
        if args.trace_dir:
            os.makedirs(args.trace_dir, exist_ok=True)
            path = os.path.join(args.trace_dir, f"{args.workload}.trace.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(chrome_trace(second.recorder.tracer), handle)
                handle.write("\n")
    result["checks"] = checks.results
    result["correct"] = checks.ok
    return result


def _end_to_end(workload, first, quality) -> dict:
    """Raw and calibrated end-to-end metrics (every time by the kernel around it)."""
    samples = first.extra.get("samples")
    if samples is not None:  # serve-mixed: uncalibrated, from each request's due time
        ok = [s for s in samples if s.status == "ok"]
        raw = latencies = [s.latency for s in ok]
        attempted = len(samples) + first.extra["fill_attempted"]
        failed = len(samples) - len(ok) + first.extra["fill_failed"]
        raw_ops = ops_per_s = first.extra["fill_rps"]
    else:
        raw = first.recorder.latencies
        latencies = first.recorder.calibrated_latencies()
        attempted, failed = len(raw), 0
        raw_ops = ratio(len(raw), sum(raw))
        ops_per_s = ratio(len(latencies), sum(latencies))
    tail = TAIL_PERCENTILE[workload.name]

    def metrics(values, ops):
        return {
            "p50_ms": 1000.0 * percentile(values, 50),
            "tail_ms": 1000.0 * percentile(workload.tail_basis(first, values), tail),
            "ops_per_s": ops,
            "peak_rss_mb": first.extra["peak_rss_mb"],
            **quality,
        }

    return {
        "attempted": attempted,
        "failed": failed,
        "samples": len(latencies),
        "tail_percentile": tail,
        "e2e": metrics(latencies, ops_per_s),
        "raw": metrics(raw, raw_ops),
    }


def _layers(first) -> Dict[str, float]:
    """Per-layer metrics of the untraced pass; the traced pass adds the shares."""
    layers = {name: 0.0 for name in PER_LAYER if name not in TRACED_ONLY}
    layers.update(layer_times(first.recorder, int(first.extra.get("tokens", 0))))
    layers.update(first.work.metrics())
    layers.update({name: value for name, value in first.extra.items() if name in PER_LAYER})
    return layers


# -- in the parent -----------------------------------------------------------------


class WorkerFailed(RuntimeError):
    """A worker subprocess exited without a result."""


def _spawn(args, name: str, deadline: float, setup_only: bool) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = WORK_ROOT / f"{os.getpid()}-{name}-{time.monotonic_ns()}"
    work_dir.mkdir()
    command = [
        sys.executable, "-m", "benchmarks.ledger", "worker",
        "--workload", name, "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(int(args.trace)), "--work-dir", str(work_dir),
    ]
    if args.quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    if args.trace_dir:
        command += ["--trace-dir", os.path.abspath(args.trace_dir)]
    command += ["--t0", repr(time.time())]
    try:
        completed = subprocess.run(
            command,
            cwd=str(corpus.REPO_ROOT),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{name}: worker ran past the deadline")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise WorkerFailed(f"{name}: worker exited with code {completed.returncode}")
    return json.loads(lines[-1])


def run_workload(args, name: str, deadline: float) -> dict:
    result = _spawn(args, name, deadline, setup_only=False)
    setups = [result.pop("setup")]
    repeats = 1 if (args.quick or args.trace) else SETUP_REPEATS
    for _ in range(repeats - 1):
        setups.append(_spawn(args, name, deadline, setup_only=True)["setup"])
    result["setups"] = setups
    result["raw"]["setup_s"] = statistics.median(s["raw_s"] for s in setups)
    result["e2e"]["setup_s"] = statistics.median(s["raw_s"] * s["factor"] for s in setups)
    return result


def meta(args) -> dict:
    from benchmarks.ledger.serve import CPUS as nproc

    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "quick": bool(args.quick),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "shards": nproc,
        "multi_core_scaling": "measured" if nproc >= 4 else "unmeasured (nproc < 4)",
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def metric_lines(name: str, result: dict) -> List[str]:
    lines = []
    for metric, value in {**result["e2e"], **result["layers"]}.items():
        lines.append(f"{name} {metric} {value!r} {UNITS[metric]}")
    for check, outcome in result["checks"].items():
        state = "ok" if outcome["ok"] else "FAIL"
        lines.append(f"{name} check:{check} {state} {outcome['detail']}")
    return lines


def summary(results: Dict[str, dict], traced: bool) -> dict:
    """The one-line result: every end-to-end (or, traced, per-layer) metric."""
    names = PER_LAYER if traced else END_TO_END
    single = len(results) == 1
    metrics = {}
    for workload, result in results.items():
        values = result["layers"] if traced else result["e2e"]
        for name in names:
            key = name if single else f"{workload}/{name}"
            metrics[key] = {"value": values[name], "unit": UNITS[name]}
    return {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }


def run(args) -> int:
    names = [args.workload] if args.workload else list(DEFAULT_WORKLOADS)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(args, name, deadline)
        except WorkerFailed as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        for line in metric_lines(name, results[name]):
            print(line)
    document = {"meta": meta(args), "workloads": results}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(summary(results, bool(args.trace))))
    return 0 if all(result["correct"] for result in results.values()) else 1


def worker_main(args) -> int:
    result = run_in_child(args)
    print(json.dumps(result))
    return 0

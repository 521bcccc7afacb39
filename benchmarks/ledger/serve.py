"""The ``serve-mixed`` workload: a sharded server under open-loop load.

The server (:class:`repro.server.frontend.ShardedServer`, one shard per
CPU) runs in a child process started by ``python -m benchmarks.ledger
serve-child``; it prints its port and process ids, and on ``stop`` reads
the peak resident memory of itself and every shard before draining.

Load comes from this process only: at most ``nproc`` threads, each with
one connection at a time.  The timed part starts with the cache fill:
every working-set (program, command) pair, sent back to back, all
misses, whose throughput is the tier's capacity.  Then the nominal phase
follows a seeded Poisson schedule, and every latency is measured from
the request's due time, so a stall also charges the requests it delays.
Any request that fails (an error, a 503, or no answer within
``HTTP_TIMEOUT_S``) fails the run's ``no_failed_requests`` check.

The traffic (rate, novel share, Zipf exponent, command mix) is a
stand-in: no measured traffic backs it.  The workload runs only when
asked for by name (``--workload serve-mixed``) and is not gated.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from benchmarks.ledger import corpus
from benchmarks.ledger.layers import ROOT_SPAN, Recorder
from benchmarks.ledger.metrics import percentile, ratio
from benchmarks.ledger.workloads import Check, Pass, Workload, truth_check

#: Nominal open-loop rate.  Not taken from measured traffic: it was
#: lowered from 40 rps because, with two CPUs and two connections, at
#: 20-40 rps the median fell between hits that wait behind a shard's
#: analysis and hits that do not, and jumped between them from run to run.
NOMINAL_RPS = 10.0
HTTP_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0
CPUS = len(os.sched_getaffinity(0))


# -- the server child -------------------------------------------------------------


def _peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def serve_child(shards: int, cache_dir: str) -> int:
    """Body of ``serve-child``: serve until ``stop`` arrives on stdin."""
    from repro.server.frontend import ShardedServer

    server = ShardedServer(port=0, shards=shards, cache_dir=cache_dir)
    loop = threading.Thread(target=server.serve_forever, name="ledger-serve")
    loop.start()
    pids = [os.getpid()] + [handle.process.pid for handle in server.shards]
    print(json.dumps({"port": server.port, "pids": pids}), flush=True)
    sys.stdin.readline()  # "stop", or EOF when the parent died
    rss_kb = sum(_peak_rss_kb(pid) for pid in pids)
    drained = server.drain(timeout=30.0)
    loop.join(timeout=10.0)
    for pid in pids[1:]:
        _kill_shard(pid)  # shards ignore SIGTERM; a failed drain leaves them running
    print(json.dumps({"rss_kb": rss_kb, "drained": drained}), flush=True)
    return 0 if drained else 1


def _kill_shard(pid: int) -> None:
    """SIGKILL ``pid`` if it is still a shard of this benchmark."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            if b"serve-child" not in handle.read():
                return
        os.kill(pid, signal.SIGKILL)
    except (FileNotFoundError, ProcessLookupError):
        pass


class ServerProcess:
    """Parent-side handle of the server child."""

    def __init__(self, shards: int, cache_dir: str):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.ledger", "serve-child",
             "--shards", str(shards), "--cache-dir", cache_dir],
            cwd=str(corpus.REPO_ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = json.loads(self._line(READY_TIMEOUT_S))
        except BaseException:
            self.kill()
            raise
        self.port = ready["port"]
        self.pids = ready["pids"]

    def _line(self, timeout: float) -> str:
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError("serve-child did not answer")
        return line

    def stop(self) -> int:
        """Drain the server; returns the summed peak RSS in KiB."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            document = json.loads(self._line(60.0))
            self.proc.wait(timeout=30.0)
            return int(document["rss_kb"])
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the server and its shards are gone (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pid in getattr(self, "pids", [])[1:]:
            _kill_shard(pid)
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


# -- the load generator -------------------------------------------------------------


@dataclass
class Sample:
    request: corpus.Request
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: str = "error"  # ok | rejected | error
    cached: Optional[str] = None
    output: str = ""
    spans: List[dict] = field(default_factory=list)
    trace_id: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from the request's due time to its answer."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


class Track:
    """One generator thread's spans, merged into the tracer after the pass."""

    def __init__(self):
        from repro.observability.tracer import SpanRecord

        self._record = SpanRecord
        self.spans = []

    def add(self, name, start, end, parent=None, trace_id=None) -> int:
        record = self._record(name, start, 0, len(self.spans), parent, trace_id)
        record.end = end
        self.spans.append(record)
        return record.index

    def add_server_spans(self, sample: Sample, parent: int) -> None:
        """Re-base the shard's spans at the send instant, as ``repro submit`` does."""
        offset = len(self.spans)
        for span in sample.spans:
            start = sample.sent + float(span["start_us"]) / 1e6
            wire_parent = span.get("parent")
            self.add(
                str(span["name"]), start, start + float(span["dur_us"]) / 1e6,
                parent if wire_parent is None else offset + int(wire_parent),
                sample.trace_id,
            )


def drive(port: int, schedule: List[corpus.Request], tracer=None,
          closed_loop: bool = False, until: Optional[float] = None) -> List[Sample]:
    """Send ``schedule`` from at most ``nproc`` threads; one Sample per request sent.

    ``closed_loop`` ignores due times and sends back to back; ``until``
    stops sending that many seconds after the start.  With a ``tracer``
    each request asks for the server's spans, and each thread's spans
    become one track of it.
    """
    from repro.observability import context as tracecontext
    from repro.server.client import ServeClient, ServerError

    traced = tracer is not None
    samples = [Sample(request) for request in schedule]
    lock = threading.Lock()
    cursor = [0]
    tracks = [Track() for _ in range(min(CPUS, max(1, len(schedule))))]
    origin = time.perf_counter()

    def worker(track: Track) -> None:
        client = ServeClient("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
        root = track.add(ROOT_SPAN, time.perf_counter(), 0.0)
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(samples) or (
                until is not None and time.perf_counter() - origin >= until
            ):
                break
            sample = samples[index]
            request = sample.request
            wait_from = time.perf_counter()
            sample.due = wait_from if closed_loop else origin + request.due
            if sample.due > wait_from:
                time.sleep(sample.due - wait_from)
            if traced:
                track.add("loadgen.wait", wait_from, time.perf_counter(), root)
            options = {"trace": True} if traced else {}
            context = tracecontext.mint()
            sample.sent = time.perf_counter()
            try:
                with tracecontext.use(context):
                    response = client.analyze(
                        request.command, request.source, name=request.name, options=options
                    )
                sample.status = "ok" if response.get("status") == "ok" else "error"
                sample.cached = response.get("cached")
                sample.output = response.get("output") or ""
                sample.spans = response.get("trace") or []
                sample.trace_id = response.get("trace_id") or context.trace_id
            except ServerError as error:
                sample.status = "rejected" if error.status == 503 else "error"
            sample.done = time.perf_counter()
            if traced:
                parent = track.add("server.request", sample.sent, sample.done, root, sample.trace_id)
                track.add_server_spans(sample, parent)
        track.spans[root].end = time.perf_counter()

    threads = [threading.Thread(target=worker, args=(track,)) for track in tracks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if traced:
        for track in tracks:
            offset = len(tracer.spans)
            for span in track.spans:
                span.index += offset
                if span.parent is not None:
                    span.parent += offset
                tracer.spans.append(span)
    return [sample for sample in samples if sample.sent]


# -- the workload --------------------------------------------------------------------


class ServeMixed(Workload):
    """Routing, shard IPC, both cache tiers, and analysis on misses."""

    name = "serve-mixed"
    op = "request"

    def __init__(self, seed: int, work_dir: str, quick: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.quick = quick
        self.server: Optional[ServerProcess] = None
        self.samples: List[Sample] = []

    def prepare(self) -> None:
        import repro.server.client  # noqa: F401

        self.stream = corpus.RequestStream(self.seed, 8 if self.quick else corpus.WORKING_SET)
        self.server = ServerProcess(CPUS, os.path.join(self.work_dir, "cache"))

    def close(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            server.stop()

    def run_pass(self, rec: Recorder, seconds: float, blocks: Optional[int] = None) -> Pass:
        """The cache-fill phase (unless repeating a pass), then the nominal phase."""
        from repro.server.client import ServeClient

        client = ServeClient("127.0.0.1", self.server.port)
        result = Pass(rec)
        if blocks is None:
            result.extra.update(self._fill())
        schedule = self.stream.schedule(NOMINAL_RPS, seconds)
        before = client.metricsz()
        samples = drive(self.server.port, schedule, rec.tracer)
        rec.latencies.extend(s.done - s.sent for s in samples)
        if rec.tracer is not None:  # client thread time: the roots of all tracks
            rec.wall = sum(span.seconds for span in rec.tracer.spans if span.parent is None)
        after = client.metricsz()
        result.blocks = 1
        self.samples.extend(samples)
        result.extra.update(self._layer_metrics(samples, before, after, seconds))
        result.extra["samples"] = samples
        return result

    def _fill(self) -> dict:
        """Send every working-set (program, command) pair once, back to back.

        Every request is a cache miss, so the throughput of this closed
        loop (at most ``nproc`` requests outstanding, no backlog) is the
        tier's analysis capacity.
        """
        pairs = [
            corpus.Request(0.0, command, name, source)
            for command, name, source in self.stream.warm_pairs()
        ]
        samples = drive(self.server.port, pairs, closed_loop=True)
        self.samples.extend(samples)
        ok = sum(s.status == "ok" for s in samples)
        started, ended = min(s.sent for s in samples), max(s.done for s in samples)
        return {
            "fill_rps": ok / (ended - started),
            "fill_attempted": len(samples),
            "fill_failed": len(samples) - ok,
        }

    @staticmethod
    def _layer_metrics(samples: List[Sample], before: dict, after: dict, seconds: float) -> dict:
        def tier_p50(tier):
            return 1000.0 * percentile(
                [s.done - s.sent for s in samples if s.status == "ok" and s.cached == tier], 50
            )

        ok = [s for s in samples if s.status == "ok"]
        served = [
            shard["served"] - old["served"]
            for shard, old in zip(after["server"]["shards"], before["server"]["shards"])
        ]
        return {
            "server.memory_hit_ms_p50": tier_p50("memory"),
            "server.disk_hit_ms_p50": tier_p50("disk"),
            "server.fresh_ms_p50": tier_p50(None),
            "server.memory_hit_ratio": ratio(sum(s.cached == "memory" for s in ok), len(ok)),
            "server.disk_hit_ratio": ratio(sum(s.cached == "disk" for s in ok), len(ok)),
            "server.rejected_ratio": ratio(
                sum(s.status == "rejected" for s in samples), len(samples)
            ),
            "server.queue_high_water": after["server"]["queue"]["high_water"],
            "server.shard_imbalance": ratio(max(served), sum(served) / len(served)),
            "loadgen.lateness_p95_ms": 1000.0 * percentile([s.lateness for s in samples], 95),
            "loadgen.offered_rps": len(samples) / seconds,
        }

    def finish(self, first: Pass, checks: Check) -> Dict[str, float]:
        from repro.ir import prepare_module
        from repro.lang import compile_source

        programs = corpus.truth_corpus()
        truth = corpus.load_truth(programs)
        if self.quick:
            programs = programs[::4]
        responses = drive(
            self.server.port,
            [corpus.Request(0.0, "predict", p.name, p.source) for p in programs],
            closed_loop=True,
        )
        score = corpus.TruthScore()
        predicted = branches = 0
        for program, sample in zip(programs, responses):
            rows = corpus.parse_branch_table(sample.output) if sample.status == "ok" else {}
            score.add(program.name, {key: p for key, (p, _) in rows.items()}, {}, truth[program.name])
            predicted += len(rows)
            module = compile_source(program.source)
            prepare_module(module)
            branches += corpus.conditional_branches(module)
        truth_check(checks, score)
        server, self.server = self.server, None
        first.extra["peak_rss_mb"] = server.stop() / 1024.0
        failed = sum(s.status != "ok" for s in self.samples + responses)
        checks.record(
            "no_failed_requests", failed == 0,
            f"{failed} of {len(self.samples) + len(responses)} requests failed "
            f"(errors, 503s, or no answer within {HTTP_TIMEOUT_S:g} s)",
        )
        self._check_outputs(checks)
        return {
            "branch_coverage": ratio(predicted, branches),
            "miss_rate_weighted": score.miss_rate,
        }

    def _check_outputs(self, checks: Check) -> None:
        """Served outputs: consistent per pair, and equal to ``analyze_payload``."""
        import random

        from repro.server.service import analyze_payload

        outputs: Dict[Tuple[str, str, str], set] = {}
        for sample in self.samples:
            if sample.status == "ok":
                request = sample.request
                key = (request.command, request.name, request.source)
                outputs.setdefault(key, set()).add(sample.output)
        inconsistent = sum(len(seen) > 1 for seen in outputs.values())
        checks.record(
            "served_outputs_consistent", inconsistent == 0,
            f"{inconsistent} of {len(outputs)} distinct pairs answered differently",
        )
        pairs = sorted(outputs)
        sample = random.Random(f"serve-sample/{self.seed}").sample(pairs, max(1, len(pairs) // 10))
        differing = [
            key for key in sample
            if analyze_payload(key[0], key[2], key[1], {})["output"] not in outputs[key]
        ]
        checks.record(
            "served_equals_analyze_payload", not differing,
            f"{len(sample) - len(differing)}/{len(sample)} sampled pairs equal",
        )

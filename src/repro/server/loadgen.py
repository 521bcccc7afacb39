"""Load generation against a serving daemon (``repro loadgen``).

The measurement half of the sharded tier: a closed-loop harness that
drives a running daemon with ``concurrency`` client threads, each
issuing requests back-to-back until the request budget is spent, and
reports throughput, latency percentiles, and the rejection rate.  The
benchmark suite (``benchmarks/test_bench_serve_load.py``) uses it to
compare shard counts; ``repro loadgen`` exposes the same harness for
capacity planning against a real deployment (``docs/SERVING.md``).

Workloads model the cache behaviour that sharding is designed around:

``cold``
    every request is a distinct program -- all analysis, no cache;
    throughput here is pure engine bandwidth and should scale with the
    shard count;
``hot``
    all requests draw from a small working set that fits every cache --
    after the first pass this measures routing + cache-lookup overhead,
    and the consistent-hash router keeps each program's repeats on the
    shard that already holds it;
``mixed``
    alternating cold and hot requests (the realistic shape: some novel
    submissions over a popular working set).

The harness is stdlib-only and closed-loop: a thread does not issue its
next request until the previous one answered, so offered load adapts to
the daemon instead of overrunning the socket backlog, and a 503 counts
as a *rejection* (backpressure working as designed), never an error.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List

from repro.server.client import ServeClient, ServerError

#: Distinct well-formed programs by index.  Each has a few branches and
#: a loop so analysis does real range propagation, and the embedded
#: constants make every index a distinct content address (cache miss).
_PROGRAM_TEMPLATE = """\
func work(n, limit) {{
  s = 0;
  for (i = 0; i < n; i = i + 1) {{
    if (i < limit) {{
      s = s + i;
    }} else {{
      s = s + {salt_a};
    }}
  }}
  return s;
}}

func main(n) {{
  if (n > {salt_b}) {{
    return work(n, {salt_a});
  }}
  if (n < 0) {{
    return 0 - n;
  }}
  return work({salt_b}, n) + {salt_c};
}}
"""


def make_program(index: int) -> str:
    """The ``index``-th corpus program (deterministic, all distinct)."""
    return _PROGRAM_TEMPLATE.format(
        salt_a=7 + (index % 23),
        salt_b=100 + index,
        salt_c=index % 13,
    )


def make_corpus(size: int, offset: int = 0) -> List[str]:
    """``size`` distinct programs starting at ``offset``."""
    return [make_program(offset + index) for index in range(size)]


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted list (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(
        0, min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    )
    return sorted_values[rank]


def _workload_sources(
    workload: str, requests: int, hot_set: int, offset: int
) -> List[str]:
    """The request-by-request source list for one run."""
    if workload == "cold":
        return make_corpus(requests, offset=offset)
    if workload == "hot":
        corpus = make_corpus(hot_set, offset=offset)
        return [corpus[index % hot_set] for index in range(requests)]
    if workload == "mixed":
        corpus = make_corpus(hot_set, offset=offset)
        sources = []
        for index in range(requests):
            if index % 2:
                sources.append(corpus[index % hot_set])
            else:
                sources.append(make_program(offset + hot_set + index))
        return sources
    raise ValueError(f"unknown workload {workload!r} (cold, hot, mixed)")


def run_load(
    host: str,
    port: int,
    requests: int = 200,
    concurrency: int = 8,
    command: str = "predict",
    workload: str = "cold",
    hot_set: int = 8,
    corpus_offset: int = 0,
    http_timeout: float = 60.0,
) -> Dict[str, object]:
    """Drive the daemon and measure; returns the load report document.

    ``corpus_offset`` shifts the program corpus so back-to-back runs
    against a shared cache directory can choose to collide (same
    offset: warm) or not (fresh offset: cold).
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    sources = _workload_sources(workload, requests, hot_set, corpus_offset)

    lock = threading.Lock()
    next_index = 0
    latencies_ms: List[float] = []
    statuses: Dict[str, int] = {"ok": 0, "rejected": 0, "error": 0}
    cached = {"memory": 0, "disk": 0, "fresh": 0}

    def worker() -> None:
        nonlocal next_index
        client = ServeClient(host, port, timeout=http_timeout)
        while True:
            with lock:
                index = next_index
                if index >= requests:
                    return
                next_index += 1
            source = sources[index]
            started = time.perf_counter()
            try:
                response = client.analyze(
                    command, source, name=f"loadgen-{corpus_offset + index}"
                )
                outcome = "ok" if response.get("status") == "ok" else "error"
                tier = response.get("cached")
            except ServerError as error:
                outcome = "rejected" if error.status == 503 else "error"
                tier = None
            elapsed_ms = (time.perf_counter() - started) * 1000
            with lock:
                statuses[outcome] += 1
                if outcome == "ok":
                    latencies_ms.append(elapsed_ms)
                    cached[tier if tier in ("memory", "disk") else "fresh"] += 1

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{index}", daemon=True)
        for index in range(concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed_s = time.perf_counter() - started

    latencies_ms.sort()
    completed = statuses["ok"]
    return {
        "workload": workload,
        "command": command,
        "requests": requests,
        "concurrency": concurrency,
        "hot_set": hot_set,
        "elapsed_s": round(elapsed_s, 4),
        "throughput_rps": round(completed / elapsed_s, 2) if elapsed_s else 0.0,
        "completed": completed,
        "rejected": statuses["rejected"],
        "errors": statuses["error"],
        "rejection_rate": round(statuses["rejected"] / requests, 4),
        "cached": dict(cached),
        "latency_ms": {
            "p50": round(percentile(latencies_ms, 0.50), 3),
            "p90": round(percentile(latencies_ms, 0.90), 3),
            "p99": round(percentile(latencies_ms, 0.99), 3),
            "max": round(latencies_ms[-1], 3) if latencies_ms else 0.0,
            "mean": (
                round(sum(latencies_ms) / len(latencies_ms), 3)
                if latencies_ms
                else 0.0
            ),
        },
    }


def format_report(report: Dict[str, object]) -> str:
    """The human-readable summary ``repro loadgen`` prints."""
    latency = report["latency_ms"]
    lines = [
        f"workload={report['workload']} command={report['command']} "
        f"requests={report['requests']} concurrency={report['concurrency']}",
        f"throughput   {report['throughput_rps']:>10.2f} req/s "
        f"({report['completed']} ok, {report['rejected']} rejected, "
        f"{report['errors']} errors in {report['elapsed_s']}s)",
        f"latency ms   p50={latency['p50']} p90={latency['p90']} "
        f"p99={latency['p99']} max={latency['max']}",
        f"cache tiers  memory={report['cached']['memory']} "
        f"disk={report['cached']['disk']} fresh={report['cached']['fresh']}",
    ]
    return "\n".join(lines)


def dump_report(report: Dict[str, object], path: str) -> None:
    """Write the report as deterministic JSON (BENCH-file idiom)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report, indent=1, sort_keys=True) + "\n")

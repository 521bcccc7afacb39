"""``compare``: two sets of run documents, metric by metric.

    python -m benchmarks.ledger compare A1.json A2.json ... -- B1.json B2.json ...

One row per workload and metric: each side's median and quartiles, the
change of the medians, and a verdict against the metric's bound from
``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``improved``    B wins at least 9 of 10 pairs (ties count for neither)
                and the medians differ by more than A's quartile spread;
``unresolved``  a side's quartile spread exceeds the bound, so "ok" and
                "regressed" cannot be told apart from noise;
``better`` / ``worse``  every B run beats (loses to) every A run.

Per-layer metrics have no bound and get no verdict.  A row whose values
all repeat exactly, as deterministic counts must, is marked ``(exact)``.
The exit code is 1 when any end-to-end metric regressed, and 2 when the
runs differ in ``--seconds`` or ``--quick`` and so cannot be compared.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from benchmarks.ledger.corpus import REPO_ROOT
from benchmarks.ledger.metrics import quartiles

CLAIM_WIN_SHARE = 0.9


def load_bounds() -> Dict[str, Tuple[float, str]]:
    """metric -> (bound, better) from ``BENCHMARK.json``."""
    document = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (float(m["bound"]), m["better"]) for m in document["end_to_end"]}


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _values(documents: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for document in documents:
        for workload, result in document["workloads"].items():
            for metric, value in {**result["e2e"], **result["layers"]}.items():
                out.setdefault((workload, metric), []).append(float(value))
    return out


def verdict(a: List[float], b: List[float], bound: float, better: str) -> Tuple[str, float]:
    """The row's verdict and B's pair win fraction."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs) if pairs else 0.0
    qa, qb = quartiles(a), quartiles(b)
    worse_by = sign * (qa[1] - qb[1]) / abs(qa[1]) if qa[1] else 0.0
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    if wins >= CLAIM_WIN_SHARE and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "improved", wins
    if spread > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better", wins
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "worse", wins
        return "unresolved", wins
    return ("regressed" if worse_by > bound else "ok"), wins


def compare_main(argv: List[str]) -> int:
    if "--" not in argv:
        print("usage: python -m benchmarks.ledger compare RUN_A... -- RUN_B...")
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("error: both sides need at least one run document")
        return 2
    a_docs, b_docs = [_load(p) for p in a_paths], [_load(p) for p in b_paths]
    lengths = {(d["meta"]["seconds"], d["meta"]["quick"]) for d in a_docs + b_docs}
    if len(lengths) > 1:
        print(f"error: the runs differ in --seconds/--quick: {sorted(lengths)}")
        return 2
    bounds = load_bounds()
    a_values, b_values = _values(a_docs), _values(b_docs)
    print(
        f"{'workload':<14s} {'metric':<36s} {'A median [q1, q3]':>32s} "
        f"{'B median [q1, q3]':>32s} {'change':>8s} {'bound':>6s} {'B wins':>6s}  verdict"
    )
    order = {name: index for index, name in enumerate(bounds)}
    regressed = False
    for key in sorted(set(a_values) & set(b_values), key=lambda k: (k[0], order.get(k[1], len(order)), k[1])):
        workload, metric = key
        a, b = a_values[key], b_values[key]
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
        if metric in bounds:
            bound, better = bounds[metric]
            label, wins = verdict(a, b, bound, better)
            bound_text, wins_text = f"{bound:g}", f"{wins:.2f}"
            regressed = regressed or label in ("regressed", "worse")
        else:
            label, bound_text, wins_text = "-", "-", "-"
        if len(set(a) | set(b)) == 1:
            label += " (exact)"
        a_text = f"{qa[1]:.6g} [{qa[0]:.4g}, {qa[2]:.4g}]"
        b_text = f"{qb[1]:.6g} [{qb[0]:.4g}, {qb[2]:.4g}]"
        print(
            f"{workload:<14s} {metric:<36s} {a_text:>32s} {b_text:>32s} "
            f"{100 * change:>+7.2f}% {bound_text:>6s} {wins_text:>6s}  {label}"
        )
    print(f"A: {len(a_paths)} runs, B: {len(b_paths)} runs")
    return 1 if regressed else 0

"""Smoke test of the performance ledger: every workload, quick and traced.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py

Two ``run --quick --trace`` invocations (about a tenth of the samples)
cover all four workloads: the default run, which is the three workloads
``BENCHMARK.json`` gates, and ``--workload serve-mixed``.  They must emit
every metric named there with its unit, pass every correctness check,
and have the traced self times sum to the traced wall time within 1%.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.ledger.__main__ import DEFAULT_SECONDS
from benchmarks.ledger.corpus import REPO_ROOT
from benchmarks.ledger.metrics import END_TO_END, HIGHER_IS_BETTER, PER_LAYER
from benchmarks.ledger.runner import DEFAULT_WORKLOADS, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_what_the_ledger_emits():
    document = benchmark_json()
    assert document["run_seconds"] == DEFAULT_SECONDS
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == PER_LAYER
    for metric in document["per_layer"]:
        expected = "higher" if metric["name"] in HIGHER_IS_BETTER else "lower"
        assert metric["better"] == expected, metric
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in document["end_to_end"] + document["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert all(0 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(document["workloads"]) <= 8


def quick_traced(tmp_path, *workload):
    out = tmp_path / "run.json"
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "run", "--quick", "--trace",
         *workload, "--out", str(out)],
        cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    return completed, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """The default run (the gated workloads), then serve-mixed by name."""
    return [
        quick_traced(tmp_path_factory.mktemp("ledger")),
        quick_traced(tmp_path_factory.mktemp("ledger"), "--workload", "serve-mixed"),
    ]


def test_quick_runs_pass_every_check(quick_runs):
    for completed, document in quick_runs:
        assert completed.returncode == 0, completed.stdout[-2000:]
        for workload, result in document["workloads"].items():
            failing = {k: v for k, v in result["checks"].items() if not v["ok"]}
            assert not failing, (workload, failing)
            assert "trace_self_time_sums_to_wall" in result["checks"]
    assert "no_failed_requests" in quick_runs[1][1]["workloads"]["serve-mixed"]["checks"]


def test_default_run_is_the_gated_workloads(quick_runs):
    gated = [w["name"] for w in benchmark_json()["workloads"]]
    assert sorted(quick_runs[0][1]["workloads"]) == sorted(gated) == sorted(DEFAULT_WORKLOADS)
    assert sorted(DEFAULT_WORKLOADS + ("serve-mixed",)) == sorted(WORKLOADS)


def test_quick_runs_emit_every_metric_with_its_unit(quick_runs):
    for completed, document in quick_runs:
        lines = completed.stdout.splitlines()
        summary = json.loads(lines[-1])
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        single = len(document["workloads"]) == 1
        printed = {tuple(line.split()[:2]): line.split()[-1] for line in lines[:-1]}
        for workload in document["workloads"]:
            for name, unit in {**END_TO_END, **PER_LAYER}.items():
                assert printed.get((workload, name)) == unit, (workload, name)
            for name, unit in PER_LAYER.items():
                key = name if single else f"{workload}/{name}"
                assert summary["metrics"][key]["unit"] == unit
            for name in END_TO_END:
                assert document["workloads"][workload]["e2e"][name] > 0, (workload, name)

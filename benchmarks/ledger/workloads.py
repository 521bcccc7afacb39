"""The three in-process workloads: oneshot-suite, large-modules, edit-loop.

Each workload has the same life cycle, driven by
:func:`benchmarks.ledger.runner.run_in_child`:

``prepare``
    what a fresh process must do before it can work (imports, inputs);
``warm``
    untimed work that brings the process to its steady state; the time
    from spawn to the end of ``warm`` is ``setup_s``, repeated in
    separate processes to give it a median;
``run_pass``
    the timed operations, in whole blocks, until the time budget is
    spent (or exactly ``blocks`` blocks, to repeat a pass traced);
``finish``
    the untimed output checks and the metrics of the first pass.

A traced run calls ``warm`` again and repeats the pass, traced, over
exactly as many blocks as the untraced pass completed.

Work counts are taken over the first block only, a prefix every run
completes, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Dict, List, Optional, Tuple

from benchmarks.ledger import corpus
from benchmarks.ledger.layers import Recorder, Work, peak_rss_mb, perf_stats_reset
from benchmarks.ledger.metrics import ratio


class Workload:
    """The life cycle every workload follows (see the module docstring)."""

    name = ""
    op = ""
    #: Seconds between calibration samples taken during operations (0: none).
    sample_period = 0.0

    def warm(self) -> None:
        """Nothing to warm by default."""

    def tail_basis(self, first: Pass, latencies: List[float]) -> List[float]:
        """The values whose tail percentile is ``tail_ms``: every latency."""
        return latencies

    def close(self) -> None:
        """Nothing to release by default."""


class Pass:
    """What one pass measured."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.blocks = 0
        self.work = Work()
        #: Numbers for the metrics, and what the checks need.
        self.extra: Dict[str, float] = {}
        self.data: Dict[str, object] = {}


class Check:
    """Named pass/fail outcomes of one run."""

    def __init__(self):
        self.results: Dict[str, dict] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.results[name] = {"ok": bool(ok), "detail": detail}

    @property
    def ok(self) -> bool:
        return all(result["ok"] for result in self.results.values())


def settle() -> None:
    """Collect, then exempt the heap made so far from later collections.

    A full collection walks every tracked object not frozen.  In the
    warm processes most of them are cache entries and stored summaries
    that only grow, so full collections grew with the number of
    operations before them: on edit-loop the p90 recheck of a block of 20
    edits climbed from 94 ms in the first block to 141 ms in the seventh
    (flat at 84-100 ms with the collector off), and a faster machine,
    finishing more blocks, reported a slower tail.  Settling before every
    block, as long-running services do after start, leaves each block's
    full collections the objects that block made.
    """
    gc.collect()
    gc.freeze()


def blocks_until(seconds: float, blocks: Optional[int]):
    """Block indices: exactly ``blocks``, or whole blocks until ``seconds`` pass.

    The heap is settled (untimed) before every block.
    """
    started = time.perf_counter()
    index = 0
    while blocks is None or index < blocks:
        settle()
        yield index
        index += 1
        if blocks is None and time.perf_counter() - started >= seconds:
            return


def compile_timed(rec: Recorder, source: str, module_name: str = "module"):
    """lex -> parse -> lower -> prepare, one timed call per layer."""
    from repro.ir import prepare_module
    from repro.lang import Parser, lower_program, tokenize

    tokens = rec.call("lang.lex", tokenize, source)
    program = rec.call("lang.parse", lambda: Parser(tokens).parse_program())
    module = rec.call("lang.lower", lower_program, program, module_name=module_name)
    infos = rec.call("ir.prepare", prepare_module, module)
    return tokens, module, infos


def predict(module, infos):
    from repro.core import VRPPredictor

    return VRPPredictor().predict_module(module, infos)


def render_table(prediction) -> str:
    from repro import rendering

    return rendering.branch_table(prediction.all_branches(), prediction.heuristic_branches())


def check_text(module, prediction, program: str) -> str:
    from repro.diagnostics import check_module, render_text

    return render_text(check_module(module, prediction, program=program)) + "\n"


def score_predictions(score: corpus.TruthScore, name: str, prediction, truth) -> None:
    heuristic = prediction.heuristic_branches()
    branches = prediction.all_branches()
    exact = {key: key not in heuristic for key in branches}
    score.add(name, branches, exact, truth[name])


def truth_check(checks: Check, score: corpus.TruthScore) -> None:
    checks.record(
        "truth_executed_branches_predicted",
        score.covered == score.executed,
        f"{score.covered}/{score.executed} executed branches predicted",
    )
    certain = [v for v in score.violations if "interpreter saw" in v]
    checks.record(
        "truth_no_contradicted_certainty",
        not certain,
        "; ".join(certain[:3]) or "0 violations",
    )


def layer_times(rec: Recorder, tokens: int = 0) -> Dict[str, float]:
    return {
        "lang.lex_ms": rec.mean_ms("lang.lex"),
        "lang.parse_ms": rec.mean_ms("lang.parse"),
        "lang.lower_ms": rec.mean_ms("lang.lower"),
        "lang.tokens_per_s": ratio(tokens, rec.seconds.get("lang.lex", 0.0)),
        "ir.prepare_ms": rec.mean_ms("ir.prepare"),
        "core.predict_ms": rec.mean_ms("core.predict"),
        "diagnostics.check_ms": rec.mean_ms("diagnostics.check"),
        "rendering.ms": rec.mean_ms("rendering"),
        "incremental.driver_ms": rec.mean_ms("incremental.driver"),
        "incremental.store_get_ms": rec.mean_ms("incremental.store_get"),
        "incremental.store_put_ms": rec.mean_ms("incremental.store_put"),
    }


class OneshotSuite(Workload):
    """The CLI user's cold cost on the paper's own corpus."""

    name = "oneshot-suite"
    op = "analyze"

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick

    def prepare(self) -> None:
        import repro.core  # noqa: F401  (imports belong to set-up)
        import repro.diagnostics  # noqa: F401

        self.programs = corpus.truth_corpus()
        self.truth = corpus.load_truth(self.programs)
        if self.quick:
            self.programs = self.programs[::4]

    def run_pass(self, rec: Recorder, seconds: float, blocks: Optional[int] = None) -> Pass:
        from repro.core import perf

        result = Pass(rec)
        outputs: Dict[str, Tuple[str, str]] = {}
        first: Dict[str, object] = {}
        mismatched: List[str] = []
        analysed: List[str] = []
        tokens_total = 0
        with rec.running():
            for block in blocks_until(seconds, blocks):
                order = list(self.programs)
                random.Random(f"oneshot/{self.seed}/{block}").shuffle(order)
                for program in order:
                    analysed.append(program.name)
                    perf.reset()
                    with rec.op(self.op):
                        tokens, module, infos = compile_timed(rec, program.source)
                        prediction = rec.call("core.predict", predict, module, infos)
                        table = rec.call("rendering", render_table, prediction)
                        text = rec.call(
                            "diagnostics.check", check_text, module, prediction, program.name
                        )
                    tokens_total += len(tokens)
                    if block == 0:
                        result.work.add(module, prediction, perf.snapshot())
                        outputs[program.name] = (table, text)
                        first[program.name] = (module, prediction)
                    elif outputs[program.name] != (table, text):
                        mismatched.append(program.name)
                result.blocks += 1
                if block == 0:
                    result.extra["peak_rss_mb"] = peak_rss_mb()
        result.extra["tokens"] = tokens_total
        result.data.update(
            outputs=outputs, first=first, mismatched=mismatched, analysed=analysed
        )
        return result

    def tail_basis(self, first: Pass, latencies: List[float]) -> List[float]:
        """Each program's median latency over the run's passes.

        The p95 of all samples falls among the few samples of the
        second-costliest program, so it moved with their noise; the p95
        over the programs' medians moves with what those programs cost.
        """
        by_program: Dict[str, List[float]] = {}
        for name, latency in zip(first.data["analysed"], latencies):
            by_program.setdefault(name, []).append(latency)
        return [statistics.median(values) for values in by_program.values()]

    def finish(self, first: Pass, checks: Check) -> Dict[str, float]:
        from repro.server.service import analyze_payload

        outputs, mismatched = first.data["outputs"], first.data["mismatched"]
        differing = []
        for program in self.programs:
            table, text = outputs[program.name]
            served = (
                analyze_payload("predict", program.source, program.name, {})["output"],
                analyze_payload("check", program.source, program.name, {})["output"],
            )
            if served != (table, text):
                differing.append(program.name)
        checks.record(
            "output_equals_analyze_payload",
            not differing,
            f"{len(self.programs) - len(differing)}/{len(self.programs)} programs equal"
            + (f"; differ: {differing[:3]}" if differing else ""),
        )
        checks.record("passes_identical", not mismatched, f"{len(mismatched)} mismatches")
        score = corpus.TruthScore()
        predicted = branches = 0
        for program in self.programs:
            module, prediction = first.data["first"][program.name]
            score_predictions(score, program.name, prediction, self.truth)
            predicted += len(prediction.all_branches())
            branches += corpus.conditional_branches(module)
        truth_check(checks, score)
        return {
            "branch_coverage": ratio(predicted, branches),
            "miss_rate_weighted": score.miss_rate,
        }


def truth_pass(checks: Check, analyse, quick: bool = False) -> float:
    """Analyse the truth corpus with ``analyse(module, infos)``; the miss rate.

    Every workload runs this untimed after its timed phase, through its
    own analysis path, so ``miss_rate_weighted`` is the accuracy that
    path delivers.
    """
    from repro.ir import prepare_module
    from repro.lang import compile_source

    programs = corpus.truth_corpus()
    truth = corpus.load_truth(programs)
    if quick:
        programs = programs[::4]
    score = corpus.TruthScore()
    for program in programs:
        module = compile_source(program.source)
        prediction = analyse(module, prepare_module(module))
        score_predictions(score, program.name, prediction, truth)
    truth_check(checks, score)
    return score.miss_rate


class LargeModules(Workload):
    """Generated modules of a few hundred to a few thousand IR instructions."""

    name = "large-modules"
    op = "analyze"
    #: Its operations take up to a second or two, long enough for the
    #: machine to change speed within one; samples every 40 ms follow it.
    #: (On the 60 ms operations of oneshot-suite the interruptions cost
    #: more steadiness than they bring.)
    sample_period = 0.04

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        self.sizes = corpus.LARGE_SIZES[:3] if quick else corpus.LARGE_SIZES

    def prepare(self) -> None:
        import repro.core  # noqa: F401

    def warm(self) -> None:
        """One module of each kind the timed phase analyses, never timed."""
        from repro.ir import prepare_module
        from repro.lang import compile_source

        for slot, kind in enumerate(("chain", "callgraph")):
            module = compile_source(corpus.large_module(self.seed, -1 - slot, 200, kind))
            predict(module, prepare_module(module))

    def run_pass(self, rec: Recorder, seconds: float, blocks: Optional[int] = None) -> Pass:
        """Blocks of five modules, each block from empty perf caches.

        The caches warm across the modules of a block.  They are emptied
        (untimed) before every block because, kept, they never settle:
        cache misses per block kept falling block after block (42.8k,
        42.7k, 36.4k, 34.8k on one seed; 41.2k, 40.4k, 34.9k, 33.8k after
        two more blocks of warm-up), and the 632-instruction module's
        time drifted from 272 to 235 ms over a 70-second run, so a faster
        machine, finishing more blocks, reported faster analyses.
        """
        from repro.core import perf

        result = Pass(rec)
        analysed: List[Tuple[int, str, str]] = []
        predicted = branches = tokens_total = 0
        with rec.running():
            for block in blocks_until(seconds, blocks):
                perf.reset()
                for index, source in corpus.large_block(self.seed, block, self.sizes):
                    perf_stats_reset()
                    with rec.op(self.op):
                        tokens, module, infos = compile_timed(rec, source)
                        prediction = rec.call("core.predict", predict, module, infos)
                        table = rec.call("rendering", render_table, prediction)
                    tokens_total += len(tokens)
                    predicted += len(prediction.all_branches())
                    branches += corpus.conditional_branches(module)
                    analysed.append((index, source, table))
                    if block == 0:
                        result.work.add(module, prediction, perf.snapshot())
                result.blocks += 1
                if block == 0:
                    result.extra["peak_rss_mb"] = peak_rss_mb()
        result.extra.update(tokens=tokens_total, predicted=predicted, branches=branches)
        result.data["analysed"] = analysed
        return result

    def finish(self, first: Pass, checks: Check) -> Dict[str, float]:
        from repro.core import perf
        from repro.ir import prepare_module
        from repro.lang import compile_source

        miss_rate = truth_pass(checks, predict, self.quick)
        rng = random.Random(f"large-sample/{self.seed}")
        analysed = first.data["analysed"]
        sample = rng.sample(analysed, max(1, len(analysed) // 10))
        differing = []
        for index, source, table in sample:
            perf.reset()
            module = compile_source(source)
            if render_table(predict(module, prepare_module(module))) != table:
                differing.append(index)
        checks.record(
            "warm_equals_after_perf_reset",
            not differing,
            f"{len(sample) - len(differing)}/{len(sample)} sampled modules equal",
        )
        return {
            "branch_coverage": ratio(first.extra["predicted"], first.extra["branches"]),
            "miss_rate_weighted": miss_rate,
        }


class EditLoop(Workload):
    """Single-function edits against an incremental summary store."""

    name = "edit-loop"
    op = "recheck"
    CHECK_EVERY = 10

    def __init__(self, seed: int, work_dir: str, quick: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.quick = quick
        self.passes = 0

    def prepare(self) -> None:
        import repro.core  # noqa: F401
        import repro.incremental  # noqa: F401

    def warm(self) -> None:
        """A fresh store holding the unedited module's summaries."""
        import os

        from repro.incremental import IncrementalStore
        from repro.ir import prepare_module
        from repro.lang import compile_source

        self.passes += 1
        components = 10 if self.quick else corpus.EDIT_COMPONENTS
        self.module = corpus.EditableModule(self.seed, components)
        self.store = IncrementalStore(
            disk_dir=os.path.join(self.work_dir, f"store-{self.passes}")
        )
        module = compile_source(self.module.source())
        self._analyse(module, prepare_module(module))

    def _analyse(self, module, infos):
        from repro.core import VRPConfig
        from repro.heuristics import BallLarusPredictor
        from repro.incremental import analyse_module_incremental

        return analyse_module_incremental(
            module, infos, self.store,
            config=VRPConfig(), heuristic=BallLarusPredictor().as_fallback(),
        )

    def run_pass(self, rec: Recorder, seconds: float, blocks: Optional[int] = None) -> Pass:
        from repro import rendering
        from repro.core import perf

        store = self.store
        get, put = store.get, store.put
        store.get = lambda key: rec.call("incremental.store_get", get, key)
        store.put = lambda key, payload: rec.call("incremental.store_put", put, key, payload)
        result = Pass(rec)
        to_check: List[Tuple[str, str]] = []
        counts = {"re": 0, "replayed": 0, "comp_re": 0, "comp_replayed": 0, "hits": 0, "gets": 0}
        predicted = branches = tokens_total = 0
        block_size = 5 if self.quick else len(corpus.EDIT_MIX)
        with rec.running():
            for block in blocks_until(seconds, blocks):
                for kind in self.module.block(block_size):
                    self.module.edit(kind)
                    source = self.module.source()
                    perf_stats_reset()
                    with rec.op(self.op):
                        tokens, module, infos = compile_timed(rec, source)
                        prediction, outcome = rec.call(
                            "incremental.driver", self._analyse, module, infos
                        )
                        rendered = rec.call(
                            "rendering",
                            lambda: render_table(prediction) + rendering.ranges_listing(prediction),
                        )
                    tokens_total += len(tokens)
                    predicted += len(prediction.all_branches())
                    branches += corpus.conditional_branches(module)
                    if self.module.edits % self.CHECK_EVERY == 1:
                        to_check.append((source, rendered))
                    if block == 0:
                        result.work.add(module, prediction, perf.snapshot())
                        counts["re"] += len(outcome.reanalyzed)
                        counts["replayed"] += len(outcome.replayed)
                        counts["comp_re"] += outcome.components_reanalyzed
                        counts["comp_replayed"] += outcome.components_replayed
                        counts["hits"] += outcome.store_hits
                        counts["gets"] += outcome.store_hits + outcome.store_misses
                result.blocks += 1
                if block == 0:
                    result.extra["peak_rss_mb"] = peak_rss_mb()
        store.get, store.put = get, put
        result.extra.update(
            tokens=tokens_total,
            predicted=predicted,
            branches=branches,
        )
        result.extra["incremental.store_hit_ratio"] = ratio(counts["hits"], counts["gets"])
        result.extra["incremental.reanalyzed_fn_ratio"] = ratio(
            counts["re"], counts["re"] + counts["replayed"]
        )
        result.extra["incremental.replayed_component_ratio"] = ratio(
            counts["comp_replayed"], counts["comp_re"] + counts["comp_replayed"]
        )
        result.data["to_check"] = to_check
        return result

    def finish(self, first: Pass, checks: Check) -> Dict[str, float]:
        from repro import rendering
        from repro.core import VRPConfig
        from repro.core.interprocedural import analyse_module
        from repro.heuristics import BallLarusPredictor
        from repro.incremental import IncrementalStore
        from repro.ir import prepare_module
        from repro.lang import compile_source

        to_check = first.data["to_check"]
        differing = 0
        for source, rendered in to_check:
            module = compile_source(source)
            cold = analyse_module(
                module, prepare_module(module),
                config=VRPConfig(), heuristic=BallLarusPredictor().as_fallback(),
            )
            if render_table(cold) + rendering.ranges_listing(cold) != rendered:
                differing += 1
        checks.record(
            "recheck_equals_cold_analysis",
            differing == 0 and bool(to_check),
            f"{len(to_check) - differing}/{len(to_check)} checked edits equal",
        )
        self.store = IncrementalStore()
        miss_rate = truth_pass(checks, lambda m, i: self._analyse(m, i)[0], self.quick)
        return {
            "branch_coverage": ratio(first.extra["predicted"], first.extra["branches"]),
            "miss_rate_weighted": miss_rate,
        }

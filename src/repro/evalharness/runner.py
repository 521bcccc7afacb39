"""Evaluation runner: compile, profile, predict, score.

Drives the full paper methodology for one workload or a whole suite:

1. compile the program and prepare SSA form;
2. run the *train* inputs to collect the feedback profile;
3. run the *ref* inputs to obtain ground truth;
4. produce predictions from every predictor under study;
5. score each against the ground truth (error records / CDFs).

The six predictors of Figures 7-8 are built by
:func:`standard_predictors`: execution profiling, full VRP, VRP with
numeric ranges only, Ball–Larus (Wu–Larus combined), the 90/50 rule,
and random prediction.

Suite evaluation can fan out over a process pool (``jobs > 1``).  Every
step is deterministic per workload -- VRP resets its perf caches per
run, the random reference line is seeded per branch -- so the results
(and any rendered figure or metrics built from them) are byte-identical
for every worker count; the pool only changes wall time.  The parallel
path requires the picklable :func:`standard_predictors`; custom
predictor callables (often closures) must use ``jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import VRPConfig, VRPPredictor
from repro.evalharness.accuracy import (
    BranchError,
    DEFAULT_THRESHOLDS,
    branch_errors,
    error_cdf,
)
from repro.heuristics import BallLarusPredictor, RandomPredictor, Rule9050Predictor
from repro.ir import prepare_module
from repro.ir.function import Module
from repro.ir.ssa import SSAInfo
from repro.lang import compile_source
from repro.profiling import BranchProfile, ProfilePredictor, run_module
from repro.workloads import Workload

# A prediction source: (prepared workload) -> {(function, label): P(true)}.
PredictionFn = Callable[["PreparedWorkload"], Dict[Tuple[str, str], float]]


@dataclass
class PreparedWorkload:
    """A workload compiled once and shared by profiling and predictors."""

    workload: Workload
    module: Module
    ssa_infos: Dict[str, SSAInfo]
    train_profile: BranchProfile
    truth_profile: BranchProfile


def prepare_workload(workload: Workload) -> PreparedWorkload:
    """Compile, canonicalise, and run both input sets."""
    module = compile_source(workload.source, module_name=workload.name)
    ssa_infos = prepare_module(module)
    train = run_module(
        module,
        args=workload.train_args,
        input_values=workload.train_inputs,
        max_steps=workload.max_steps,
    )
    ref = run_module(
        module,
        args=workload.ref_args,
        input_values=workload.ref_inputs,
        max_steps=workload.max_steps,
    )
    return PreparedWorkload(
        workload=workload,
        module=module,
        ssa_infos=ssa_infos,
        train_profile=BranchProfile.from_runs([train]),
        truth_profile=BranchProfile.from_runs([ref]),
    )


def _per_function_predictions(
    prepared: PreparedWorkload, predictor
) -> Dict[Tuple[str, str], float]:
    """Run a function-at-a-time predictor over the whole module."""
    out: Dict[Tuple[str, str], float] = {}
    for name, function in prepared.module.functions.items():
        for label, probability in predictor.predict_function(function).items():
            out[(name, label)] = probability
    return out


def profile_predictions(prepared: PreparedWorkload) -> Dict[Tuple[str, str], float]:
    predictor = ProfilePredictor(prepared.train_profile)
    return _per_function_predictions(prepared, predictor)


def perfect_predictions(prepared: PreparedWorkload) -> Dict[Tuple[str, str], float]:
    """The paper's "perfect static predictor" reference line.

    Marks each branch with the probability observed on the *ref* inputs
    themselves -- by construction 100% of branches land within ±0% (a
    horizontal line across the top of the figures).  Not part of the six
    standard lines; provided for the upper-bound comparison the paper
    describes in its Figures 7-8 discussion.
    """
    predictor = ProfilePredictor(prepared.truth_profile)
    return _per_function_predictions(prepared, predictor)


def vrp_predictions(
    prepared: PreparedWorkload, config: Optional[VRPConfig] = None
) -> Dict[Tuple[str, str], float]:
    predictor = VRPPredictor(config=config)
    prediction = predictor.predict_module(prepared.module, prepared.ssa_infos)
    return prediction.all_branches()


def workload_metrics(prepared: PreparedWorkload, config: Optional[VRPConfig] = None):
    """A :class:`~repro.observability.MetricsReport` for one VRP run.

    Re-runs the VRP predictor over the prepared workload under a
    recording tracer, so the report carries phase timings, counters,
    and per-branch provenance -- the machine-readable counterpart of
    the rendered figure tables.
    """
    from repro.core import perf
    from repro.observability import Tracer, build_metrics_report, use

    tracer = Tracer()
    with use(tracer):
        predictor = VRPPredictor(config=config)
        prediction = predictor.predict_module(prepared.module, prepared.ssa_infos)
    return build_metrics_report(
        prediction,
        tracer,
        program=prepared.workload.name,
        perf_stats=perf.snapshot(),
    )


def suite_metrics(
    prepared_workloads: List[PreparedWorkload],
    config: Optional[VRPConfig] = None,
) -> List:
    """Metrics reports for every workload of a prepared suite."""
    return [workload_metrics(prepared, config) for prepared in prepared_workloads]


def standard_predictors(context_depth: int = 0) -> Dict[str, PredictionFn]:
    """The six prediction lines of the paper's Figures 7 and 8.

    ``context_depth`` raises the k-limit of the interprocedural VRP
    lines (``vrp`` and ``vrp-numeric``); the default 0 reproduces the
    context-insensitive paper configuration byte-for-byte.
    """
    vrp_config = VRPConfig(context_depth=context_depth)
    numeric_config = VRPConfig(symbolic=False, context_depth=context_depth)
    return {
        "profile": profile_predictions,
        "vrp": lambda prepared: vrp_predictions(prepared, vrp_config),
        "vrp-numeric": lambda prepared: vrp_predictions(prepared, numeric_config),
        "ball-larus": lambda prepared: _per_function_predictions(
            prepared, BallLarusPredictor()
        ),
        "rule-90-50": lambda prepared: _per_function_predictions(
            prepared, Rule9050Predictor()
        ),
        "random": lambda prepared: _per_function_predictions(prepared, RandomPredictor()),
    }


@dataclass
class WorkloadEvaluation:
    """Per-predictor error records for one workload."""

    workload: Workload
    records: Dict[str, List[BranchError]] = field(default_factory=dict)

    def cdf(self, predictor: str, weighted: bool = False) -> List[float]:
        return error_cdf(self.records[predictor], weighted=weighted)


def evaluate_workload(
    workload: Workload,
    predictors: Optional[Dict[str, PredictionFn]] = None,
    prepared: Optional[PreparedWorkload] = None,
    context_depth: int = 0,
) -> WorkloadEvaluation:
    """Score all predictors on one workload."""
    if prepared is None:
        prepared = prepare_workload(workload)
    if predictors is None:
        predictors = standard_predictors(context_depth)
    evaluation = WorkloadEvaluation(workload=workload)
    for name, predict in predictors.items():
        predictions = predict(prepared)
        evaluation.records[name] = branch_errors(predictions, prepared.truth_profile)
    return evaluation


@dataclass
class SuiteEvaluation:
    """Benchmark-equal-weight aggregation over one suite (paper style)."""

    suite_name: str
    evaluations: List[WorkloadEvaluation]
    thresholds: Tuple[int, ...] = DEFAULT_THRESHOLDS

    def aggregate_cdf(self, predictor: str, weighted: bool = False) -> List[float]:
        from repro.evalharness.accuracy import average_cdfs

        return average_cdfs(
            [e.cdf(predictor, weighted=weighted) for e in self.evaluations]
        )

    def predictors(self) -> List[str]:
        names: List[str] = []
        for evaluation in self.evaluations:
            for name in evaluation.records:
                if name not in names:
                    names.append(name)
        return names


def _suite_worker(item: Tuple[Workload, bool, int]):
    """Evaluate one workload with the standard predictors.

    Module-level (hence picklable) so a process pool can run it; the
    sequential path calls the same function so ``jobs=1`` and
    ``jobs=N`` perform the identical computation per workload.
    """
    workload, with_metrics, context_depth = item
    prepared = prepare_workload(workload)
    evaluation = evaluate_workload(
        workload, prepared=prepared, context_depth=context_depth
    )
    report = (
        workload_metrics(
            prepared, VRPConfig(context_depth=context_depth)
        ).to_dict()
        if with_metrics
        else None
    )
    return evaluation, report


def run_suite(
    workloads: List[Workload],
    suite_name: str,
    jobs: int = 1,
    with_metrics: bool = False,
    context_depth: int = 0,
) -> Tuple[SuiteEvaluation, Optional[List[dict]]]:
    """Evaluate a suite with the standard predictors, optionally in parallel.

    Results are ordered like ``workloads`` regardless of ``jobs``; with
    ``with_metrics`` a per-workload metrics dict list is returned too.
    ``context_depth`` sets the k-limit of the VRP prediction lines.
    """
    items = [(workload, with_metrics, context_depth) for workload in workloads]
    if jobs <= 1 or len(items) <= 1:
        results = [_suite_worker(item) for item in items]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # map() yields in submission order: deterministic output.
            results = list(pool.map(_suite_worker, items))
    evaluations = [evaluation for evaluation, _ in results]
    reports = [report for _, report in results] if with_metrics else None
    suite_evaluation = SuiteEvaluation(
        suite_name=suite_name, evaluations=evaluations
    )
    return suite_evaluation, reports


def evaluate_suite(
    workloads: List[Workload],
    suite_name: str,
    predictors: Optional[Dict[str, PredictionFn]] = None,
    jobs: int = 1,
) -> SuiteEvaluation:
    """Score all predictors over a suite of workloads."""
    if predictors is not None:
        if jobs > 1:
            raise ValueError(
                "custom predictors cannot cross process boundaries; "
                "use jobs=1 or the standard predictors"
            )
        evaluations = [
            evaluate_workload(w, predictors=predictors) for w in workloads
        ]
        return SuiteEvaluation(suite_name=suite_name, evaluations=evaluations)
    suite_evaluation, _ = run_suite(workloads, suite_name, jobs=jobs)
    return suite_evaluation

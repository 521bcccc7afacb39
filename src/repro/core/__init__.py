"""Value range propagation: the paper's primary contribution.

Public surface:

* range algebra -- :class:`Bound`, :class:`StridedRange`,
  :class:`RangeSet`, arithmetic (:func:`evaluate_binop`), comparison
  probabilities (:func:`compare_sets`), assertion refinement
  (:func:`refine_set`);
* the engine -- :func:`analyse_function` /
  :class:`PropagationEngine` (intraprocedural),
  :func:`analyse_module` / :class:`InterproceduralVRP` (whole program),
  loop derivation (:func:`derive_loop_phi`);
* the predictor front door -- :class:`VRPPredictor`,
  :func:`predict_branch_probabilities`;
* procedure cloning -- :func:`clone_for_contexts`.
"""

from repro.core.bounds import Bound, NEG_INF, POS_INF, bound_max, bound_min
from repro.core.callgraph import CallGraph, CallSite
from repro.core.cloning import (
    CloneReport,
    analyse_with_cloning,
    clone_for_contexts,
)
from repro.core.comparisons import CompareOutcome, compare_sets
from repro.core.config import VRPConfig, default_verify_ir, set_default_verify_ir
from repro.core.counters import Counters, active, use
from repro.core.derivation import DerivationOutcome, derive_loop_phi
from repro.core.interprocedural import (
    InterproceduralVRP,
    ModulePrediction,
    analyse_module,
)
from repro.core.predictor import (
    VRPPredictor,
    predict_branch_probabilities,
)
from repro.core.propagation import (
    FunctionPrediction,
    PropagationEngine,
    analyse_function,
)
from repro.core.range_arith import evaluate_binop, evaluate_unop
from repro.core.ranges import RangeError, StridedRange
from repro.core.rangeset import (
    BOTTOM,
    DEFAULT_MAX_RANGES,
    RangeSet,
    TOP,
    merge_weighted,
)
from repro.core.refine import refine_set
from repro.core.sanitize import LatticeSanitizer, SanitizerError

__all__ = [
    "BOTTOM",
    "Bound",
    "CallGraph",
    "CallSite",
    "CloneReport",
    "CompareOutcome",
    "Counters",
    "DEFAULT_MAX_RANGES",
    "DerivationOutcome",
    "FunctionPrediction",
    "InterproceduralVRP",
    "LatticeSanitizer",
    "ModulePrediction",
    "NEG_INF",
    "POS_INF",
    "PropagationEngine",
    "RangeError",
    "RangeSet",
    "SanitizerError",
    "StridedRange",
    "TOP",
    "VRPConfig",
    "VRPPredictor",
    "active",
    "analyse_function",
    "analyse_with_cloning",
    "analyse_module",
    "bound_max",
    "bound_min",
    "clone_for_contexts",
    "compare_sets",
    "default_verify_ir",
    "derive_loop_phi",
    "evaluate_binop",
    "evaluate_unop",
    "merge_weighted",
    "predict_branch_probabilities",
    "refine_set",
    "set_default_verify_ir",
    "use",
]

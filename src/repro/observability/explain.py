"""Branch explain mode: why is ``main/b3`` predicted 87.5%?

Replays the provenance recorded by the tracer during one analysis run:
for a ranges-predicted branch, the controlling SSA variable, its final
weighted range set (from the final prediction, as ``repro ranges``
lists it), and the comparison rule applied; for a branch whose
controlling range is bottom, the exact Ball-Larus heuristic chain and
the Dempster-Shafer combination walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import VRPConfig
from repro.core.predictor import VRPPredictor
from repro.heuristics.combine import dempster_shafer_steps
from repro.observability.events import RoundCap
from repro.observability.metrics import branch_provenance
from repro.observability.tracer import Tracer, use

CMP_SYMBOLS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

#: Display text for the per-branch provenance tags
#: (:meth:`~repro.core.interprocedural.ModulePrediction.branch_provenance`).
PROVENANCE_TEXT = {
    "interprocedural": "interprocedural summary",
    "intraprocedural": "intraprocedural propagation",
    "heuristic": "heuristic fallback",
}


@dataclass
class BranchExplanation:
    """Human-readable provenance for one branch probability."""

    function: str
    label: str
    probability: float
    source: str  # "ranges" | "heuristic"
    cond: Optional[str] = None
    cond_range: Optional[str] = None
    cmp_op: Optional[str] = None
    operands: Tuple[Tuple[str, str], ...] = ()
    heuristics: Tuple[Tuple[str, float], ...] = ()
    combination_mode: str = "dempster-shafer"
    #: "interprocedural" | "intraprocedural" | "heuristic" -- whether the
    #: controlling ranges came from a cross-function summary, purely
    #: local propagation, or the Ball-Larus fallback.
    provenance: str = "intraprocedural"
    notes: List[str] = field(default_factory=list)

    @property
    def branch_id(self) -> str:
        return f"{self.function}/{self.label}"

    def lines(self) -> List[str]:
        reason = (
            "predicted from value ranges"
            if self.source == "ranges"
            else "heuristic fallback (controlling range is bottom)"
        )
        out = [f"{self.branch_id}: P(true) = {self.probability:.1%}  [{reason}]"]
        out.append(
            "  provenance: "
            f"{PROVENANCE_TEXT.get(self.provenance, self.provenance)}"
        )
        if self.cmp_op is not None and len(self.operands) == 2:
            symbol = CMP_SYMBOLS.get(self.cmp_op, self.cmp_op)
            (lhs, _), (rhs, _) = self.operands
            out.append(f"  condition: {lhs} {symbol} {rhs}")
            out.append("  controlling ranges:")
            for name, rangeset in self.operands:
                out.append(f"    {name:<12s} {rangeset}")
        elif self.cond is not None:
            out.append(f"  condition: {self.cond} != 0")
        if self.source == "ranges" and self.cond is not None:
            out.append(
                f"  branch tests {self.cond} != 0 with {self.cond} = "
                f"{self.cond_range}"
            )
        if self.source == "heuristic":
            if self.heuristics:
                out.append(
                    f"  Ball-Larus heuristic chain ({self.combination_mode}):"
                )
                steps = dempster_shafer_steps([p for _, p in self.heuristics])
                for (name, estimate), combined in zip(self.heuristics, steps):
                    out.append(
                        f"    {name:<12s} P={estimate:5.3f}  -> combined {combined:5.3f}"
                    )
            else:
                out.append(
                    "  no heuristic applied: default branch probability used"
                )
        out.extend(f"  note: {note}" for note in self.notes)
        return out

    def render(self) -> str:
        return "\n".join(self.lines())


def _final_range(values, name: Optional[str], shown: Optional[str]):
    """``name``'s final range text, or ``shown`` when it is no SSA value."""
    return str(values[name]) if name in values else shown


def explain_module(
    module,
    ssa_infos,
    config: Optional[VRPConfig] = None,
    interprocedural: bool = True,
    entry: str = "main",
) -> Dict[Tuple[str, str], BranchExplanation]:
    """Explanations for every conditional branch of a prepared module.

    Runs value range propagation once under a recording tracer and
    explains the prediction with :func:`explain_prediction`.
    """
    tracer = Tracer()
    with use(tracer):
        predictor = VRPPredictor(config=config, interprocedural=interprocedural)
        prediction = predictor.predict_module(module, ssa_infos, entry=entry)
    return explain_prediction(prediction, tracer)


def explain_prediction(
    prediction, tracer: Tracer
) -> Dict[Tuple[str, str], BranchExplanation]:
    """Turn a prediction and the provenance events the tracer recorded
    while computing it into :class:`BranchExplanation` objects keyed by
    ``(function, label)``."""
    resolutions, chains = branch_provenance(tracer)
    # One event per capped call-graph component: function -> its rounds.
    cap_rounds: Dict[str, int] = {}
    for event in tracer.events_of(RoundCap):
        cap_rounds.update(dict.fromkeys(event.functions, event.rounds))

    heuristic_branches = prediction.heuristic_branches()
    out: Dict[Tuple[str, str], BranchExplanation] = {}
    for key, probability in sorted(prediction.all_branches().items()):
        function, label = key
        source = "heuristic" if key in heuristic_branches else "ranges"
        explanation = BranchExplanation(
            function=function,
            label=label,
            probability=probability,
            source=source,
            provenance=prediction.branch_provenance(function, label),
        )
        if function in cap_rounds:
            explanation.notes.append(
                f"interprocedural round cap hit after {cap_rounds[function]} rounds: "
                f"ranges in this recursive component may not have converged"
            )
        resolution = resolutions.get(key)
        if resolution is not None:
            # The event names the condition and its operands; their
            # ranges come from the final prediction, because the last
            # event fired when the *probability* last moved, which can
            # be before an operand's range did.
            final = prediction.functions.get(function)
            values = final.values if final is not None else {}
            explanation.cond = resolution.cond
            explanation.cond_range = _final_range(
                values, resolution.cond, resolution.cond_range
            )
            explanation.cmp_op = resolution.cmp_op
            explanation.operands = tuple(
                (name, _final_range(values, name, shown))
                for name, shown in resolution.operands
            )
        chain = chains.get(key)
        if source == "heuristic" and chain is not None:
            explanation.heuristics = chain.chain
            explanation.combination_mode = chain.mode
        prediction_for_fn = prediction.functions.get(function)
        if prediction_for_fn is not None and prediction_for_fn.aborted:
            explanation.notes.append(
                "fixed point was cut short by the safety valve"
            )
        out[key] = explanation
    return out


def explain_branch(
    module,
    ssa_infos,
    function: str,
    label: str,
    config: Optional[VRPConfig] = None,
    interprocedural: bool = True,
    entry: str = "main",
) -> BranchExplanation:
    """Explanation for one branch; raises KeyError if it does not exist."""
    explanations = explain_module(
        module,
        ssa_infos,
        config=config,
        interprocedural=interprocedural,
        entry=entry,
    )
    try:
        return explanations[(function, label)]
    except KeyError:
        known = ", ".join(f"{f}/{l}" for f, l in sorted(explanations))
        raise KeyError(
            f"no conditional branch {function}/{label}; known branches: {known}"
        ) from None

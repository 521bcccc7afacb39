"""Rule implementations: from a :class:`FunctionPrediction` to findings.

Every rule reads the *converged* analysis results -- range sets, branch
probabilities, edge/block frequencies, derivation outcomes -- and never
re-propagates.  Rules stay silent in provably-dead code (a division in
a block that never executes is the dead code's problem, reported once
by ``unreachable-block``) and on heuristic probabilities (opinions, not
proofs), which is what keeps the clean-workload suite at zero findings.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.analysis.loops import LoopInfo
from repro.core.bounds import Bound
from repro.core.propagation import FunctionPrediction
from repro.core.rangeset import RangeSet
from repro.diagnostics.findings import ERROR, WARNING, Finding, rangeset_payload
from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.instructions import BinOp, Branch, Load, Phi, Return, Store
from repro.ir.values import Constant, Temp, Undef
from repro.opt.boundscheck import UNSAFE, classify_access
from repro.opt.unreachable import unreachable_blocks

# Branch probabilities this close to 0/1 count as proven-certain (the
# engine produces exact 0.0/1.0 for range proofs; the epsilon only
# absorbs float noise from weighted merges).
_CERTAIN_EPS = 1e-12


def all_findings(
    function: Function, prediction: FunctionPrediction
) -> List[Finding]:
    """Run every rule over one analysed function."""
    if prediction.aborted:
        # The safety valve cut propagation short: ranges are best-effort,
        # not proofs, so no rule may fire on them.
        return []
    findings: List[Finding] = []
    findings.extend(_dead_branches(function, prediction))
    findings.extend(_array_bounds(function, prediction))
    findings.extend(_div_by_zero(function, prediction))
    findings.extend(_unreachable(function, prediction))
    findings.extend(_loops(function, prediction))
    findings.extend(_uninitialised(function, prediction))
    return findings


# -- shared helpers ------------------------------------------------------------


def _operand_name(operand) -> Optional[str]:
    """The SSA name behind an operand, for provenance lookups."""
    return operand.name if isinstance(operand, Temp) else None


def _operand_range(prediction: FunctionPrediction, operand) -> RangeSet:
    if isinstance(operand, Constant):
        return RangeSet.constant(operand.value)
    if isinstance(operand, Temp):
        return prediction.values.get(operand.name, RangeSet.bottom())
    return RangeSet.bottom()


def _executes(prediction: FunctionPrediction, label: str) -> bool:
    return prediction.block_frequency.get(label, 0.0) > 0.0


def _proven(prediction: FunctionPrediction, label: str) -> bool:
    """The branch at ``label`` has a range-derived (non-heuristic) probability."""
    return (
        label in prediction.branch_probability
        and label not in prediction.used_heuristic
    )


def _block_line(block) -> Optional[int]:
    for instr in block.instructions:
        if instr.loc is not None:
            return instr.loc
    return None


def _edge_probability(
    function: Function, prediction: FunctionPrediction, src: str, dst: str
) -> Optional[float]:
    """P(src takes the edge to dst), from *proven* branch probabilities.

    Edge and block frequencies are unsuitable for proofs: the engine
    suppresses sub-tolerance frequency updates, so a rarely-reached
    branch can report an edge frequency of exactly 0 that really means
    "too small to track".  Branch probabilities have no such cutoff.
    Returns None when the probability is heuristic or unresolved.
    """
    term = function.block(src).terminator
    if not isinstance(term, Branch):
        return 1.0  # jump/return: the single out-edge is always taken
    if term.true_target == term.false_target:
        return 1.0
    if not _proven(prediction, src):
        return None
    probability = prediction.branch_probability[src]
    return probability if dst == term.true_target else 1.0 - probability


def _provably_dead_blocks(function: Function, prediction: FunctionPrediction):
    """Blocks no path with provably non-zero probability can reach."""
    entry = function.entry_label
    alive = {entry}
    frontier = [entry]
    while frontier:
        label = frontier.pop()
        for succ in function.block(label).successors():
            if succ in alive:
                continue
            probability = _edge_probability(function, prediction, label, succ)
            if probability is not None and probability <= _CERTAIN_EPS:
                continue  # proven never taken
            alive.add(succ)
            frontier.append(succ)
    return set(function.blocks) - alive


def _zero_mass(rangeset: RangeSet) -> float:
    """Probability mass of components whose range provably contains 0."""
    mass = 0.0
    zero = Bound.number(0)
    for r in rangeset.ranges:
        lo_ok = r.lo.less_equal(zero)
        hi_ok = zero.less_equal(r.hi)
        if not (lo_ok and hi_ok):
            continue
        if r.stride > 1 and r.lo.is_numeric() and r.lo.is_finite():
            if -r.lo.offset % r.stride != 0:
                continue  # progression steps over zero
        mass += r.probability
    return mass


# -- rules ------------------------------------------------------------


def _dead_branches(
    function: Function, prediction: FunctionPrediction
) -> Iterable[Finding]:
    for label, block in function.blocks.items():
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        if not _executes(prediction, label) or not _proven(prediction, label):
            continue
        probability = prediction.branch_probability[label]
        if _CERTAIN_EPS < probability < 1.0 - _CERTAIN_EPS:
            continue
        always_true = probability >= 1.0 - _CERTAIN_EPS
        dead_target = term.false_target if always_true else term.true_target
        cond_range = _operand_range(prediction, term.cond)
        yield Finding(
            rule="dead-branch",
            severity=WARNING,
            message=(
                f"branch is always {'taken' if always_true else 'not taken'}: "
                f"the {'false' if always_true else 'true'} side "
                f"({dead_target}) is dead code"
            ),
            function=function.name,
            block=label,
            line=term.loc,
            evidence={
                "probability": probability,
                "condition_range": rangeset_payload(cond_range),
                "dead_target": dead_target,
                "operand": _operand_name(term.cond),
            },
        )


def _array_bounds(
    function: Function, prediction: FunctionPrediction
) -> Iterable[Finding]:
    for label, block in function.blocks.items():
        if not _executes(prediction, label):
            continue
        for instr in block.instructions:
            if isinstance(instr, Load):
                array, index = instr.array, instr.index
            elif isinstance(instr, Store):
                array, index = instr.array, instr.index
            else:
                continue
            size = function.arrays.get(array)
            index_range = _operand_range(prediction, index)
            verdict = classify_access(index_range, size)
            if verdict.classification != UNSAFE:
                continue
            if verdict.definitely_oob:
                severity, what = ERROR, "is always"
            else:
                # A partial verdict says "some component of the index
                # range is out of bounds" -- but whether that component
                # can really occur depends on the probability weights
                # that built the merge.  With heuristic branches in the
                # function those weights are opinions (correlated guards
                # like a -1 sentinel tested through another variable are
                # the classic case), so only report when every branch
                # probability is range-proven.
                if prediction.used_heuristic:
                    continue
                severity, what = WARNING, "can be"
            yield Finding(
                rule="array-bounds",
                severity=severity,
                message=(
                    f"index into {array}[{size}] {what} out of bounds "
                    f"(out-of-bounds probability {verdict.oob_mass:.3g})"
                ),
                function=function.name,
                block=label,
                line=instr.loc,
                evidence={
                    "array": array,
                    "size": size,
                    "index_range": rangeset_payload(index_range),
                    "oob_mass": verdict.oob_mass,
                    "definitely_oob": verdict.definitely_oob,
                    "operand": _operand_name(index),
                },
            )


def _div_by_zero(
    function: Function, prediction: FunctionPrediction
) -> Iterable[Finding]:
    for label, block in function.blocks.items():
        if not _executes(prediction, label):
            continue
        for instr in block.instructions:
            if not isinstance(instr, BinOp) or instr.op not in ("div", "mod"):
                continue
            divisor = _operand_range(prediction, instr.rhs)
            if not divisor.is_set:
                continue  # ⊥/⊤ proves nothing about the divisor
            if divisor.constant_value() == 0:
                severity = ERROR
                what = "is always zero"
                mass = 1.0
            else:
                mass = _zero_mass(divisor)
                if mass <= 0.0:
                    continue
                if prediction.used_heuristic:
                    # Same reasoning as the partial bounds verdict: the
                    # zero component's weight is only meaningful when no
                    # branch fell back to heuristics.
                    continue
                severity = WARNING
                what = f"can be zero (probability {mass:.3g})"
            op_word = "modulo" if instr.op == "mod" else "division"
            yield Finding(
                rule="div-by-zero",
                severity=severity,
                message=f"{op_word} divisor {what}",
                function=function.name,
                block=label,
                line=instr.loc,
                evidence={
                    "operator": instr.op,
                    "divisor_range": rangeset_payload(divisor),
                    "zero_mass": mass,
                    "operand": _operand_name(instr.rhs),
                },
            )


def _unreachable(
    function: Function, prediction: FunctionPrediction
) -> Iterable[Finding]:
    # Intersect the frequency view (what the opt pipeline would prune)
    # with the proof view: a frequency of 0 alone may just mean the
    # engine stopped tracking a sub-tolerance value.
    dead = _provably_dead_blocks(function, prediction)
    for label in unreachable_blocks(function, prediction):
        if label not in dead:
            continue
        block = function.block(label)
        yield Finding(
            rule="unreachable-block",
            severity=WARNING,
            message=(
                f"block {label} survives in the CFG but the ranges prove "
                f"it never executes"
            ),
            function=function.name,
            block=label,
            line=_block_line(block),
            evidence={
                "incoming_frequencies": {
                    f"{pred}->{label}": prediction.edge_frequency.get(
                        (pred, label), 0.0
                    )
                    for pred in _predecessors(function, label)
                }
            },
        )


def _predecessors(function: Function, label: str) -> List[str]:
    return [
        block.label
        for block in function.blocks.values()
        if label in block.successors()
    ]


def _loop_evidence(
    function: Function, prediction: FunctionPrediction, header: str
) -> dict:
    """Loop-carried ranges at the header, tagged with derivation status."""
    carried = {}
    for phi in function.block(header).phis():
        name = phi.dest.name
        carried[name] = {
            "range": rangeset_payload(
                prediction.values.get(name, RangeSet.bottom())
            ),
            "derived": name in prediction.derived,
            "widened": name in prediction.widened,
        }
    return carried


def _loops(
    function: Function, prediction: FunctionPrediction
) -> Iterable[Finding]:
    cfg = CFG(function)
    loop_info = LoopInfo(cfg)
    for header, loop in loop_info.loops.items():
        if not _executes(prediction, header):
            continue
        header_block = function.block(header)
        exits = loop.exit_edges(cfg)
        returns = any(
            isinstance(function.block(label).terminator, Return)
            for label in loop.blocks
        )

        # Zero-trip: the edge from the header into the loop never fires
        # although the header itself executes.
        term = header_block.terminator
        if isinstance(term, Branch) and _proven(prediction, header):
            for succ in term.successors():
                if succ not in loop.blocks:
                    continue
                probability = _edge_probability(
                    function, prediction, header, succ
                )
                if probability is None or probability > _CERTAIN_EPS:
                    continue
                yield Finding(
                    rule="zero-trip-loop",
                    severity=WARNING,
                    message=(
                        f"loop at {header} never enters its body: the entry "
                        f"condition is false on first evaluation"
                    ),
                    function=function.name,
                    block=header,
                    line=term.loc,
                    evidence={
                        "entry_edge": f"{header}->{succ}",
                        "probability": prediction.branch_probability.get(header),
                        "carried": _loop_evidence(function, prediction, header),
                    },
                )

        # Non-termination.  Case A: no way out at all (no exit edge, no
        # return inside the loop).  Case B: exits exist but every one has
        # a range-proven frequency of 0.
        if not exits and not returns:
            yield Finding(
                rule="non-terminating-loop",
                severity=ERROR,
                message=f"loop at {header} has no exit: it never terminates",
                function=function.name,
                block=header,
                line=_block_line(header_block),
                evidence={
                    "exits": [],
                    "carried": _loop_evidence(function, prediction, header),
                },
            )
        elif exits and not returns:
            exit_probs = [
                _edge_probability(function, prediction, src, dst)
                for src, dst in exits
            ]
            if any(p is None or p > _CERTAIN_EPS for p in exit_probs):
                continue  # some exit is (possibly) taken, or unproven
            yield Finding(
                rule="non-terminating-loop",
                severity=ERROR,
                message=(
                    f"loop at {header} provably never exits: every exit "
                    f"edge has frequency 0"
                ),
                function=function.name,
                block=header,
                line=_block_line(header_block),
                evidence={
                    "exits": [f"{src}->{dst}" for src, dst in exits],
                    "carried": _loop_evidence(function, prediction, header),
                },
            )


def _reaches_real_use(function: Function) -> set:
    """SSA names whose value can reach a non-phi instruction.

    SSA construction here is minimal but not pruned: a variable declared
    inside a loop body gets a dead header phi whose entry-edge incoming
    is Undef.  Nothing ever consumes that phi, so it is an artefact, not
    an uninitialised use.  A name counts as *really used* when a non-phi
    instruction reads it, or when it feeds (through any chain of phis) a
    name that is.
    """
    nonphi_used = set()
    phis = []
    for block in function.blocks.values():
        for instr in block.instructions:
            if isinstance(instr, Phi):
                phis.append(instr)
            else:
                for operand in instr.operands():
                    if isinstance(operand, Temp):
                        nonphi_used.add(operand.name)
    reaches = set(nonphi_used)
    changed = True
    while changed:
        changed = False
        for phi in phis:
            if phi.dest.name not in reaches:
                continue
            for _, value in phi.incomings:
                if isinstance(value, Temp) and value.name not in reaches:
                    reaches.add(value.name)
                    changed = True
    return reaches


# -- module-scoped rules ------------------------------------------------------


def module_findings(module, callgraph=None) -> List[Finding]:
    """Rules over the whole module (call-graph reachability)."""
    return list(_unreachable_functions(module, callgraph))


def _unreachable_functions(module, callgraph=None) -> Iterable[Finding]:
    """Defined functions no chain of call sites reaches from the entry.

    Only meaningful when the module has a ``main`` entry; a library-like
    module (no entry) has no reachability root, so the rule stays silent
    rather than flagging everything.
    """
    entry = "main"
    if entry not in module.functions:
        return
    if callgraph is None:
        from repro.core.callgraph import CallGraph

        callgraph = CallGraph(module)
    reachable = {entry}
    frontier = [entry]
    while frontier:
        name = frontier.pop()
        for callee in callgraph.callees[name]:
            if callee not in reachable:
                reachable.add(callee)
                frontier.append(callee)
    for name, function in module.functions.items():
        if name in reachable:
            continue
        entry_label = function.entry_label or ""
        entry_block = function.blocks.get(entry_label)
        yield Finding(
            rule="unreachable-function",
            severity=WARNING,
            message=(
                f"function {name} is never called: no chain of call "
                f"sites reaches it from {entry}"
            ),
            function=name,
            block=entry_label,
            line=_block_line(entry_block) if entry_block is not None else None,
            evidence={
                "entry": entry,
                "callers": sorted(callgraph.callers.get(name, ())),
            },
        )


def _uninitialised(
    function: Function, prediction: FunctionPrediction
) -> Iterable[Finding]:
    really_used = _reaches_real_use(function)
    for label, block in function.blocks.items():
        if not _executes(prediction, label):
            continue
        for instr in block.instructions:
            if isinstance(instr, Phi):
                if instr.dest.name not in really_used:
                    continue  # dead phi from non-pruned SSA
                for pred, value in instr.incomings:
                    if not isinstance(value, Undef):
                        continue
                    if prediction.edge_frequency.get((pred, label), 0.0) <= 0.0:
                        continue
                    yield Finding(
                        rule="uninit-value",
                        severity=WARNING,
                        message=(
                            f"{instr.dest.name} may be used uninitialised: "
                            f"no definition reaches it from {pred}"
                        ),
                        function=function.name,
                        block=label,
                        line=instr.loc,
                        evidence={
                            "name": instr.dest.name,
                            "undefined_from": pred,
                            "range": rangeset_payload(RangeSet.bottom()),
                        },
                    )
                continue
            for operand in instr.operands():
                if isinstance(operand, Undef):
                    yield Finding(
                        rule="uninit-value",
                        severity=ERROR,
                        message="use of an uninitialised value",
                        function=function.name,
                        block=label,
                        line=instr.loc,
                        evidence={
                            "instruction": repr(instr),
                            "range": rangeset_payload(RangeSet.bottom()),
                        },
                    )

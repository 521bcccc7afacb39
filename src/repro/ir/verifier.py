"""Structural well-formedness checks for IR functions.

The verifier catches construction mistakes early: unterminated blocks,
dangling branch targets, phi/predecessor mismatches, SSA violations
(double definition, use not dominated by definition), and misplaced
phis.  It raises :class:`VerificationError` with all problems listed.

A caller that already holds a :class:`~repro.ir.cfg.CFG` snapshot (and
the dominator tree it keeps) can pass it in; the verifier first checks
that the snapshot still matches the block terminators.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.cfg import CFG
from repro.ir.function import Function, Module
from repro.ir.instructions import Branch, Cmp, Copy, Instruction, Jump, Phi, Pi
from repro.ir.values import Constant, Temp


class VerificationError(Exception):
    """Raised when a function fails verification; ``problems`` lists them."""

    def __init__(self, function_name: str, problems: List[str]):
        self.function_name = function_name
        self.problems = problems
        joined = "\n  ".join(problems)
        super().__init__(f"function {function_name!r} failed verification:\n  {joined}")


def verify_function(function: Function, ssa: bool = False,
                    param_names: Optional[Set[str]] = None,
                    cfg: Optional[CFG] = None) -> None:
    """Raise :class:`VerificationError` if ``function`` is malformed.

    With ``ssa=True`` additionally checks the single-assignment property
    and that every use is dominated by its definition (phi uses are
    checked against the corresponding predecessor block).

    ``cfg`` is a snapshot of the function's structure to reuse (with its
    memoised dominator tree) instead of building one.  It must still
    describe the function: a snapshot whose successor lists differ from
    the blocks' terminators is itself reported as a problem.
    """
    problems: List[str] = []
    if not function.blocks:
        raise VerificationError(function.name, ["function has no blocks"])

    # One walk over every instruction: block structure, phi/pi order,
    # the phis and pis of each block, the defining instruction of each
    # name and, for SSA, the first definition site of each name.
    blocks = function.blocks
    successors: Dict[str, List[str]] = {}
    block_phis: Dict[str, List[Phi]] = {}
    block_pis: Dict[str, List[Pi]] = {}
    defs: Dict[str, Instruction] = {}
    def_site: Dict[str, Tuple[str, int]] = {}
    redefined: List[str] = []
    if ssa:
        entry = function.entry_label
        assert entry is not None
        for name in param_names or ():
            def_site[name] = (entry, -1)
    for label, block in blocks.items():
        terminators: List[Instruction] = []
        order: List[str] = []
        phis: List[Phi] = []
        pis: List[Pi] = []
        phase = 0  # 0: phis may follow, 1: pis may follow, 2: body
        for index, instr in enumerate(block.instructions):
            if isinstance(instr, Phi):
                if phase:
                    order.append(f"block {label}: phi {instr.dest} after non-phi")
                else:
                    phis.append(instr)
            elif isinstance(instr, Pi):
                pis.append(instr)
                if phase == 2:
                    order.append(f"block {label}: pi {instr.dest} after body instruction")
                else:
                    phase = 1
            else:
                phase = 2
                if instr.is_terminator():
                    terminators.append(instr)
            result = instr.result
            if result is not None:
                name = result.name
                defs[name] = instr
                if ssa:
                    if name in def_site:
                        redefined.append(
                            f"SSA violation: {name} defined more than once"
                        )
                    else:
                        def_site[name] = (label, index)
        if phis:
            block_phis[label] = phis
        if pis:
            block_pis[label] = pis
        if not terminators:
            problems.append(f"block {label} is not terminated")
            continue
        if len(terminators) > 1:
            problems.append(f"block {label} has multiple terminators")
        if block.instructions[-1] is not terminators[0]:
            problems.append(f"block {label} has instructions after terminator")
        problems.extend(order)
        succs = successors[label] = terminators[0].successors()
        for succ in succs:
            if succ not in blocks:
                problems.append(f"block {label} targets unknown block {succ!r}")

    if problems:
        raise VerificationError(function.name, problems)

    if cfg is None:
        cfg = CFG(function)
    elif (
        cfg.function is not function
        or cfg.entry != function.entry_label
        or cfg.successors != successors
    ):
        raise VerificationError(
            function.name,
            ["CFG snapshot is stale: it no longer matches the block terminators"],
        )
    for label, phis in block_phis.items():
        preds = set(cfg.predecessors[label])
        for phi in phis:
            incoming_labels = [lbl for lbl, _ in phi.incomings]
            if set(incoming_labels) != preds:
                problems.append(
                    f"phi {phi.dest} in {label}: incomings {sorted(incoming_labels)} "
                    f"!= predecessors {sorted(preds)}"
                )
            if len(set(incoming_labels)) != len(incoming_labels):
                problems.append(f"phi {phi.dest} in {label}: duplicate incoming labels")

    reachable = cfg.reachable()
    problems.extend(_check_pis(function, cfg, reachable, block_pis, defs))

    if ssa:
        if redefined:
            problems.extend(redefined)
        else:
            problems.extend(_check_dominance(function, cfg, reachable, def_site))

    if problems:
        raise VerificationError(function.name, problems)


def _root_of(name: str, defs: Dict[str, Instruction]):
    """Resolve ``name`` through Copy/Pi definition chains.

    Copy propagation rewrites comparison operands but leaves Pi nodes
    alone, so a pi's source and the cmp operand it asserts about may
    differ by a chain of copies.  Returns ``("name", root)`` or, when
    the chain ends in a copy of a constant, ``("const", value)``.
    """
    seen = set()
    while name not in seen:
        seen.add(name)
        instr = defs.get(name)
        if isinstance(instr, Copy):
            if isinstance(instr.src, Constant):
                return ("const", instr.src.value)
            if isinstance(instr.src, Temp):
                name = instr.src.name
                continue
        if isinstance(instr, Pi) and isinstance(instr.src, Temp):
            name = instr.src.name
            continue
        break
    return ("name", name)


def _check_pis(
    function: Function,
    cfg: CFG,
    reachable: Set[str],
    block_pis: Dict[str, List[Pi]],
    defs: Dict[str, Instruction],
) -> List[str]:
    """Check pi placement: assertion position, unique predecessor, and
    that each pi names (a copy of) the controlling variable of the
    predecessor's conditional branch."""
    problems: List[str] = []
    for label, pis in block_pis.items():
        if label not in reachable:
            continue
        preds = cfg.predecessors[label]
        if len(preds) != 1:
            problems.append(
                f"block {label}: pi nodes require a unique predecessor, "
                f"has {len(preds)}"
            )
            continue
        term = function.block(preds[0]).terminator
        if isinstance(term, Jump):
            # A folded branch (Branch -> Jump) legitimately leaves its
            # assertions behind; they are still sound.
            continue
        if not isinstance(term, Branch):
            problems.append(
                f"block {label}: pi nodes but predecessor {preds[0]} does "
                f"not end in a branch"
            )
            continue
        allowed = set()
        if isinstance(term.cond, Temp):
            allowed.add(("name", term.cond.name))
            cond_def = defs.get(term.cond.name)
            if isinstance(cond_def, Cmp):
                for operand in (cond_def.lhs, cond_def.rhs):
                    if isinstance(operand, Temp):
                        allowed.add(("name", operand.name))
                        allowed.add(_root_of(operand.name, defs))
                    elif isinstance(operand, Constant):
                        allowed.add(("const", operand.value))
        for pi in pis:
            if not isinstance(pi.src, Temp):
                problems.append(f"block {label}: pi {pi.dest} has non-temp source")
                continue
            candidates = {("name", pi.src.name), _root_of(pi.src.name, defs)}
            if not (candidates & allowed):
                problems.append(
                    f"block {label}: pi {pi.dest} asserts {pi.src.name}, which "
                    f"is not a controlling variable of the branch in {preds[0]}"
                )
    return problems


def _check_dominance(
    function: Function,
    cfg: CFG,
    reachable: Set[str],
    def_site: Dict[str, Tuple[str, int]],
) -> List[str]:
    """Every use of a name is dominated by its (single) definition."""
    problems: List[str] = []
    dominates = cfg.dominators.dominates
    for label, block in function.blocks.items():
        if label not in reachable:
            continue
        for index, instr in enumerate(block.instructions):
            if isinstance(instr, Phi):
                for pred_label, value in instr.incomings:
                    if not isinstance(value, Temp):
                        continue
                    site = def_site.get(value.name)
                    if site is None:
                        problems.append(
                            f"phi {instr.dest} reads undefined {value.name}"
                        )
                    elif pred_label in reachable and not dominates(site[0], pred_label):
                        problems.append(
                            f"phi {instr.dest}: {value.name} (defined in {site[0]}) does "
                            f"not dominate incoming edge from {pred_label}"
                        )
                continue
            for operand in instr.operands():
                if not isinstance(operand, Temp):
                    continue
                site = def_site.get(operand.name)
                if site is None:
                    problems.append(
                        f"{label}[{index}] {instr!r} reads undefined {operand.name}"
                    )
                    continue
                def_label, def_index = site
                if def_label == label:
                    if def_index >= index:
                        problems.append(
                            f"{label}[{index}] {instr!r} uses {operand.name} before "
                            f"its definition in the same block"
                        )
                elif not dominates(def_label, label):
                    problems.append(
                        f"{label}[{index}] {instr!r}: definition of {operand.name} "
                        f"in {def_label} does not dominate the use"
                    )
    return problems


def verify_module(module: Module, ssa: bool = False) -> None:
    for function in module.functions.values():
        verify_function(function, ssa=ssa)

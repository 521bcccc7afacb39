"""Loop-carried variable derivation (paper §3.6).

A phi at a loop header whose SSA chain loops back to itself is a
*loop-carried* variable.  Instead of iterating the loop during
propagation, its derivation -- the operations between the phi and the
back-edge value -- is matched against the induction template::

    new_value = old_value +/- {set of possible increments}
    assert(new_value between specific bounds)

and combined with the initial value to give a closed-form range.
Backward tracing follows copies, assertions (recording the constraint
and how much increment is applied *after* it) and inner phis (each
incoming becomes an alternative path).  An increment is a constant or
the range of a *final* step operand whose sign is fixed (``acc = acc +
f(k)`` with ``f`` returning non-negative values).  Mixed-sign
increments, cycles through foreign phis, non-final steps or non-affine
steps fail the match; the engine then falls back to brute-force
propagation with widening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, List, Optional, Set, Tuple

from repro.core.bounds import Bound, NEG_INF, POS_INF, Number, bound_max, bound_min
from repro.core.ranges import StridedRange
from repro.core.rangeset import RangeSet
from repro.ir.instructions import BinOp, Call, Cmp, Copy, Phi, Pi, UnOp
from repro.ir.ssa import SSAEdges
from repro.ir.values import Temp, Value

MAX_PATHS = 32
MAX_PATH_LENGTH = 256

#: One lap's increment along a path: (least, greatest, gcd of its values).
#: A constant ``c`` is ``(c, c, |c|)``; a step range may reach ±inf.
Increment = Tuple[Number, Number, int]
_ZERO: Increment = (0, 0, 0)

#: Instructions whose value is a function of their operands' values
#: alone: final operands make them final.
_PURE = (Copy, Pi, BinOp, UnOp, Cmp)


@dataclass
class DerivationOutcome:
    """Result of a derivation attempt.

    ``detail`` carries the matched template description on success and
    the failure reason otherwise -- the propagation engine forwards it
    to the trace event stream so ``repro trace`` can say *why* a loop
    phi fell back to brute-force iteration.
    """

    status: str  # "derived" | "failed" | "not_ready"
    rangeset: Optional[RangeSet] = None
    detail: str = ""
    #: For "not_ready" on a step: the name still at ⊤ that it waits for.
    waiting_on: Optional[str] = None

    @property
    def derived(self) -> bool:
        return self.status == "derived"


@dataclass
class _Path:
    """One way from the header phi around the loop to a back-edge value."""

    increment: Increment = _ZERO
    # (relop, bound, increment applied after the assertion)
    constraints: List[Tuple[str, Bound, Increment]] = field(default_factory=list)


class _TraceFailure(Exception):
    """Internal: the derivation does not match the induction template."""

    def __init__(self, reason: str = "template mismatch"):
        self.reason = reason
        super().__init__(reason)


class _NotReady(_TraceFailure):
    """Internal: a step reads ``name``, still at ⊤; retry once it is not."""

    def __init__(self, reason: str, name: str):
        super().__init__(reason)
        self.name = name


class _Chain:
    """What one derivation attempt may read about the loop's operands.

    ``settled`` holds the derived names whose derived range was the first
    value they ever held: no instruction read an earlier one, so every
    value computed from them is current.  ``calls_read_args`` says whether
    a call's value depends on its arguments (context-sensitive call
    effects) or only on the callee's summary, which is fixed for the run.
    """

    def __init__(
        self,
        target: str,
        edges: SSAEdges,
        value_of: Callable[[str], RangeSet],
        constant_of: Callable[[Value], Optional[int]],
        settled: AbstractSet[str],
        calls_read_args: bool,
    ):
        self.target = target
        self.edges = edges
        self.value_of = value_of
        self.constant_of = constant_of
        self.settled = settled
        self.calls_read_args = calls_read_args
        self._carried: Optional[Set[str]] = None

    def carried(self) -> Set[str]:
        """The target and every name computed from it (its forward slice)."""
        if self._carried is None:
            names = {self.target}
            stack = [self.target]
            uses_of = self.edges.uses_of
            while stack:
                for use in uses_of.get(stack.pop(), ()):
                    result = use.result
                    if result is not None and result.name not in names:
                        names.add(result.name)
                        stack.append(result.name)
            self._carried = names
        return self._carried

    def increment(self, step: Value) -> Optional[Increment]:
        """The increments ``step`` may add per lap; None if it is no step.

        A named step, constant-valued or not, must be final: a value read
        on an early lap may still grow.
        """
        if step.__class__ is not Temp:
            constant = self.constant_of(step)
            if constant is None:
                return None
            return (constant, constant, abs(constant))
        name = step.name
        value = self.value_of(name)
        if value.is_bottom:
            raise _TraceFailure(f"step {name} is bottom")
        self._require_final(name)
        return _range_increment(name, value)

    def _require_final(self, step: str) -> None:
        """Raise unless ``step``'s current value is its value for the rest
        of the run.

        Final: a constant, a parameter, a settled name, a call (whose
        arguments are final when calls read them), or a pure instruction
        over final operands -- and every symbol in such a value is final.
        A name still at ⊤ makes the step not ready, once the rest of its
        operands has been checked.
        """
        unknown: Optional[str] = None
        seen: Set[str] = set()
        stack = [step]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            value = self.value_of(name)
            if value.is_top:
                unknown = unknown or name
            elif value.is_set:
                stack.extend(value.symbols())
            if name in self.settled:
                continue
            definition = self.edges.defining_instruction(name)
            if definition is None:
                continue  # a parameter: fixed for the run
            kind = definition.__class__
            if kind is Call and not self.calls_read_args:
                continue  # the callee's summary, whatever the arguments
            if kind is Phi:
                if name == self.target:
                    raise _TraceFailure(f"step {step} reads the variable itself")
                if value.is_top:
                    continue  # not evaluated yet: it may still derive
                raise _TraceFailure(
                    f"step {step} reads the phi {name}, not derived on its first visit"
                )
            if kind is not Call and kind not in _PURE:
                raise _TraceFailure(f"step {step} reads {name} ({kind.__name__.lower()})")
            stack.extend(
                operand.name
                for operand in definition.operands()
                if operand.__class__ is Temp
            )
        if unknown is not None:
            via = "" if unknown == step else f" reads {unknown}, which is"
            raise _NotReady(f"step {step}{via} still unknown (top)", unknown)


def derive_loop_phi(
    phi: Phi,
    back_edge_preds: Set[str],
    edges: SSAEdges,
    value_of: Callable[[str], RangeSet],
    constant_of: Callable[[Value], Optional[int]],
    symbolic: bool = True,
    max_ranges: int = 4,
    settled: AbstractSet[str] = frozenset(),
    calls_read_args: bool = False,
) -> DerivationOutcome:
    """Attempt to derive the range of a loop-header phi.

    ``value_of`` maps SSA names to their current range sets (for the
    initial value and named steps), ``constant_of`` resolves operands
    that are known single constants (literals, assertion bounds).
    ``settled`` and ``calls_read_args`` decide whether a named step is
    final (see :class:`_Chain`); a step still at ⊤ makes the outcome
    "not_ready", naming it in ``waiting_on``.
    """
    target = phi.dest.name
    entry_sets: List[RangeSet] = []
    back_values: List[Value] = []
    for pred_label, value in phi.incomings:
        if pred_label in back_edge_preds:
            back_values.append(value)
        else:
            if isinstance(value, Temp):
                entry_sets.append(value_of(value.name))
            else:
                constant = constant_of(value)
                if constant is None:
                    return DerivationOutcome(
                        "failed", detail="entry value not a known constant"
                    )
                entry_sets.append(RangeSet.constant(constant))
    if not back_values:
        return DerivationOutcome("failed", detail="no back-edge values")
    if any(s.is_top for s in entry_sets) or not entry_sets:
        return DerivationOutcome("not_ready", detail="entry value still unknown (top)")
    if any(s.is_bottom for s in entry_sets):
        return DerivationOutcome("failed", detail="entry value is bottom")

    init = RangeSet.from_ranges(
        [
            r.scaled(1.0 / len(entry_sets))
            for s in entry_sets
            for r in s.ranges
        ],
        max_ranges=max_ranges,
        renormalise=True,
    )
    if not init.is_set:
        return DerivationOutcome("failed", detail="entry merge not a range set")

    chain = _Chain(target, edges, value_of, constant_of, settled, calls_read_args)
    paths: List[_Path] = []
    try:
        for value in back_values:
            paths.extend(_trace(value, chain))
    except _NotReady as wait:
        return DerivationOutcome("not_ready", detail=wait.reason, waiting_on=wait.name)
    except _TraceFailure as failure:
        return DerivationOutcome("failed", detail=failure.reason)
    if not paths:
        return DerivationOutcome("failed", detail="no induction paths to the phi")

    rangeset, detail = _closed_form(init, paths, symbolic, max_ranges)
    if rangeset is None:
        return DerivationOutcome("failed", detail=detail)
    return DerivationOutcome("derived", rangeset, detail=detail)


# ---------------------------------------------------------------------------
# backward tracing
# ---------------------------------------------------------------------------


def _plus(a: Increment, b: Increment) -> Increment:
    return (a[0] + b[0], a[1] + b[1], math.gcd(a[2], b[2]))


def _trace(value: Value, chain: _Chain) -> List[_Path]:
    """All template paths from ``value`` back to the phi ``chain.target``."""
    finished: List[_Path] = []
    # Work items: (value, pending_increment, constraints,
    #              visited {name: pending when first seen}, depth).
    stack: List[Tuple[Value, Increment, Tuple, Tuple, int]] = [(value, _ZERO, (), (), 0)]
    while stack:
        current, pending, constraints, visited, depth = stack.pop()
        if depth > MAX_PATH_LENGTH or len(finished) > MAX_PATHS:
            raise _TraceFailure("path explosion in the loop body")
        if not isinstance(current, Temp):
            raise _TraceFailure("constant fed back: not inductive")
        name = current.name
        if name == chain.target:
            path = _Path(increment=pending, constraints=list(constraints))
            finished.append(path)
            continue
        seen = dict(visited)
        if name in seen:
            if seen[name] == pending:
                # A zero-increment cycle (e.g. an inner loop that only
                # re-asserts the variable): this path adds nothing the
                # first visit did not cover; drop it.
                continue
            raise _TraceFailure("the variable moves inside a foreign loop")
        definition = chain.edges.defining_instruction(name)
        if definition is None:
            raise _TraceFailure("parameter or unknown definition: not inductive")
        visited = tuple(sorted((*seen.items(), (name, pending))))
        if isinstance(definition, Copy):
            stack.append((definition.src, pending, constraints, visited, depth + 1))
        elif isinstance(definition, Pi):
            bound = _bound_of(definition.bound, chain.constant_of)
            if bound is not None:
                constraints = constraints + ((definition.op, bound, pending),)
            stack.append((definition.src, pending, constraints, visited, depth + 1))
        elif isinstance(definition, BinOp) and definition.op in ("add", "sub"):
            step, operand = _affine_step(definition, chain)
            stack.append(
                (operand, _plus(pending, step), constraints, visited, depth + 1)
            )
        elif isinstance(definition, Phi):
            for _, incoming in definition.incomings:
                stack.append((incoming, pending, constraints, visited, depth + 1))
        else:
            raise _TraceFailure(
                f"unsupported {type(definition).__name__} in the induction chain"
            )
    return finished


def _affine_step(instr: BinOp, chain: _Chain) -> Tuple[Increment, Value]:
    """Match ``x + X`` / ``X + x`` / ``x - X``; returns (increment, x).

    ``x`` carries the loop variable and ``X`` does not: neither the
    target phi nor any name computed from it is ever read as a step.
    """
    lhs, rhs = instr.lhs, instr.rhs
    if lhs.__class__ is Temp and rhs.__class__ is Temp:
        carried = chain.carried()
        lhs_carries = lhs.name in carried
        rhs_carries = rhs.name in carried
    else:
        lhs_carries = lhs.__class__ is Temp
        rhs_carries = rhs.__class__ is Temp
    if lhs_carries and not rhs_carries:
        variable, step = lhs, rhs
    elif rhs_carries and not lhs_carries and instr.op == "add":
        variable, step = rhs, lhs
    else:
        raise _TraceFailure(f"non-affine step ({instr.op})")
    increment = chain.increment(step)
    if increment is None:
        raise _TraceFailure(f"non-affine step ({instr.op})")
    if instr.op == "sub":
        increment = (-increment[1], -increment[0], increment[2])
    return increment, variable


def _range_increment(name: str, value: RangeSet) -> Increment:
    """The increments a step with range set ``value`` adds: its least and
    greatest value (a symbolic end counts as unbounded) and the gcd of
    each range's finite end and stride.  A step of either sign fails."""
    ends = [
        (
            r.lo.offset if r.lo.symbol is None else NEG_INF,
            r.hi.offset if r.hi.symbol is None else POS_INF,
            r.stride,
        )
        for r in value.ranges
    ]
    least = min(lo for lo, _, _ in ends)
    greatest = max(hi for _, hi, _ in ends)
    if least < 0 < greatest:
        raise _TraceFailure(f"step {name} has no fixed sign")
    # One sign: every range has a finite end on the side toward zero.
    divisor = 0
    for lo, hi, stride in ends:
        divisor = math.gcd(divisor, abs(hi if math.isinf(lo) else lo), stride)
    return (least, greatest, divisor)


def _bound_of(
    value: Value, constant_of: Callable[[Value], Optional[int]]
) -> Optional[Bound]:
    constant = constant_of(value)
    if constant is not None:
        return Bound.number(constant)
    if isinstance(value, Temp):
        return Bound.symbolic(value.name)
    return None


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def _closed_form(
    init: RangeSet,
    paths: List[_Path],
    symbolic: bool,
    max_ranges: int,
) -> Tuple[Optional[RangeSet], str]:
    """The derived range set plus a template/failure description."""
    increments = [p.increment for p in paths]
    if all(lo == 0 and hi == 0 for lo, hi, _ in increments):
        return init, "pure copy-back: the phi never moves"
    if any(hi > 0 for _, hi, _ in increments) and any(lo < 0 for lo, _, _ in increments):
        return None, "mixed-sign increments (non-monotone)"
    increasing = any(hi > 0 for _, hi, _ in increments)

    init_hull = init.hull()
    if init_hull is None:
        return None, "initial value has no hull"

    stride = 0
    for _, _, divisor in increments:
        stride = math.gcd(stride, divisor)
    # Every initial value is on the progression too: each range's stride
    # and its offset from the hull's finite end.
    anchor = init_hull.hi if init_hull.lo.is_neg_inf() else init_hull.lo
    for r in init.ranges:
        offset = anchor.distance(r.hi if r.lo.is_neg_inf() else r.lo)
        if offset is None or math.isinf(offset):
            offset = 1
        stride = math.gcd(stride, r.stride, abs(offset))
    if stride == 0:
        stride = 1

    steps = ", ".join(_describe(i) for i in sorted(set(increments)))
    template = (
        f"{'increasing' if increasing else 'decreasing'} induction, "
        f"steps [{steps}], stride {stride}"
    )

    # A `!=` assertion stops the variable only if no lap can jump past
    # its bound: each lap moves it by 0 or by the stride, and the bound
    # is on the initial value's phase.
    unit_laps = all(lo == hi and abs(lo) in (0, stride) for lo, hi, _ in increments)
    phase = (anchor, stride) if unit_laps else None
    if increasing:
        lo = init_hull.lo
        hi = _moving_limit(paths, init_hull.hi, True, symbolic, phase)
        if hi is None:
            return None, "no usable limit in the moving direction"
    else:
        hi = init_hull.hi
        lo = _moving_limit(paths, init_hull.lo, False, symbolic, phase)
        if lo is None:
            return None, "no usable limit in the moving direction"
    order = lo.compare(hi)
    if order is not None and order > 0:
        # The loop bound is below the initial value: body never re-entered.
        return init, template + " (body never re-entered)"
    if not increasing:
        # The progression is anchored at the *initial* (high) end; snap
        # the lower limit up onto its phase (StridedRange normalisation
        # anchors at lo, which is only right for increasing loops).
        width = lo.distance(hi)
        if width is not None and not math.isinf(width) and stride > 1:
            lo = hi.add_const(-(width // stride) * stride)
    return (
        RangeSet.from_ranges([StridedRange(1.0, lo, hi, stride)], max_ranges=max_ranges),
        template,
    )


def _describe(increment: Increment) -> str:
    lo, hi, _ = increment
    if lo == hi:
        return str(lo)
    return f"[{Bound.number(lo)}:{Bound.number(hi)}]"


def _moving_limit(
    paths: List[_Path],
    init_extreme: Bound,
    increasing: bool,
    symbolic: bool,
    phase: Optional[Tuple[Bound, int]],
) -> Optional[Bound]:
    """The extreme the phi can reach in the moving direction.

    For an increasing loop each path contributes
    ``min(asserted upper limits) + greatest increment applied after the
    assertion``; the overall limit is the max over paths (and at least
    the initial extreme).  Unbounded paths produce an infinite limit --
    still a usable half-open range.
    """
    overall: Optional[Bound] = None
    for path in paths:
        least, greatest, _ = path.increment
        if increasing and greatest <= 0:
            continue  # this path does not push the extreme outward
        if not increasing and least >= 0:
            continue
        limit = _path_limit(path, increasing, symbolic, init_extreme, phase)
        if limit is None:
            limit = Bound.number(POS_INF if increasing else NEG_INF)
        if overall is None:
            overall = limit
        else:
            picked = (
                bound_max(overall, limit) if increasing else bound_min(overall, limit)
            )
            if picked is None:
                # Incomparable limits across paths (different symbols): give
                # up the precision race and go unbounded.
                overall = Bound.number(POS_INF if increasing else NEG_INF)
            else:
                overall = picked
    if overall is None:
        return None
    combined = bound_max(init_extreme, overall) if increasing else bound_min(
        init_extreme, overall
    )
    if combined is None:
        # Symbolic loop limit vs numeric init: assume the loop bound governs.
        return overall
    return combined


def _path_limit(
    path: _Path,
    increasing: bool,
    symbolic: bool,
    init_extreme: Bound,
    phase: Optional[Tuple[Bound, int]],
) -> Optional[Bound]:
    """Tightest asserted limit along one path, adjusted for increments
    applied after the assertion.

    Numeric limits are preferred over symbolic ones when they cannot be
    compared: the numeric bound is the classic termination test, while
    incomparable symbolic assertions (e.g. an inner loop's exit
    condition) rarely bound the induction usefully.

    Equality-flavoured assertions (``==``/``!=``) only count as limits
    when their bound lies *beyond* the initial value in the moving
    direction -- an ``i == -1`` inside a loop counting up from 0 is a
    dead-path fact, not a termination bound.  A ``!=`` limits only when
    ``phase`` is ``(anchor, stride)`` (every lap moves the variable by 0
    or the stride) and its bound is ``anchor``'s residue mod the stride.
    """
    best_numeric: Optional[Bound] = None
    best_symbolic: Optional[Bound] = None
    for op, bound, inc_after in path.constraints:
        if not symbolic and bound.symbol is not None:
            continue
        if op == "ne" and not _on_phase(bound, phase):
            continue
        if op in ("eq", "ne"):
            order = bound.compare(init_extreme)
            if order is not None and (
                (increasing and order <= 0) or (not increasing and order >= 0)
            ):
                continue  # the bound is behind the start: cannot cap growth
        limit = _constraint_limit(op, bound, increasing)
        if limit is None:
            continue
        shift = inc_after[1] if increasing else inc_after[0]
        if math.isinf(shift):
            limit = Bound.number(shift)
        else:
            limit = limit.add_const(shift)
        if limit.symbol is None:
            best_numeric = _tighter(best_numeric, limit, increasing)
        else:
            best_symbolic = _tighter(best_symbolic, limit, increasing)
    return best_numeric if best_numeric is not None else best_symbolic


def _on_phase(bound: Bound, phase: Optional[Tuple[Bound, int]]) -> bool:
    if phase is None:
        return False
    anchor, stride = phase
    if stride == 1:
        return True
    gap = anchor.distance(bound)
    return gap is not None and not math.isinf(gap) and gap % stride == 0


def _tighter(best: Optional[Bound], candidate: Bound, increasing: bool) -> Bound:
    if best is None:
        return candidate
    picked = bound_min(best, candidate) if increasing else bound_max(best, candidate)
    return picked if picked is not None else best


def _constraint_limit(op: str, bound: Bound, increasing: bool) -> Optional[Bound]:
    if increasing:
        if op == "lt":
            return bound.add_const(-1)
        if op == "le" or op == "eq":
            return bound
        if op == "ne":
            # Approaching an inequality from below stops just short of it.
            return bound.add_const(-1)
        return None
    if op == "gt":
        return bound.add_const(1)
    if op == "ge" or op == "eq":
        return bound
    if op == "ne":
        return bound.add_const(1)
    return None

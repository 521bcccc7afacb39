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
incoming becomes an alternative path).  Mixed-sign increments, cycles
through foreign phis, or non-affine steps fail the match; the engine
then falls back to brute-force propagation with widening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from repro.core.bounds import Bound, NEG_INF, POS_INF, bound_max, bound_min
from repro.core.ranges import StridedRange
from repro.core.rangeset import RangeSet
from repro.ir.instructions import BinOp, Copy, Phi, Pi
from repro.ir.ssa import SSAEdges
from repro.ir.values import Temp, Value

MAX_PATHS = 32
MAX_PATH_LENGTH = 256


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

    @property
    def derived(self) -> bool:
        return self.status == "derived"


@dataclass
class _Path:
    """One way from the header phi around the loop to a back-edge value."""

    total_increment: int = 0
    # (relop, bound, increment applied after the assertion)
    constraints: List[Tuple[str, Bound, int]] = field(default_factory=list)


class _TraceFailure(Exception):
    """Internal: the derivation does not match the induction template."""

    def __init__(self, reason: str = "template mismatch"):
        self.reason = reason
        super().__init__(reason)


def derive_loop_phi(
    phi: Phi,
    back_edge_preds: Set[str],
    edges: SSAEdges,
    value_of: Callable[[str], RangeSet],
    constant_of: Callable[[Value], Optional[int]],
    symbolic: bool = True,
    max_ranges: int = 4,
) -> DerivationOutcome:
    """Attempt to derive the range of a loop-header phi.

    ``value_of`` maps SSA names to their current range sets (for the
    initial value), ``constant_of`` resolves operands that are known
    single constants (so ``i = i + step`` with a constant-valued ``step``
    variable still matches the template).
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

    paths: List[_Path] = []
    try:
        for value in back_values:
            paths.extend(_trace(value, target, edges, constant_of))
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


def _trace(
    value: Value,
    target: str,
    edges: SSAEdges,
    constant_of: Callable[[Value], Optional[int]],
) -> List[_Path]:
    """All template paths from ``value`` back to the phi named ``target``."""
    finished: List[_Path] = []
    # Work items: (value, pending_increment, constraints,
    #              visited {name: pending when first seen}, depth).
    stack: List[Tuple[Value, int, Tuple, Tuple, int]] = [(value, 0, (), (), 0)]
    while stack:
        current, pending, constraints, visited, depth = stack.pop()
        if depth > MAX_PATH_LENGTH or len(finished) > MAX_PATHS:
            raise _TraceFailure("path explosion in the loop body")
        if not isinstance(current, Temp):
            raise _TraceFailure("constant fed back: not inductive")
        name = current.name
        if name == target:
            path = _Path(total_increment=pending, constraints=list(constraints))
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
        definition = edges.defining_instruction(name)
        if definition is None:
            raise _TraceFailure("parameter or unknown definition: not inductive")
        visited = tuple(sorted((*seen.items(), (name, pending))))
        if isinstance(definition, Copy):
            stack.append((definition.src, pending, constraints, visited, depth + 1))
        elif isinstance(definition, Pi):
            bound = _bound_of(definition.bound, constant_of)
            if bound is not None:
                constraints = constraints + ((definition.op, bound, pending),)
            stack.append((definition.src, pending, constraints, visited, depth + 1))
        elif isinstance(definition, BinOp) and definition.op in ("add", "sub"):
            step, operand = _affine_step(definition, constant_of)
            if operand is None:
                raise _TraceFailure(f"non-affine step ({definition.op})")
            stack.append(
                (operand, pending + step, constraints, visited, depth + 1)
            )
        elif isinstance(definition, Phi):
            for _, incoming in definition.incomings:
                stack.append((incoming, pending, constraints, visited, depth + 1))
        else:
            raise _TraceFailure(
                f"unsupported {type(definition).__name__} in the induction chain"
            )
    return finished


def _affine_step(
    instr: BinOp, constant_of: Callable[[Value], Optional[int]]
) -> Tuple[int, Optional[Value]]:
    """Match ``x + c`` / ``c + x`` / ``x - c``; returns (step, x)."""
    lhs_const = constant_of(instr.lhs)
    rhs_const = constant_of(instr.rhs)
    if instr.op == "add":
        if rhs_const is not None and lhs_const is None:
            return rhs_const, instr.lhs
        if lhs_const is not None and rhs_const is None:
            return lhs_const, instr.rhs
    elif instr.op == "sub":
        if rhs_const is not None and lhs_const is None:
            return -rhs_const, instr.lhs
    return 0, None


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
    increments = [p.total_increment for p in paths]
    if all(i == 0 for i in increments):
        return init, "pure copy-back: the phi never moves"
    if any(i > 0 for i in increments) and any(i < 0 for i in increments):
        return None, "mixed-sign increments (non-monotone)"
    increasing = any(i > 0 for i in increments)

    stride = 0
    for i in increments:
        stride = math.gcd(stride, abs(i))
    for r in init.ranges:
        stride = math.gcd(stride, r.stride)
    if stride == 0:
        stride = 1

    template = (
        f"{'increasing' if increasing else 'decreasing'} induction, "
        f"steps {sorted(set(increments))}, stride {stride}"
    )

    init_hull = init.hull()
    if init_hull is None:
        return None, "initial value has no hull"

    if increasing:
        lo = init_hull.lo
        hi = _moving_limit(paths, init_hull.hi, increasing=True, symbolic=symbolic)
        if hi is None:
            return None, "no usable limit in the moving direction"
    else:
        hi = init_hull.hi
        lo = _moving_limit(paths, init_hull.lo, increasing=False, symbolic=symbolic)
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


def _moving_limit(
    paths: List[_Path],
    init_extreme: Bound,
    increasing: bool,
    symbolic: bool,
) -> Optional[Bound]:
    """The extreme the phi can reach in the moving direction.

    For an increasing loop each path contributes
    ``min(asserted upper limits) + increment applied after the assertion``;
    the overall limit is the max over paths (and at least the initial
    extreme).  Unbounded paths produce an infinite limit -- still a
    usable half-open range.
    """
    overall: Optional[Bound] = None
    for path in paths:
        if increasing and path.total_increment <= 0:
            continue  # this path does not push the extreme outward
        if not increasing and path.total_increment >= 0:
            continue
        limit = _path_limit(path, increasing, symbolic, init_extreme)
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
    init_extreme: Optional[Bound] = None,
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
    dead-path fact, not a termination bound.
    """
    best_numeric: Optional[Bound] = None
    best_symbolic: Optional[Bound] = None
    for op, bound, inc_after in path.constraints:
        if not symbolic and bound.symbol is not None:
            continue
        if op in ("eq", "ne") and init_extreme is not None:
            order = bound.compare(init_extreme)
            if order is not None and (
                (increasing and order <= 0) or (not increasing and order >= 0)
            ):
                continue  # the bound is behind the start: cannot cap growth
        limit = _constraint_limit(op, bound, increasing)
        if limit is None:
            continue
        limit = limit.add_const(inc_after)
        if limit.symbol is None:
            best_numeric = _tighter(best_numeric, limit, increasing)
        else:
            best_symbolic = _tighter(best_symbolic, limit, increasing)
    return best_numeric if best_numeric is not None else best_symbolic


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

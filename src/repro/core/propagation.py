"""The value range propagation engine (paper §3.3).

A sparse conditional propagation over SSA form, exactly in the shape of
Wegman–Zadeck constant propagation, generalised per the paper:

* lattice values are weighted range sets, not constants;
* every CFG edge carries an execution *frequency* (the entry block has
  frequency 1; branch out-edges split their block's frequency by the
  predicted probability) -- phi evaluation merges incoming ranges
  weighted by these frequencies;
* a loop header's frequency is solved in closed form, Wu–Larus style:
  its non-back inflow divided by ``1 - cyclic probability``, where the
  cyclic probability (of returning to the header) comes from one
  acyclic pass over the loop body -- so frequencies reach their limit
  at once instead of creeping up lap by lap;
* loop-carried phis are *derived* via induction templates
  (:mod:`repro.core.derivation`) rather than iterated; phis that fail
  derivation iterate brute-force and are widened after a configurable
  number of re-evaluations;
* branches whose controlling range is ⊥ fall back to a pluggable
  heuristic predictor, as the paper prescribes.

Two worklists drive the fixed point: the FlowWorkList of CFG edges and
the SSAWorkList of SSA (def-use) edges, with the paper's "prefer the
FlowWorkList" ordering by default.

An evaluation's Python cost is kept flat: a class-keyed table
(:data:`_DISPATCH`) picks the transfer function, a set without symbols
is used as it is, and a result that is the very object already stored
returns before any comparison (for a φ only while no tracer is active
and the set has a hull, so traces, the sanitizer and the widening count
see every step they saw before).
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.loops import LoopInfo
from repro.core import counters as counters_mod
from repro.core.bounds import Bound, NEG_INF, POS_INF
from repro.core.config import VRPConfig
from repro.core.derivation import derive_loop_phi
# Unary operators are rare enough that they are not memoized.
from repro.core.perf.memo import (
    boolean_set,
    compare_sets,
    constant_set,
    evaluate_binop,
    refine_set,
)
from repro.core.range_arith import evaluate_unop
from repro.core.ranges import StridedRange
from repro.core.rangeset import BOTTOM, PlanRecord, RangeSet, TOP, merge_weighted
from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Cmp,
    Copy,
    Input,
    Instruction,
    Jump,
    Load,
    Phi,
    Pi,
    Return,
    Store,
    UnOp,
)
from repro.ir.ssa import SSAInfo, build_ssa_edges
from repro.ir.values import Constant, Temp, Undef, Value
from repro.observability import events as trace_events
from repro.observability import tracer as tracing

Edge = Tuple[str, str]

ENTRY_EDGE_SOURCE = "<entry>"

#: The heuristic fallback for a ⊥ branch: ``(function, label, cfg,
#: loops) -> P(true edge)``, handed the engine's own CFG and
#: :class:`LoopInfo` of the function so it need not build its own.
HeuristicFn = Callable[[Function, str, CFG, LoopInfo], float]


class FunctionPrediction:
    """Results of value range propagation over one function."""

    def __init__(
        self,
        function: Function,
        branch_probability: Dict[str, float],
        edge_frequency: Dict[Edge, float],
        block_frequency: Dict[str, float],
        values: Dict[str, RangeSet],
        used_heuristic: Set[str],
        counters: counters_mod.Counters,
        return_set: RangeSet,
        aborted: bool = False,
        *,
        derived: Optional[Set[str]] = None,
        widened: Optional[Set[str]] = None,
    ):
        self.function = function
        #: P(true out-edge) for every block ending in a conditional branch.
        self.branch_probability = branch_probability
        #: Execution frequency of each CFG edge (entry block = 1.0).
        self.edge_frequency = edge_frequency
        #: Execution frequency of each block.
        self.block_frequency = block_frequency
        #: Final range set per SSA name.
        self.values = values
        #: Branch blocks whose probability came from the heuristic fallback.
        self.used_heuristic = used_heuristic
        self.counters = counters
        #: Merged range of all return values (for interprocedural use).
        self.return_set = return_set
        #: True when the safety valve cut the fixed point short.
        self.aborted = aborted
        #: SSA names solved by loop-derivation templates (diagnostics
        #: cite these when reasoning about loop trip counts).
        self.derived = derived if derived is not None else set()
        #: SSA names the engine widened to force convergence (their
        #: ranges are upper approximations, not proofs).
        self.widened = widened if widened is not None else set()

    def probability_of_edge(self, src: str, dst: str) -> float:
        """P(control takes src->dst | control reaches src)."""
        block_freq = self.block_frequency.get(src, 0.0)
        if block_freq <= 0.0:
            return 0.0
        return min(1.0, self.edge_frequency.get((src, dst), 0.0) / block_freq)

    def __repr__(self) -> str:
        return (
            f"FunctionPrediction({self.function.name!r}, "
            f"{len(self.branch_probability)} branches, "
            f"{len(self.used_heuristic)} heuristic fallbacks)"
        )


class PropagationEngine:
    """One value-range-propagation run over a prepared (SSA) function."""

    def __init__(
        self,
        function: Function,
        ssa_info: SSAInfo,
        config: Optional[VRPConfig] = None,
        heuristic: Optional[HeuristicFn] = None,
        param_ranges: Optional[Dict[str, RangeSet]] = None,
        call_effect: Optional[Callable[[Call], RangeSet]] = None,
    ):
        self.function = function
        self.ssa_info = ssa_info
        self.config = config or VRPConfig()
        self.heuristic = heuristic
        self.call_effect = call_effect
        self.cfg = CFG(function)
        self.loops = LoopInfo(self.cfg)
        self.edges = build_ssa_edges(function, ssa_info)
        self.counters = counters_mod.Counters()
        # Tracing: one attribute check per instrumented site.  With the
        # default NullTracer this stays None and every hook reduces to a
        # single `is not None` test.
        tracer = tracing.active()
        self._trace = tracer if tracer.enabled else None
        # Lattice sanitizer (config.sanitize): same zero-overhead shape
        # as tracing -- None unless enabled, one `is not None` per site.
        if self.config.sanitize:
            from repro.core.sanitize import LatticeSanitizer

            self._sanitize: Optional[LatticeSanitizer] = LatticeSanitizer(
                function.name, self.config
            )
        else:
            self._sanitize = None

        self.values: Dict[str, RangeSet] = {}
        for param, ssa_name in ssa_info.param_names.items():
            provided = (param_ranges or {}).get(param)
            self.values[ssa_name] = provided if provided is not None else BOTTOM

        self.edge_freq: Dict[Edge, float] = {}
        self.branch_prob: Dict[str, float] = {}
        self.used_heuristic: Set[str] = set()
        self.visited: Set[str] = set()
        self.derived: Set[str] = set()
        # Derived names whose derived range is the first value they held
        # (a derivation may read them as final; see derivation._Chain).
        self.settled: Set[str] = set()
        self.underivable: Set[str] = set()
        # Loop phi -> the name at ⊤ its last derivation attempt waited for.
        self._waiting_on: Dict[str, str] = {}
        self.phi_eval_count: Dict[str, int] = {}
        self.phi_change_count: Dict[str, int] = {}
        self.widened: Set[str] = set()
        # Set when the safety valve cut the fixed point short.
        self.aborted = False
        # Cyclic probability per loop header, valid until a branch
        # probability inside that loop changes.
        self._cyclic: Dict[str, float] = {}
        # Per header: the loop body in reverse postorder (header first)
        # and the latches in the same order -- never set order, which
        # varies with the hash seed.
        self._loop_order: Dict[str, List[str]] = {}
        self._latches: Dict[str, List[str]] = {}
        if self.loops.loops:
            rpo = {label: i for i, label in enumerate(self.cfg.reverse_postorder())}

            def position(label: str) -> int:
                return rpo.get(label, len(rpo))

            for header, loop in self.loops.loops.items():
                self._loop_order[header] = sorted(loop.blocks, key=position)
                self._latches[header] = sorted(loop.latches, key=position)

        # Instructions hash by identity, so these key on the objects.
        # Per-phi merge skip: phi -> (contributions, result, record);
        # valid only for merges that did not take the assertion-parent
        # path (that one reads the parent's live value).
        self._phi_memo: Dict[Phi, Tuple] = {}
        # Per-branch skip: branch -> (cond set, probability, tally).
        self._branch_memo: Dict[Branch, Tuple] = {}
        # Each binop's, π's and compare's set plan (rangeset.PlanRecord).
        self._plans: Dict[Instruction, PlanRecord] = defaultdict(PlanRecord)
        # Structural caches (CFG shape never changes during a run):
        # back-edge predecessors per phi, the phi prefix per block and
        # each block's terminator (building the CFG above checked that
        # every block ends in one).
        self._phi_back_preds: Dict[Phi, Set[str]] = {}
        self._block_phis: Dict[str, List[Phi]] = {}
        self._terminators: Dict[str, Instruction] = {
            label: block.instructions[-1] for label, block in function.blocks.items()
        }

        self.flow_list: deque = deque()
        self.flow_pending: Set[Edge] = set()
        self.ssa_list: deque = deque()
        self.ssa_pending: Set[Instruction] = set()
        self._pi_parent: Dict[str, str] = {}
        for block in function.blocks.values():
            for instr in block.instructions:
                if isinstance(instr, Pi) and isinstance(instr.src, Temp):
                    self._pi_parent[instr.dest.name] = instr.src.name

        # Flow-insensitive array-content tracking (config.track_arrays):
        # one range set per array, only ever widening; loads read it.
        self.array_sets: Dict[str, RangeSet] = {}
        self._array_loads: Dict[str, List[Instruction]] = {}
        self._array_update_count: Dict[str, int] = {}
        if self.config.track_arrays:
            for name in function.arrays:
                # Arrays start zero-filled in the toy language.
                self.array_sets[name] = RangeSet.constant(0)
                self._array_loads[name] = []
            for block in function.blocks.values():
                for instr in block.instructions:
                    if isinstance(instr, Load) and instr.array in self._array_loads:
                        self._array_loads[instr.array].append(instr)

    # -- public API ------------------------------------------------------------

    def run(self) -> FunctionPrediction:
        """Propagate to a fixed point and collect the results."""
        if self._trace is not None:
            with self._trace.span("propagate"):
                with counters_mod.use(self.counters):
                    self._seed()
                    self._drain()
        else:
            with counters_mod.use(self.counters):
                self._seed()
                self._drain()
        if self._sanitize is not None:
            self._sanitize.check_final(self)
        return self._collect()

    # -- worklist machinery --------------------------------------------------------

    def _seed(self) -> None:
        entry = self.function.entry_label
        assert entry is not None
        self.edge_freq[(ENTRY_EDGE_SOURCE, entry)] = 1.0
        self._push_flow((ENTRY_EDGE_SOURCE, entry))

    def _drain(self) -> None:
        # Safety valve: the fixed point is expected in O(instructions)
        # worklist items; runaway churn (a lattice bug) aborts cleanly
        # instead of hanging, leaving the best-so-far results in place.
        budget = 2000 * max(64, self.function.instruction_count())
        processed = 0
        while self.flow_list or self.ssa_list:
            processed += 1
            if processed > budget:
                self.aborted = True
                self.flow_list.clear()
                self.flow_pending.clear()
                self.ssa_list.clear()
                self.ssa_pending.clear()
                break
            if self.config.prefer_flow_list:
                use_flow = bool(self.flow_list)
            else:
                use_flow = bool(self.flow_list) and not self.ssa_list
            if use_flow:
                edge = self.flow_list.popleft()
                self.flow_pending.discard(edge)
                if self._sanitize is not None:
                    self._sanitize.note_item(("flow", edge))
                if self._trace is not None:
                    self._trace.emit(
                        trace_events.WorklistPop(
                            self.function.name, "flow", f"{edge[0]}->{edge[1]}"
                        )
                    )
                self._process_flow_edge(edge)
            else:
                instr = self.ssa_list.popleft()
                self.ssa_pending.discard(instr)
                if self._sanitize is not None:
                    self._sanitize.note_item(("ssa", id(instr)))
                if self._trace is not None:
                    self._trace.emit(
                        trace_events.WorklistPop(
                            self.function.name, "ssa", _describe_ssa_item(instr)
                        )
                    )
                self.counters.ssa_edges_processed += 1
                block = instr.block
                # The paper's "any in-edge executable" guard.
                if block is not None and block.label in self.visited:
                    self._evaluate(instr)

    def _push_flow(self, edge: Edge) -> None:
        if edge not in self.flow_pending:
            self.counters.flow_pushes += 1
            self.flow_pending.add(edge)
            self.flow_list.append(edge)
            if self._trace is not None:
                self._trace.emit(
                    trace_events.WorklistPush(
                        self.function.name, "flow", f"{edge[0]}->{edge[1]}"
                    )
                )
        else:
            self.counters.flow_dedup_hits += 1

    def _push_uses(self, name: str) -> None:
        for use in self.edges.uses_of.get(name, ()):
            if use not in self.ssa_pending:
                self.counters.ssa_pushes += 1
                self.ssa_pending.add(use)
                self.ssa_list.append(use)
                if self._trace is not None:
                    self._trace.emit(
                        trace_events.WorklistPush(
                            self.function.name, "ssa", _describe_ssa_item(use)
                        )
                    )
            else:
                self.counters.ssa_dedup_hits += 1

    # -- frequencies ----------------------------------------------------------------

    def node_frequency(self, label: str) -> float:
        loop = self.loops.loops.get(label)
        total = 0.0
        if label == self.function.entry_label:
            total += self.edge_freq.get((ENTRY_EDGE_SOURCE, label), 0.0)
        for pred in self.cfg.predecessors[label]:
            if loop is None or pred not in loop.latches:
                total += self.edge_freq.get((pred, label), 0.0)
        if loop is not None:
            total = self._loop_frequency(total, self._cyclic_probability(label))
        return min(total, self.config.frequency_cap)

    def _loop_frequency(self, inflow: float, cyclic: float) -> float:
        """Header frequency from its non-back inflow: ``inflow / (1 - cyclic)``."""
        if inflow <= 0.0:
            return 0.0
        if cyclic >= 1.0:
            return self.config.frequency_cap
        return min(inflow / (1.0 - cyclic), self.config.frequency_cap)

    def _cyclic_probability(self, header: str) -> float:
        """P(control returns to ``header`` | it reached ``header``).

        One acyclic pass over the loop body in reverse postorder with the
        current branch probabilities (a branch still at ⊤ sends nothing
        either way); inner loops are collapsed by the same closed form.
        """
        cached = self._cyclic.get(header)
        if cached is not None:
            return cached
        local: Dict[str, float] = {}
        for label in self._loop_order[header]:
            if label == header:
                local[label] = 1.0
                continue
            inner = self.loops.loops.get(label)
            inflow = 0.0
            for pred in self.cfg.predecessors[label]:
                if pred in local and (inner is None or pred not in inner.latches):
                    inflow += local[pred] * self._edge_probability(pred, label)
            if inner is not None:
                inflow = self._loop_frequency(inflow, self._cyclic_probability(label))
            local[label] = inflow
        cyclic = sum(
            local.get(latch, 0.0) * self._edge_probability(latch, header)
            for latch in self._latches[header]
        )
        self._cyclic[header] = cyclic
        return cyclic

    def _edge_probability(self, src: str, dst: str) -> float:
        """P(src -> dst | src reached) under the current branch probabilities."""
        term = self._terminators[src]
        if term.__class__ is Jump:
            return 1.0
        probability = self.branch_prob.get(src)
        if probability is None:
            return 0.0
        return probability if dst == term.true_target else 1.0 - probability

    def _set_edge_freq(self, edge: Edge, freq: float) -> None:
        old = self.edge_freq.get(edge, 0.0)
        if abs(freq - old) <= self.config.tolerance * max(1.0, old):
            return
        self.edge_freq[edge] = freq
        self._push_flow(edge)

    # -- flow processing ----------------------------------------------------------------

    def _process_flow_edge(self, edge: Edge) -> None:
        self.counters.flow_edges_processed += 1
        target = edge[1]
        if target not in self.visited:
            self.visited.add(target)
            for instr in self.function.blocks[target].instructions:
                self._evaluate(instr)
            return
        phis = self._block_phis.get(target)
        if phis is None:
            phis = self._block_phis[target] = self.function.blocks[target].phis()
        for phi in phis:
            self._evaluate(phi)
        self._evaluate(self._terminators[target])

    # -- evaluation ----------------------------------------------------------------

    def _evaluate(self, instr: Instruction) -> None:
        try:
            handler, assigns = _DISPATCH[instr.__class__]
        except KeyError:
            raise TypeError(f"no transfer function for {instr!r}") from None
        if not assigns:
            handler(self, instr)
            return
        dest = instr.dest
        if dest is None:
            return  # a call whose result is unused
        name = dest.name
        if name in self.derived:
            return
        self.counters.expr_evaluations += 1
        self._update(name, handler(self, instr))

    def _update(self, name: str, new_value: RangeSet) -> None:
        old_value = self.values.get(name, TOP)
        if new_value is old_value or new_value.approx_equal(
            old_value, self.config.tolerance
        ):
            return
        if self._sanitize is not None:
            self._sanitize.check_transition(name, old_value, new_value)
        if self._trace is not None:
            self._trace.emit(
                trace_events.LatticeTransition(
                    self.function.name, name, str(old_value), str(new_value)
                )
            )
        self.values[name] = new_value
        self._push_uses(name)

    def value_of(self, operand: Value) -> RangeSet:
        kind = operand.__class__
        if kind is Temp:
            value = self.values.get(operand.name, TOP)
            return self._resolve_symbols(value) if value.symbols() else value
        if kind is Constant:
            return constant_set(operand.value)
        if kind is Undef:
            return BOTTOM
        raise TypeError(f"unknown operand {operand!r}")

    def _resolve_symbols(self, rangeset: RangeSet) -> RangeSet:
        """Substitute symbols whose own range is a known single constant.

        A derived range like ``[0:k.1]`` becomes ``[0:100]`` once ``k.1``
        is known to be 100 -- derived (final) ranges are written before
        their symbols settle, so resolution happens at use time.
        """
        if not rangeset.is_set or not rangeset.symbols():
            return rangeset
        resolved: List[StridedRange] = []
        changed = False
        for r in rangeset.ranges:
            lo = self._resolve_bound(r.lo)
            hi = self._resolve_bound(r.hi)
            if lo is r.lo and hi is r.hi:
                resolved.append(r)
                continue
            order = lo.compare(hi)
            if order is not None and order > 0:
                return rangeset  # stale symbol value: keep the symbolic form
            resolved.append(StridedRange(r.probability, lo, hi, r.stride))
            changed = True
        if not changed:
            return rangeset
        return RangeSet.from_ranges(resolved, max_ranges=self.config.max_ranges)

    def _resolve_bound(self, bound: Bound, depth: int = 4) -> Bound:
        current = bound
        for _ in range(depth):
            if current.symbol is None:
                return current
            target = self.values.get(current.symbol)
            if target is None or not target.is_set or len(target.ranges) != 1:
                return current
            only = target.ranges[0]
            if not only.is_single():
                return current
            base = only.lo
            if base.symbol == current.symbol:
                return current  # self-referential: stop
            if base.is_numeric() and base.is_finite():
                current = Bound(base.offset + current.offset)
            elif base.symbol is not None:
                current = Bound(base.offset + current.offset, base.symbol)
            else:
                return current
        return current

    def _constant_of(self, operand: Value) -> Optional[int]:
        if operand.__class__ is Constant:
            return operand.value
        if operand.__class__ is Temp:
            return self.values.get(operand.name, TOP).constant_value()
        return None

    # -- transfer functions ----------------------------------------------------------------

    # Each returns the new value of the instruction's ``dest``
    # (dispatched by :data:`_DISPATCH`).

    def _transfer_copy(self, instr: Copy) -> RangeSet:
        return self.value_of(instr.src)

    def _transfer_binop(self, instr: BinOp) -> RangeSet:
        return evaluate_binop(
            instr.op,
            self.value_of(instr.lhs),
            self.value_of(instr.rhs),
            self.config.max_ranges,
            self._plans[instr],
        )

    def _transfer_unop(self, instr: UnOp) -> RangeSet:
        return evaluate_unop(instr.op, self.value_of(instr.operand), self.config.max_ranges)

    def _transfer_load(self, instr: Load) -> RangeSet:
        if self.config.track_arrays and instr.array in self.array_sets:
            return self.array_sets[instr.array]
        return BOTTOM  # the paper: loads are ⊥ without alias analysis

    def _transfer_input(self, instr: Input) -> RangeSet:
        return BOTTOM

    def _transfer_call(self, instr: Call) -> RangeSet:
        if self.call_effect is not None:
            return self.call_effect(instr)
        return BOTTOM

    def _transfer_cmp(self, instr: Cmp) -> RangeSet:
        lhs = self.value_of(instr.lhs)
        rhs = self.value_of(instr.rhs)
        if lhs.is_top or rhs.is_top:
            return TOP
        if lhs.is_bottom or rhs.is_bottom:
            return BOTTOM
        lhs_name = instr.lhs.name if instr.lhs.__class__ is Temp else None
        rhs_name = instr.rhs.name if instr.rhs.__class__ is Temp else None
        if not self.config.symbolic:
            lhs_name = rhs_name = None
        outcome = compare_sets(
            instr.op,
            lhs,
            rhs,
            a_name=lhs_name,
            b_name=rhs_name,
            exact_limit=self.config.exact_count_limit,
            symbol_range=self._symbol_range if self.config.symbolic else None,
            record=self._plans[instr],
        )
        if outcome is None or outcome.unknown_mass > self.config.max_unknown_mass:
            return BOTTOM
        return boolean_set(outcome.estimate())

    def _transfer_pi(self, instr: Pi) -> RangeSet:
        src = self.value_of(instr.src)
        bound = self._refinement_bound(instr.bound)
        if bound is None:
            return src
        refined = refine_set(src, instr.op, bound, self.config.max_ranges, self._plans[instr])
        if self._sanitize is not None:
            self._sanitize.check_pi(instr, src, refined)
        if self._trace is not None:
            self._trace.emit(
                trace_events.PiRefinement(
                    self.function.name,
                    instr.dest.name,
                    instr.src.name if isinstance(instr.src, Temp) else str(instr.src),
                    instr.op,
                    str(bound),
                    str(src),
                    str(refined),
                )
            )
        return refined

    def _symbol_range(self, name: str, depth: int = 3) -> Optional[RangeSet]:
        """Numeric distribution of a symbol (for comparison integration).

        Sees through chains like ``t = width - 1``: a single symbolic
        value ``[s+c]`` is replaced by ``s``'s numeric distribution
        shifted by ``c``.
        """
        stored = self.values.get(name)
        if stored is None:
            return None
        resolved = self._resolve_symbols(stored)
        if (
            depth > 0
            and resolved.is_set
            and len(resolved.ranges) == 1
            and resolved.ranges[0].is_single()
            and resolved.ranges[0].lo.symbol is not None
        ):
            pivot = resolved.ranges[0].lo
            base = self._symbol_range(pivot.symbol, depth - 1)
            if base is not None and base.is_set and base.is_numeric():
                shifted = [
                    StridedRange(
                        r.probability,
                        r.lo.add_const(pivot.offset),
                        r.hi.add_const(pivot.offset),
                        r.stride,
                    )
                    for r in base.ranges
                ]
                return RangeSet.from_ranges(shifted, max_ranges=self.config.max_ranges)
        return resolved

    def _refinement_bound(self, operand: Value) -> Optional[Bound]:
        constant = self._constant_of(operand)
        if constant is not None:
            return Bound.number(constant)
        if isinstance(operand, Temp) and self.config.symbolic:
            return Bound.symbolic(operand.name)
        return None

    # -- array content tracking (optional extension) ----------------------------------------------------

    def _evaluate_store(self, instr: Store) -> None:
        """Widen the array's content set with the stored value's range.

        Flow-insensitive and monotone: the set only grows, a ⊥ store
        makes it ⊥ for good, and a per-array widening counter bounds the
        number of growth steps -- so loads re-trigger finitely often.
        Without ``config.track_arrays`` no array has a set, and a store
        does nothing.
        """
        array = instr.array
        current = self.array_sets.get(array)
        if current is None or current.is_bottom:
            return
        stored = self.value_of(instr.value)
        if stored.is_top:
            return  # not known yet; the store re-evaluates later
        if stored.is_bottom:
            merged: RangeSet = BOTTOM
        else:
            merged = merge_weighted(
                [(1.0, current), (1.0, stored)], max_ranges=self.config.max_ranges
            )
            if not _hull_grew(current, merged):
                # Same support: keep the existing (stable) weights.
                return
            updates = self._array_update_count.get(array, 0) + 1
            self._array_update_count[array] = updates
            if updates > self.config.widen_after:
                merged = _widen(current, merged)
        if merged.approx_equal(current, self.config.tolerance):
            return
        self.array_sets[array] = merged
        for load in self._array_loads.get(array, ()):
            if load not in self.ssa_pending:
                self.counters.ssa_pushes += 1
                self.ssa_pending.add(load)
                self.ssa_list.append(load)
                if self._trace is not None:
                    self._trace.emit(
                        trace_events.WorklistPush(
                            self.function.name, "ssa", _describe_ssa_item(load)
                        )
                    )
            else:
                self.counters.ssa_dedup_hits += 1

    # -- phi evaluation (steps 4 and 5) ----------------------------------------------------------------

    def _evaluate_phi(self, phi: Phi) -> None:
        name = phi.dest.name
        if name in self.derived:
            return
        block = phi.block
        assert block is not None
        label = block.label
        back_preds = self._phi_back_preds.get(phi)
        if back_preds is None:
            back_preds = {
                pred
                for pred, _ in phi.incomings
                if self.cfg.is_back_edge(pred, label)
            }
            self._phi_back_preds[phi] = back_preds
        if (
            back_preds
            and self.config.derive_loops
            and name not in self.underivable
            and not self._still_waiting(name)
        ):
            self.counters.derivations_attempted += 1
            if self._trace is not None:
                with self._trace.span("derive"):
                    outcome = self._derive(phi, back_preds)
                self._trace.emit(
                    trace_events.DerivationAttempt(
                        self.function.name,
                        name,
                        outcome.status,
                        outcome.detail,
                        str(outcome.rangeset) if outcome.rangeset is not None else None,
                    )
                )
            else:
                outcome = self._derive(phi, back_preds)
            if outcome.derived:
                self.counters.derivations_succeeded += 1
                self.derived.add(name)
                if name not in self.values:
                    self.settled.add(name)
                assert outcome.rangeset is not None
                self._update(name, outcome.rangeset)
                return
            if outcome.status == "failed":
                self.underivable.add(name)
            elif outcome.waiting_on is not None:
                self._waiting_on[name] = outcome.waiting_on
            # "not_ready": fall through to a merge; derivation retried
            # later, once the name a step waits for has left ⊤.

        self._evaluate_phi_merge(phi, name, label)

    def _still_waiting(self, name: str) -> bool:
        waiting = self._waiting_on.get(name)
        return waiting is not None and self.values.get(waiting, TOP).is_top

    def _derive(self, phi: Phi, back_preds: Set[str]):
        return derive_loop_phi(
            phi,
            back_preds,
            self.edges,
            value_of=self._derivation_value,
            constant_of=self._constant_of,
            symbolic=self.config.symbolic,
            max_ranges=self.config.max_ranges,
            settled=self.settled,
        )

    def _derivation_value(self, name: str) -> RangeSet:
        """``name``'s stored value, or, while it is ⊤, the value it will
        get when that is already fixed: a call whose value is its callee's
        summary, seen through copies.  So ``acc = acc + f(k)`` derives on
        the header's first visit, before the loop body is."""
        value = self.values.get(name)
        while value is None:
            definition = self.edges.defining_instruction(name)
            kind = definition.__class__
            if kind is Call:
                return self._transfer_call(definition)
            if kind is not Copy:
                return TOP
            if definition.src.__class__ is not Temp:
                return self.value_of(definition.src)
            name = definition.src.name
            value = self.values.get(name)
        return value

    def _evaluate_phi_merge(self, phi: Phi, name: str, label: str) -> None:
        self.counters.phi_evaluations += 1
        self.counters.expr_evaluations += 1
        merged = self._merge_phi(phi, label)
        old = self.values.get(name, TOP)
        if (
            merged is old
            and self._trace is None
            and name not in self.widened
            and (not old.is_set or old.hull() is not None)
        ):
            # No change to count, widen, record or store.  A set without
            # a hull still goes on: ``_hull_grew`` counts it as growth.
            return
        if not merged.approx_equal(old, self.config.tolerance):
            changes = self.phi_change_count.get(name, 0) + 1
            self.phi_change_count[name] = changes
            if changes > self.config.freeze_after:
                # Oscillating merge (e.g. an alternating recurrence whose
                # probabilities never settle): freeze at the current value
                # to guarantee termination.
                if self._trace is not None:
                    self._trace.emit(
                        trace_events.PhiMerge(
                            self.function.name,
                            name,
                            label,
                            str(old),
                            widened=name in self.widened,
                            frozen=True,
                        )
                    )
                return
        if name in self.widened:
            # Once widened, stay widened: the hull may only grow further.
            merged = _widen(old, merged)
        elif _hull_grew(old, merged):
            # Only extent growth counts toward widening: probability
            # re-weighting while frequencies converge is not divergence.
            grows = self.phi_eval_count.get(name, 0) + 1
            self.phi_eval_count[name] = grows
            if grows > self.config.widen_after and merged.is_set:
                self.widened.add(name)
                merged = _widen(old, merged)
        if self._trace is not None:
            self._trace.emit(
                trace_events.PhiMerge(
                    self.function.name,
                    name,
                    label,
                    str(merged),
                    widened=name in self.widened,
                    frozen=False,
                )
            )
        self._update(name, merged)

    def _merge_phi(self, phi: Phi, label: str) -> RangeSet:
        contributions: List[Tuple[float, RangeSet]] = []
        positive: List[Tuple[str, Value]] = []
        for pred, incoming in phi.incomings:
            weight = self.edge_freq.get((pred, label), 0.0)
            if weight > 0.0:
                positive.append((pred, incoming))
            contributions.append((weight, self.value_of(incoming)))
        # Unchanged in-edge weights and operand identities: reuse the
        # previous merge without re-checking the assertion-parent shape
        # or touching the global memo.  (Tuple equality is cheap here --
        # interned sets compare by identity first.)
        cached = self._phi_memo.get(phi)
        if cached is not None and cached[0] == contributions:
            return cached[1]
        parent = self._common_assertion_parent(positive)
        if parent is not None:
            return self.values.get(parent, TOP)
        record = PlanRecord() if cached is None else cached[2]
        merged = merge_weighted(contributions, self.config.max_ranges, record)
        self._phi_memo[phi] = (contributions, merged, record)
        return merged

    def _common_assertion_parent(
        self, incomings: List[Tuple[str, Value]]
    ) -> Optional[str]:
        """The paper's footnote 4: merging assertion-derived variables of a
        common parent (or with the parent itself) yields the parent's range."""
        if len(incomings) < 2:
            return None
        parent: Optional[str] = None
        any_derived = False
        for _, incoming in incomings:
            if incoming.__class__ is not Temp:
                return None
            root = self._pi_parent.get(incoming.name)
            if root is None:
                root = incoming.name
            else:
                any_derived = True
            if parent is None:
                parent = root
            elif parent != root:
                return None
        return parent if any_derived else None

    # -- terminators (step 7) ----------------------------------------------------------------

    def _evaluate_jump(self, instr: Jump) -> None:
        label = instr.block.label
        self._set_edge_freq((label, instr.target), self.node_frequency(label))

    def _evaluate_return(self, instr: Return) -> None:
        """Nothing to propagate: :meth:`_collect` merges the returned values."""

    def _evaluate_branch(self, instr: Branch) -> None:
        label = instr.block.label
        probability = self._branch_probability(instr, label)
        if probability is None:
            return  # still ⊤: leave out-edges unexecutable for now
        old = self.branch_prob.get(label)
        if old is None or abs(probability - old) > self.config.tolerance:
            self.branch_prob[label] = probability
            if self._trace is not None:
                self._emit_branch_resolution(instr, label, probability)
            # Every enclosing loop's cyclic probability moved: re-solve
            # it, and revisit its header once to spread the new frequency.
            for loop in self.loops.loops_containing(label):
                self._cyclic.pop(loop.header, None)
                for latch in self._latches[loop.header]:
                    self._push_flow((latch, loop.header))
        else:
            probability = old
        freq = self.node_frequency(label)
        self._set_edge_freq((label, instr.true_target), freq * probability)
        self._set_edge_freq((label, instr.false_target), freq * (1.0 - probability))

    def _emit_branch_resolution(
        self, instr: Branch, label: str, probability: float
    ) -> None:
        """Record why this branch got its probability (tracing only)."""
        cond = instr.cond
        cond_name = cond.name if isinstance(cond, Temp) else None
        cmp_op: Optional[str] = None
        operands: Tuple[Tuple[str, str], ...] = ()
        if cond_name is not None:
            definition = self.edges.defining_instruction(cond_name)
            if isinstance(definition, Cmp):
                cmp_op = definition.op
                operands = tuple(
                    (
                        operand.name if isinstance(operand, Temp) else str(operand),
                        str(self.value_of(operand)),
                    )
                    for operand in (definition.lhs, definition.rhs)
                )
        self._trace.emit(
            trace_events.BranchResolution(
                self.function.name,
                label,
                "heuristic" if label in self.used_heuristic else "ranges",
                probability,
                cond_name,
                str(self.value_of(cond)),
                cmp_op,
                operands,
            )
        )

    def _branch_probability(self, instr: Branch, label: str) -> Optional[float]:
        cond = self.value_of(instr.cond)
        if cond.is_top:
            return None
        # Identity-unchanged condition: the probability (and the
        # heuristic bookkeeping, which only mutates on a *changed*
        # condition) is unchanged too; replay the comparison's
        # sub-operation tally to keep work counts byte-identical.
        cached = self._branch_memo.get(instr)
        if cached is not None and cached[0] is cond:
            self.counters.sub_operations += cached[2]
            return cached[1]
        before = self.counters.sub_operations
        probability = self._branch_probability_of(instr, label, cond)
        self._branch_memo[instr] = (
            cond,
            probability,
            self.counters.sub_operations - before,
        )
        return probability

    def _branch_probability_of(
        self, instr: Branch, label: str, cond: RangeSet
    ) -> Optional[float]:
        if cond.is_set:
            outcome = compare_sets(
                "ne",
                cond,
                constant_set(0),
                exact_limit=self.config.exact_count_limit,
            )
            if outcome is not None and outcome.unknown_mass <= self.config.max_unknown_mass:
                self.used_heuristic.discard(label)
                return outcome.estimate()
        # ⊥ (or undecidable): the paper's heuristic fallback.
        if label not in self.used_heuristic:
            self.counters.heuristic_fallbacks += 1
            self.used_heuristic.add(label)
        if self.heuristic is not None:
            return self.heuristic(self.function, label, self.cfg, self.loops)
        return self.config.default_branch_probability

    # -- results ----------------------------------------------------------------

    def _collect(self) -> FunctionPrediction:
        block_frequency = {
            label: self.node_frequency(label) for label in self.function.blocks
        }
        return_contributions: List[Tuple[float, RangeSet]] = []
        for label, term in self._terminators.items():
            if term.__class__ is Return and label in self.visited:
                weight = block_frequency.get(label, 0.0)
                if weight > 0.0:
                    return_contributions.append((weight, self.value_of(term.value)))
        return_set = merge_weighted(
            return_contributions, max_ranges=self.config.max_ranges
        )
        edge_frequency = {
            edge: freq
            for edge, freq in self.edge_freq.items()
            if edge[0] != ENTRY_EDGE_SOURCE
        }
        # Materialise never-taken edges at frequency zero so consumers
        # (layout, unreachable-code detection) see the full edge set.
        for edge in self.cfg.edges():
            edge_frequency.setdefault(edge, 0.0)
        return FunctionPrediction(
            function=self.function,
            branch_probability=dict(self.branch_prob),
            edge_frequency=edge_frequency,
            block_frequency=block_frequency,
            values=dict(self.values),
            used_heuristic=set(self.used_heuristic),
            counters=self.counters,
            return_set=return_set,
            aborted=self.aborted,
            derived=set(self.derived),
            widened=set(self.widened),
        )


#: Instruction class -> ``(handler, assigns)``, called as
#: ``handler(engine, instr)``.  An assigning handler is the transfer
#: function: it returns the new value of the instruction's ``dest``.
#: The others (φ, terminators, stores) update the engine themselves.
_DISPATCH: Dict[type, Tuple[Callable, bool]] = {
    Phi: (PropagationEngine._evaluate_phi, False),
    Jump: (PropagationEngine._evaluate_jump, False),
    Branch: (PropagationEngine._evaluate_branch, False),
    Return: (PropagationEngine._evaluate_return, False),
    Store: (PropagationEngine._evaluate_store, False),
    Copy: (PropagationEngine._transfer_copy, True),
    BinOp: (PropagationEngine._transfer_binop, True),
    UnOp: (PropagationEngine._transfer_unop, True),
    Cmp: (PropagationEngine._transfer_cmp, True),
    Pi: (PropagationEngine._transfer_pi, True),
    Load: (PropagationEngine._transfer_load, True),
    Input: (PropagationEngine._transfer_input, True),
    Call: (PropagationEngine._transfer_call, True),
}


def _describe_ssa_item(instr: Instruction) -> str:
    """Stable label for a worklist item (trace output only)."""
    result = instr.result
    if result is not None:
        return result.name
    block = instr.block
    return f"{type(instr).__name__.lower()}@{block.label if block else '?'}"


def _hull_grew(old: RangeSet, new: RangeSet) -> bool:
    """True when ``new`` covers values outside ``old``'s hull."""
    if not new.is_set:
        return False
    if not old.is_set:
        return old.is_top  # ⊤ -> anything is growth; ⊥ cannot grow
    old_hull = old.hull()
    new_hull = new.hull()
    if old_hull is None or new_hull is None:
        return True
    lo_cmp = new_hull.lo.compare(old_hull.lo)
    if lo_cmp is None or lo_cmp < 0:
        return True
    hi_cmp = new_hull.hi.compare(old_hull.hi)
    return hi_cmp is None or hi_cmp > 0


def _widen(old: RangeSet, new: RangeSet) -> RangeSet:
    """Stationary widening for churning phis.

    Produces a single hull range that only ever *grows* relative to the
    previous value (sides that grew jump straight to infinity).  Once a
    new evaluation stays inside the widened hull the result equals the
    old value exactly, so the fixed point is reached.
    """
    if not (old.is_set and new.is_set):
        return new
    old_hull = old.hull()
    new_hull = new.hull()
    if old_hull is None or new_hull is None:
        return BOTTOM
    lo = old_hull.lo
    hi = old_hull.hi
    lo_cmp = new_hull.lo.compare(lo)
    if lo_cmp is None or lo_cmp < 0:
        lo = Bound.number(NEG_INF)
    hi_cmp = new_hull.hi.compare(hi)
    if hi_cmp is None or hi_cmp > 0:
        hi = Bound.number(POS_INF)
    stride = math.gcd(old_hull.stride, new_hull.stride)
    return RangeSet.from_ranges([StridedRange(1.0, lo, hi, stride or 1)])


def analyse_function(
    function: Function,
    ssa_info: SSAInfo,
    config: Optional[VRPConfig] = None,
    heuristic: Optional[HeuristicFn] = None,
    param_ranges: Optional[Dict[str, RangeSet]] = None,
    call_effect: Optional[Callable[[Call], RangeSet]] = None,
) -> FunctionPrediction:
    """Run value range propagation over one prepared (SSA-form) function."""
    engine = PropagationEngine(
        function,
        ssa_info,
        config=config,
        heuristic=heuristic,
        param_ranges=param_ranges,
        call_effect=call_effect,
    )
    return engine.run()

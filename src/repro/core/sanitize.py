"""Debug-mode lattice sanitizer for the propagation engine.

Enabled with :attr:`repro.core.config.VRPConfig.sanitize`, the sanitizer
validates invariants the engine relies on but never re-checks on the hot
path:

* **Lattice descent** -- a variable's value only moves downward through
  the levels ⊤ → range set: once a name holds a range set it never
  loses that precision back to ⊤.  ⊥ ("nothing known yet": an
  unvisited phi, an untracked load, an undefined operation) sits
  outside the descent chain and may be replaced by anything as paths
  become executable.  (Within the range-set level the support may
  shrink or shift as probability mass moves, so only the level itself
  is a hard invariant.)
* **π narrowing** -- an assertion node only narrows its source: the
  refined set's hull must stay inside the source hull.
* **Worklist stabilisation** -- no single worklist item is reprocessed
  unboundedly; churn past the widening/freezing budget means a
  fixed-point bug rather than slow convergence.
* **Frequency conservation** -- at the fixed point each branch's
  out-edge frequencies sum to its block frequency and every branch
  probability lies in [0, 1].

A violation raises :class:`SanitizerError` immediately, pointing at the
first corrupt transition instead of letting it propagate into the
prediction.  The hooks follow the tracing pattern: with ``sanitize``
off, the engine holds ``self._sanitize = None`` and every site costs a
single ``is not None`` test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable

from repro.core.rangeset import RangeSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.config import VRPConfig
    from repro.ir.instructions import Pi


class SanitizerError(Exception):
    """An engine invariant was violated during propagation."""

    def __init__(self, function_name: str, invariant: str, detail: str):
        self.function_name = function_name
        self.invariant = invariant
        self.detail = detail
        super().__init__(
            f"sanitizer: {invariant} violated in function "
            f"{function_name!r}: {detail}"
        )


def _lattice_level(value: RangeSet) -> int:
    """⊤ = 2, range set = 1, ⊥ = 0; transitions must not increase this."""
    if value.is_top:
        return 2
    if value.is_set:
        return 1
    return 0


class LatticeSanitizer:
    """Invariant checker attached to one :class:`PropagationEngine` run."""

    def __init__(self, function_name: str, config: "VRPConfig"):
        self.function_name = function_name
        self.config = config
        # Worklist budget per item: generous enough for legitimate
        # convergence (widening plus freezing plus slack) while still
        # catching unbounded churn long before the engine's global
        # safety valve fires.
        self.item_budget = 64 + 8 * (config.widen_after + config.freeze_after)
        self._item_counts: Dict[Hashable, int] = {}
        self.checks_run = 0

    # -- per-event hooks ---------------------------------------------------------

    def check_transition(self, name: str, old: RangeSet, new: RangeSet) -> None:
        """Values only descend the lattice (⊤ → set); ⊥ may become anything."""
        self.checks_run += 1
        if old.is_bottom:
            return  # first information arriving on a newly live path
        if _lattice_level(new) > _lattice_level(old):
            raise SanitizerError(
                self.function_name,
                "lattice-descent",
                f"{name} ascended from {old} to {new}",
            )

    def check_pi(self, pi: "Pi", src: RangeSet, refined: RangeSet) -> None:
        """π assertions only narrow: refined hull ⊆ source hull.

        Skipped when the source is ⊤/⊥ (the paper lets an assertion
        manufacture a range from nothing -- that is its whole point on
        the first visit) or when symbolic bounds make the hulls
        incomparable.
        """
        self.checks_run += 1
        if not (src.is_set and refined.is_set):
            return
        src_hull = src.hull()
        new_hull = refined.hull()
        if src_hull is None or new_hull is None:
            return
        lo_ok = src_hull.lo.less_equal(new_hull.lo)
        hi_ok = new_hull.hi.less_equal(src_hull.hi)
        if lo_ok is False or hi_ok is False:
            raise SanitizerError(
                self.function_name,
                "pi-narrowing",
                f"pi {pi.dest} widened {src} to {refined} "
                f"(assertion {pi.src} {pi.op} {pi.bound})",
            )

    def note_item(self, key: Hashable) -> None:
        """Count worklist pops per item; unbounded churn is a bug."""
        self.checks_run += 1
        count = self._item_counts.get(key, 0) + 1
        self._item_counts[key] = count
        if count > self.item_budget:
            raise SanitizerError(
                self.function_name,
                "worklist-stabilisation",
                f"item {key!r} reprocessed {count} times "
                f"(budget {self.item_budget})",
            )

    # -- fixed-point hook --------------------------------------------------------

    def check_final(self, engine) -> None:
        """Validate the converged state of ``engine`` (a PropagationEngine)."""
        self.checks_run += 1
        if engine.aborted:
            raise SanitizerError(
                self.function_name,
                "fixed-point",
                "safety valve aborted propagation before stabilisation",
            )
        if engine.flow_pending or engine.ssa_pending:
            raise SanitizerError(
                self.function_name,
                "fixed-point",
                f"worklists not drained: {len(engine.flow_pending)} flow, "
                f"{len(engine.ssa_pending)} ssa items pending",
            )
        for label, probability in engine.branch_prob.items():
            if not (-1e-9 <= probability <= 1.0 + 1e-9):
                raise SanitizerError(
                    self.function_name,
                    "probability-bounds",
                    f"branch {label} has probability {probability}",
                )
        cap = engine.config.frequency_cap
        for label, block in engine.function.blocks.items():
            if label not in engine.visited:
                continue
            successors = block.successors()
            if len(successors) < 2:
                continue
            if label not in engine.branch_prob:
                continue  # branch still unresolved (⊤ condition)
            node_freq = engine.node_frequency(label)
            if node_freq <= 0.0 or node_freq >= 0.5 * cap:
                # Zero-frequency blocks have nothing to conserve; near
                # the cap the clamp itself breaks conservation.
                continue
            out_sum = sum(
                engine.edge_freq.get((label, succ), 0.0) for succ in successors
            )
            # _set_edge_freq suppresses sub-tolerance updates, so each of
            # the two out-edges may lag its share by that much.
            slack = 4 * engine.config.tolerance * max(1.0, node_freq)
            if abs(out_sum - node_freq) > slack:
                raise SanitizerError(
                    self.function_name,
                    "frequency-conservation",
                    f"block {label}: out-edge frequencies sum to {out_sum}, "
                    f"block frequency is {node_freq}",
                )

"""Incremental analysis: the summary store as a per-component source.

:meth:`~repro.core.interprocedural.InterproceduralVRP.run` solves each
weakly connected component of the call graph to its own fixed point and
asks an optional store for a component's state first.  This module is
that store's adapter, :class:`ComponentStore`:

1. fingerprint every function (:mod:`repro.incremental.fingerprint`)
   and address each component by the salted hash of its members'
   semantic fingerprints (plus the entry seeding, when the entry
   function is a member);
2. ``load``: a component whose address hits the store *and* whose
   members' exact fingerprints still match is **replayed**: its stored
   :class:`~repro.incremental.serialize.ComponentState` (final
   predictions, jump and return function state, summary taint and its
   share of the statistics) is adopted as is, each prediction bound to
   the current module's function;
3. every other component is **reanalyzed** by the driver, and ``save``
   stores its state for next time.

The driver assembles the module-level products over the union, with
call-site locations of the taint seeds re-derived from the live IR, so
rendered predict / check / ranges output, work counters and statistics
equal a cold run's.

The exact-fingerprint guard exists because rendered output mentions SSA
names and block labels, and because return ranges may carry a callee's
symbolic names into a caller's values: a rename-only edit keeps the
component's address (the semantic fingerprints are rename-stable) but
must still reanalyze it, and doing so refreshes the stored entry under
the same address.
"""

from __future__ import annotations

import copy
import hashlib
import json
from typing import Dict, List, Optional, Tuple

from repro.core.config import VRPConfig
from repro.core.interprocedural import ModulePrediction, analyse_module
from repro.core.propagation import HeuristicFn
from repro.core.rangeset import RangeSet
from repro.incremental import serialize
from repro.incremental.fingerprint import fingerprint_salt, module_fingerprints
from repro.incremental.serialize import PAYLOAD_VERSION, ComponentState
from repro.incremental.store import IncrementalStore
from repro.ir.function import Module
from repro.ir.ssa import SSAInfo


class IncrementalOutcome:
    """What one incremental run replayed, reanalyzed, and why."""

    def __init__(
        self,
        reanalyzed: Tuple[str, ...],
        replayed: Tuple[str, ...],
        components_reanalyzed: int,
        components_replayed: int,
        store_hits: int,
        store_misses: int,
        store_stats: dict,
    ):
        #: Functions whose analysis ran this time, sorted.
        self.reanalyzed = reanalyzed
        #: Functions replayed from the store, sorted.
        self.replayed = replayed
        self.components_reanalyzed = components_reanalyzed
        self.components_replayed = components_replayed
        #: Component-level store lookups for *this run*.
        self.store_hits = store_hits
        self.store_misses = store_misses
        #: Cumulative store counters (post-run snapshot).
        self.store_stats = store_stats

    def as_metrics(self) -> dict:
        """The metrics schema v8 ``incremental`` document."""
        return {
            "reanalyzed": len(self.reanalyzed),
            "replayed": len(self.replayed),
            "components": {
                "reanalyzed": self.components_reanalyzed,
                "replayed": self.components_replayed,
            },
            "store": {
                "hits": self.store_hits,
                "misses": self.store_misses,
                "evictions": int(
                    self.store_stats.get("memory", {}).get("evictions", 0)
                ),
            },
        }

    def __repr__(self) -> str:
        return (
            f"IncrementalOutcome(reanalyzed={len(self.reanalyzed)}, "
            f"replayed={len(self.replayed)})"
        )


def component_key(
    members: Tuple[str, ...],
    semantic_fps: Dict[str, str],
    salt: str,
    entry: str,
    entry_param_ranges: Optional[Dict[str, RangeSet]],
) -> str:
    """The store address of one component's summaries."""
    entry_seed = None
    if entry in members:
        entry_seed = {
            "entry": entry,
            "ranges": [
                [param, serialize.rangeset_to_json(rangeset)]
                for param, rangeset in sorted((entry_param_ranges or {}).items())
            ],
        }
    document = json.dumps(
        {
            "v": PAYLOAD_VERSION,
            "salt": salt,
            "members": [[name, semantic_fps[name]] for name in members],
            "entry": entry_seed,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def analyse_module_incremental(
    module: Module,
    ssa_infos: Dict[str, SSAInfo],
    store: IncrementalStore,
    config: Optional[VRPConfig] = None,
    heuristic: Optional[HeuristicFn] = None,
    entry: str = "main",
    entry_param_ranges: Optional[Dict[str, RangeSet]] = None,
    max_rounds: int = 8,
    analysis_cache=None,
) -> Tuple[ModulePrediction, IncrementalOutcome]:
    """Analyse a prepared module, replaying clean components from ``store``.

    Returns the :class:`ModulePrediction` (byte-identical in rendered
    form to :func:`repro.core.interprocedural.analyse_module`) and the
    :class:`IncrementalOutcome` describing what was reused.
    """
    config = config or VRPConfig()
    source = ComponentStore(store, module, config, entry, entry_param_ranges)
    return analyse_module(
        module,
        ssa_infos,
        config=config,
        heuristic=heuristic,
        entry=entry,
        entry_param_ranges=entry_param_ranges,
        max_rounds=max_rounds,
        analysis_cache=analysis_cache,
        store=source,
    ), source.finish()


class ComponentStore:
    """The summary store as the per-component source of
    :meth:`InterproceduralVRP.run`: ``load`` replays a stored
    :class:`~repro.incremental.serialize.ComponentState` onto the current
    module, ``save`` hands a solved one to the store, and both tally
    what this run replayed and reanalyzed.  Neither touches JSON: that
    is the store's disk format."""

    def __init__(
        self,
        store: IncrementalStore,
        module: Module,
        config: VRPConfig,
        entry: str,
        entry_param_ranges: Optional[Dict[str, RangeSet]],
    ):
        self.store = store
        self.module = module
        self.salt = fingerprint_salt(config)
        fingerprints = module_fingerprints(module, salt=self.salt).items()
        self.semantic_fps = {name: fps["semantic"] for name, fps in fingerprints}
        self.exact_fps = {name: fps["exact"] for name, fps in fingerprints}
        self.entry = entry
        self.entry_param_ranges = entry_param_ranges
        self.replayed: List[str] = []
        self.reanalyzed: List[str] = []
        self.hits = 0
        self.misses = 0

    def _key(self, members: Tuple[str, ...]) -> str:
        return component_key(
            members, self.semantic_fps, self.salt, self.entry, self.entry_param_ranges
        )

    def _exact(self, members: Tuple[str, ...]) -> Dict[str, str]:
        return {name: self.exact_fps[name] for name in members}

    def load(self, members: Tuple[str, ...]) -> Optional[dict]:
        state, _tier = self.store.get(self._key(members))
        # An entry with the same semantics but other names or labels
        # fails the exact guard: rendered output would differ.
        if not isinstance(state, ComponentState) or state.exact != self._exact(members):
            self.misses += 1
            self.reanalyzed.extend(members)
            return None
        self.hits += 1
        self.replayed.extend(members)
        predictions = {}
        for name, stored in state.predictions.items():
            prediction = copy.copy(stored)
            prediction.function = self.module.functions[name]
            predictions[name] = prediction
        return {**state.products, "predictions": predictions}

    def save(self, members: Tuple[str, ...], state: dict) -> None:
        self.store.put(
            self._key(members), ComponentState.solved(self._exact(members), state)
        )

    def finish(self) -> IncrementalOutcome:
        """Record this run's function tallies on the store; its outcome."""
        self.store.note_functions(
            hits=len(self.replayed), misses=len(self.reanalyzed)
        )
        return IncrementalOutcome(
            reanalyzed=tuple(sorted(self.reanalyzed)),
            replayed=tuple(sorted(self.replayed)),
            components_reanalyzed=self.misses,
            components_replayed=self.hits,
            store_hits=self.hits,
            store_misses=self.misses,
            store_stats=self.store.stats(),
        )

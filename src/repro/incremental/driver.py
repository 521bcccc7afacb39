"""The incremental interprocedural driver.

A module's analysis decomposes exactly along the weakly connected
components of its call graph (:mod:`repro.incremental.depgraph`): no
call edge crosses a component boundary, so each component's fixed point
is self-contained and Tarjan's bottom-up order restricted to one
component equals the order a whole-module run would visit it in.  The
driver exploits that:

1. fingerprint every function (:mod:`repro.incremental.fingerprint`)
   and address each component by the salted hash of its members'
   semantic fingerprints (plus the entry seeding, when the entry
   function is a member);
2. components whose address hits the store *and* whose members' exact
   fingerprints still match are **replayed**: final predictions, jump
   and return function state, and summary taint are deserialized
   verbatim;
3. every other component is **reanalyzed**: a sub-module holding just
   its functions runs through the ordinary
   :class:`~repro.core.interprocedural.InterproceduralVRP` fixed point,
   and the result is stored for next time;
4. the module-level products are assembled over the union: summary
   taint and its provenance sources are per-component (taint follows
   SSA edges within a function, and its seeds come from the function's
   own component), so they are replayed too, with call-site locations
   re-derived from the live IR; summaries are rebuilt.  Rendered
   predict / check / ranges output is byte-identical to a cold run.

The exact-fingerprint guard exists because rendered output mentions SSA
names and block labels, and because return ranges may carry a callee's
symbolic names into a caller's values: a rename-only edit keeps the
component's address (the semantic fingerprints are rename-stable) but
must still reanalyze it, and doing so refreshes the stored entry under
the same address.

Work counters and fixed-point statistics are reconstructed from the
store and match a cold run at ``context_depth`` 0; at k >= 1 the
context memo trajectory differs (a cold run re-analyses contexts during
rounds an isolated component never runs), so only the rendered analysis
output -- not the counter telemetry -- is part of the byte-identity
contract there.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Set, Tuple

from repro.core import counters as counters_mod
from repro.core.config import VRPConfig
from repro.core.interprocedural import InterproceduralVRP, ModulePrediction
from repro.core.propagation import FunctionPrediction, HeuristicFn
from repro.core.rangeset import RangeSet
from repro.incremental import serialize
from repro.incremental.depgraph import SummaryDepGraph
from repro.incremental.fingerprint import fingerprint_salt, module_fingerprints
from repro.incremental.serialize import PayloadError
from repro.incremental.store import IncrementalStore
from repro.ir.function import Module
from repro.ir.ssa import SSAInfo

#: Bumped whenever the stored payload layout (or the recipe of a stored
#: value, such as the exact fingerprints) changes.
PAYLOAD_VERSION = 3


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
    # The assembly shell provides the cached callgraph, purity, and the
    # post-convergence product methods; its fixed point never runs.
    shell = InterproceduralVRP(
        module,
        ssa_infos,
        config=config,
        heuristic=heuristic,
        entry=entry,
        entry_param_ranges=entry_param_ranges,
        max_rounds=max_rounds,
        analysis_cache=analysis_cache,
    )
    depgraph = SummaryDepGraph(shell.callgraph)
    salt = fingerprint_salt(config)
    fingerprints = module_fingerprints(module, salt=salt)
    semantic_fps = {name: fps["semantic"] for name, fps in fingerprints.items()}
    exact_fps = {name: fps["exact"] for name, fps in fingerprints.items()}
    # Replayed components repeat a few dozen distinct range sets hundreds
    # of times; decode each distinct one once per run.
    decoded_sets: Dict[bytes, RangeSet] = {}

    predictions: Dict[str, FunctionPrediction] = {}
    param_sets: Dict[str, Dict[str, RangeSet]] = {}
    return_sets: Dict[str, RangeSet] = {}
    taint: Dict[str, Dict[str, Tuple[str, ...]]] = {}
    sources: Dict[str, Dict[str, dict]] = {}
    reanalyzed: Set[str] = set()
    replayed: Set[str] = set()
    components_reanalyzed = 0
    components_replayed = 0
    store_hits = 0
    store_misses = 0
    rounds_used = 0
    round_cap_components = 0
    contexts_analyzed = 0
    context_counters = counters_mod.Counters()
    summary_cache_stats = {"hits": 0, "misses": 0, "evictions": 0}

    for members in depgraph.components:
        key = component_key(
            members, semantic_fps, salt, entry, entry_param_ranges
        )
        payload, _tier = store.get(key)
        decoded = None
        if payload is not None:
            decoded = _decode_component(
                module, members, exact_fps, payload, decoded_sets
            )
        if decoded is None:
            store_misses += 1
            decoded = _analyse_component(
                module,
                ssa_infos,
                members,
                config,
                heuristic,
                entry,
                entry_param_ranges,
                max_rounds,
            )
            store.put(key, _encode_component(members, exact_fps, decoded))
            reanalyzed.update(members)
            components_reanalyzed += 1
        else:
            store_hits += 1
            replayed.update(members)
            components_replayed += 1
        predictions.update(decoded["predictions"])
        param_sets.update(decoded["param_sets"])
        return_sets.update(decoded["return_sets"])
        taint.update(decoded["taint"])
        sources.update(decoded["sources"])
        rounds_used = max(rounds_used, decoded["rounds"])
        if decoded["round_cap"]:
            round_cap_components += 1
        contexts_analyzed += decoded["contexts_analyzed"]
        context_counters.merge(decoded["context_counters"])
        for field in summary_cache_stats:
            summary_cache_stats[field] += int(
                decoded["summary_cache"].get(field, 0)
            )

    store.note_functions(hits=len(replayed), misses=len(reanalyzed))
    if not depgraph.components:
        # A cold run's fixed point needs one no-change round past round
        # 1 even over an empty module; match its reported round count.
        rounds_used = 2

    # -- assembly: module-level products over the union ----------------------
    shell.predictions = {
        name: predictions[name]
        for name in shell.callgraph.bottom_up_order()
        if name in predictions
    }
    shell.param_sets = param_sets
    shell.return_sets = return_sets
    shell.round_cap_hit = round_cap_components > 0
    shell._contexts_analyzed = contexts_analyzed

    cache_lookups = summary_cache_stats["hits"] + summary_cache_stats["misses"]
    summary_cache_stats["hit_rate"] = round(
        summary_cache_stats["hits"] / cache_lookups if cache_lookups else 0.0, 6
    )

    total = counters_mod.Counters()
    for prediction in shell.predictions.values():
        total.merge(prediction.counters)
    total.merge(context_counters)
    total.interprocedural_round_caps += round_cap_components

    prediction = ModulePrediction(
        module,
        dict(shell.predictions),
        total,
        rounds_used,
        summaries=shell._build_summaries(),
        # In module order, as a cold run's _compute_taint builds them.
        summary_taint={
            name: taint[name] for name in module.functions if name in taint
        },
        taint_sources={
            name: _with_sites(shell, sources[name])
            for name in module.functions
            if name in sources
        },
        interprocedural={
            "rounds": rounds_used,
            "max_rounds": max_rounds,
            "converged": round_cap_components == 0,
            "round_cap_hits": round_cap_components,
            "context_depth": shell.context_depth,
            "contexts_analyzed": contexts_analyzed,
            "summary_cache": summary_cache_stats,
        },
    )
    outcome = IncrementalOutcome(
        reanalyzed=tuple(sorted(reanalyzed)),
        replayed=tuple(sorted(replayed)),
        components_reanalyzed=components_reanalyzed,
        components_replayed=components_replayed,
        store_hits=store_hits,
        store_misses=store_misses,
        store_stats=store.stats(),
    )
    return prediction, outcome


# -- per-component analysis --------------------------------------------------


def _analyse_component(
    module: Module,
    ssa_infos: Dict[str, SSAInfo],
    members: Tuple[str, ...],
    config: VRPConfig,
    heuristic: Optional[HeuristicFn],
    entry: str,
    entry_param_ranges: Optional[Dict[str, RangeSet]],
    max_rounds: int,
) -> dict:
    """Run the ordinary fixed point over one component in isolation.

    The sub-module keeps the original module's function insertion order
    (it drives call-site discovery order and hence jump-function merge
    order) and the original function objects (no cloning).
    """
    member_set = set(members)
    sub = Module(module.name)
    for name, function in module.functions.items():
        if name in member_set:
            sub.add_function(function)
    driver = InterproceduralVRP(
        sub,
        {name: ssa_infos[name] for name in sub.functions},
        config=config,
        heuristic=heuristic,
        entry=entry,
        entry_param_ranges=entry_param_ranges,
        max_rounds=max_rounds,
    )
    # The summary cache tallies into the perf layer's *global* record;
    # store this component's delta, not a cumulative snapshot, so the
    # assembled module total reproduces a cold run's telemetry.
    cache_before = driver._context_cache.record.as_dict()
    rounds = driver.run_fixed_point()
    cache_after = driver._context_cache.record.as_dict()
    cache_delta = {
        field: cache_after[field] - cache_before[field]
        for field in ("hits", "misses", "evictions")
    }
    taint, sources = driver._compute_taint()
    return {
        "predictions": dict(driver.predictions),
        "param_sets": dict(driver.param_sets),
        "return_sets": dict(driver.return_sets),
        "taint": taint,
        # Sites are re-derived from the live IR on assembly so line
        # numbers never go stale; keep only each seed's identity.
        "sources": {
            name: {seed: _strip_sites(seed_info) for seed, seed_info in seeds.items()}
            for name, seeds in sources.items()
        },
        "rounds": rounds,
        "round_cap": driver.round_cap_hit,
        "contexts_analyzed": driver._contexts_analyzed,
        "context_counters": driver._context_counters,
        "summary_cache": cache_delta,
    }


# -- payload encoding --------------------------------------------------------


def _encode_component(
    members: Tuple[str, ...], exact_fps: Dict[str, str], decoded: dict
) -> dict:
    return {
        "v": PAYLOAD_VERSION,
        "exact": {name: exact_fps[name] for name in members},
        "functions": [
            [name, serialize.prediction_to_json(decoded["predictions"][name])]
            for name in members
        ],
        "param_sets": [
            [name, serialize.rangeset_map_to_json(decoded["param_sets"][name])]
            for name in members
            if name in decoded["param_sets"]
        ],
        "return_sets": [
            [name, serialize.rangeset_to_json(decoded["return_sets"][name])]
            for name in members
            if name in decoded["return_sets"]
        ],
        # Pair lists, not objects: replay must keep insertion order.
        "taint": [
            [name, [[ssa, list(seeds)] for ssa, seeds in reach.items()]]
            for name, reach in decoded["taint"].items()
        ],
        "sources": [
            [name, [[seed, descriptor] for seed, descriptor in seeds.items()]]
            for name, seeds in decoded["sources"].items()
        ],
        "rounds": decoded["rounds"],
        "round_cap": decoded["round_cap"],
        "contexts_analyzed": decoded["contexts_analyzed"],
        "context_counters": serialize.counters_to_json(
            decoded["context_counters"]
        ),
        "summary_cache": dict(decoded["summary_cache"]),
    }


def _strip_sites(descriptor: dict) -> dict:
    return {
        field: value for field, value in descriptor.items() if field != "sites"
    }


def _decode_component(
    module: Module,
    members: Tuple[str, ...],
    exact_fps: Dict[str, str],
    payload: dict,
    decoded_sets: Dict[bytes, RangeSet],
) -> Optional[dict]:
    """Deserialize one component entry; ``None`` means treat as a miss."""
    try:
        if payload.get("v") != PAYLOAD_VERSION:
            return None
        stored_exact = payload.get("exact")
        if stored_exact != {name: exact_fps[name] for name in members}:
            # Same semantics, different names/labels: rendered output
            # would differ, so the entry is not replayable.
            return None
        predictions: Dict[str, FunctionPrediction] = {}
        for name, data in payload["functions"]:
            predictions[name] = serialize.prediction_from_json(
                module.functions[name], data, decoded_sets
            )
        if set(predictions) != set(members):
            return None
        param_sets = {
            name: serialize.rangeset_map_from_json(data, decoded_sets)
            for name, data in payload["param_sets"]
        }
        return_sets = {
            name: serialize.rangeset_from_json(data, decoded_sets)
            for name, data in payload["return_sets"]
        }
        taint = {
            name: {ssa: tuple(seeds) for ssa, seeds in reach}
            for name, reach in payload["taint"]
        }
        sources = {
            name: {seed: dict(descriptor) for seed, descriptor in seeds}
            for name, seeds in payload["sources"]
        }
        return {
            "predictions": predictions,
            "param_sets": param_sets,
            "return_sets": return_sets,
            "taint": taint,
            "sources": sources,
            "rounds": int(payload["rounds"]),
            "round_cap": bool(payload["round_cap"]),
            "contexts_analyzed": int(payload["contexts_analyzed"]),
            "context_counters": serialize.counters_from_json(
                payload["context_counters"]
            ),
            "summary_cache": dict(payload["summary_cache"]),
        }
    except (KeyError, TypeError, ValueError, PayloadError):
        return None


def _with_sites(shell: InterproceduralVRP, seeds: Dict[str, dict]) -> Dict[str, dict]:
    """Attach call-site locations, read from the live IR, to one
    function's taint-seed descriptors.

    A parameter seed cites every call site of its function; a call
    seed (merged or context-refined) cites the call defining it.  So
    provenance chains cite current line numbers even after pure
    line-shift edits.
    """
    callgraph = shell.callgraph
    out: Dict[str, dict] = {}
    for seed, descriptor in seeds.items():
        function = descriptor.get("function")
        if descriptor.get("kind") == "param":
            sites = callgraph.sites_of_callee(function)
        else:
            sites = [
                site
                for site in callgraph.sites_in_caller(function)
                if site.instruction.dest is not None
                and site.instruction.dest.name == seed
            ]
        out[seed] = dict(
            descriptor, sites=[shell._site_descriptor(site) for site in sites]
        )
    return out

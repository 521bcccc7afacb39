"""The incremental driver: byte-identity, replay, and the exact guard."""

import gc
import json
import types

import pytest

import repro.incremental.driver as driver_mod
import repro.incremental.fingerprint as fp_mod
from repro.core.config import VRPConfig
from repro.core.interprocedural import analyse_module
from repro.incremental.driver import analyse_module_incremental
from repro.incremental.store import IncrementalStore

from tests.incremental.helpers import MULTI_COMPONENT, build, rendered


def run_incremental(source, store, config=None):
    module, infos = build(source)
    return analyse_module_incremental(module, infos, store, config=config)


class TestByteIdentity:
    def test_first_run_matches_cold(self):
        module, infos = build(MULTI_COMPONENT)
        cold = analyse_module(module, infos)
        warm_module, warm_infos = build(MULTI_COMPONENT)
        incremental, outcome = analyse_module_incremental(
            warm_module, warm_infos, IncrementalStore()
        )
        assert rendered(incremental) == rendered(cold)
        assert outcome.replayed == ()
        assert set(outcome.reanalyzed) == set(module.functions)

    def test_replay_matches_cold(self):
        store = IncrementalStore()
        first, _ = run_incremental(MULTI_COMPONENT, store)
        second, outcome = run_incremental(MULTI_COMPONENT, store)
        assert rendered(second) == rendered(first)
        assert outcome.reanalyzed == ()
        assert outcome.components_replayed == 3
        assert outcome.store_hits == 3

    def test_replay_reproduces_counters(self):
        # The work-count telemetry is part of the contract too; the
        # comparison goes through the predictor, the CLI surface.
        from repro.core import VRPPredictor

        module, infos = build(MULTI_COMPONENT)
        cold = VRPPredictor().predict_module(module, infos)
        store = IncrementalStore()

        def warm_run():
            warm_module, warm_infos = build(MULTI_COMPONENT)
            return VRPPredictor(incremental_store=store).predict_module(
                warm_module, warm_infos
            )

        first = warm_run()
        replayed = warm_run()
        for prediction in (first, replayed):
            assert prediction.counters.as_dict() == cold.counters.as_dict()
            assert prediction.rounds == cold.rounds
            assert prediction.interprocedural == cold.interprocedural

    def test_store_of_an_earlier_engine_is_never_replayed(self, tmp_path, monkeypatch):
        # 1.0.0 lapped accumulator loops that this engine derives: its
        # stored ranges are not this engine's results.
        with monkeypatch.context() as patch:
            patch.setattr(fp_mod, "engine_salt", lambda: "repro-1.0.0")
            _, written = run_incremental(
                MULTI_COMPONENT, IncrementalStore(disk_dir=str(tmp_path))
            )
        assert written.components_reanalyzed == 3
        module, infos = build(MULTI_COMPONENT)
        cold = analyse_module(module, infos)
        _, outcome = run_incremental(
            MULTI_COMPONENT, IncrementalStore(disk_dir=str(tmp_path))
        )
        assert outcome.replayed == ()
        assert outcome.reanalyzed == tuple(sorted(cold.functions))
        assert outcome.components_reanalyzed == 3

    def test_disk_tier_round_trip_matches_cold(self, tmp_path):
        first, _ = run_incremental(
            MULTI_COMPONENT, IncrementalStore(disk_dir=str(tmp_path))
        )
        # A fresh process over the same directory: memory tier cold,
        # every component replayed from disk through JSON.
        fresh = IncrementalStore(disk_dir=str(tmp_path))
        second, outcome = run_incremental(MULTI_COMPONENT, fresh)
        assert rendered(second) == rendered(first)
        assert outcome.reanalyzed == ()
        assert fresh.stats()["disk"]["hits"] == 3


def taint_view(prediction):
    """Summary taint and its seed descriptors, in the prediction's order."""
    return (
        [(name, list(reach.items())) for name, reach in prediction.summary_taint.items()],
        [(name, list(seeds.items())) for name, seeds in prediction.taint_sources.items()],
    )


class TestTaintReplay:
    def test_replayed_taint_matches_cold(self, tmp_path):
        module, infos = build(MULTI_COMPONENT)
        cold = analyse_module(module, infos)
        assert cold.summary_taint and cold.taint_sources
        run_incremental(MULTI_COMPONENT, IncrementalStore(disk_dir=str(tmp_path)))
        replayed, outcome = run_incremental(
            MULTI_COMPONENT, IncrementalStore(disk_dir=str(tmp_path))
        )
        assert outcome.reanalyzed == ()
        assert taint_view(replayed) == taint_view(cold)

    def test_line_shift_cites_current_lines(self):
        store = IncrementalStore()
        run_incremental(MULTI_COMPONENT, store)
        shifted = "\n// a new header comment\n\n" + MULTI_COMPONENT
        module, infos = build(shifted)
        cold = analyse_module(module, infos)
        replayed, outcome = run_incremental(shifted, store)
        assert outcome.reanalyzed == ()
        assert taint_view(replayed) == taint_view(cold)


class TestInvalidation:
    def test_edit_reanalyzes_exactly_the_component(self):
        store = IncrementalStore()
        run_incremental(MULTI_COMPONENT, store)
        edited = MULTI_COMPONENT.replace("return v * 2;", "return v * 3;")
        module, infos = build(edited)
        cold = analyse_module(module, infos)
        warm_module, warm_infos = build(edited)
        prediction, outcome = analyse_module_incremental(
            warm_module, warm_infos, store
        )
        # leaf was edited; outer depends on its return range.  The
        # {helper, apply, main} and {island} components replay.
        assert set(outcome.reanalyzed) == {"leaf", "outer"}
        assert set(outcome.replayed) == {"helper", "apply", "main", "island"}
        assert rendered(prediction) == rendered(cold)

    def test_line_shift_replays_everything(self):
        store = IncrementalStore()
        run_incremental(MULTI_COMPONENT, store)
        shifted = "\n// a new header comment\n\n" + MULTI_COMPONENT
        _, outcome = run_incremental(shifted, store)
        assert outcome.reanalyzed == ()
        assert len(outcome.replayed) == 6

    def test_outcome_metrics_document(self):
        store = IncrementalStore()
        run_incremental(MULTI_COMPONENT, store)
        edited = MULTI_COMPONENT.replace("acc * k", "acc + k")
        _, outcome = run_incremental(edited, store)
        document = outcome.as_metrics()
        assert document == {
            "reanalyzed": 1,
            "replayed": 5,
            "components": {"reanalyzed": 1, "replayed": 2},
            "store": {"hits": 2, "misses": 1, "evictions": 0},
        }


class TestGuards:
    def test_rename_keeps_the_address_but_reanalyzes(self):
        # Renaming a local keeps the semantic fingerprint (the store
        # address) but rendered output mentions SSA names, so the exact
        # guard must force reanalysis -- and refresh the entry in place.
        store = IncrementalStore()
        run_incremental(MULTI_COMPONENT, store)
        renamed = MULTI_COMPONENT.replace("var acc = 1;", "var zed = 1;")
        renamed = renamed.replace("acc * k", "zed * k").replace(
            "acc = acc", "zed = zed"
        ).replace("return acc;", "return zed;")
        module, infos = build(renamed)
        cold = analyse_module(module, infos)
        warm_module, warm_infos = build(renamed)
        prediction, outcome = analyse_module_incremental(
            warm_module, warm_infos, store
        )
        assert set(outcome.reanalyzed) == {"island"}
        assert rendered(prediction) == rendered(cold)
        # The refreshed entry replays on the next recheck.
        _, again = run_incremental(renamed, store)
        assert again.reanalyzed == ()

    def test_payload_version_mismatch_is_a_miss(self, monkeypatch):
        store = IncrementalStore()
        run_incremental(MULTI_COMPONENT, store)
        monkeypatch.setattr(
            driver_mod, "PAYLOAD_VERSION", driver_mod.PAYLOAD_VERSION + 1
        )
        _, outcome = run_incremental(MULTI_COMPONENT, store)
        assert outcome.replayed == ()
        assert len(outcome.reanalyzed) == 6

    def test_config_change_misses_the_store(self):
        store = IncrementalStore()
        run_incremental(MULTI_COMPONENT, store, VRPConfig())
        _, outcome = run_incremental(
            MULTI_COMPONENT, store, VRPConfig(max_ranges=2)
        )
        assert outcome.replayed == ()

    def test_corrupt_payload_falls_back_to_analysis(self):
        store = IncrementalStore()
        run_incremental(MULTI_COMPONENT, store)
        # Wreck every stored payload behind the driver's back.
        for key in list(store._memory._table):
            store.put(key, {"v": 1, "garbage": True})
        prediction, outcome = run_incremental(MULTI_COMPONENT, store)
        assert outcome.replayed == ()
        module, infos = build(MULTI_COMPONENT)
        assert rendered(prediction) == rendered(analyse_module(module, infos))

    def test_entry_seed_is_part_of_the_address(self):
        from repro.core.rangeset import RangeSet

        store = IncrementalStore()
        module, infos = build(MULTI_COMPONENT)
        analyse_module_incremental(module, infos, store)
        seeded_module, seeded_infos = build(MULTI_COMPONENT)
        _, outcome = analyse_module_incremental(
            seeded_module,
            seeded_infos,
            store,
            entry_param_ranges={"n": RangeSet.span(0, 10)},
        )
        # Only main's component re-runs: the seed reaches main alone.
        assert set(outcome.reanalyzed) == {"helper", "apply", "main"}
        assert set(outcome.replayed) == {"leaf", "outer", "island"}


def fractional_offset(text):
    """The entry with its first integer bound offset rewritten to 1.5."""
    payload = json.loads(text)

    def damage(node):
        if isinstance(node, dict):
            if node.get("k") == "set":
                for _, lo, hi, _ in node["r"]:
                    for bound in (lo, hi):
                        if bound[0].__class__ is int:
                            bound[0] = 1.5
                            return True
            return any(damage(value) for value in node.values())
        if isinstance(node, list):
            return any(damage(item) for item in node)
        return False

    assert damage(payload)
    return json.dumps(payload, sort_keys=True)


class TestDamagedDiskEntries:
    @pytest.mark.parametrize(
        "damage",
        [lambda text: "{}", fractional_offset],
        ids=["empty", "fractional-offset"],
    )
    def test_undecodable_entry_is_a_disk_error_not_a_hit(self, tmp_path, damage):
        run_incremental(MULTI_COMPONENT, IncrementalStore(disk_dir=str(tmp_path)))
        entries = sorted(tmp_path.rglob("*.json"))
        assert len(entries) == 3
        for entry in entries:
            entry.write_text(damage(entry.read_text(encoding="utf-8")), encoding="utf-8")
        store = IncrementalStore(disk_dir=str(tmp_path))
        prediction, outcome = run_incremental(MULTI_COMPONENT, store)
        disk = store.stats()["disk"]
        assert (disk["hits"], disk["errors"]) == (0, 3)
        assert outcome.replayed == ()
        module, infos = build(MULTI_COMPONENT)
        assert rendered(prediction) == rendered(analyse_module(module, infos))
        # The damaged entries were rewritten: a fresh process replays.
        _, again = run_incremental(
            MULTI_COMPONENT, IncrementalStore(disk_dir=str(tmp_path))
        )
        assert again.components_replayed == 3
        assert again.reanalyzed == ()


def surfaces(source, store=None):
    """``predict``, ``check`` and ``ranges`` output, cold without a store."""
    from repro import commands
    from repro.core import VRPPredictor, perf
    from repro.diagnostics import check_module

    if store is None:
        perf.reset()
    module, infos = build(source)
    predictor = VRPPredictor(incremental_store=store)
    prediction = predictor.predict_module(module, infos)
    report = check_module(module, prediction, program="p")
    return (
        rendered(prediction) + (commands.render_check(report, "text"),),
        predictor.last_incremental,
    )


def edit_sources(seed, edits, components=3):
    """``(kind, source)`` of ``edits`` seeded edits: constants, reverts
    and comments."""
    from benchmarks.ledger.corpus import EDIT_MIX, EditableModule

    module = EditableModule(seed, components)
    kinds = []
    while len(kinds) < edits:
        kinds.extend(module.block(len(EDIT_MIX)))
    sources = []
    for kind in kinds[:edits]:
        module.edit(kind)
        sources.append((kind, module.source()))
    return sources


def reachable(roots, limit=200_000):
    """Every object reachable from ``roots`` through instances and
    containers (classes, modules and code are not followed)."""
    opaque = (
        type,
        types.ModuleType,
        types.FunctionType,
        types.BuiltinFunctionType,
        types.CodeType,
    )
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        assert len(seen) < limit, "walk did not stay bounded"
        yield obj
        stack.extend(gc.get_referents(obj))


class TestSharedReplayState:
    """The memory tier hands the same decoded state to every replay."""

    def test_long_lived_store_matches_cold_after_every_edit(self):
        store = IncrementalStore()
        edits = edit_sources(11, edits=40)
        assert {kind for kind, _ in edits} == {"constant", "revert", "comment"}
        replayed = 0
        for number, (kind, source) in enumerate(edits, start=1):
            warm, outcome = surfaces(source, store)
            cold, _ = surfaces(source)
            assert warm == cold, f"edit {number} ({kind}) differs from cold"
            replayed += outcome.components_replayed
        assert store.stats()["disk"]["enabled"] is False
        assert store.stats()["memory"]["hits"] == replayed > 0

    def test_replayed_prediction_is_bound_to_the_current_module(self):
        store = IncrementalStore()
        run_incremental(MULTI_COMPONENT, store)
        module, infos = build(MULTI_COMPONENT)
        prediction, outcome = analyse_module_incremental(module, infos, store)
        assert outcome.reanalyzed == ()
        for name, function_prediction in prediction.functions.items():
            assert function_prediction.function is module.functions[name]

    def test_memory_tier_reaches_no_ir(self):
        from repro.core.propagation import FunctionPrediction
        from repro.incremental.serialize import ComponentState
        from repro.ir.function import BasicBlock, Function, Module

        store = IncrementalStore()
        for _kind, source in edit_sources(12, edits=6):
            run_incremental(source, store)
        states = [value for value, _read in store._memory._table.values()]
        assert states and all(isinstance(s, ComponentState) for s in states)
        kinds = [type(obj) for obj in reachable(states)]
        assert not {Function, BasicBlock, Module} & set(kinds)
        assert kinds.count(FunctionPrediction) == sum(
            len(state.predictions) for state in states
        )

"""The incremental driver: byte-identity, replay, and the exact guard."""

import pytest

import repro.incremental.driver as driver_mod
from repro.core.config import VRPConfig
from repro.core.interprocedural import analyse_module
from repro.incremental.driver import analyse_module_incremental
from repro.incremental.store import IncrementalStore

from tests.incremental.helpers import MULTI_COMPONENT, build, rendered


def run_incremental(source, store, config=None):
    module, infos = build(source)
    return analyse_module_incremental(module, infos, store, config=config)


class TestByteIdentity:
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_first_run_matches_cold(self, depth):
        config = VRPConfig(context_depth=depth)
        module, infos = build(MULTI_COMPONENT)
        cold = analyse_module(module, infos, config=config)
        warm_module, warm_infos = build(MULTI_COMPONENT)
        incremental, outcome = analyse_module_incremental(
            warm_module, warm_infos, IncrementalStore(), config=config
        )
        assert rendered(incremental) == rendered(cold)
        assert outcome.replayed == ()
        assert set(outcome.reanalyzed) == set(module.functions)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_replay_matches_cold(self, depth):
        config = VRPConfig(context_depth=depth)
        store = IncrementalStore()
        first, _ = run_incremental(MULTI_COMPONENT, store, config)
        second, outcome = run_incremental(MULTI_COMPONENT, store, config)
        assert rendered(second) == rendered(first)
        assert outcome.reanalyzed == ()
        assert outcome.components_replayed == 3
        assert outcome.store_hits == 3

    def test_replay_reproduces_counters_at_depth_zero(self):
        # The work-count telemetry is part of the contract too (the
        # interprocedural pin test covers k = 1 and 2).  The
        # summary-cache numbers tally into the perf layer's global
        # record, which VRPPredictor resets per run (the CLI surface),
        # so the comparison goes through the predictor.
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
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_replayed_taint_matches_cold(self, tmp_path, depth):
        config = VRPConfig(context_depth=depth)
        module, infos = build(MULTI_COMPONENT)
        cold = analyse_module(module, infos, config=config)
        assert cold.summary_taint and cold.taint_sources
        run_incremental(MULTI_COMPONENT, IncrementalStore(disk_dir=str(tmp_path)), config)
        replayed, outcome = run_incremental(
            MULTI_COMPONENT, IncrementalStore(disk_dir=str(tmp_path)), config
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
            MULTI_COMPONENT, store, VRPConfig(context_depth=1)
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

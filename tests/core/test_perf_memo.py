"""Memoization invariants: counter replay and the disable switch.

The caches may change wall time only.  A memo hit must replay the
exact ``sub_operations`` tally of the evaluation it short-circuits, and
``VRPConfig(perf=False)`` must bypass the layer entirely, giving the
same predictions *and* the same work counters either way.
"""

import pytest

from repro.core import counters, perf
from repro.core.config import VRPConfig
from repro.core.perf import memo
from repro.core.perf.context import activate
from repro.core.predictor import VRPPredictor
from repro.core.rangeset import RangeSet
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def fresh_caches():
    perf.reset()
    yield
    perf.reset()


def interval(lo, hi):
    from repro.core.bounds import Bound
    from repro.core.ranges import StridedRange

    return RangeSet.from_ranges([StridedRange(1.0, Bound(lo), Bound(hi), 1)])


class TestCounterReplay:
    def test_binop_hit_replays_sub_operations(self):
        a, b = interval(0, 9), interval(5, 14)
        with activate(True):
            tally = counters.Counters()
            with counters.use(tally):
                first = memo.evaluate_binop("add", a, b, 4)
            cost = tally.sub_operations
            assert cost > 0

            replay = counters.Counters()
            with counters.use(replay):
                second = memo.evaluate_binop("add", a, b, 4)
            assert second is first  # served from cache (interned object)
            assert replay.sub_operations == cost

    def test_compare_hit_replays_sub_operations(self):
        a, b = interval(0, 9), interval(5, 14)
        with activate(True):
            tally = counters.Counters()
            with counters.use(tally):
                first = memo.compare_sets("lt", a, b)
            cost = tally.sub_operations

            replay = counters.Counters()
            with counters.use(replay):
                second = memo.compare_sets("lt", a, b)
            assert second.estimate() == first.estimate()
            assert replay.sub_operations == cost

    def test_compare_with_symbol_callback_is_never_cached(self):
        a, b = interval(0, 9), interval(5, 14)
        calls = []

        def symbol_range(name):
            calls.append(name)
            return None

        with activate(True):
            memo.compare_sets("lt", a, b, a_name="x", symbol_range=symbol_range)
            before = len(memo._COMPARE)
            memo.compare_sets("lt", a, b, a_name="x", symbol_range=symbol_range)
            assert len(memo._COMPARE) == before  # nothing was stored

    def test_inactive_context_bypasses_caches(self):
        a, b = interval(0, 9), interval(5, 14)
        with activate(False):
            tally = counters.Counters()
            with counters.use(tally):
                memo.evaluate_binop("add", a, b, 4)
                memo.evaluate_binop("add", a, b, 4)
        assert len(memo._BINOP) == 0


class TestDisableSwitch:
    @pytest.mark.parametrize("workload_name", ["mandel", "isort"])
    def test_predictions_and_counters_match_without_layer(self, workload_name):
        workload = get_workload(workload_name)
        module = compile_source(workload.source, module_name=workload.name)
        infos = prepare_module(module)
        on = VRPPredictor(config=VRPConfig(perf=True)).predict_module(
            module, infos
        )
        off = VRPPredictor(config=VRPConfig(perf=False)).predict_module(
            module, infos
        )
        assert on.all_branches() == off.all_branches()
        assert on.counters.as_dict() == off.counters.as_dict()

    def test_config_default_tracks_global_switch(self):
        from repro.core.perf.context import globally_enabled

        assert VRPConfig().perf == globally_enabled()
        assert VRPConfig(perf=False).perf is False

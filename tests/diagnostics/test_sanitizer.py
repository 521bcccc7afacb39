"""Lattice sanitizer: unit-level violations and full-suite validation.

The sanitizer (``VRPConfig.sanitize=True``) must (a) catch each class of
invariant violation when handed one directly, (b) stay silent across the
entire workload suite, and (c) never perturb the analysis results it
watches (``tests/core/test_engine_agreement.py``).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core import LatticeSanitizer, SanitizerError
from repro.core.config import VRPConfig
from repro.core.interprocedural import analyse_module
from repro.core.ranges import StridedRange
from repro.core.rangeset import RangeSet
from repro.ir import prepare_module
from repro.ir.instructions import Pi
from repro.ir.values import Constant, Temp
from repro.lang import compile_source
from repro.workloads import all_workloads


def _sanitizer(**overrides) -> LatticeSanitizer:
    return LatticeSanitizer("test", VRPConfig(sanitize=True, **overrides))


def _span(lo, hi, probability=1.0, stride=1) -> RangeSet:
    return RangeSet.from_ranges([StridedRange.span(probability, lo, hi, stride)])


class TestTransitionCheck:
    def test_descent_is_allowed(self):
        sanitizer = _sanitizer()
        sanitizer.check_transition("x", RangeSet.top(), _span(0, 10))
        sanitizer.check_transition("x", _span(0, 10), RangeSet.bottom())
        assert sanitizer.checks_run == 2

    def test_same_level_is_allowed(self):
        # Within the set level the support may shrink or shift.
        _sanitizer().check_transition("x", _span(0, 10), _span(5, 20))

    def test_ascent_from_set_to_top_raises(self):
        with pytest.raises(SanitizerError) as excinfo:
            _sanitizer().check_transition("x", _span(0, 10), RangeSet.top())
        assert excinfo.value.invariant == "lattice-descent"
        assert "x" in excinfo.value.detail

    def test_bottom_may_become_anything(self):
        # ⊥ means "nothing known yet" (an unvisited phi): the first
        # information arriving is not an ascent.
        sanitizer = _sanitizer()
        sanitizer.check_transition("x", RangeSet.bottom(), _span(0, 1))
        sanitizer.check_transition("x", RangeSet.bottom(), RangeSet.top())


class TestPiCheck:
    def _pi(self) -> Pi:
        return Pi(Temp("x.1"), Temp("x.0"), "lt", Constant(10))

    def test_narrowing_is_allowed(self):
        _sanitizer().check_pi(self._pi(), _span(0, 100), _span(0, 9))

    def test_top_source_is_skipped(self):
        # An assertion may manufacture a range from ⊤ -- that is its job.
        _sanitizer().check_pi(self._pi(), RangeSet.top(), _span(0, 9))

    def test_widening_raises(self):
        with pytest.raises(SanitizerError) as excinfo:
            _sanitizer().check_pi(self._pi(), _span(0, 9), _span(0, 100))
        assert excinfo.value.invariant == "pi-narrowing"


class TestWorklistCheck:
    def test_budget_scales_with_config(self):
        small = _sanitizer(widen_after=1, freeze_after=1)
        large = _sanitizer(widen_after=100, freeze_after=100)
        assert small.item_budget < large.item_budget

    def test_churn_past_budget_raises(self):
        sanitizer = _sanitizer(widen_after=1, freeze_after=1)
        with pytest.raises(SanitizerError) as excinfo:
            for _ in range(sanitizer.item_budget + 1):
                sanitizer.note_item(("flow", ("a", "b")))
        assert excinfo.value.invariant == "worklist-stabilisation"

    def test_distinct_items_do_not_share_budget(self):
        sanitizer = _sanitizer(widen_after=1, freeze_after=1)
        for i in range(sanitizer.item_budget):
            sanitizer.note_item(("ssa", i))


class TestFinalCheck:
    def _engine(self, **overrides) -> SimpleNamespace:
        defaults = dict(
            aborted=False,
            flow_pending=set(),
            ssa_pending=set(),
            branch_prob={},
            config=VRPConfig(),
            function=SimpleNamespace(blocks={}),
            visited=set(),
            edge_freq={},
            node_frequency=lambda label: 0.0,
        )
        defaults.update(overrides)
        return SimpleNamespace(**defaults)

    def test_clean_engine_passes(self):
        _sanitizer().check_final(self._engine(branch_prob={"b": 0.25}))

    def test_aborted_engine_raises(self):
        with pytest.raises(SanitizerError) as excinfo:
            _sanitizer().check_final(self._engine(aborted=True))
        assert excinfo.value.invariant == "fixed-point"

    def test_undrained_worklist_raises(self):
        with pytest.raises(SanitizerError) as excinfo:
            _sanitizer().check_final(self._engine(flow_pending={("a", "b")}))
        assert excinfo.value.invariant == "fixed-point"

    def test_probability_out_of_bounds_raises(self):
        with pytest.raises(SanitizerError) as excinfo:
            _sanitizer().check_final(self._engine(branch_prob={"b": 1.5}))
        assert excinfo.value.invariant == "probability-bounds"


def _analyse(source: str, config: VRPConfig):
    module = compile_source(source)
    ssa_infos = prepare_module(module)
    return analyse_module(module, ssa_infos, config=config)


@pytest.mark.parametrize(
    "workload", all_workloads(), ids=[w.name for w in all_workloads()]
)
def test_sanitizer_passes_on_workload(workload):
    """The full suite propagates without tripping a single invariant."""
    _analyse(workload.source, VRPConfig(sanitize=True))


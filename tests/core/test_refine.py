"""Assertion refinement tests."""

import pytest

from repro.core.bounds import Bound, NEG_INF, POS_INF
from repro.core.ranges import StridedRange
from repro.core.rangeset import BOTTOM, RangeSet, TOP
from repro.core.refine import refine_set


def single_extent(rangeset):
    assert rangeset.is_set and len(rangeset.ranges) == 1
    r = rangeset.ranges[0]
    return str(r.lo), str(r.hi), r.stride


class TestLatticeInputs:
    def test_top_stays_top(self):
        assert refine_set(TOP, "lt", Bound.number(10)) is TOP

    def test_bottom_becomes_predicate_range(self):
        result = refine_set(BOTTOM, "lt", Bound.number(10))
        assert single_extent(result) == ("-inf", "9", 1)

    def test_bottom_with_symbolic_bound(self):
        result = refine_set(BOTTOM, "ge", Bound.symbolic("n.0"))
        assert single_extent(result) == ("n.0", "+inf", 1)

    def test_bottom_eq_pins_value(self):
        result = refine_set(BOTTOM, "eq", Bound.number(5))
        assert result.constant_value() == 5

    def test_bottom_ne_stays_bottom(self):
        assert refine_set(BOTTOM, "ne", Bound.number(5)) is BOTTOM


class TestClipping:
    def test_paper_loop_assertion(self):
        # [0:10] refined by < 10 -> [0:9].
        result = refine_set(RangeSet.span(0, 10), "lt", Bound.number(10))
        assert single_extent(result) == ("0", "9", 1)

    def test_paper_branch_assertions(self):
        x = RangeSet.span(0, 9)
        assert single_extent(refine_set(x, "gt", Bound.number(7))) == ("8", "9", 1)
        assert single_extent(refine_set(x, "le", Bound.number(7))) == ("0", "7", 1)

    def test_no_overlap_is_contradiction(self):
        assert refine_set(RangeSet.span(0, 5), "gt", Bound.number(100)) is BOTTOM

    def test_entirely_satisfying_unchanged(self):
        x = RangeSet.span(0, 5)
        assert refine_set(x, "lt", Bound.number(100)).approx_equal(x)

    def test_stride_phase_preserved_on_lower_clip(self):
        # {0,4,8,12} refined by > 2 must start at 4, not 3.
        x = RangeSet.span(0, 12, 4)
        result = refine_set(x, "gt", Bound.number(2))
        assert single_extent(result) == ("4", "12", 4)

    def test_stride_phase_preserved_on_upper_clip(self):
        # {1,4,7,10} refined by < 9 keeps {1,4,7}.
        x = RangeSet.span(1, 10, 3)
        result = refine_set(x, "lt", Bound.number(9))
        assert single_extent(result) == ("1", "7", 3)

    def test_phase_of_a_range_unbounded_below_is_at_hi(self):
        # {..., -5, -2, 1, 4}: a count-down by 3 from 4 has its phase at
        # hi; snapping from -inf would give [0:3:3], which misses 4.
        x = RangeSet.from_ranges(
            [StridedRange(1.0, Bound.number(NEG_INF), Bound.number(4), 3)]
        )
        assert single_extent(refine_set(x, "ge", Bound.number(0))) == ("1", "4", 3)
        assert single_extent(refine_set(x, "lt", Bound.number(0))) == ("-inf", "-2", 3)
        assert single_extent(refine_set(x, "le", Bound.number(-2))) == ("-inf", "-2", 3)

    def test_probability_mass_renormalised(self):
        x = RangeSet.from_ranges(
            [StridedRange.span(0.5, 0, 9, 1), StridedRange.span(0.5, 100, 109, 1)]
        )
        result = refine_set(x, "lt", Bound.number(50))
        # Only the low half survives, renormalised to probability 1.
        assert single_extent(result) == ("0", "9", 1)
        assert result.ranges[0].probability == pytest.approx(1.0)

    def test_partial_clip_weights_by_kept_fraction(self):
        x = RangeSet.from_ranges(
            [StridedRange.span(0.5, 0, 9, 1), StridedRange.single(0.5, 3)]
        )
        result = refine_set(x, "lt", Bound.number(5))
        # First range keeps 5/10 of its mass, singleton keeps all:
        # weights 0.25 : 0.5, renormalised to 1/3 : 2/3.
        by_extent = {
            (str(r.lo), str(r.hi)): r.probability for r in result.ranges
        }
        assert by_extent[("0", "4")] == pytest.approx(1 / 3)
        assert by_extent[("3", "3")] == pytest.approx(2 / 3)


class TestEquality:
    def test_eq_pins_to_singleton(self):
        result = refine_set(RangeSet.span(0, 9), "eq", Bound.number(4))
        assert result.constant_value() == 4

    def test_eq_outside_range_contradiction(self):
        assert refine_set(RangeSet.span(0, 9), "eq", Bound.number(50)) is BOTTOM

    def test_eq_off_phase_contradiction(self):
        # 5 is not in {0, 2, 4, ...}.
        assert refine_set(RangeSet.span(0, 10, 2), "eq", Bound.number(5)) is BOTTOM

    def test_eq_symbolic_bound(self):
        result = refine_set(RangeSet.span(0, 9), "eq", Bound.symbolic("y.0"))
        assert result.copy_symbol() == "y.0"

    def test_ne_removes_endpoint(self):
        result = refine_set(RangeSet.span(0, 9), "ne", Bound.number(9))
        assert single_extent(result) == ("0", "8", 1)

    def test_ne_removes_lower_endpoint(self):
        result = refine_set(RangeSet.span(0, 9), "ne", Bound.number(0))
        assert single_extent(result) == ("1", "9", 1)

    def test_ne_interior_hole_keeps_range(self):
        result = refine_set(RangeSet.span(0, 9), "ne", Bound.number(5))
        assert single_extent(result) == ("0", "9", 1)

    def test_ne_on_singleton_contradiction(self):
        assert refine_set(RangeSet.constant(5), "ne", Bound.number(5)) is BOTTOM


class TestSymbolicInteraction:
    def test_incomparable_basis_left_unchanged(self):
        x = RangeSet.span(0, 9)
        result = refine_set(x, "lt", Bound.symbolic("n.0"))
        assert result.approx_equal(x)

    def test_same_symbol_offsets_clip(self):
        x = RangeSet.from_ranges(
            [StridedRange(1.0, Bound.symbolic("n", 0), Bound.symbolic("n", 9), 1)]
        )
        result = refine_set(x, "lt", Bound.symbolic("n", 5))
        assert single_extent(result) == ("n", "n+4", 1)

    def test_half_open_clip(self):
        x = RangeSet.from_ranges(
            [StridedRange(1.0, Bound.number(NEG_INF), Bound.number(POS_INF), 1)]
        )
        result = refine_set(x, "ge", Bound.number(0))
        assert single_extent(result) == ("0", "+inf", 1)

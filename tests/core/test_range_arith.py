"""Range arithmetic tests, including the paper's §3.5 worked example."""

import pytest

from repro.core.bounds import Bound, NEG_INF, POS_INF
from repro.core.ranges import StridedRange
from repro.core.rangeset import BOTTOM, RangeSet, TOP
from repro.core.range_arith import evaluate_binop, evaluate_unop


def extents(rangeset):
    return {
        (str(r.lo), str(r.hi), r.stride): pytest.approx(r.probability)
        for r in rangeset.ranges
    }


class TestPaperExample:
    def test_section_3_5_addition(self):
        a = RangeSet.from_ranges(
            [StridedRange.span(0.7, 32, 256, 1), StridedRange.span(0.3, 3, 21, 3)]
        )
        b = RangeSet.from_ranges(
            [StridedRange.span(0.6, 16, 100, 4), StridedRange.single(0.4, 8)]
        )
        result = evaluate_binop("add", a, b, max_ranges=8)
        got = extents(result)
        assert got[("48", "356", 1)] == pytest.approx(0.42)
        assert got[("40", "264", 1)] == pytest.approx(0.28)
        assert got[("19", "121", 1)] == pytest.approx(0.18)
        assert got[("11", "29", 3)] == pytest.approx(0.12)


class TestLatticePropagation:
    def test_top_propagates(self):
        assert evaluate_binop("add", TOP, RangeSet.constant(1)) is TOP

    def test_bottom_both_sides(self):
        assert evaluate_binop("add", BOTTOM, BOTTOM) is BOTTOM

    def test_bottom_plus_range_is_bottom(self):
        assert evaluate_binop("add", BOTTOM, RangeSet.constant(1)) is BOTTOM

    def test_bottom_mod_constant_recovers_range(self):
        # x % 70 is in [0:69] whatever x holds -- the paper-compliant
        # static fact for unknown inputs.
        result = evaluate_binop("mod", BOTTOM, RangeSet.constant(70))
        hull = result.hull()
        assert hull.lo.offset == 0 and hull.hi.offset == 69

    def test_bottom_and_mask_recovers_range(self):
        result = evaluate_binop("and", BOTTOM, RangeSet.constant(255))
        hull = result.hull()
        assert hull.lo.offset == 0 and hull.hi.offset == 255

    def test_unop_on_top_and_bottom(self):
        assert evaluate_unop("neg", TOP) is TOP
        assert evaluate_unop("neg", BOTTOM) is BOTTOM


class TestAddSub:
    def test_constant_folding(self):
        assert evaluate_binop("add", RangeSet.constant(2), RangeSet.constant(3)).constant_value() == 5

    def test_single_preserves_stride(self):
        result = evaluate_binop(
            "add", RangeSet.span(0, 20, 5), RangeSet.constant(1)
        )
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset, r.stride) == (1, 21, 5)

    def test_sub_ranges(self):
        result = evaluate_binop("sub", RangeSet.span(10, 20), RangeSet.span(0, 5))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset) == (5, 20)

    def test_symbolic_plus_constant(self):
        sym = RangeSet.symbol("n.0")
        result = evaluate_binop("add", sym, RangeSet.constant(2))
        assert result.ranges[0].lo == Bound.symbolic("n.0", 2)

    def test_same_symbol_difference_is_numeric(self):
        a = RangeSet.symbol("n.0", 5)
        b = RangeSet.symbol("n.0", 2)
        assert evaluate_binop("sub", a, b).constant_value() == 3

    def test_two_distinct_symbols_sum_is_bottom(self):
        assert evaluate_binop("add", RangeSet.symbol("x"), RangeSet.symbol("y")) is BOTTOM


class TestMulDiv:
    def test_constant_scale(self):
        result = evaluate_binop("mul", RangeSet.span(0, 10, 2), RangeSet.constant(3))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset, r.stride) == (0, 30, 6)

    def test_negative_scale_swaps(self):
        result = evaluate_binop("mul", RangeSet.span(1, 5), RangeSet.constant(-2))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset) == (-10, -2)

    def test_scale_by_zero(self):
        assert evaluate_binop("mul", RangeSet.span(0, 100), RangeSet.constant(0)).constant_value() == 0

    def test_range_times_range_endpoints(self):
        result = evaluate_binop("mul", RangeSet.span(-2, 3), RangeSet.span(-5, 4))
        r = result.ranges[0]
        assert r.lo.offset == -15  # 3 * -5
        assert r.hi.offset == 12  # 3 * 4

    def test_floor_division_by_constant(self):
        result = evaluate_binop("div", RangeSet.span(0, 9), RangeSet.constant(2))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset) == (0, 4)

    def test_floor_division_negative_dividend(self):
        result = evaluate_binop("div", RangeSet.span(-3, 3), RangeSet.constant(2))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset) == (-2, 1)

    def test_division_by_range_containing_zero_is_bottom(self):
        assert evaluate_binop("div", RangeSet.constant(10), RangeSet.span(-1, 1)) is BOTTOM

    def test_division_by_zero_is_bottom(self):
        assert evaluate_binop("div", RangeSet.constant(10), RangeSet.constant(0)) is BOTTOM

    def test_stride_division(self):
        result = evaluate_binop("div", RangeSet.span(0, 40, 10), RangeSet.constant(5))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset, r.stride) == (0, 8, 2)

    def test_symbolic_division_by_one(self):
        sym = RangeSet.symbol("x")
        assert evaluate_binop("div", sym, RangeSet.constant(1)).copy_symbol() == "x"


class TestModShift:
    def test_mod_reduces_to_window(self):
        result = evaluate_binop("mod", RangeSet.span(0, 1000), RangeSet.constant(7))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset) == (0, 6)

    def test_mod_of_already_reduced_is_identity(self):
        result = evaluate_binop("mod", RangeSet.span(0, 5), RangeSet.constant(10))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset) == (0, 5)

    def test_mod_stride_gcd(self):
        # {0,4,8,...} mod 6 cycles through {0,4,2}: stride gcd(4,6)=2.
        result = evaluate_binop("mod", RangeSet.span(0, 20, 4), RangeSet.constant(6))
        assert result.ranges[0].stride == 2

    def test_mod_by_zero_is_bottom(self):
        assert evaluate_binop("mod", RangeSet.span(0, 5), RangeSet.constant(0)) is BOTTOM

    def test_shl_scales(self):
        result = evaluate_binop("shl", RangeSet.span(1, 4), RangeSet.constant(3))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset) == (8, 32)

    def test_shr_divides(self):
        result = evaluate_binop("shr", RangeSet.span(8, 32), RangeSet.constant(2))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset) == (2, 8)

    def test_shift_by_range_is_bottom(self):
        assert evaluate_binop("shl", RangeSet.constant(1), RangeSet.span(0, 3)) is BOTTOM


class TestBoundSaturation:
    """Integer bounds too large for a float saturate to infinity instead of
    raising ``OverflowError`` (float conversion in ``math.isnan``)."""

    HUGE = RangeSet.span(10**200, 10**201)

    def _hull(self, rangeset):
        hull = rangeset.hull()
        return hull.lo.offset, hull.hi.offset

    def test_range_times_range_widens_to_infinity(self):
        lo, hi = self._hull(evaluate_binop("mul", self.HUGE, self.HUGE, 4))
        assert lo <= 10**400 and hi == POS_INF

    def test_constant_scale_widens_to_infinity(self):
        lo, hi = self._hull(evaluate_binop("mul", self.HUGE, RangeSet.constant(10**200)))
        assert lo <= 10**400 and hi == POS_INF

    def test_negative_side_saturates_low(self):
        negative = RangeSet.span(-(10**201), -(10**200))
        lo, hi = self._hull(evaluate_binop("mul", negative, RangeSet.constant(10**200)))
        assert lo == NEG_INF and hi >= -(10**400)

    def test_shl_widens_to_infinity(self):
        result = evaluate_binop("shl", RangeSet.span(1, 10**300), RangeSet.constant(60))
        assert self._hull(result) == (2**60, POS_INF)

    def test_products_inside_the_float_range_stay_exact(self):
        moderate = RangeSet.span(10**150, 10**151)
        assert self._hull(evaluate_binop("mul", moderate, moderate)) == (10**300, 10**302)

    def test_sum_of_bounds_at_the_limit_does_not_raise(self):
        edge = RangeSet.span(2**1021, 2**1022)
        assert self._hull(evaluate_binop("add", edge, edge)) == (2**1022, POS_INF)

    @pytest.mark.parametrize("op", ["div", "shr", "mod", "and"])
    def test_a_divisor_of_plus_infinity_alone_is_bottom(self, op):
        plus_infinity = RangeSet.from_ranges([StridedRange(1.0, Bound.number(POS_INF), Bound.number(POS_INF), 0)])
        assert str(plus_infinity) == "{ 1[+inf:+inf:0] }"
        assert evaluate_binop(op, RangeSet.span(0, 12, 3), plus_infinity) is BOTTOM

    def test_mandel_analyses_without_error(self):
        from repro.core import VRPPredictor
        from repro.ir import prepare_module
        from repro.lang import compile_source
        from repro.workloads import get_workload

        module = compile_source(get_workload("mandel").source)
        prediction = VRPPredictor().predict_module(module, prepare_module(module))
        assert prediction.all_branches()
        assert not any(p.aborted for p in prediction.functions.values())


class TestBitwise:
    def test_constant_fold_all(self):
        assert evaluate_binop("and", RangeSet.constant(12), RangeSet.constant(10)).constant_value() == 8
        assert evaluate_binop("or", RangeSet.constant(12), RangeSet.constant(10)).constant_value() == 14
        assert evaluate_binop("xor", RangeSet.constant(12), RangeSet.constant(10)).constant_value() == 6

    def test_and_mask_bounds(self):
        result = evaluate_binop("and", RangeSet.span(0, 1000), RangeSet.constant(15))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset) == (0, 15)

    def test_and_mask_tightens_with_small_operand(self):
        result = evaluate_binop("and", RangeSet.span(0, 5), RangeSet.constant(255))
        assert result.ranges[0].hi.offset == 5

    def test_or_power_of_two_bound(self):
        result = evaluate_binop("or", RangeSet.span(0, 5), RangeSet.span(0, 9))
        assert result.ranges[0].hi.offset == 15  # < 2^4

    def test_xor_negative_is_bottom(self):
        assert evaluate_binop("xor", RangeSet.span(-5, 5), RangeSet.constant(3)) is BOTTOM


class TestMinMaxNeg:
    def test_min(self):
        result = evaluate_binop("min", RangeSet.span(0, 10), RangeSet.span(5, 20))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset) == (0, 10)

    def test_max(self):
        result = evaluate_binop("max", RangeSet.span(0, 10), RangeSet.span(5, 20))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset) == (5, 20)

    def test_neg_swaps_bounds(self):
        result = evaluate_unop("neg", RangeSet.span(2, 7, 1))
        r = result.ranges[0]
        assert (r.lo.offset, r.hi.offset) == (-7, -2)

    def test_neg_symbolic_is_bottom(self):
        assert evaluate_unop("neg", RangeSet.symbol("x")) is BOTTOM

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            evaluate_binop("pow", RangeSet.constant(2), RangeSet.constant(3))


class TestProbabilityWeights:
    def test_cross_product_weights_multiply(self):
        a = RangeSet.from_ranges(
            [StridedRange.single(0.5, 0), StridedRange.single(0.5, 100)]
        )
        b = RangeSet.from_ranges(
            [StridedRange.single(0.25, 0), StridedRange.single(0.75, 1000)]
        )
        result = evaluate_binop("add", a, b, max_ranges=8)
        probabilities = sorted(r.probability for r in result.ranges)
        assert probabilities == [
            pytest.approx(0.125),
            pytest.approx(0.125),
            pytest.approx(0.375),
            pytest.approx(0.375),
        ]
        assert sum(probabilities) == pytest.approx(1.0)

"""Bound (symbolic/numeric endpoint) tests."""

import pytest

from repro.core.bounds import Bound, NEG_INF, POS_INF, bound_max, bound_min


class TestConstruction:
    def test_numeric(self):
        b = Bound.number(5)
        assert b.is_numeric()
        assert b.offset == 5

    def test_symbolic(self):
        b = Bound.symbolic("x.1", 2)
        assert not b.is_numeric()
        assert b.symbol == "x.1"
        assert b.offset == 2

    def test_infinite_symbolic_rejected(self):
        with pytest.raises(ValueError):
            Bound(POS_INF, "x")

    def test_infinity_predicates(self):
        assert Bound.number(POS_INF).is_pos_inf()
        assert Bound.number(NEG_INF).is_neg_inf()
        assert not Bound.number(0).is_pos_inf()


class TestArithmetic:
    def test_add_const(self):
        assert Bound.number(5).add_const(3) == Bound.number(8)
        assert Bound.symbolic("x", 1).add_const(-2) == Bound.symbolic("x", -1)

    def test_add_const_to_infinity_is_noop(self):
        assert Bound.number(POS_INF).add_const(5).is_pos_inf()

    def test_add_numeric(self):
        assert Bound.number(2).add(Bound.number(3)) == Bound.number(5)

    def test_add_symbolic_plus_numeric(self):
        assert Bound.symbolic("x", 1).add(Bound.number(4)) == Bound.symbolic("x", 5)

    def test_add_two_symbols_unrepresentable(self):
        assert Bound.symbolic("x").add(Bound.symbolic("y")) is None
        assert Bound.symbolic("x").add(Bound.symbolic("x")) is None  # 2x

    def test_sub_same_symbol_is_numeric(self):
        result = Bound.symbolic("x", 5).sub(Bound.symbolic("x", 2))
        assert result == Bound.number(3)

    def test_sub_different_symbols_unrepresentable(self):
        assert Bound.symbolic("x").sub(Bound.symbolic("y")) is None

    def test_numeric_minus_symbol_unrepresentable(self):
        assert Bound.number(10).sub(Bound.symbolic("x")) is None

    def test_symbol_minus_numeric(self):
        assert Bound.symbolic("x", 3).sub(Bound.number(1)) == Bound.symbolic("x", 2)

    def test_negate(self):
        assert Bound.number(4).negate() == Bound.number(-4)
        assert Bound.symbolic("x").negate() is None

    def test_scale(self):
        assert Bound.number(3).scale(4) == Bound.number(12)
        assert Bound.symbolic("x", 2).scale(1) == Bound.symbolic("x", 2)
        assert Bound.symbolic("x", 2).scale(2) is None


class TestComparison:
    def test_numeric_ordering(self):
        assert Bound.number(1).compare(Bound.number(2)) == -1
        assert Bound.number(2).compare(Bound.number(2)) == 0
        assert Bound.number(3).compare(Bound.number(2)) == 1

    def test_same_symbol_ordering_by_offset(self):
        assert Bound.symbolic("x", 1).compare(Bound.symbolic("x", 2)) == -1

    def test_cross_symbol_incomparable(self):
        assert Bound.symbolic("x").compare(Bound.symbolic("y")) is None
        assert Bound.symbolic("x").compare(Bound.number(5)) is None

    def test_infinities_compare(self):
        assert Bound.number(NEG_INF).compare(Bound.number(0)) == -1
        assert Bound.number(POS_INF).compare(Bound.number(10**18)) == 1

    def test_less_equal(self):
        assert Bound.number(1).less_equal(Bound.number(1)) is True
        assert Bound.symbolic("x").less_equal(Bound.number(1)) is None

    def test_distance(self):
        assert Bound.number(3).distance(Bound.number(10)) == 7
        assert Bound.symbolic("x", 1).distance(Bound.symbolic("x", 4)) == 3
        assert Bound.symbolic("x").distance(Bound.number(0)) is None


class TestMinMax:
    def test_bound_min(self):
        assert bound_min(Bound.number(1), Bound.number(5)) == Bound.number(1)
        assert bound_min(Bound.symbolic("x"), Bound.number(5)) is None

    def test_bound_max(self):
        assert bound_max(Bound.symbolic("x", 1), Bound.symbolic("x", 3)) == Bound.symbolic("x", 3)


class TestDisplay:
    def test_str_forms(self):
        assert str(Bound.number(5)) == "5"
        assert str(Bound.number(POS_INF)) == "+inf"
        assert str(Bound.symbolic("n.0")) == "n.0"
        assert str(Bound.symbolic("n.0", -1)) == "n.0-1"
        assert str(Bound.symbolic("n.0", 2)) == "n.0+2"

    def test_hash_consistency(self):
        assert len({Bound.number(1), Bound.number(1), Bound.symbolic("x", 1)}) == 2

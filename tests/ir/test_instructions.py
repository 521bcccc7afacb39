"""Instruction class tests."""

import pytest

from repro.ir.instructions import (
    CMP_NEGATION,
    CMP_OPS,
    CMP_SWAP,
    BinOp,
    Branch,
    Call,
    Cmp,
    Copy,
    Input,
    Instruction,
    Jump,
    Load,
    Phi,
    Pi,
    Return,
    Store,
    UnOp,
)
from repro.ir.values import Constant, Temp


class TestConstruction:
    def test_unknown_binop_rejected(self):
        with pytest.raises(ValueError):
            BinOp(Temp("t"), "frobnicate", Constant(1), Constant(2))

    def test_unknown_cmp_rejected(self):
        with pytest.raises(ValueError):
            Cmp(Temp("t"), "spaceship", Constant(1), Constant(2))

    def test_unknown_unop_rejected(self):
        with pytest.raises(ValueError):
            UnOp(Temp("t"), "sqrt", Constant(1))

    def test_result_of_store_is_none(self):
        assert Store("a", Constant(0), Constant(1)).result is None

    def test_result_of_void_call_is_none(self):
        assert Call(None, "f", []).result is None


class TestOperands:
    def test_binop_operands(self):
        instr = BinOp(Temp("t"), "add", Temp("a"), Constant(2))
        assert instr.operands() == [Temp("a"), Constant(2)]

    def test_replace_operand_both_sides(self):
        instr = BinOp(Temp("t"), "add", Temp("a"), Temp("a"))
        instr.replace_operand(Temp("a"), Temp("b"))
        assert instr.lhs == Temp("b")
        assert instr.rhs == Temp("b")

    def test_replace_in_call_args(self):
        instr = Call(Temp("r"), "f", [Temp("a"), Constant(1), Temp("a")])
        instr.replace_operand(Temp("a"), Constant(9))
        assert instr.args == [Constant(9), Constant(1), Constant(9)]

    def test_replace_branch_condition(self):
        branch = Branch(Temp("c"), "t", "f")
        branch.replace_operand(Temp("c"), Constant(1))
        assert branch.cond == Constant(1)


class TestPhi:
    def test_value_for_label(self):
        phi = Phi(Temp("x"), [("a", Constant(1)), ("b", Temp("y"))])
        assert phi.value_for("b") == Temp("y")

    def test_value_for_missing_label_raises(self):
        phi = Phi(Temp("x"), [("a", Constant(1))])
        with pytest.raises(KeyError):
            phi.value_for("nowhere")

    def test_set_value_for_updates_in_place(self):
        phi = Phi(Temp("x"), [("a", Constant(1))])
        phi.set_value_for("a", Constant(2))
        assert phi.value_for("a") == Constant(2)

    def test_set_value_for_appends_new_label(self):
        phi = Phi(Temp("x"), [("a", Constant(1))])
        phi.set_value_for("b", Constant(3))
        assert len(phi.incomings) == 2

    def test_replace_operand_in_incomings(self):
        phi = Phi(Temp("x"), [("a", Temp("old")), ("b", Temp("keep"))])
        phi.replace_operand(Temp("old"), Temp("new"))
        assert phi.value_for("a") == Temp("new")
        assert phi.value_for("b") == Temp("keep")


class TestTerminators:
    def test_jump_successors(self):
        assert Jump("next").successors() == ["next"]

    def test_branch_successors(self):
        assert Branch(Temp("c"), "yes", "no").successors() == ["yes", "no"]

    def test_return_successors_empty(self):
        assert Return(Constant(0)).successors() == []

    def test_terminator_flags(self):
        assert Jump("x").is_terminator()
        assert Branch(Temp("c"), "a", "b").is_terminator()
        assert Return().is_terminator()
        assert not Copy(Temp("t"), Constant(1)).is_terminator()

    def test_default_return_value_is_zero(self):
        assert Return().value == Constant(0)


class TestCmpTables:
    @pytest.mark.parametrize("op", CMP_OPS)
    def test_negation_is_involution(self, op):
        assert CMP_NEGATION[CMP_NEGATION[op]] == op

    @pytest.mark.parametrize("op", CMP_OPS)
    def test_swap_is_involution(self, op):
        assert CMP_SWAP[CMP_SWAP[op]] == op

    def test_semantics_of_negation(self):
        # x < y  <=>  not (x >= y)
        assert CMP_NEGATION["lt"] == "ge"
        assert CMP_NEGATION["eq"] == "ne"

    def test_semantics_of_swap(self):
        # x < y  <=>  y > x
        assert CMP_SWAP["lt"] == "gt"
        assert CMP_SWAP["le"] == "ge"
        assert CMP_SWAP["eq"] == "eq"


class TestPi:
    def test_pi_records_parent(self):
        pi = Pi(Temp("x.2"), Temp("x.1"), "lt", Constant(10), parent="x.1")
        assert pi.parent == "x.1"
        assert pi.operands() == [Temp("x.1"), Constant(10)]

    def test_pi_rejects_bad_relop(self):
        with pytest.raises(ValueError):
            Pi(Temp("x"), Temp("y"), "between", Constant(1))

    def test_load_operands_exclude_array_name(self):
        load = Load(Temp("v"), "buf", Temp("i"))
        assert load.operands() == [Temp("i")]


def one_of_each():
    """An instance of every instruction class, its slots all distinct."""
    t, u = Temp("t"), Temp("u")
    return [
        BinOp(t, "add", u, Constant(1)),
        UnOp(t, "neg", u),
        Cmp(t, "lt", u, Constant(2)),
        Copy(t, u),
        Phi(t, [("a", u), ("b", Constant(3))]),
        Pi(t, u, "lt", Constant(4), parent="u"),
        Load(t, "arr", u),
        Store("arr", u, Constant(5)),
        Call(t, "f", [u, Constant(6)]),
        Input(t),
        Jump("next"),
        Branch(u, "yes", "no"),
        Return(u),
    ]


class TestCopy:
    def test_every_class_is_covered(self):
        assert {type(i) for i in one_of_each()} == set(Instruction.__subclasses__())

    @pytest.mark.parametrize("instr", one_of_each(), ids=lambda i: type(i).__name__)
    def test_copy_keeps_every_field_and_shares_no_list(self, instr):
        instr.loc = 7
        instr.block = owner = object()
        for block in (None, owner):
            clone = instr.copy(block)
            assert type(clone) is type(instr) and clone is not instr
            assert clone.block is block and clone.loc == 7
            assert repr(clone) == repr(instr)
            for field in type(instr).__slots__:
                value = getattr(instr, field)
                assert getattr(clone, field) == value
                if isinstance(value, list):
                    assert getattr(clone, field) is not value

"""Function / BasicBlock / Module container tests."""

import pytest

from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import Copy, Jump, Phi, Pi, Return
from repro.ir.values import Constant, Temp


class TestBasicBlock:
    def test_append_sets_backpointer(self):
        block = BasicBlock("b")
        instr = block.append(Copy(Temp("x"), Constant(1)))
        assert instr.block is block

    def test_append_after_terminator_rejected(self):
        block = BasicBlock("b")
        block.append(Return(Constant(0)))
        with pytest.raises(ValueError, match="terminated"):
            block.append(Copy(Temp("x"), Constant(1)))

    def test_terminator_property(self):
        block = BasicBlock("b")
        with pytest.raises(ValueError):
            _ = block.terminator
        block.append(Jump("next"))
        assert isinstance(block.terminator, Jump)

    def test_phis_stop_at_first_non_phi(self):
        block = BasicBlock("b")
        block.append(Phi(Temp("a"), [("p", Constant(1))]))
        block.append(Copy(Temp("b"), Constant(2)))
        block.append(Return(Temp("b")))
        assert len(block.phis()) == 1
        assert len(block.body()) == 2

    def test_prepend_phi_goes_after_existing_phis(self):
        block = BasicBlock("b")
        first = Phi(Temp("a"), [("p", Constant(1))])
        block.append(first)
        block.append(Return(Constant(0)))
        second = Phi(Temp("b"), [("p", Constant(2))])
        block.prepend_phi(second)
        assert block.instructions[0] is first
        assert block.instructions[1] is second

    def test_pis_collected(self):
        block = BasicBlock("b")
        block.append(Pi(Temp("x2"), Temp("x1"), "lt", Constant(5)))
        block.append(Return(Temp("x2")))
        assert len(block.pis()) == 1

    def test_remove(self):
        block = BasicBlock("b")
        instr = block.append(Copy(Temp("x"), Constant(1)))
        block.append(Return(Temp("x")))
        block.remove(instr)
        assert instr.block is None
        assert len(block.instructions) == 1


class TestFunction:
    def test_first_block_becomes_entry(self):
        function = Function("f")
        function.add_block(BasicBlock("start"))
        function.add_block(BasicBlock("other"))
        assert function.entry_label == "start"
        assert function.entry.label == "start"

    def test_duplicate_label_rejected(self):
        function = Function("f")
        function.add_block(BasicBlock("b"))
        with pytest.raises(ValueError, match="duplicate"):
            function.add_block(BasicBlock("b"))

    def test_new_block_labels_unique(self):
        function = Function("f")
        labels = {function.new_block().label for _ in range(10)}
        assert len(labels) == 10

    def test_new_temp_names_unique(self):
        function = Function("f")
        names = {function.new_temp().name for _ in range(10)}
        assert len(names) == 10

    def test_cannot_remove_entry(self):
        function = Function("f")
        function.add_block(BasicBlock("entry"))
        with pytest.raises(ValueError):
            function.remove_block("entry")

    def test_entry_of_empty_function_rejected(self):
        with pytest.raises(ValueError):
            _ = Function("f").entry

    def test_instruction_count(self):
        function = Function("f")
        block = function.add_block(BasicBlock("b"))
        block.append(Copy(Temp("x"), Constant(1)))
        block.append(Return(Temp("x")))
        assert function.instruction_count() == 2

    def test_instructions_iterates_all_blocks(self):
        function = Function("f")
        a = function.add_block(BasicBlock("a"))
        b = function.add_block(BasicBlock("b"))
        a.append(Jump("b"))
        b.append(Return(Constant(0)))
        assert len(list(function.instructions())) == 2


class TestModule:
    def test_duplicate_function_rejected(self):
        module = Module()
        module.add_function(Function("f"))
        with pytest.raises(ValueError, match="duplicate"):
            module.add_function(Function("f"))

    def test_main_property(self):
        module = Module()
        main = Function("main")
        module.add_function(main)
        assert module.main is main

    def test_instruction_count_sums_functions(self):
        module = Module()
        for name in ("a", "b"):
            function = Function(name)
            block = function.add_block(BasicBlock("entry"))
            block.append(Return(Constant(0)))
            module.add_function(function)
        assert module.instruction_count() == 2


COPY_SOURCE = """
func fill(n) {
  array a[8];
  var s = 0;
  for (i = 0; i < 8; i = i + 1) {
    a[i] = i * n;
    if (a[i] > 9) { s = s + a[i]; }
  }
  return s + helper(s, 2);
}

func helper(x, y) { return x + y; }

func main(n) { return fill(n); }
"""


class TestCopy:
    def prepared(self):
        from repro.ir import prepare_module
        from repro.lang import compile_source

        module = compile_source(COPY_SOURCE)
        prepare_module(module)
        return module.function("fill")

    def test_copy_keeps_text_lines_and_fingerprints(self):
        from repro.incremental.fingerprint import exact_fingerprint, function_fingerprint
        from repro.ir import format_function

        original = self.prepared()
        copy = original.copy()
        assert copy is not original and copy.name == "fill"
        assert format_function(copy) == format_function(original)
        locs = [instr.loc for instr in original.instructions()]
        assert [instr.loc for instr in copy.instructions()] == locs
        assert any(loc is not None for loc in locs)
        assert function_fingerprint(copy) == function_fingerprint(original)
        assert exact_fingerprint(copy) == exact_fingerprint(original)

    def test_copy_keeps_counters_arrays_and_entry(self):
        original = self.prepared()
        copy = original.copy("fill2")
        assert copy.name == "fill2" and copy.params == original.params
        assert copy.arrays == original.arrays and copy.arrays is not original.arrays
        assert copy.entry_label == original.entry_label
        assert copy.new_temp() == original.new_temp()
        assert copy.new_block().label == original.new_block().label

    def test_copy_is_deep(self):
        original = self.prepared()
        copy = original.copy()
        for label, block in copy.blocks.items():
            source = original.blocks[label]
            assert block is not source
            for instr, twin in zip(block.instructions, source.instructions):
                assert instr is not twin and instr.block is block
        phi = next(i for i in copy.instructions() if isinstance(i, Phi))
        twin = next(i for i in original.instructions() if isinstance(i, Phi))
        phi.incomings.append(("elsewhere", Constant(0)))
        assert len(twin.incomings) == len(phi.incomings) - 1
        assert copy.stamp is None and copy.source_key is None

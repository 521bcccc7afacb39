"""IR verifier tests: malformed functions must be rejected.

Every test class runs twice: once letting the verifier build its own
CFG, and once (the ``SharedSnapshot`` subclasses) handing it a snapshot
taken just before the call, as ``prepare_for_analysis`` does.
"""

import pytest

from repro.ir.cfg import CFG
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Branch, Cmp, Copy, Jump, Phi, Return
from repro.ir.values import Constant, Temp
from repro.ir.verifier import VerificationError, verify_function


class Verifies:
    """Runs the verifier with or without a shared CFG snapshot."""

    shared_snapshot = False

    def verify(self, function: Function, **kwargs) -> None:
        if self.shared_snapshot and function.blocks:
            try:
                kwargs["cfg"] = CFG(function)
            except (KeyError, ValueError):
                pass  # no snapshot of a function whose CFG is malformed
        verify_function(function, **kwargs)


def minimal() -> Function:
    function = Function("f", ["n"])
    entry = function.add_block(BasicBlock("entry"))
    entry.append(Return(Constant(0)))
    return function


class TestStructural(Verifies):
    def test_minimal_function_passes(self):
        self.verify(minimal())

    def test_empty_function_rejected(self):
        with pytest.raises(VerificationError):
            self.verify(Function("empty"))

    def test_unterminated_block_rejected(self):
        function = Function("f")
        block = function.add_block(BasicBlock("entry"))
        block.instructions.append(Copy(Temp("x"), Constant(1)))  # bypass append check
        with pytest.raises(VerificationError, match="not terminated"):
            self.verify(function)

    def test_dangling_target_rejected(self):
        function = Function("f")
        block = function.add_block(BasicBlock("entry"))
        block.append(Jump("ghost"))
        with pytest.raises(VerificationError, match="unknown block"):
            self.verify(function)

    def test_instructions_after_terminator_rejected(self):
        function = minimal()
        block = function.block("entry")
        block.instructions.append(Copy(Temp("x"), Constant(1)))
        with pytest.raises(VerificationError, match="after terminator"):
            self.verify(function)

    def test_phi_after_non_phi_rejected(self):
        function = Function("f", ["n"])
        entry = function.add_block(BasicBlock("entry"))
        target = function.add_block(BasicBlock("target"))
        entry.append(Jump("target"))
        target.instructions.append(Copy(Temp("x"), Constant(1)))
        target.instructions.append(Phi(Temp("y"), [("entry", Constant(0))]))
        target.instructions.append(Return(Temp("y")))
        with pytest.raises(VerificationError, match="after non-phi"):
            self.verify(function)

    def test_phi_incoming_mismatch_rejected(self):
        function = Function("f", ["n"])
        entry = function.add_block(BasicBlock("entry"))
        target = function.add_block(BasicBlock("target"))
        entry.append(Jump("target"))
        target.append(Phi(Temp("x"), [("elsewhere", Constant(0))]))
        target.append(Return(Temp("x")))
        with pytest.raises(VerificationError, match="predecessors"):
            self.verify(function)

    def test_multiple_terminators_rejected(self):
        function = minimal()
        function.block("entry").instructions.append(Return(Constant(1)))
        with pytest.raises(VerificationError, match="multiple terminators"):
            self.verify(function)

    def test_duplicate_phi_incoming_labels_rejected(self):
        function = _diamond()
        function.block("join").instructions.insert(
            0,
            Phi(Temp("x"), [("left", Constant(0)), ("right", Constant(1)),
                            ("left", Constant(2))]),
        )
        with pytest.raises(VerificationError, match="duplicate incoming labels"):
            self.verify(function)


def _diamond() -> Function:
    """entry branches on n to left or right, which both jump to join."""
    function = Function("f", ["n"])
    entry = function.add_block(BasicBlock("entry"))
    for label in ("left", "right"):
        function.add_block(BasicBlock(label)).append(Jump("join"))
    join = function.add_block(BasicBlock("join"))
    entry.append(Cmp(Temp("c"), "lt", Temp("n"), Constant(0)))
    entry.append(Branch(Temp("c"), "left", "right"))
    join.append(Return(Constant(0)))
    return function


class TestStructuralSharedSnapshot(TestStructural):
    shared_snapshot = True


class TestSSAChecks(Verifies):
    def test_double_definition_rejected(self):
        function = minimal()
        block = function.block("entry")
        block.insert(0, Copy(Temp("x"), Constant(1)))
        block.insert(1, Copy(Temp("x"), Constant(2)))
        with pytest.raises(VerificationError, match="more than once"):
            self.verify(function, ssa=True)

    def test_use_before_definition_in_block_rejected(self):
        function = Function("f")
        entry = function.add_block(BasicBlock("entry"))
        entry.append(Copy(Temp("y"), Temp("x")))
        entry.append(Copy(Temp("x"), Constant(1)))
        entry.append(Return(Temp("y")))
        with pytest.raises(VerificationError):
            self.verify(function, ssa=True)

    def test_use_not_dominated_rejected(self):
        function = Function("f", ["n"])
        entry = function.add_block(BasicBlock("entry"))
        left = function.add_block(BasicBlock("left"))
        right = function.add_block(BasicBlock("right"))
        join = function.add_block(BasicBlock("join"))
        entry.append(Cmp(Temp("c"), "lt", Temp("n.0"), Constant(0)))
        entry.append(Branch(Temp("c"), "left", "right"))
        left.append(Copy(Temp("x"), Constant(1)))
        left.append(Jump("join"))
        right.append(Jump("join"))
        join.append(Return(Temp("x")))  # x does not dominate join
        with pytest.raises(VerificationError, match="dominate"):
            self.verify(function, ssa=True, param_names={"n.0"})

    def test_valid_ssa_accepted(self):
        function = Function("f", ["n"])
        entry = function.add_block(BasicBlock("entry"))
        entry.append(Copy(Temp("x.0"), Temp("n.0")))
        entry.append(Return(Temp("x.0")))
        self.verify(function, ssa=True, param_names={"n.0"})

    def test_phi_incoming_dominance_checked(self):
        function = Function("f", ["n"])
        entry = function.add_block(BasicBlock("entry"))
        a = function.add_block(BasicBlock("a"))
        b = function.add_block(BasicBlock("b"))
        join = function.add_block(BasicBlock("join"))
        entry.append(Cmp(Temp("c"), "lt", Temp("n.0"), Constant(0)))
        entry.append(Branch(Temp("c"), "a", "b"))
        a.append(Copy(Temp("va"), Constant(1)))
        a.append(Jump("join"))
        b.append(Jump("join"))
        # Incoming for edge b uses va, which is defined only in a.
        join.append(Phi(Temp("x"), [("a", Temp("va")), ("b", Temp("va"))]))
        join.append(Return(Temp("x")))
        with pytest.raises(VerificationError, match="dominate"):
            self.verify(function, ssa=True, param_names={"n.0"})


    def test_read_of_undefined_name_rejected(self):
        function = Function("f", ["n"])
        entry = function.add_block(BasicBlock("entry"))
        entry.append(Copy(Temp("x"), Temp("ghost")))
        entry.append(Return(Temp("x")))
        with pytest.raises(VerificationError, match="reads undefined ghost"):
            self.verify(function, ssa=True, param_names={"n.0"})

    def test_phi_read_of_undefined_name_rejected(self):
        function = _diamond()
        function.block("join").instructions.insert(
            0, Phi(Temp("x"), [("left", Temp("ghost")), ("right", Constant(1))])
        )
        with pytest.raises(VerificationError, match="phi %x reads undefined ghost"):
            self.verify(function, ssa=True, param_names={"n"})

    def test_parameter_defined_in_body_rejected(self):
        function = Function("f", ["n"])
        entry = function.add_block(BasicBlock("entry"))
        entry.append(Copy(Temp("n.0"), Constant(1)))
        entry.append(Return(Temp("n.0")))
        with pytest.raises(VerificationError, match="n.0 defined more than once"):
            self.verify(function, ssa=True, param_names={"n.0"})


class TestSSAChecksSharedSnapshot(TestSSAChecks):
    shared_snapshot = True


def _branchy() -> Function:
    """entry: c = (n < 10); branch c ? then : other, both returning."""
    from repro.ir.instructions import Pi

    function = Function("g", ["n"])
    entry = function.add_block(BasicBlock("entry"))
    then = function.add_block(BasicBlock("then"))
    other = function.add_block(BasicBlock("other"))
    entry.append(Cmp(Temp("c"), "lt", Temp("n"), Constant(10)))
    entry.append(Branch(Temp("c"), "then", "other"))
    then.append(Return(Temp("n")))
    other.append(Return(Constant(0)))
    return function


class TestPiPlacement(Verifies):
    def test_pi_on_branch_edge_accepted(self):
        from repro.ir.instructions import Pi

        function = _branchy()
        then = function.block("then")
        then.instructions.insert(
            0, Pi(Temp("n1"), Temp("n"), "lt", Constant(10))
        )
        self.verify(function)

    def test_pi_after_body_instruction_rejected(self):
        from repro.ir.instructions import Pi

        function = _branchy()
        then = function.block("then")
        then.instructions.insert(0, Copy(Temp("x"), Constant(1)))
        then.instructions.insert(
            1, Pi(Temp("n1"), Temp("n"), "lt", Constant(10))
        )
        with pytest.raises(VerificationError, match="after body instruction"):
            self.verify(function)

    def test_pi_needs_unique_predecessor(self):
        from repro.ir.instructions import Pi

        function = _branchy()
        join = function.add_block(BasicBlock("join"))
        join.instructions.insert(
            0, Pi(Temp("n1"), Temp("n"), "lt", Constant(10))
        )
        join.append(Return(Constant(0)))
        function.block("then").instructions[-1] = Jump("join")
        function.block("other").instructions[-1] = Jump("join")
        with pytest.raises(VerificationError, match="unique predecessor"):
            self.verify(function)

    def test_pi_in_entry_block_rejected(self):
        from repro.ir.instructions import Pi

        function = _branchy()
        function.block("entry").instructions.insert(
            0, Pi(Temp("n1"), Temp("n"), "lt", Constant(10))
        )
        with pytest.raises(VerificationError, match="unique predecessor"):
            self.verify(function)

    def test_pi_on_non_controlling_variable_rejected(self):
        from repro.ir.instructions import Pi

        function = _branchy()
        function.block("then").instructions.insert(
            0, Pi(Temp("m1"), Temp("m"), "lt", Constant(10))
        )
        with pytest.raises(
            VerificationError, match="not a controlling variable"
        ):
            self.verify(function)

    def test_pi_after_folded_branch_accepted(self):
        # fold_certain_branches rewrites Branch -> Jump but leaves the
        # target's assertions in place; they are still sound.
        from repro.ir.instructions import Pi

        function = _branchy()
        function.block("entry").instructions[-1] = Jump("then")
        del function.blocks["other"]
        function.block("then").instructions.insert(
            0, Pi(Temp("n1"), Temp("n"), "lt", Constant(10))
        )
        self.verify(function)

    def test_pi_through_copy_chain_accepted(self):
        # Copy propagation may leave the cmp reading a copy of the
        # pi's source; the verifier resolves the chain.
        from repro.ir.instructions import Pi

        function = Function("g", ["n"])
        entry = function.add_block(BasicBlock("entry"))
        then = function.add_block(BasicBlock("then"))
        other = function.add_block(BasicBlock("other"))
        entry.append(Copy(Temp("m"), Temp("n")))
        entry.append(Cmp(Temp("c"), "lt", Temp("m"), Constant(10)))
        entry.append(Branch(Temp("c"), "then", "other"))
        then.append(Return(Temp("n")))
        other.append(Return(Constant(0)))
        then.instructions.insert(
            0, Pi(Temp("n1"), Temp("n"), "lt", Constant(10))
        )
        self.verify(function)

    def test_pi_in_unreachable_block_skipped(self):
        # Dead blocks keep their assertions until DCE removes them; the
        # placement rules only apply to reachable code.
        from repro.ir.instructions import Pi

        function = _branchy()
        dead = function.add_block(BasicBlock("dead"))
        dead.instructions.insert(
            0, Pi(Temp("n1"), Temp("n"), "lt", Constant(10))
        )
        dead.append(Return(Constant(0)))
        self.verify(function)


class TestPiPlacementSharedSnapshot(TestPiPlacement):
    shared_snapshot = True


class TestStaleSnapshot:
    """A snapshot that no longer describes the function is a problem."""

    def test_matching_snapshot_accepted(self):
        function = _diamond()
        verify_function(function, ssa=True, param_names={"n"}, cfg=CFG(function))

    @pytest.mark.parametrize("ssa", [False, True])
    def test_retargeted_terminator_rejected(self, ssa):
        function = _diamond()
        cfg = CFG(function)
        function.block("left").instructions[-1] = Return(Constant(1))
        with pytest.raises(VerificationError, match="snapshot is stale"):
            verify_function(function, ssa=ssa, param_names={"n"}, cfg=cfg)

    def test_swapped_branch_targets_rejected(self):
        # Same edges, different order: the snapshot's successor lists
        # (and so the phi incoming order it implies) are out of date.
        function = _diamond()
        cfg = CFG(function)
        function.block("entry").instructions[-1] = Branch(Temp("c"), "right", "left")
        with pytest.raises(VerificationError, match="snapshot is stale"):
            verify_function(function, cfg=cfg)

    def test_added_block_rejected(self):
        function = _diamond()
        cfg = CFG(function)
        function.add_block(BasicBlock("late")).append(Return(Constant(0)))
        with pytest.raises(VerificationError, match="snapshot is stale"):
            verify_function(function, cfg=cfg)

    def test_snapshot_of_another_function_rejected(self):
        with pytest.raises(VerificationError, match="snapshot is stale"):
            verify_function(_diamond(), cfg=CFG(_diamond()))

    def test_structural_problems_are_reported_before_staleness(self):
        function = _diamond()
        cfg = CFG(function)
        function.block("left").instructions[-1] = Jump("ghost")
        with pytest.raises(VerificationError, match="unknown block 'ghost'"):
            verify_function(function, cfg=cfg)

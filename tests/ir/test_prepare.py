"""``prepare_for_analysis`` computes each function's structure once.

The pipeline takes one CFG snapshot after edge splitting; SSA
construction and the verifier share it and its dominator tree.  These
tests count the constructions and check that the SSA verifier still
runs on every prepared function.
"""

import pytest

import repro.ir as ir
from repro.ir.cfg import CFG
from repro.ir.dominance import DominatorTree
from repro.ir.instructions import Branch, Copy
from repro.ir.values import Constant
from repro.lang import compile_source
from repro.workloads import all_workloads


@pytest.fixture
def constructions(monkeypatch):
    """Counts of CFG and DominatorTree constructions while the test runs."""
    counts = {"CFG": 0, "DominatorTree": 0}
    for cls in (CFG, DominatorTree):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


SOURCES = {workload.name: workload.source for workload in all_workloads()}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_one_snapshot_and_one_dominator_tree_per_function(name, constructions):
    module = compile_source(SOURCES[name])
    for function in module.functions.values():
        before = dict(constructions)
        ir.prepare_for_analysis(function)
        assert constructions["CFG"] - before["CFG"] == 1
        assert constructions["DominatorTree"] - before["DominatorTree"] == 1


def test_the_ssa_verifier_runs_on_every_prepared_function(monkeypatch):
    calls = []
    verify = ir.verify_function

    def recording(function, **kwargs):
        calls.append((function.name, kwargs.get("ssa"), kwargs.get("cfg") is not None))
        verify(function, **kwargs)

    monkeypatch.setattr(ir, "verify_function", recording)
    module = compile_source(SOURCES["fir"])
    ir.prepare_module(module)
    assert calls == [(name, True, True) for name in module.functions]


PROGRAM = "func main(n) { var x = n + 1; if (x > 3) { x = 0; } return x; }"


def test_a_renaming_mistake_fails_prepare(monkeypatch):
    original = ir.construct_ssa

    def broken(function, cfg=None):
        info = original(function, cfg)
        entry = function.block(function.entry_label)
        first = next(i for i in entry.instructions if i.result is not None)
        entry.insert(0, Copy(first.result, Constant(0)))
        return info

    monkeypatch.setattr(ir, "construct_ssa", broken)
    with pytest.raises(ir.VerificationError, match="defined more than once"):
        ir.prepare_for_analysis(compile_source(PROGRAM).function("main"))


def test_a_branch_retargeted_after_the_snapshot_fails_prepare(monkeypatch):
    original = ir.construct_ssa

    def broken(function, cfg=None):
        info = original(function, cfg)
        for block in function.blocks.values():
            term = block.terminator
            if isinstance(term, Branch):
                term.true_target, term.false_target = term.false_target, term.true_target
        return info

    monkeypatch.setattr(ir, "construct_ssa", broken)
    with pytest.raises(ir.VerificationError, match="snapshot is stale"):
        ir.prepare_for_analysis(compile_source(PROGRAM).function("main"))

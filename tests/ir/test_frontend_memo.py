"""The front-end memo: a warm compile is byte-for-byte a cold one.

``tokenize`` lexes again only what changed since the last source,
``Parser.parse_program`` reuses the ``FuncDef`` of a token span it has
parsed before, wherever the span now sits, ``lower_program`` defers a
function whose source key has a prepared template, and
``prepare_module`` copies that template, moved to the function's lines
(``repro.ir.memo``).
Every product of a compile -- the prepared IR, each instruction's
source line, the ``SSAInfo``, both incremental fingerprints and the
``predict``/``check``/``ranges`` output -- must be the same whatever the
memo holds.  The ledger's own ``recheck_equals_cold_analysis`` check
compiles its cold side through the same memo, so it cannot guard this.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import commands
from repro.core import VRPConfig, perf
from repro.core.cloning import clone_for_contexts
from repro.core.interprocedural import analyse_module
from repro.incremental.fingerprint import fingerprint_salt, module_fingerprints
from repro.ir import Pi, format_module, memo, prepare_module
from repro.ir.instructions import Call
from repro.lang import MovedFuncDef, Parser, compile_source, lower_program, tokenize
from repro.opt.inlining import inline_call
from repro.passes import PassPipeline

SALT = fingerprint_salt(VRPConfig())


def compile_counting(source):
    """``(module, infos, hits)``: hits are functions the memo supplied."""
    module = compile_source(source)
    lowered = dict(module.functions)
    infos = prepare_module(module)
    hits = sum(
        module.functions[name] is not function for name, function in lowered.items()
    )
    return module, infos, hits


def products(module, infos):
    """Everything a compile hands on, as comparable values."""
    return (
        format_module(module, show_preds=True),
        [
            (instr.loc, instr.parent if isinstance(instr, Pi) else None)
            for function in module.functions.values()
            for instr in function.instructions()
        ],
        [
            (name, info.param_names, info.original_name, info.phi_count)
            for name, info in infos.items()
        ],
        module_fingerprints(module, salt=SALT),
    )


def outputs(source):
    """``predict``, ``check`` and ``ranges`` output, from one compile."""
    from repro import rendering
    from repro.core import VRPPredictor
    from repro.diagnostics import check_module

    module, infos = commands.prepare(source)
    prediction = VRPPredictor().predict_module(module, infos)
    return [
        rendering.branch_table(prediction.all_branches(), prediction.heuristic_branches()),
        commands.render_check(check_module(module, prediction, program="p"), "text"),
        rendering.ranges_listing(prediction),
    ]


def cold(source):
    perf.reset()
    module, infos, hits = compile_counting(source)
    assert hits == 0
    return products(module, infos)


def cold_outputs(source):
    perf.reset()
    return outputs(source)


#: Every how many edits the analysis output is compared too.
OUTPUT_EVERY = 4


def edit_sources(seed, edits=20, components=5):
    """The sources of ``edits`` seeded edits, reverts and comments included."""
    from benchmarks.ledger.corpus import EDIT_MIX, EditableModule

    module = EditableModule(seed, components)
    kinds = module.block(len(EDIT_MIX))[:edits]
    assert {"constant", "revert", "comment"} <= set(kinds)
    sources = []
    for kind in kinds:
        module.edit(kind)
        sources.append(module.source())
    return sources


def truth_sources():
    from benchmarks.ledger.corpus import truth_corpus

    return {program.name: program.source for program in truth_corpus()}


TRUTH = truth_sources()


class TestWarmEqualsCold:
    @pytest.mark.parametrize("name", sorted(TRUTH))
    def test_corpus_program(self, name):
        source = TRUTH[name]
        perf.reset()
        warm = [compile_counting(source) for _ in range(3)]
        assert [hits for _, _, hits in warm[:2]] == [0, 0]
        module, infos, hits = warm[2]
        assert hits == len(module.functions)
        warm_products = products(module, infos)
        warm_outputs = outputs(source)
        assert warm_products == cold(source)
        assert warm_outputs == cold_outputs(source)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_edit_sequence(self, seed):
        sources = edit_sources(seed)
        perf.reset()
        warm = []
        total_hits = 0
        for index, source in enumerate(sources):
            module, infos, hits = compile_counting(source)
            total_hits += hits
            warm.append(
                (products(module, infos),
                 outputs(source) if index % OUTPUT_EVERY == 0 else None)
            )
        # From the third edit on, every function an edit did not touch
        # comes from its template.
        assert total_hits > len(sources) * len(module.functions) // 2
        for source, (products_, outputs_) in zip(sources, warm):
            assert products_ == cold(source)
            if outputs_ is not None:
                assert outputs_ == cold_outputs(source)


CALLER_CALLEE = """
func square(v) {
  return v * v;
}

func kernel(size) {
  var t = 0;
  for (i = 0; i < size; i = i + 1) { t = t + i; }
  return t;
}

func main(n) {
  var total = kernel(4) + kernel(400);
  for (i = 0; i < 10; i = i + 1) {
    total = total + square(i);
  }
  return total;
}
"""


def warmed(source):
    """A module whose every function came from a template."""
    perf.reset()
    for _ in range(2):
        compile_counting(source)
    module, infos, hits = compile_counting(source)
    assert hits == len(module.functions)
    return module, infos


def find_call(function, callee):
    for instr in function.instructions():
        if isinstance(instr, Call) and instr.callee == callee:
            return instr
    raise AssertionError(f"no call to {callee}")


class TestRewritesDoNotLeak:
    """A rewrite of a memo-supplied module never reaches a later compile."""

    def expect_unchanged(self, source):
        module, infos, hits = compile_counting(source)
        assert hits == len(module.functions)
        after = products(module, infos)
        assert after == cold(source)

    def test_optimize_pipeline(self):
        module, infos = warmed(CALLER_CALLEE)
        before = format_module(module)
        PassPipeline.select("optimize").run(module, infos)
        assert format_module(module) != before
        self.expect_unchanged(CALLER_CALLEE)

    def test_clone_for_contexts(self):
        module, infos = warmed(CALLER_CALLEE)
        report = clone_for_contexts(module, analyse_module(module, infos))
        assert report.variants
        assert module.function("main").stamp is None
        self.expect_unchanged(CALLER_CALLEE)

    def test_inline_call(self):
        module, _ = warmed(CALLER_CALLEE)
        main = module.function("main")
        inline_call(main, find_call(main, "square"), module.function("square"), "t0")
        assert main.stamp is None
        self.expect_unchanged(CALLER_CALLEE)

    def test_rewritten_functions_are_fingerprinted_afresh(self):
        from repro.incremental.fingerprint import _fingerprints

        module, _ = warmed(CALLER_CALLEE)
        main = module.function("main")
        before = module_fingerprints(module, salt=SALT)["main"]
        inline_call(main, find_call(main, "square"), module.function("square"), "t0")
        after = module_fingerprints(module, salt=SALT)["main"]
        assert after != before
        assert after == _fingerprints(main, SALT)


class TestLowering:
    def test_lower_program_is_cold_whatever_the_memo_holds(self):
        def lowered():
            program = Parser(tokenize(CALLER_CALLEE)).parse_program()
            module = lower_program(program)
            return format_module(module, show_preds=True), [
                instr.loc for function in module.functions.values()
                for instr in function.instructions()
            ]

        perf.reset()
        expected = lowered()
        warmed(CALLER_CALLEE)
        assert lowered() == expected
        # Still unprepared: no phis, no assertions.
        assert " = phi " not in expected[0] and " = pi " not in expected[0]

    def test_only_the_edited_function_is_lowered(self, monkeypatch):
        from repro.lang import lowering

        lowered = []
        lower = lowering._FunctionLowerer.lower

        def counting(self):
            lowered.append(self.funcdef.name)
            return lower(self)

        monkeypatch.setattr(lowering._FunctionLowerer, "lower", counting)
        perf.reset()
        for _ in range(2):
            compile_counting(CALLER_CALLEE)
        assert lowered == ["square", "kernel", "main"] * 2
        del lowered[:]
        edited = CALLER_CALLEE.replace("kernel(400)", "kernel(401)")
        module, infos, hits = compile_counting(edited)
        assert lowered == ["main"] and hits == 2
        assert products(module, infos) == cold(edited)

    def test_a_warm_module_never_prepared_reads_as_a_cold_one(self):
        edited = CALLER_CALLEE.replace("kernel(400)", "kernel(401)")

        def lowered():
            module = lower_program(Parser(tokenize(edited)).parse_program())
            return module, [type(f).__name__ for f in module.functions.values()]

        perf.reset()
        expected = format_module(lowered()[0], show_preds=True)
        warmed(CALLER_CALLEE)
        module, kinds = lowered()
        assert kinds == ["_Deferred", "_Deferred", "Function"]
        square = module.function("square")
        # The memo's marks are read without lowering.
        assert square.stamp is None and square.source_key is not None
        assert type(square).__name__ == "_Deferred"
        assert format_module(module, show_preds=True) == expected
        assert [type(f) for f in module.functions.values()] == [type(square)] * 3
        assert not hasattr(square, "_arguments")

    def test_a_reparsed_span_yields_the_same_funcdef(self):
        perf.reset()
        first = Parser(tokenize(CALLER_CALLEE)).parse_program()
        second = Parser(tokenize(CALLER_CALLEE)).parse_program()
        assert [f.name for f in second.functions] == ["square", "kernel", "main"]
        assert all(a is b for a, b in zip(first.functions, second.functions))
        # A moved function reuses its FuncDef, shifted: lowered, it is
        # what a cold compile of the moved source gives.
        moved = "\n\n" + CALLER_CALLEE
        shifted = Parser(tokenize(moved)).parse_program()
        assert all(
            isinstance(b, MovedFuncDef) and b.origin is a and b.shift == 2
            for a, b in zip(first.functions, shifted.functions)
        )
        module = lower_program(shifted)
        assert products(module, prepare_module(module)) == cold(moved)


class TestReset:
    def test_perf_reset_empties_the_memo(self):
        warmed(CALLER_CALLEE)
        assert memo.UNITS and memo.CONTEXT and memo.FUNCDEFS and memo.PREPARED
        perf.reset()
        assert not memo.UNITS and memo.CONTEXT is None
        assert not memo.FUNCDEFS and not memo.PREPARED
        assert compile_counting(CALLER_CALLEE)[2] == 0


# -- edits that move lines -------------------------------------------------------

#: Five functions with findings that carry lines (a dead branch, an
#: unreachable block, an uncalled function), so moved lines show in
#: ``check``.
MOVABLE = """const K = 4;

func helper(x) {
  var t = 0;
  for (i = 0; i < 10; i = i + 1) {
    if (i > 20) { t = t + 1; }
    t = t + x / 2;
  }
  return t;
}

func unused(y) {
  if (y > 3) { return 1; }
  return 0;
}

func scale(v) {
  var s = v * 3;
  while (s > 100) { s = s - K; }
  return s;
}

func pick(a, b) {
  if (a < b) { return a; }
  return b;
}

func main(n) {
  var a = helper(n);
  var z = scale(a) + pick(n, 7);
  if (a < 0) { z = 5; }
  return a + z;
}
"""


@st.composite
def moving_edits(draw):
    """``MOVABLE`` and three to six successive edits: comment and blank
    lines inserted into or deleted from several functions, constants
    changed in two distant functions, and reverts to an earlier source."""
    sources = [MOVABLE]
    for _ in range(draw(st.integers(3, 6))):
        kind = draw(st.sampled_from(["lines", "lines", "constants", "revert"]))
        if kind == "revert" and len(sources) > 1:
            sources.append(draw(st.sampled_from(sources[:-1])))
            continue
        lines = sources[-1].split("\n")
        if kind == "constants":
            literals = [
                (row, match)
                for row, line in enumerate(lines)
                for match in re.finditer(r"\b\d+\b", line)
            ]
            half = len(literals) // 2
            for row, match in (
                literals[draw(st.integers(half, len(literals) - 1))],
                literals[draw(st.integers(0, half - 1))],
            ):
                line = lines[row]
                fresh = str(int(match.group()) + draw(st.integers(1, 9)))
                lines[row] = line[: match.start()] + fresh + line[match.end() :]
        else:
            sites = draw(st.lists(st.integers(1, len(lines) - 1), min_size=2, max_size=4, unique=True))
            for at in sorted(sites, reverse=True):
                if lines[at].strip() in ("", "// note") and draw(st.booleans()):
                    del lines[at]
                else:
                    lines[at:at] = [draw(st.sampled_from(["  // note", "", "/* a\nb */"]))]
        sources.append("\n".join(lines))
    return sources


def frontend(source):
    """Tokens, products and every output of one compile of ``source``,
    or the error it raises."""
    from repro import rendering
    from repro.core import VRPPredictor
    from repro.diagnostics import check_module

    try:
        tokens = tokenize(source)
        module = lower_program(Parser(tokens).parse_program())
    except commands.PROGRAM_ERRORS as error:
        return f"error: {error}"
    infos = prepare_module(module)
    product = products(module, infos)
    prediction = VRPPredictor().predict_module(module, infos)
    report = check_module(module, prediction, program="p")
    return (
        [(t.kind, t.text, t.value, t.line, t.column) for t in tokens],
        product,
        rendering.branch_table(prediction.all_branches(), prediction.heuristic_branches()),
        rendering.ranges_listing(prediction),
        commands.render_check(report, "text"),
        commands.render_check(report, "sarif"),
    )


class TestMovedLines:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(moving_edits())
    def test_a_chain_of_moving_edits_compiles_warm_as_cold(self, sources):
        perf.reset()
        warm = [frontend(source) for source in sources]
        for source, result in zip(sources, warm):
            perf.reset()
            assert result == frontend(source)

    def test_a_comment_line_in_the_first_function_redoes_only_it(self, monkeypatch):
        import repro.ir as ir
        from repro.lang import lowering

        lowered, prepared = [], []
        lower, prepare = lowering._FunctionLowerer.lower, ir.prepare_for_analysis

        def counting_lower(self):
            lowered.append(self.funcdef.name)
            return lower(self)

        def counting_prepare(function, assertions=True):
            prepared.append(function.name)
            return prepare(function, assertions=assertions)

        monkeypatch.setattr(lowering._FunctionLowerer, "lower", counting_lower)
        monkeypatch.setattr(ir, "prepare_for_analysis", counting_prepare)
        perf.reset()
        for _ in range(2):
            compile_counting(CALLER_CALLEE)
        del lowered[:], prepared[:]
        edited = CALLER_CALLEE.replace("func square(v) {\n", "func square(v) {\n  // note\n")
        module, infos, hits = compile_counting(edited)
        # kernel and main moved a line down: their templates, moved.
        assert lowered == ["square"] and prepared == ["square"] and hits == 2
        assert [f.loc for f in module.function("main").instructions()][:1] == [14]
        assert products(module, infos) == cold(edited)

    def test_a_moved_function_reports_a_lowering_error_on_its_new_line(self):
        from repro.lang import LoweringError

        source = "func f(a) {\n  return a;\n}\n\nfunc g(x) {\n  var y = x + 1;\n  return f(y);\n}\n"
        # g only moves, but f's new arity fails its lowering.
        edited = "// note\n" + source.replace("func f(a) {", "func f(a, b) {")
        perf.reset()
        compile_source(source)
        with pytest.raises(LoweringError) as warm:
            compile_source(edited)
        assert isinstance(memo.FUNCDEFS["g"][1], MovedFuncDef)
        perf.reset()
        with pytest.raises(LoweringError) as cold_error:
            compile_source(edited)
        assert str(warm.value) == str(cold_error.value)
        assert warm.value.line == 8

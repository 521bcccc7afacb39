"""Interpreter semantics cross-checked against Python evaluation.

Hypothesis generates arithmetic expression trees, renders them as toy
source *and* evaluates them with Python's own operators; the interpreter
must agree exactly (the language definition says "Python semantics").
Division/modulo by zero must agree as traps.  A tree of literals only is
also folded as a ``const``: the folded value must be the interpreter's,
or both must trap.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import LoweringError, compile_source
from repro.ir import prepare_module
from repro.profiling import InterpreterError, run_module


class _Node:
    """An expression tree that can render to toy source and evaluate."""

    def __init__(self, kind, children=(), value=0):
        self.kind = kind
        self.children = children
        self.value = value

    def render(self) -> str:
        if self.kind == "lit":
            return f"({self.value})" if self.value >= 0 else f"(0 - {-self.value})"
        if self.kind == "var":
            return "n"
        a = self.children[0].render()
        if self.kind == "neg":
            return f"(-({a}))"
        if self.kind == "not":
            return f"(!({a}))"
        b = self.children[1].render()
        op = {
            "add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%",
            "and": "&", "or": "|", "xor": "^", "shl": "<<", "shr": ">>",
            "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!=",
        }[self.kind]
        return f"(({a}) {op} ({b}))"

    def has_var(self) -> bool:
        return self.kind == "var" or any(child.has_var() for child in self.children)

    def evaluate(self, n):
        if self.kind == "lit":
            return self.value
        if self.kind == "var":
            return n
        a = self.children[0].evaluate(n)
        if self.kind == "neg":
            return -a
        if self.kind == "not":
            return int(not a)
        b = self.children[1].evaluate(n)
        if self.kind == "add":
            return a + b
        if self.kind == "sub":
            return a - b
        if self.kind == "mul":
            return a * b
        if self.kind == "div":
            if b == 0:
                raise ZeroDivisionError
            return a // b
        if self.kind == "mod":
            if b == 0:
                raise ZeroDivisionError
            return a % b
        if self.kind == "and":
            return a & b
        if self.kind == "or":
            return a | b
        if self.kind == "xor":
            return a ^ b
        if self.kind == "shl":
            if not 0 <= b <= 512:
                raise ZeroDivisionError  # trap-equivalent
            return a << b
        if self.kind == "shr":
            if not 0 <= b <= 512:
                raise ZeroDivisionError
            return a >> b
        return {
            "lt": a < b, "le": a <= b, "gt": a > b,
            "ge": a >= b, "eq": a == b, "ne": a != b,
        }[self.kind] and 1 or 0


KINDS = [
    "add", "sub", "mul", "div", "mod", "and", "or", "xor",
    "lt", "le", "gt", "ge", "eq", "ne", "neg", "not",
]


@st.composite
def expression_trees(draw, depth=0, kinds=tuple(KINDS), literal_only=False):
    if depth >= 3 or draw(st.booleans()) and depth > 0:
        if literal_only or draw(st.booleans()):
            return _Node("lit", value=draw(st.integers(-50, 50)))
        return _Node("var")
    kind = draw(st.sampled_from(kinds))
    children = expression_trees(depth + 1, kinds, literal_only)
    if kind in ("neg", "not"):
        return _Node(kind, (draw(children),))
    return _Node(kind, (draw(children), draw(children)))


def _run(source, args=(0,)):
    """The interpreter's value of ``main``, or ``"trap"``."""
    try:
        module = compile_source(source)
        prepare_module(module)
        return run_module(module, args=list(args)).return_value
    except (InterpreterError, LoweringError):
        return "trap"


def assert_constant_folds_like_the_interpreter(expr):
    folded = _run(f"const K = {expr};\nfunc main(n) {{ return K; }}")
    run = _run(f"func main(n) {{ return {expr}; }}")
    assert folded == run, (expr, folded, run)


@settings(max_examples=150, deadline=None)
@given(expression_trees(), st.integers(min_value=-30, max_value=30))
def test_interpreter_matches_python(tree, n):
    source = f"func main(n) {{ return {tree.render()}; }}"
    module = compile_source(source)
    prepare_module(module)
    try:
        expected = tree.evaluate(n)
    except ZeroDivisionError:
        try:
            run_module(module, args=[n])
        except InterpreterError:
            return  # both trap: agreement
        raise AssertionError(f"Python trapped but interpreter did not: {source}")
    result = run_module(module, args=[n])
    assert result.return_value == expected, source
    if not tree.has_var():
        assert_constant_folds_like_the_interpreter(tree.render())


@settings(max_examples=150, deadline=None)
@given(expression_trees(kinds=tuple(KINDS) + ("shl", "shr"), literal_only=True))
def test_constants_fold_like_the_interpreter_runs(tree):
    assert_constant_folds_like_the_interpreter(tree.render())


@pytest.mark.parametrize(
    "expr",
    ["1 << 4000000000", "1 >> 4000000000", "1 << (0 - 1)", "7 / 0", "7 % 0", "1 << 512"],
)
def test_constant_folding_traps_like_the_interpreter(expr):
    assert_constant_folds_like_the_interpreter(expr)


def test_a_huge_constant_shift_is_a_lowering_error():
    with pytest.raises(LoweringError, match="bad constant expression: bad shift amount 4000000000"):
        compile_source("const K = 1 << 4000000000;\nfunc main(n) { return K; }")

"""Print random expression trees with the fewest parentheses, parse them back.

The precedence levels below are the ones ``docs/LANGUAGE.md`` documents,
written out here rather than read from the parser, so the test checks
the parser against the documentation.  Every binary level is
left-associative, and unary ``-``/``!`` bind tighter than any of them.
"""

from hypothesis import given, settings, strategies as st

from repro.lang import ast_nodes as ast
from repro.lang.parser import parse

#: Loosest to tightest, as documented.
LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]
PRECEDENCE = {op: level for level, ops in enumerate(LEVELS, start=1) for op in ops}
UNARY = len(LEVELS) + 1
NAMES = ["a", "b", "n"]

leaf = st.one_of(
    st.integers(min_value=-20, max_value=20).map(lambda v: ("int", v)),
    st.sampled_from(NAMES).map(lambda name: ("var", name)),
)


def _unary(operand):
    # The parser folds '-' over a literal into the literal, so a
    # UnaryExpr('-', IntLit) has no spelling; '-' applies to the rest.
    ops = st.sampled_from(["!"]) if operand[0] == "int" else st.sampled_from(["-", "!"])
    return ops.map(lambda op: ("unary", op, operand))


def _extend(children):
    return st.one_of(
        st.tuples(st.just("binary"), st.sampled_from(sorted(PRECEDENCE)), children, children),
        children.flatmap(_unary),
        st.tuples(st.just("call"), st.just("f"), children),
        st.tuples(st.just("index"), st.sampled_from(NAMES), children),
    )


trees = st.recursive(leaf, _extend, max_leaves=24)


def show(tree, context: int = 0) -> str:
    """``tree`` as source, parenthesised only where ``context`` binds tighter."""
    kind = tree[0]
    if kind == "int":
        return str(tree[1])
    if kind == "var":
        return tree[1]
    if kind == "call":
        return f"{tree[1]}({show(tree[2])})"
    if kind == "index":
        return f"{tree[1]}[{show(tree[2])}]"
    if kind == "unary":
        return f"{tree[1]} {show(tree[2], UNARY)}"
    _, op, lhs, rhs = tree
    level = PRECEDENCE[op]
    text = f"{show(lhs, level)} {op} {show(rhs, level + 1)}"
    return f"({text})" if level < context else text


def shape(node) -> tuple:
    """The parsed AST in the generator's tuple form."""
    if isinstance(node, ast.IntLit):
        return ("int", node.value)
    if isinstance(node, ast.Var):
        return ("var", node.name)
    if isinstance(node, ast.CallExpr):
        (arg,) = node.args
        return ("call", node.callee, shape(arg))
    if isinstance(node, ast.IndexExpr):
        return ("index", node.array, shape(node.index))
    if isinstance(node, ast.UnaryExpr):
        return ("unary", node.op, shape(node.operand))
    expected = ast.LogicalExpr if node.op in ("&&", "||") else ast.BinaryExpr
    assert type(node) is expected, (node.op, type(node))
    return ("binary", node.op, shape(node.lhs), shape(node.rhs))


def parse_expression(text: str):
    program = parse(f"func f(x) {{ return x; }} func main(a, b, n) {{ return {text}; }}")
    return program.functions[1].body.statements[0].value


@settings(max_examples=400, deadline=None, derandomize=True)
@given(trees)
def test_minimal_parentheses_parse_back_to_the_same_tree(tree):
    text = show(tree)
    assert shape(parse_expression(text)) == tree, text


def test_every_pair_of_operators_round_trips():
    # Random trees rarely put two given operators next to each other;
    # this covers every pair, nested on either side.
    a, b, n = ("var", "a"), ("var", "b"), ("var", "n")
    assert len(PRECEDENCE) == 18
    for outer in PRECEDENCE:
        for inner in PRECEDENCE:
            for tree in (
                ("binary", outer, ("binary", inner, a, b), n),
                ("binary", outer, a, ("binary", inner, b, n)),
            ):
                assert shape(parse_expression(show(tree))) == tree, show(tree)


def test_same_level_operators_associate_left():
    tree = ("binary", "-", ("binary", "-", ("var", "a"), ("var", "b")), ("var", "n"))
    assert show(tree) == "a - b - n"
    assert shape(parse_expression("a - b - n")) == tree
    assert shape(parse_expression("a - (b - n)"))[3][0] == "binary"

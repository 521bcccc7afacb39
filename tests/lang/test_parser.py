"""Parser unit tests."""

import pytest

from repro.lang import ast_nodes as ast
from repro.lang.parser import MAX_NESTING, ParseError, parse


def parse_main_body(body: str):
    program = parse(f"func main(n) {{ {body} }}")
    return program.functions[0].body.statements


def parse_expr(expr_text: str):
    statements = parse_main_body(f"x = {expr_text};")
    assign = statements[0]
    assert isinstance(assign, ast.Assign)
    return assign.value


class TestTopLevel:
    def test_single_function(self):
        program = parse("func main(n) { return n; }")
        assert [f.name for f in program.functions] == ["main"]
        assert program.functions[0].params == ["n"]

    def test_multiple_functions(self):
        program = parse("func a() { return 1; } func b(x, y) { return x; }")
        assert [f.name for f in program.functions] == ["a", "b"]
        assert program.functions[1].params == ["x", "y"]

    def test_empty_program_rejected(self):
        with pytest.raises(ParseError):
            parse("")

    def test_garbage_after_function_rejected(self):
        with pytest.raises(ParseError):
            parse("func main() { return 0; } garbage")


class TestStatements:
    def test_var_decl_with_init(self):
        (stmt,) = parse_main_body("var x = 5;")
        assert isinstance(stmt, ast.Assign)
        assert stmt.name == "x"
        assert isinstance(stmt.value, ast.IntLit)

    def test_var_decl_defaults_to_zero(self):
        (stmt,) = parse_main_body("var x;")
        assert isinstance(stmt.value, ast.IntLit)
        assert stmt.value.value == 0

    def test_array_decl(self):
        (stmt,) = parse_main_body("array buf[64];")
        assert isinstance(stmt, ast.ArrayDecl)
        assert stmt.name == "buf"
        assert stmt.size == 64

    def test_array_decl_accepts_named_constant(self):
        (stmt,) = parse_main_body("array buf[SIZE];")
        assert stmt.size == "SIZE"  # resolved (or rejected) at lowering

    def test_array_decl_rejects_expression_size(self):
        with pytest.raises(ParseError):
            parse_main_body("array buf[2 + 2];")

    def test_array_store(self):
        (stmt,) = parse_main_body("buf[i + 1] = 5;")
        assert isinstance(stmt, ast.ArrayAssign)
        assert isinstance(stmt.index, ast.BinaryExpr)

    def test_array_read_statement(self):
        (stmt,) = parse_main_body("x = buf[2];")
        assert isinstance(stmt.value, ast.IndexExpr)

    def test_if_without_else(self):
        (stmt,) = parse_main_body("if (x) { y = 1; }")
        assert isinstance(stmt, ast.If)
        assert stmt.else_block is None

    def test_if_else(self):
        (stmt,) = parse_main_body("if (x) { y = 1; } else { y = 2; }")
        assert stmt.else_block is not None

    def test_else_if_chain(self):
        (stmt,) = parse_main_body(
            "if (x) { y = 1; } else if (z) { y = 2; } else { y = 3; }"
        )
        nested = stmt.else_block.statements[0]
        assert isinstance(nested, ast.If)
        assert nested.else_block is not None

    def test_while(self):
        (stmt,) = parse_main_body("while (x < 10) { x = x + 1; }")
        assert isinstance(stmt, ast.While)

    def test_do_while(self):
        (stmt,) = parse_main_body("do { x = x + 1; } while (x < 5);")
        assert isinstance(stmt, ast.DoWhile)

    def test_for_full(self):
        (stmt,) = parse_main_body("for (i = 0; i < 10; i = i + 1) { x = i; }")
        assert isinstance(stmt, ast.For)
        assert stmt.init is not None
        assert stmt.condition is not None
        assert stmt.update is not None

    def test_for_empty_sections(self):
        (stmt,) = parse_main_body("for (;;) { break; }")
        assert stmt.init is None and stmt.condition is None and stmt.update is None

    def test_break_continue(self):
        statements = parse_main_body("while (1) { break; continue; }")
        body = statements[0].body.statements
        assert isinstance(body[0], ast.Break)
        assert isinstance(body[1], ast.Continue)

    def test_return_void(self):
        (stmt,) = parse_main_body("return;")
        assert isinstance(stmt, ast.Return)
        assert stmt.value is None

    def test_expression_statement(self):
        program = parse("func f() { return 0; } func main(n) { f(); }")
        stmt = program.functions[1].body.statements[0]
        assert isinstance(stmt, ast.ExprStmt)
        assert isinstance(stmt.expr, ast.CallExpr)

    def test_missing_semicolon_rejected(self):
        with pytest.raises(ParseError):
            parse_main_body("x = 1")


class TestExpressionPrecedence:
    def test_mul_binds_tighter_than_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.rhs.op == "*"

    def test_parentheses_override(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.lhs.op == "+"

    def test_comparison_below_additive(self):
        expr = parse_expr("a + 1 < b - 2")
        assert expr.op == "<"

    def test_logical_or_lowest(self):
        expr = parse_expr("a && b || c")
        assert isinstance(expr, ast.LogicalExpr)
        assert expr.op == "||"
        assert expr.lhs.op == "&&"

    def test_equality_below_relational(self):
        expr = parse_expr("a < b == c < d")
        assert expr.op == "=="

    def test_shift_between_additive_and_relational(self):
        expr = parse_expr("a + 1 << 2 < b")
        assert expr.op == "<"
        assert expr.lhs.op == "<<"

    def test_bitwise_precedence_chain(self):
        expr = parse_expr("a | b ^ c & d")
        assert expr.op == "|"
        assert expr.rhs.op == "^"
        assert expr.rhs.rhs.op == "&"

    def test_left_associativity(self):
        expr = parse_expr("a - b - c")
        assert expr.op == "-"
        assert expr.lhs.op == "-"
        assert expr.rhs.name == "c"

    def test_unary_minus(self):
        expr = parse_expr("-x")
        assert isinstance(expr, ast.UnaryExpr)
        assert expr.op == "-"

    def test_negative_literal_folds(self):
        expr = parse_expr("-5")
        assert isinstance(expr, ast.IntLit)
        assert expr.value == -5

    def test_not_operator(self):
        expr = parse_expr("!x")
        assert isinstance(expr, ast.UnaryExpr)
        assert expr.op == "!"

    def test_call_with_args(self):
        program = parse(
            "func g(a, b) { return a; } func main(n) { x = g(1, n + 2); }"
        )
        call = program.functions[1].body.statements[0].value
        assert isinstance(call, ast.CallExpr)
        assert len(call.args) == 2

    def test_input_expression(self):
        expr = parse_expr("input()")
        assert isinstance(expr, ast.InputExpr)

    def test_missing_expression_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("+")

    def test_binary_node_takes_the_operator_line(self):
        expr = parse_expr("a\n+ b\n\n* c")
        assert (expr.line, expr.rhs.line) == (2, 4)


class TestNestingCap:
    """Blocks, parentheses, unary operators and brackets nest MAX_NESTING deep."""

    # Each opener adds one level; the function body is the first.
    OPENERS = {
        "parens": ("(", "n", ")"),
        "unary": ("-", "n", ""),
        "not": ("!", "n", ""),
        "call": ("f(", "n", ")"),
        "index": ("a[", "0", "]"),
    }

    def expression_program(self, kind, depth):
        opener, core, closer = self.OPENERS[kind]
        k = depth - 1
        return (
            "func f(x) { return x; } func main(n) { array a[1]; "
            f"return {opener * k}{core}{closer * k}; }}"
        )

    @pytest.mark.parametrize("kind", sorted(OPENERS))
    def test_expressions_up_to_the_cap_parse(self, kind):
        parse(self.expression_program(kind, MAX_NESTING))

    @pytest.mark.parametrize("kind", sorted(OPENERS))
    def test_one_more_level_is_rejected_at_its_opener(self, kind):
        source = self.expression_program(kind, MAX_NESTING + 1)
        with pytest.raises(ParseError) as excinfo:
            parse(source)
        opener = self.OPENERS[kind][0]
        # The error names the bracket that opens level MAX_NESTING + 1.
        column = source.index(opener * MAX_NESTING) + len(opener) * MAX_NESTING
        assert str(excinfo.value).startswith(
            f"parse error at 1:{column}: nesting deeper than {MAX_NESTING} "
        )

    def test_blocks_count(self):
        k = MAX_NESTING - 1
        source = "func main(n) { " + "if (n) { " * k + "n = 1; " + "} " * k + "}"
        parse(source)
        deeper = source.replace("{ ", "{ while (n) { ", 1).replace("}", "} }", 1)
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse(deeper)

    def test_else_if_chains_count_as_nested_blocks(self):
        # Arm j's block nests inside the body and j implicit else blocks.
        arms = "".join(f" else if (n == {i}) {{ n = {i}; }}" for i in range(MAX_NESTING - 2))
        parse("func main(n) { if (n) { n = 0; }" + arms + " }")
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse("func main(n) { if (n) { n = 0; }" + arms + " else if (n) { n = 1; } }")

    def test_siblings_do_not_add_up(self):
        k = MAX_NESTING - 1
        deep = "(" * k + "n" + ")" * k
        parse("func main(n) { return " + " + ".join([deep] * 5) + "; }")

    def test_a_backtracked_array_read_leaves_the_depth_balanced(self):
        k = MAX_NESTING - 2
        parse("func main(n) { array a[1]; a[0]; return " + "(" * k + "n" + ")" * k + "; }")

"""Recursive-descent parser for the toy language.

Grammar::

    program   := (funcdef | constdef)+      -- at least one function
    constdef  := "const" IDENT "=" expr ";"
    funcdef   := "func" IDENT "(" [IDENT ("," IDENT)*] ")" block
    block     := "{" stmt* "}"
    stmt      := "var" IDENT ["=" expr] ";"
               | "array" IDENT "[" (INT | IDENT) "]" ";"
               | IDENT "=" expr ";"
               | IDENT "[" expr "]" "=" expr ";"
               | "if" "(" expr ")" block ["else" (block | if-stmt)]
               | "while" "(" expr ")" block
               | "do" block "while" "(" expr ")" ";"
               | "for" "(" [simple] ";" [expr] ";" [simple] ")" block
               | "break" ";" | "continue" ";"
               | "return" [expr] ";"
               | expr ";"
    expr      := unary (BINOP unary)*
    unary     := ("-"|"!") unary | primary
    primary   := INT | "input" "(" ")" | IDENT ["(" args ")" | "[" expr "]"]
               | "(" expr ")"

``BINOP`` is any operator of :data:`BINARY_OPERATORS`, which gives its
precedence; every level is left-associative.  A unary ``-`` applied to
a literal folds into the literal.

Blocks, parenthesised expressions, unary operators and call and index
brackets nest at most :data:`MAX_NESTING` deep, so every later stage
(lowering, SSA, the analysis, rendering) stays inside Python's
recursion limit; a deeper program is a :class:`ParseError`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Tuple, Type

from repro.ir import memo
from repro.lang import ast_nodes as ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind

#: How deep blocks, parenthesised expressions, unary operators and
#: call/index brackets may nest (a function body is depth 1).
MAX_NESTING = 200

#: Binary operator -> (precedence, node class), loosest level first.
#: ``docs/LANGUAGE.md`` documents the same table.
BINARY_OPERATORS: Dict[str, Tuple[int, Type[ast.Expr]]] = {
    "||": (1, ast.LogicalExpr),
    "&&": (2, ast.LogicalExpr),
    "|": (3, ast.BinaryExpr),
    "^": (4, ast.BinaryExpr),
    "&": (5, ast.BinaryExpr),
    "==": (6, ast.BinaryExpr),
    "!=": (6, ast.BinaryExpr),
    "<": (7, ast.BinaryExpr),
    "<=": (7, ast.BinaryExpr),
    ">": (7, ast.BinaryExpr),
    ">=": (7, ast.BinaryExpr),
    "<<": (8, ast.BinaryExpr),
    ">>": (8, ast.BinaryExpr),
    "+": (9, ast.BinaryExpr),
    "-": (9, ast.BinaryExpr),
    "*": (10, ast.BinaryExpr),
    "/": (10, ast.BinaryExpr),
    "%": (10, ast.BinaryExpr),
}


class ParseError(Exception):
    """Raised on a syntax error, with the offending token's position."""

    def __init__(self, message: str, token: Token):
        self.token = token
        super().__init__(
            f"parse error at {token.line}:{token.column}: {message} "
            f"(got {token.kind} {token.text!r})"
        )


class Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0
        #: Open blocks, parentheses, unary operators and brackets.
        self.depth = 0

    # -- token helpers -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = self.position + offset
        if index < len(self.tokens):
            return self.tokens[index]
        return self.tokens[-1]

    def _enter(self, token: Token) -> None:
        """Open one nesting level at ``token``; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", token)

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != TokenKind.EOF:
            self.position += 1
        return token

    def _expect_punct(self, punct: str) -> Token:
        token = self._peek()
        if not token.is_punct(punct):
            raise ParseError(f"expected {punct!r}", token)
        return self._advance()

    def _expect_op(self, op: str) -> Token:
        token = self._peek()
        if not token.is_op(op):
            raise ParseError(f"expected {op!r}", token)
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise ParseError(f"expected keyword {word!r}", token)
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind != TokenKind.IDENT:
            raise ParseError("expected identifier", token)
        return self._advance()

    def _match_punct(self, punct: str) -> bool:
        if self._peek().is_punct(punct):
            self._advance()
            return True
        return False

    def _match_op(self, op: str) -> bool:
        if self._peek().is_op(op):
            self._advance()
            return True
        return False

    # -- top level -------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse a whole program.

        A function whose token span -- the tokens from ``func`` to its
        closing brace -- has the kinds and texts of the span of the same
        name in the latest parse, on the same lines relative to ``func``,
        is not parsed again: its tokens are skipped and that parse's
        ``FuncDef`` is reused, or a :class:`~repro.lang.ast_nodes.MovedFuncDef`
        of it when the span now starts on another line (see
        :mod:`repro.ir.memo`).
        """
        functions: List[ast.FuncDef] = []
        constants: List[ast.ConstDef] = []
        parsed: Dict[str, Tuple[List[Token], ast.FuncDef]] = {}
        while not self._peek().kind == TokenKind.EOF:
            if self._peek().is_keyword("const"):
                constants.append(self._parse_constdef())
            else:
                functions.append(self._reuse_funcdef(parsed))
        if not functions:
            raise ParseError("program has no functions", self._peek())
        memo.keep(memo.FUNCDEFS, parsed)
        return ast.Program(functions, constants)

    def _reuse_funcdef(self, parsed: Dict[str, Tuple[List[Token], ast.FuncDef]]) -> ast.FuncDef:
        """:meth:`parse_funcdef` through the memo; records the span in ``parsed``."""
        start = self.position
        name = self._peek(1).text
        known = memo.FUNCDEFS.get(name)
        if known is not None:
            span, funcdef = known
            end = start + len(span)
            tokens = self.tokens[start:end]
            # Equal tokens parse to an equal FuncDef, ending at ``end``.
            if _same_tokens(tokens, span):
                self.position = end
                line = tokens[0].line
                if line != funcdef.line:
                    origin = funcdef.origin
                    funcdef = origin if line == origin.line else ast.MovedFuncDef(origin, line)
                parsed[name] = (tokens, funcdef)
                return funcdef
        funcdef = self.parse_funcdef()
        parsed[name] = (self.tokens[start : self.position], funcdef)
        return funcdef

    def _parse_constdef(self) -> ast.ConstDef:
        start = self._expect_keyword("const")
        name = self._expect_ident().text
        self._expect_op("=")
        value = self.parse_expr()
        self._expect_punct(";")
        return ast.ConstDef(name, value, line=start.line)

    def parse_funcdef(self) -> ast.FuncDef:
        start = self._expect_keyword("func")
        name = self._expect_ident().text
        self._expect_punct("(")
        params: List[str] = []
        if not self._peek().is_punct(")"):
            params.append(self._expect_ident().text)
            while self._match_punct(","):
                params.append(self._expect_ident().text)
        self._expect_punct(")")
        body = self.parse_block()
        return ast.FuncDef(name, params, body, line=start.line)

    def parse_block(self) -> ast.Block:
        start = self._expect_punct("{")
        self._enter(start)
        statements: List[ast.Stmt] = []
        while not self._peek().is_punct("}"):
            if self._peek().kind == TokenKind.EOF:
                raise ParseError("unterminated block", self._peek())
            statements.append(self.parse_statement())
        self._expect_punct("}")
        self.depth -= 1
        return ast.Block(statements, line=start.line)

    # -- statements -------------------------------------------------------------

    def parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.is_keyword("var"):
            return self._parse_var_decl()
        if token.is_keyword("array"):
            return self._parse_array_decl()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("do"):
            return self._parse_do_while()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            stmt = ast.Break()
            stmt.line = token.line
            return stmt
        if token.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            stmt = ast.Continue()
            stmt.line = token.line
            return stmt
        if token.is_keyword("return"):
            self._advance()
            value: Optional[ast.Expr] = None
            if not self._peek().is_punct(";"):
                value = self.parse_expr()
            self._expect_punct(";")
            return ast.Return(value, line=token.line)
        simple = self._parse_simple_statement()
        self._expect_punct(";")
        return simple

    def _parse_simple_statement(self) -> ast.Stmt:
        """Assignment, array store, or expression statement (no ';')."""
        token = self._peek()
        if token.kind == TokenKind.IDENT:
            if self._peek(1).is_op("="):
                name = self._advance().text
                self._advance()  # '='
                value = self.parse_expr()
                return ast.Assign(name, value, line=token.line)
            if self._peek(1).is_punct("["):
                # Could be a store `a[i] = e` or a read used as a statement.
                saved = self.position
                name = self._advance().text
                index = self._parse_index(self._peek())
                if self._match_op("="):
                    value = self.parse_expr()
                    return ast.ArrayAssign(name, index, value, line=token.line)
                self.position = saved
        expr = self.parse_expr()
        return ast.ExprStmt(expr, line=token.line)

    def _parse_var_decl(self) -> ast.Stmt:
        start = self._expect_keyword("var")
        name = self._expect_ident().text
        value: ast.Expr = ast.IntLit(0, line=start.line)
        if self._match_op("="):
            value = self.parse_expr()
        self._expect_punct(";")
        return ast.Assign(name, value, line=start.line)

    def _parse_array_decl(self) -> ast.ArrayDecl:
        start = self._expect_keyword("array")
        name = self._expect_ident().text
        self._expect_punct("[")
        size_token = self._peek()
        if size_token.kind == TokenKind.INT:
            size = int(size_token.value)
        elif size_token.kind == TokenKind.IDENT:
            size = size_token.text  # a named constant, resolved at lowering
        else:
            raise ParseError(
                "array size must be an integer literal or a named constant",
                size_token,
            )
        self._advance()
        self._expect_punct("]")
        self._expect_punct(";")
        return ast.ArrayDecl(name, size, line=start.line)

    def _parse_if(self) -> ast.If:
        start = self._expect_keyword("if")
        self._expect_punct("(")
        condition = self.parse_expr()
        self._expect_punct(")")
        then_block = self.parse_block()
        else_block: Optional[ast.Block] = None
        if self._peek().is_keyword("else"):
            self._advance()
            if self._peek().is_keyword("if"):
                # The else-if nests one block deeper, as its AST does.
                self._enter(self._peek())
                nested = self._parse_if()
                self.depth -= 1
                else_block = ast.Block([nested], line=nested.line)
            else:
                else_block = self.parse_block()
        return ast.If(condition, then_block, else_block, line=start.line)

    def _parse_while(self) -> ast.While:
        start = self._expect_keyword("while")
        self._expect_punct("(")
        condition = self.parse_expr()
        self._expect_punct(")")
        body = self.parse_block()
        return ast.While(condition, body, line=start.line)

    def _parse_do_while(self) -> ast.DoWhile:
        start = self._expect_keyword("do")
        body = self.parse_block()
        self._expect_keyword("while")
        self._expect_punct("(")
        condition = self.parse_expr()
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.DoWhile(body, condition, line=start.line)

    def _parse_for(self) -> ast.For:
        start = self._expect_keyword("for")
        self._expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not self._peek().is_punct(";"):
            init = self._parse_simple_statement()
        self._expect_punct(";")
        condition: Optional[ast.Expr] = None
        if not self._peek().is_punct(";"):
            condition = self.parse_expr()
        self._expect_punct(";")
        update: Optional[ast.Stmt] = None
        if not self._peek().is_punct(")"):
            update = self._parse_simple_statement()
        self._expect_punct(")")
        body = self.parse_block()
        return ast.For(init, condition, update, body, line=start.line)

    # -- expressions --------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_binary(1)

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        """Precedence climbing over ``BINARY_OPERATORS``, left-associative."""
        expr = self._parse_unary()
        while True:
            token = self.tokens[self.position]
            # Only OP tokens spell an operator, so the text alone decides.
            entry = BINARY_OPERATORS.get(token.text)
            if entry is None or entry[0] < min_precedence:
                return expr
            precedence, node = entry
            self.position += 1
            rhs = self._parse_binary(precedence + 1)
            expr = node(token.text, expr, rhs, line=token.line)

    def _parse_unary(self) -> ast.Expr:
        token = self.tokens[self.position]
        if token.kind != TokenKind.OP or token.text not in ("-", "!"):
            return self._parse_primary()
        self._enter(token)
        self.position += 1
        operand = self._parse_unary()
        self.depth -= 1
        if token.text == "!":
            return ast.UnaryExpr("!", operand, line=token.line)
        if isinstance(operand, ast.IntLit):
            return ast.IntLit(-operand.value, line=token.line)
        return ast.UnaryExpr("-", operand, line=token.line)

    def _parse_primary(self) -> ast.Expr:
        token = self.tokens[self.position]
        if token.kind == TokenKind.INT:
            self.position += 1
            return ast.IntLit(int(token.value), line=token.line)
        if token.kind == TokenKind.IDENT:
            self.position += 1
            bracket = self.tokens[self.position]
            if bracket.is_punct("("):
                self._enter(bracket)
                self.position += 1
                args: List[ast.Expr] = []
                if not self._peek().is_punct(")"):
                    args.append(self._parse_binary(1))
                    while self._match_punct(","):
                        args.append(self._parse_binary(1))
                self._expect_punct(")")
                self.depth -= 1
                return ast.CallExpr(token.text, args, line=token.line)
            if bracket.is_punct("["):
                index = self._parse_index(bracket)
                return ast.IndexExpr(token.text, index, line=token.line)
            return ast.Var(token.text, line=token.line)
        if token.is_keyword("input"):
            self._advance()
            self._expect_punct("(")
            self._expect_punct(")")
            expr = ast.InputExpr()
            expr.line = token.line
            return expr
        if token.is_punct("("):
            self._enter(token)
            self._advance()
            expr = self._parse_binary(1)
            self._expect_punct(")")
            self.depth -= 1
            return expr
        raise ParseError("expected expression", token)

    def _parse_index(self, bracket: Token) -> ast.Expr:
        """``"[" expr "]"``, with ``bracket`` the current token."""
        self._enter(bracket)
        self._advance()
        index = self._parse_binary(1)
        self._expect_punct("]")
        self.depth -= 1
        return index


_TEXT = attrgetter("text")
_LINE = attrgetter("line")


def _same_tokens(tokens: List[Token], span: List[Token]) -> bool:
    """Whether ``tokens`` have the texts of ``span``, and so its kinds
    (the lexer gives a text one kind), on the same lines relative to the
    first token."""
    if tokens == span:  # tokens the lexer reused: the same objects
        return True
    if len(tokens) != len(span) or list(map(_TEXT, tokens)) != list(map(_TEXT, span)):
        return False
    shift = tokens[0].line - span[0].line
    return list(map(_LINE, tokens)) == list(map(shift.__add__, map(_LINE, span)))


def parse(source: str) -> ast.Program:
    """Parse toy-language source text into an AST."""
    return Parser(tokenize(source)).parse_program()

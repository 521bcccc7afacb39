"""Abstract syntax tree node classes for the toy language.

The AST is deliberately small: integers are the only scalar type, arrays
are one-dimensional integer buffers, and functions take and return
integers.  ``input()`` reads the next value of the external input stream
(statically unknown -- it is what forces the analysis into heuristic
fallback, like a memory load in the paper).
"""

from __future__ import annotations

from typing import List, Optional


class Node:
    """Base class for AST nodes; carries a source line for diagnostics."""

    __slots__ = ("line",)

    def __init__(self, line: int = 0):
        self.line = line


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, line: int = 0):
        super().__init__(line)
        self.value = value

    def __repr__(self) -> str:
        return f"IntLit({self.value})"


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str, line: int = 0):
        super().__init__(line)
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class BinaryExpr(Expr):
    """Arithmetic/bitwise/comparison binary expression (not && / ||)."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int = 0):
        super().__init__(line)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        return f"BinaryExpr({self.op!r}, {self.lhs!r}, {self.rhs!r})"


class LogicalExpr(Expr):
    """Short-circuit ``&&`` / ``||``."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int = 0):
        super().__init__(line)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self) -> str:
        return f"LogicalExpr({self.op!r}, {self.lhs!r}, {self.rhs!r})"


class UnaryExpr(Expr):
    """Unary ``-`` (negation) or ``!`` (logical not)."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, line: int = 0):
        super().__init__(line)
        self.op = op
        self.operand = operand

    def __repr__(self) -> str:
        return f"UnaryExpr({self.op!r}, {self.operand!r})"


class CallExpr(Expr):
    __slots__ = ("callee", "args")

    def __init__(self, callee: str, args: List[Expr], line: int = 0):
        super().__init__(line)
        self.callee = callee
        self.args = args

    def __repr__(self) -> str:
        return f"CallExpr({self.callee!r}, {self.args!r})"


class IndexExpr(Expr):
    """Array read ``name[index]``."""

    __slots__ = ("array", "index")

    def __init__(self, array: str, index: Expr, line: int = 0):
        super().__init__(line)
        self.array = array
        self.index = index

    def __repr__(self) -> str:
        return f"IndexExpr({self.array!r}, {self.index!r})"


class InputExpr(Expr):
    """``input()`` -- next external input value; statically unknown."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "InputExpr()"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class Block(Stmt):
    __slots__ = ("statements",)

    def __init__(self, statements: List[Stmt], line: int = 0):
        super().__init__(line)
        self.statements = statements

    def __repr__(self) -> str:
        return f"Block({self.statements!r})"


class Assign(Stmt):
    """``name = expr;`` (also produced by ``var name = expr;``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Expr, line: int = 0):
        super().__init__(line)
        self.name = name
        self.value = value

    def __repr__(self) -> str:
        return f"Assign({self.name!r}, {self.value!r})"


class ArrayDecl(Stmt):
    """``array name[size];``"""

    __slots__ = ("name", "size")

    def __init__(self, name: str, size: int, line: int = 0):
        super().__init__(line)
        self.name = name
        self.size = size

    def __repr__(self) -> str:
        return f"ArrayDecl({self.name!r}, {self.size})"


class ArrayAssign(Stmt):
    """``name[index] = value;``"""

    __slots__ = ("array", "index", "value")

    def __init__(self, array: str, index: Expr, value: Expr, line: int = 0):
        super().__init__(line)
        self.array = array
        self.index = index
        self.value = value

    def __repr__(self) -> str:
        return f"ArrayAssign({self.array!r}, {self.index!r}, {self.value!r})"


class If(Stmt):
    __slots__ = ("condition", "then_block", "else_block")

    def __init__(self, condition: Expr, then_block: Block,
                 else_block: Optional[Block] = None, line: int = 0):
        super().__init__(line)
        self.condition = condition
        self.then_block = then_block
        self.else_block = else_block

    def __repr__(self) -> str:
        return f"If({self.condition!r}, {self.then_block!r}, {self.else_block!r})"


class While(Stmt):
    __slots__ = ("condition", "body")

    def __init__(self, condition: Expr, body: Block, line: int = 0):
        super().__init__(line)
        self.condition = condition
        self.body = body

    def __repr__(self) -> str:
        return f"While({self.condition!r}, {self.body!r})"


class DoWhile(Stmt):
    __slots__ = ("body", "condition")

    def __init__(self, body: Block, condition: Expr, line: int = 0):
        super().__init__(line)
        self.body = body
        self.condition = condition

    def __repr__(self) -> str:
        return f"DoWhile({self.body!r}, {self.condition!r})"


class For(Stmt):
    """``for (init; condition; update) body`` -- init/update are statements."""

    __slots__ = ("init", "condition", "update", "body")

    def __init__(self, init: Optional[Stmt], condition: Optional[Expr],
                 update: Optional[Stmt], body: Block, line: int = 0):
        super().__init__(line)
        self.init = init
        self.condition = condition
        self.update = update
        self.body = body

    def __repr__(self) -> str:
        return f"For({self.init!r}, {self.condition!r}, {self.update!r}, {self.body!r})"


class Break(Stmt):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Break()"


class Continue(Stmt):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Continue()"


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr] = None, line: int = 0):
        super().__init__(line)
        self.value = value

    def __repr__(self) -> str:
        return f"Return({self.value!r})"


class ExprStmt(Stmt):
    """An expression evaluated for side effects (typically a call)."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr, line: int = 0):
        super().__init__(line)
        self.expr = expr

    def __repr__(self) -> str:
        return f"ExprStmt({self.expr!r})"


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


class FuncDef(Node):
    __slots__ = ("name", "params", "body")

    #: How many lines below the lines of ``body`` the function sits:
    #: 0, but for a :class:`MovedFuncDef`.
    shift = 0

    def __init__(self, name: str, params: List[str], body: Block, line: int = 0):
        super().__init__(line)
        self.name = name
        self.params = params
        self.body = body

    @property
    def origin(self) -> "FuncDef":
        """The ``FuncDef`` whose lines ``body`` holds: this one."""
        return self

    def __repr__(self) -> str:
        return f"FuncDef({self.name!r}, {self.params!r})"


class MovedFuncDef(FuncDef):
    """A function parsed before, met again ``shift`` lines further down.

    The parser's memo (:mod:`repro.ir.memo`) hands one out for a function
    whose tokens equal an earlier parse's but sit on other lines.  It
    shares ``params`` and ``body`` with ``origin``, the ``FuncDef`` that
    parse made, so the lines inside ``body`` are ``origin``'s: add
    ``shift`` to them for this function's.  ``line`` is its own.
    """

    __slots__ = ("origin",)

    def __init__(self, origin: FuncDef, line: int):
        super().__init__(origin.name, origin.params, origin.body, line)
        self.origin = origin

    @property
    def shift(self) -> int:
        return self.line - self.origin.line


class ConstDef(Node):
    """Top-level ``const NAME = <constant expression>;``."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Expr, line: int = 0):
        super().__init__(line)
        self.name = name
        self.value = value

    def __repr__(self) -> str:
        return f"ConstDef({self.name!r}, {self.value!r})"


class Program(Node):
    __slots__ = ("functions", "constants")

    def __init__(self, functions: List[FuncDef], constants: Optional[List[ConstDef]] = None):
        super().__init__(0)
        self.functions = functions
        self.constants = constants or []

    def __repr__(self) -> str:
        return f"Program({[f.name for f in self.functions]!r})"

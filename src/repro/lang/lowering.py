"""Lowering from the toy-language AST to the three-address CFG IR.

Conditions are lowered structurally (short-circuit ``&&``/``||`` become
extra branches) so every conditional branch tests exactly one comparison
-- this is what lets the assertion pass attach precise Pi nodes.

Statements that end control flow (return/break/continue) are followed by
a fresh unreachable block so lowering can proceed; those blocks are
cleaned up by :func:`repro.ir.cfg.remove_unreachable_blocks`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir import memo
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Cmp,
    Copy,
    EvaluationError,
    Input,
    Jump,
    Load,
    Return,
    Store,
    UnOp,
    apply_binop,
    apply_cmp,
)
from repro.ir.values import Constant, Temp, Value
from repro.lang import ast_nodes as ast
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser

_BINARY_OP_MAP = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "mod",
    "<<": "shl",
    ">>": "shr",
    "&": "and",
    "|": "or",
    "^": "xor",
}

_CMP_OP_MAP = {
    "==": "eq",
    "!=": "ne",
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
}


class LoweringError(Exception):
    """Raised on semantic errors discovered during lowering."""

    def __init__(self, message: str, line: int = 0):
        self.message = message
        self.line = line
        super().__init__(f"lowering error at line {line}: {message}")


class _FunctionLowerer:
    """Lowers one function definition into a :class:`Function`.

    The lines of a :class:`~repro.lang.ast_nodes.MovedFuncDef`'s body
    are its origin's: each ``loc`` and error line adds its ``shift``.
    """

    def __init__(
        self,
        funcdef: ast.FuncDef,
        signatures: Dict[str, int],
        constants: Optional[Dict[str, int]] = None,
    ):
        self.funcdef = funcdef
        self.signatures = signatures
        self.constants = constants or {}
        for param in funcdef.params:
            if param in self.constants:
                raise LoweringError(
                    f"parameter {param!r} shadows a constant", funcdef.line
                )
        self.function = Function(funcdef.name, funcdef.params)
        self.current: BasicBlock = self.function.new_block(hint="entry")
        # Stack of (continue_target, break_target) labels.
        self.loop_stack: List[Tuple[str, str]] = []
        self._shift = funcdef.shift
        # Source line of the statement/expression being lowered; stamped
        # onto every emitted instruction (``instr.loc``).
        self._line: int = funcdef.line

    # -- plumbing -------------------------------------------------------------

    def _emit(self, instr):
        instr.loc = self._line
        return self.current.append(instr)

    def _terminate(self, instr) -> None:
        """Terminate the current block and continue in a fresh (dead) one."""
        instr.loc = self._line
        self.current.append(instr)
        self.current = self.function.new_block(hint="dead")

    def _start_block(self, block: BasicBlock) -> None:
        if not self.current.is_terminated():
            self.current.append(Jump(block.label))
        self.current = block

    # -- entry point -------------------------------------------------------------

    def lower(self) -> Function:
        try:
            self._lower_block(self.funcdef.body)
        except LoweringError as error:
            if not self._shift:
                raise
            raise LoweringError(error.message, error.line + self._shift) from None
        if not self.current.is_terminated():
            self.current.append(Return(Constant(0)))
        # Any residual dead blocks must still be terminated for the verifier.
        for block in self.function.blocks.values():
            if not block.is_terminated():
                block.append(Return(Constant(0)))
        return self.function

    # -- statements ------------------------------------------------------------

    def _lower_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self._lower_statement(stmt)

    def _lower_statement(self, stmt: ast.Stmt) -> None:
        self._line = stmt.line + self._shift
        if isinstance(stmt, ast.Assign):
            self._check_not_array(stmt.name, stmt.line)
            if stmt.name in self.constants:
                raise LoweringError(
                    f"cannot assign to constant {stmt.name!r}", stmt.line
                )
            value = self._lower_expr(stmt.value)
            self._emit(Copy(Temp(stmt.name), value))
        elif isinstance(stmt, ast.ArrayDecl):
            if stmt.name in self.function.arrays:
                raise LoweringError(f"array {stmt.name!r} redeclared", stmt.line)
            size = stmt.size
            if isinstance(size, str):
                if size not in self.constants:
                    raise LoweringError(
                        f"array size {size!r} is not a known constant", stmt.line
                    )
                size = self.constants[size]
            if size <= 0:
                raise LoweringError(
                    f"array {stmt.name!r} must have a positive size", stmt.line
                )
            self.function.arrays[stmt.name] = size
        elif isinstance(stmt, ast.ArrayAssign):
            self._check_array(stmt.array, stmt.line)
            index = self._lower_expr(stmt.index)
            value = self._lower_expr(stmt.value)
            self._emit(Store(stmt.array, index, value))
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise LoweringError("break outside a loop", stmt.line)
            self._terminate(Jump(self.loop_stack[-1][1]))
        elif isinstance(stmt, ast.Continue):
            if not self.loop_stack:
                raise LoweringError("continue outside a loop", stmt.line)
            self._terminate(Jump(self.loop_stack[-1][0]))
        elif isinstance(stmt, ast.Return):
            value = (
                self._lower_expr(stmt.value)
                if stmt.value is not None
                else Constant(0)
            )
            self._terminate(Return(value))
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr)
        elif isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        else:
            raise LoweringError(f"unknown statement {stmt!r}", stmt.line)

    def _lower_if(self, stmt: ast.If) -> None:
        then_block = self.function.new_block(hint="then")
        join_block = self.function.new_block(hint="join")
        if stmt.else_block is not None:
            else_block = self.function.new_block(hint="else")
            self._lower_condition(stmt.condition, then_block.label, else_block.label)
            self.current = then_block
            self._lower_block(stmt.then_block)
            self._start_block_jump(join_block.label)
            self.current = else_block
            self._lower_block(stmt.else_block)
            self._start_block_jump(join_block.label)
        else:
            self._lower_condition(stmt.condition, then_block.label, join_block.label)
            self.current = then_block
            self._lower_block(stmt.then_block)
            self._start_block_jump(join_block.label)
        self.current = join_block

    def _start_block_jump(self, label: str) -> None:
        if not self.current.is_terminated():
            self.current.append(Jump(label))

    def _lower_while(self, stmt: ast.While) -> None:
        header = self.function.new_block(hint="loop")
        body = self.function.new_block(hint="body")
        exit_block = self.function.new_block(hint="exit")
        self._start_block(header)
        self._lower_condition(stmt.condition, body.label, exit_block.label)
        self.current = body
        self.loop_stack.append((header.label, exit_block.label))
        self._lower_block(stmt.body)
        self.loop_stack.pop()
        self._start_block_jump(header.label)
        self.current = exit_block

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        body = self.function.new_block(hint="dobody")
        latch = self.function.new_block(hint="dolatch")
        exit_block = self.function.new_block(hint="exit")
        self._start_block(body)
        self.loop_stack.append((latch.label, exit_block.label))
        self._lower_block(stmt.body)
        self.loop_stack.pop()
        self._start_block_jump(latch.label)
        self.current = latch
        self._lower_condition(stmt.condition, body.label, exit_block.label)
        self.current = exit_block

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._lower_statement(stmt.init)
        header = self.function.new_block(hint="for")
        body = self.function.new_block(hint="body")
        update = self.function.new_block(hint="update")
        exit_block = self.function.new_block(hint="exit")
        self._start_block(header)
        if stmt.condition is not None:
            self._lower_condition(stmt.condition, body.label, exit_block.label)
        else:
            self.current.append(Jump(body.label))
        self.current = body
        self.loop_stack.append((update.label, exit_block.label))
        self._lower_block(stmt.body)
        self.loop_stack.pop()
        self._start_block_jump(update.label)
        self.current = update
        if stmt.update is not None:
            self._lower_statement(stmt.update)
        self._start_block_jump(header.label)
        self.current = exit_block

    # -- conditions --------------------------------------------------------------

    def _lower_condition(self, expr: ast.Expr, true_label: str, false_label: str) -> None:
        """Emit control flow that jumps to ``true_label`` iff expr != 0."""
        self._line = expr.line + self._shift
        if isinstance(expr, ast.LogicalExpr):
            mid = self.function.new_block(hint="cond")
            if expr.op == "&&":
                self._lower_condition(expr.lhs, mid.label, false_label)
            else:  # "||"
                self._lower_condition(expr.lhs, true_label, mid.label)
            self.current = mid
            self._lower_condition(expr.rhs, true_label, false_label)
            return
        if isinstance(expr, ast.UnaryExpr) and expr.op == "!":
            self._lower_condition(expr.operand, false_label, true_label)
            return
        if isinstance(expr, ast.IntLit):
            self._terminate(Jump(true_label if expr.value != 0 else false_label))
            return
        if isinstance(expr, ast.BinaryExpr) and expr.op in _CMP_OP_MAP:
            lhs = self._lower_expr(expr.lhs)
            rhs = self._lower_expr(expr.rhs)
            cond = self.function.new_temp(hint="c")
            self._emit(Cmp(cond, _CMP_OP_MAP[expr.op], lhs, rhs))
            self._terminate(Branch(cond, true_label, false_label))
            return
        value = self._lower_expr(expr)
        cond = self.function.new_temp(hint="c")
        self._emit(Cmp(cond, "ne", value, Constant(0)))
        self._terminate(Branch(cond, true_label, false_label))

    # -- expressions ---------------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLit):
            return Constant(expr.value)
        if isinstance(expr, ast.Var):
            self._check_not_array(expr.name, expr.line)
            if expr.name in self.constants:
                return Constant(self.constants[expr.name])
            return Temp(expr.name)
        if isinstance(expr, ast.BinaryExpr):
            return self._lower_binary(expr)
        if isinstance(expr, ast.LogicalExpr):
            return self._lower_logical_value(expr)
        if isinstance(expr, ast.UnaryExpr):
            return self._lower_unary(expr)
        if isinstance(expr, ast.CallExpr):
            return self._lower_call(expr)
        if isinstance(expr, ast.IndexExpr):
            self._check_array(expr.array, expr.line)
            index = self._lower_expr(expr.index)
            dest = self.function.new_temp(hint="ld")
            self._emit(Load(dest, expr.array, index))
            return dest
        if isinstance(expr, ast.InputExpr):
            dest = self.function.new_temp(hint="in")
            self._emit(Input(dest))
            return dest
        raise LoweringError(f"unknown expression {expr!r}", expr.line)

    def _lower_binary(self, expr: ast.BinaryExpr) -> Value:
        lhs = self._lower_expr(expr.lhs)
        rhs = self._lower_expr(expr.rhs)
        dest = self.function.new_temp(hint="t")
        if expr.op in _CMP_OP_MAP:
            self._emit(Cmp(dest, _CMP_OP_MAP[expr.op], lhs, rhs))
        elif expr.op in _BINARY_OP_MAP:
            self._emit(BinOp(dest, _BINARY_OP_MAP[expr.op], lhs, rhs))
        else:
            raise LoweringError(f"unknown binary operator {expr.op!r}", expr.line)
        return dest

    def _lower_logical_value(self, expr: ast.LogicalExpr) -> Value:
        """Materialise a short-circuit expression into a 0/1 temp."""
        dest = self.function.new_temp(hint="b")
        rhs_block = self.function.new_block(hint="scrhs")
        end_block = self.function.new_block(hint="scend")
        if expr.op == "&&":
            self._emit(Copy(dest, Constant(0)))
            self._lower_condition(expr.lhs, rhs_block.label, end_block.label)
        else:  # "||"
            self._emit(Copy(dest, Constant(1)))
            self._lower_condition(expr.lhs, end_block.label, rhs_block.label)
        self.current = rhs_block
        value = self._lower_expr(expr.rhs)
        normalised = self.function.new_temp(hint="b")
        self._emit(Cmp(normalised, "ne", value, Constant(0)))
        self._emit(Copy(dest, normalised))
        self._start_block_jump(end_block.label)
        self.current = end_block
        return dest

    def _lower_unary(self, expr: ast.UnaryExpr) -> Value:
        operand = self._lower_expr(expr.operand)
        dest = self.function.new_temp(hint="t")
        if expr.op == "-":
            self._emit(UnOp(dest, "neg", operand))
        elif expr.op == "!":
            self._emit(Cmp(dest, "eq", operand, Constant(0)))
        else:
            raise LoweringError(f"unknown unary operator {expr.op!r}", expr.line)
        return dest

    def _lower_call(self, expr: ast.CallExpr) -> Value:
        if expr.callee not in self.signatures:
            intrinsic = self._lower_intrinsic(expr)
            if intrinsic is not None:
                return intrinsic
            raise LoweringError(f"call to undefined function {expr.callee!r}", expr.line)
        arity = self.signatures[expr.callee]
        if len(expr.args) != arity:
            raise LoweringError(
                f"{expr.callee!r} expects {arity} arguments, got {len(expr.args)}",
                expr.line,
            )
        args = [self._lower_expr(arg) for arg in expr.args]
        dest = self.function.new_temp(hint="call")
        self._emit(Call(dest, expr.callee, args))
        return dest

    def _lower_intrinsic(self, expr: ast.CallExpr) -> Optional[Value]:
        """``min``/``max``/``abs`` builtins (unless user-defined)."""
        if expr.callee in ("min", "max"):
            if len(expr.args) != 2:
                raise LoweringError(
                    f"{expr.callee}() expects 2 arguments", expr.line
                )
            lhs = self._lower_expr(expr.args[0])
            rhs = self._lower_expr(expr.args[1])
            dest = self.function.new_temp(hint="t")
            self._emit(BinOp(dest, expr.callee, lhs, rhs))
            return dest
        if expr.callee == "abs":
            if len(expr.args) != 1:
                raise LoweringError("abs() expects 1 argument", expr.line)
            operand = self._lower_expr(expr.args[0])
            negated = self.function.new_temp(hint="t")
            self._emit(UnOp(negated, "neg", operand))
            dest = self.function.new_temp(hint="t")
            self._emit(BinOp(dest, "max", operand, negated))
            return dest
        return None

    # -- checks ----------------------------------------------------------------

    def _check_array(self, name: str, line: int) -> None:
        if name not in self.function.arrays:
            raise LoweringError(f"unknown array {name!r}", line)

    def _check_not_array(self, name: str, line: int) -> None:
        if name in self.function.arrays:
            raise LoweringError(f"array {name!r} used as a scalar", line)


class _Deferred(Function):
    """A function an earlier compile lowered, lowered again only if read.

    :func:`lower_program` makes one for a function whose source key has
    a prepared template, which ``prepare_module`` puts in its place
    without reading it.  Reading any attribute but ``name``,
    ``source_key``, ``source_shift`` and ``stamp`` lowers the function
    there and then and makes this a plain :class:`Function`, so a module
    that is never prepared reads as a cold lowering.  The key lowered
    before, so lowering it cannot fail.
    """

    def __init__(self, funcdef: ast.FuncDef, signatures, constants, source_key: tuple):
        # No Function.__init__: the other attributes are missing until read.
        self.name = funcdef.name
        self.source_key = source_key
        self.source_shift = funcdef.shift
        self.stamp = None
        self._arguments = (funcdef, signatures, constants)

    def __getattr__(self, attr):
        arguments = self.__dict__.pop("_arguments", None)
        if arguments is None:  # lowered already: a true miss
            raise AttributeError(attr)
        for key, value in vars(_FunctionLowerer(*arguments).lower()).items():
            self.__dict__.setdefault(key, value)  # attributes set since stay
        self.__class__ = Function
        return getattr(self, attr)


def lower_program(program: ast.Program, module_name: str = "module") -> Module:
    """Lower a parsed program into an IR module.

    A function's source key is its ``FuncDef``'s origin and the
    lowering context, so a function that only moved keeps its key.  A
    function whose source key has a prepared template in the front-end
    memo is not lowered until something reads it (:class:`_Deferred`).
    """
    signatures = {f.name: len(f.params) for f in program.functions}
    if len(signatures) != len(program.functions):
        raise LoweringError("duplicate function definition", 0)
    constants = _evaluate_constants(program.constants)
    from repro.core.config import default_verify_ir

    verify = default_verify_ir()
    # Everything a function's lowering reads besides its FuncDef: the
    # front-end memo's key (see repro.ir.memo).
    context = memo.context(
        (frozenset(signatures.items()), frozenset(constants.items()), verify)
    )
    module = Module(module_name)
    lowered = []
    for funcdef in program.functions:
        if funcdef.name in constants:
            raise LoweringError(
                f"function {funcdef.name!r} shadows a constant", funcdef.line
            )
        source_key = (funcdef.origin, context)
        if memo.has_template(source_key):
            function = _Deferred(funcdef, signatures, constants, source_key)
        else:
            function = _FunctionLowerer(funcdef, signatures, constants).lower()
            function.source_key = source_key
            function.source_shift = funcdef.shift
            lowered.append(function)
        module.add_function(function)
    if verify:
        from repro.ir.verifier import verify_function

        for function in lowered:
            verify_function(function)
    return module


def _evaluate_constants(definitions: List[ast.ConstDef]) -> Dict[str, int]:
    """Fold top-level constant definitions (may reference earlier ones)."""
    constants: Dict[str, int] = {}
    for definition in definitions:
        if definition.name in constants:
            raise LoweringError(
                f"constant {definition.name!r} redefined", definition.line
            )
        constants[definition.name] = _fold_const_expr(definition.value, constants)
    return constants


def _fold_const_expr(expr: ast.Expr, constants: Dict[str, int]) -> int:
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.Var):
        if expr.name not in constants:
            raise LoweringError(
                f"constant expression references unknown name {expr.name!r}",
                expr.line,
            )
        return constants[expr.name]
    if isinstance(expr, ast.UnaryExpr):
        value = _fold_const_expr(expr.operand, constants)
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return int(not value)
    if isinstance(expr, ast.BinaryExpr):
        lhs = _fold_const_expr(expr.lhs, constants)
        rhs = _fold_const_expr(expr.rhs, constants)
        try:
            if expr.op in _CMP_OP_MAP:
                return int(apply_cmp(_CMP_OP_MAP[expr.op], lhs, rhs))
            return apply_binop(_BINARY_OP_MAP[expr.op], lhs, rhs)
        except (KeyError, EvaluationError) as error:
            raise LoweringError(
                f"bad constant expression: {error}", expr.line
            ) from None
    raise LoweringError("constant expressions must be compile-time foldable", expr.line)


def compile_source(source: str, module_name: str = "module") -> Module:
    """Parse and lower toy-language source into an IR module.

    Each stage runs under a span of the active tracer ("lex" / "parse" /
    "lower"); under the default NullTracer the spans are no-ops.
    """
    from repro.observability import tracer as tracing

    tracer = tracing.active()
    with tracer.span("lex"):
        tokens = tokenize(source)
    with tracer.span("parse"):
        program = Parser(tokens).parse_program()
    with tracer.span("lower"):
        return lower_program(program, module_name=module_name)

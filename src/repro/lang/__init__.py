"""Toy imperative language: lexer, parser, and lowering to the IR.

The language exists so the reproduction has real programs to analyse --
the role SPEC92 C/Fortran sources play in the paper.  ``compile_source``
is the one-stop entry point::

    from repro.lang import compile_source
    module = compile_source("func main(n) { return n + 1; }")
"""

from repro.lang.ast_nodes import (
    ArrayAssign,
    ArrayDecl,
    Assign,
    BinaryExpr,
    Block,
    Break,
    CallExpr,
    Continue,
    DoWhile,
    Expr,
    ExprStmt,
    For,
    FuncDef,
    If,
    IndexExpr,
    InputExpr,
    IntLit,
    LogicalExpr,
    MovedFuncDef,
    Node,
    Program,
    Return,
    Stmt,
    UnaryExpr,
    Var,
    While,
)
from repro.lang.lexer import LexError, tokenize
from repro.lang.lowering import LoweringError, compile_source, lower_program
from repro.lang.parser import ParseError, Parser, parse
from repro.lang.tokens import KEYWORDS, Token, TokenKind

__all__ = [
    "ArrayAssign",
    "ArrayDecl",
    "Assign",
    "BinaryExpr",
    "Block",
    "Break",
    "CallExpr",
    "Continue",
    "DoWhile",
    "Expr",
    "ExprStmt",
    "For",
    "FuncDef",
    "If",
    "IndexExpr",
    "InputExpr",
    "IntLit",
    "KEYWORDS",
    "LexError",
    "LogicalExpr",
    "LoweringError",
    "MovedFuncDef",
    "Node",
    "ParseError",
    "Parser",
    "Program",
    "Return",
    "Stmt",
    "Token",
    "TokenKind",
    "UnaryExpr",
    "Var",
    "While",
    "compile_source",
    "lower_program",
    "parse",
    "tokenize",
]

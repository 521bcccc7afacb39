"""Lexer for the toy language.

Supports integer literals (decimal and hexadecimal), identifiers,
keywords, the operator set in :mod:`repro.lang.tokens`, ``//`` line
comments and ``/* ... */`` block comments.

One compiled pattern finds each token together with the trivia before
it, so a token costs one ``match`` call whatever its length.  Lines and
columns come from newline positions; every character, ``\\t`` and
``\\r`` included, is one column.

No token spans a top-level unit -- the text from a line starting
``func`` or ``const`` to the next such line -- so a source is lexed one
unit at a time, and a unit whose text the latest source also held is
not lexed again (:func:`tokenize`).  This keeps an editor loop's
recheck from lexing the functions it did not touch; CHANGES.md has the
measurements of the whole-source line diff the unit table replaced.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.ir import memo
from repro.lang.tokens import KEYWORDS, OPERATORS, PUNCTUATION, Token, TokenKind


class LexError(Exception):
    """Raised on an unrecognised character or malformed literal."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"lex error at {line}:{column}: {message}")


#: The longest decimal literal accepted: Python 3.11's default limit on
#: int/str conversion, enforced here so every Python version agrees.
MAX_DECIMAL_DIGITS = 4300

# ``OPERATORS`` lists the two-character operators first, so trying the
# alternatives in order is maximal munch.
_SYMBOLS = "|".join(re.escape(symbol) for symbol in OPERATORS + PUNCTUATION)
_SYMBOL_KIND = dict.fromkeys(OPERATORS, TokenKind.OP)
_SYMBOL_KIND.update(dict.fromkeys(PUNCTUATION, TokenKind.PUNCT))

# Group numbers, in pattern order; ``lastindex`` names the alternative.
# The last group, any other character, is an error.
_NAME, _HEX, _INT, _FLOAT, _COMMENT, _SYMBOL, _WORD, _END = range(1, 9)
_TOKEN = re.compile(
    r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"  # trivia before the token
    r"(?:([A-Za-z_]\w*)"  # an identifier or keyword
    r"|(0[xX][^\W_]*)"  # a hex literal: letters and digits, no '_'
    r"|(\d+)([.eE])?"  # a decimal literal, or the start of a float
    r"|(/\*)"  # a block comment; its body is found with str.find
    rf"|({_SYMBOLS})"
    r"|(\w+)"  # an identifier if it starts with a letter
    r"|(\Z)"
    r"|(.))",
    re.DOTALL,
)
# A unit starts after a newline followed by ``func`` or ``const``; the
# other alternatives consume comments, so no start is found in one.
_UNIT_START = re.compile(r"//[^\n]*|/\*(?:.*?\*/|.*)|\n(?=func|const)", re.DOTALL)


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list ending with EOF.

    The source is lexed one top-level unit at a time (:func:`_units`).
    :data:`repro.ir.memo.UNITS` maps the text of each unit of the latest
    source to its first line and tokens.  A unit found there on the same
    line gives the same token objects; found on another line, its tokens
    moved by whole lines (a unit starts at column 1, so no column
    moves); not found, it is lexed alone from its first line.  Either
    way the result is what a cold lex gives, tokens or
    :class:`LexError`.  Tokens are read-only.
    """
    known = memo.UNITS
    units: Dict[str, Tuple[int, List[Token]]] = {}
    tokens: List[Token] = []
    line = 1
    for text in _units(source):
        entry = known.get(text)
        if entry is None:
            lexed = _lex(text, line)
        elif entry[0] == line:
            lexed = entry[1]
        else:
            shift = line - entry[0]
            lexed = [Token(t.kind, t.text, t.line + shift, t.column, t.value) for t in entry[1]]
        units[text] = line, lexed
        tokens += lexed
        tokens.pop()  # the unit's EOF; the last unit's goes back on below
        line += text.count("\n")
    tokens.append(lexed[-1])
    memo.keep(known, units)
    return tokens


def _units(source: str) -> List[str]:
    """``source`` cut before each line that starts with ``func`` or
    ``const`` outside a block comment.

    No token crosses a line start outside a block comment, and the
    lexer reads nothing before a token's start, so each piece lexes on
    its own as it does inside the whole source.
    """
    cuts = [0]
    cuts += [found.end() for found in _UNIT_START.finditer(source) if found.group() == "\n"]
    cuts.append(len(source))
    return [source[a:b] for a, b in zip(cuts, cuts[1:])]


def _lex(source: str, line: int) -> List[Token]:
    """The tokens of ``source``, EOF last, its first line being ``line``."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    ident, keyword = TokenKind.IDENT, TokenKind.KEYWORD
    end = len(source)
    position = line_start = 0
    next_newline = source.find("\n") % (end + 1)  # no newline: end
    while True:
        found = match(source, position)
        group = found.lastindex
        start, position = found.span(group)
        if next_newline < start:
            line += source.count("\n", next_newline, start)
            line_start = source.rindex("\n", next_newline, start) + 1
            next_newline = source.find("\n", start) % (end + 1)
        column = start - line_start + 1
        text = source[start:position]
        if group == _NAME:
            append(Token(keyword if text in KEYWORDS else ident, text, line, column))
        elif group == _SYMBOL:
            append(Token(_SYMBOL_KIND[text], text, line, column))
        elif group == _INT:
            if len(text) > MAX_DECIMAL_DIGITS:
                raise LexError(
                    f"decimal literal longer than {MAX_DECIMAL_DIGITS} digits",
                    line,
                    column,
                )
            append(Token(TokenKind.INT, text, line, column, int(text)))
        elif group == _HEX:
            try:
                value = int(text, 16)
            except ValueError:
                raise LexError(f"malformed hex literal {text!r}", line, column) from None
            append(Token(TokenKind.INT, text, line, column, value))
        elif group == _COMMENT:
            close = source.find("*/", position)
            if close < 0:
                raise LexError("unterminated block comment", line, column)
            position = close + 2
        elif group == _END:
            append(Token(TokenKind.EOF, "", line, column))
            return tokens
        elif group == _FLOAT:
            column = found.start(_INT) - line_start + 1
            raise LexError("floating-point literals are not supported", line, column)
        elif group == _WORD and text[0].isalpha():
            append(Token(ident, text, line, column))  # keywords are ASCII
        else:
            # A stray character, or a digit that is not a decimal digit
            # ('²'), which starts neither a literal nor an identifier.
            raise LexError(f"unexpected character {text[0]!r}", line, column)

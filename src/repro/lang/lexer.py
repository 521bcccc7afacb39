"""Lexer for the toy language.

Supports integer literals (decimal and hexadecimal), identifiers,
keywords, the operator set in :mod:`repro.lang.tokens`, ``//`` line
comments and ``/* ... */`` block comments.

One compiled pattern finds each token together with the trivia before
it, so a token costs one ``match`` call whatever its length.  Lines and
columns come from newline positions; every character, ``\\t`` and
``\\r`` included, is one column.

The lexer keeps no state between tokens: where one token ends is all it
needs to go on.  So a source that differs from the last one lexed only
in the middle is lexed again only there (:func:`tokenize`).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import List, Optional, Tuple

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


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list ending with EOF.

    The latest source lexed, its tokens and their end offsets stay in
    :data:`repro.ir.memo.LEXED`.  When most of ``source`` is the start
    and the end of that source, only the middle is lexed again: from the
    last old token end before the first changed character until the
    lexer reaches an old token end inside the unchanged end.  The old
    tokens after that point are reused -- the same objects where their
    line and column did not move.  Either way the result is what a cold
    lex gives, tokens or :class:`LexError`.  Tokens are read-only.
    """
    previous = memo.LEXED
    relexed = None if previous is None else _relex(previous, source)
    if relexed is None:
        tokens: List[Token] = []
        _lex(source, 0, 1, 0, tokens, len(source) + 1)
        relexed = tokens, None  # end offsets: made if the next source is related
    memo.LEXED = (source,) + relexed
    return list(relexed[0])


def _lex(
    source: str, position: int, line: int, line_start: int, tokens: List[Token], stop: int
) -> Optional[Tuple[int, int, int]]:
    """Append the tokens of ``source`` from ``position`` on to ``tokens``.

    ``position`` is where a token ends (or 0), on line ``line``, which
    starts at offset ``line_start``.  Returns ``(position, line,
    line_start)`` to resume from once a token ends at or past ``stop``,
    and ``None`` after EOF.
    """
    append = tokens.append
    match = _TOKEN.match
    ident, keyword = TokenKind.IDENT, TokenKind.KEYWORD
    end = len(source)
    next_newline = source.find("\n", line_start) % (end + 1)  # no newline: end
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
            return None
        elif group == _FLOAT:
            column = found.start(_INT) - line_start + 1
            raise LexError("floating-point literals are not supported", line, column)
        elif group == _WORD and text[0].isalpha():
            append(Token(ident, text, line, column))  # keywords are ASCII
        else:
            # A stray character, or a digit that is not a decimal digit
            # ('²'), which starts neither a literal nor an identifier.
            raise LexError(f"unexpected character {text[0]!r}", line, column)
        if position >= stop:
            return position, line, line_start


def _relex(previous: tuple, source: str) -> Optional[Tuple[List[Token], List[int]]]:
    """``source``'s tokens and their end offsets, from ``previous``'s.

    ``None`` when the two sources share less than half of ``source``.
    """
    old, old_tokens, ends = previous
    if old == source:
        return old_tokens, ends
    prefix = _common_prefix(old, source)
    suffix = _common_prefix(old[prefix:][::-1], source[prefix:][::-1])
    if 2 * (prefix + suffix) < len(source):
        return None
    if ends is None:
        ends = _token_ends(old, old_tokens, 1, 0)
    delta = len(source) - len(old)
    # Resume after the last token that ends before the first changed
    # character: the token and the character after it are unchanged.
    kept = bisect_left(ends, prefix)
    position, line, line_start = 0, 1, 0
    if kept:
        token = old_tokens[kept - 1]
        position = ends[kept - 1]
        line, line_start = token.line, position - len(token.text) - token.column + 1
    tokens = old_tokens[:kept]
    resume = position, line, line_start
    # An old token end inside the unchanged end is where the two lexes
    # meet: from there on both read the same characters.
    meet = bisect_left(ends, len(old) - suffix)
    final = len(ends) - 1  # EOF's end: nothing to reuse after it
    while resume is not None:
        stop = ends[meet] + delta if meet < final else len(source) + 1
        resume = _lex(source, *resume, tokens, stop)
        if resume is not None:
            meet = bisect_left(ends, resume[0] - delta, meet)
            if meet < final and ends[meet] == resume[0] - delta:
                break
    new_ends = ends[:kept] + _token_ends(source, tokens[kept:], line, line_start)
    if resume is not None:
        met = resume[0]
        lines = source.count("\n") - old.count("\n")
        columns = (met - source.rfind("\n", 0, met)) - (ends[meet] - old.rfind("\n", 0, ends[meet]))
        tokens += _moved(old_tokens[meet + 1 :], old_tokens[meet].line, lines, columns)
        new_ends += map(delta.__add__, ends[meet + 1 :])
    return tokens, new_ends


def _moved(tokens: List[Token], line: int, lines: int, columns: int) -> List[Token]:
    """``tokens`` moved ``lines`` lines down, and on line ``line`` also
    ``columns`` columns right; unmoved tokens are kept as they are."""
    if not (lines or columns):
        return tokens
    same = 0
    while same < len(tokens) and tokens[same].line == line:
        same += 1
    head = [
        Token(t.kind, t.text, t.line + lines, t.column + columns, t.value)
        for t in tokens[:same]
    ]
    if not lines:
        return head + tokens[same:]
    return head + [
        Token(t.kind, t.text, t.line + lines, t.column, t.value) for t in tokens[same:]
    ]


def _token_ends(source: str, tokens: List[Token], line: int, line_start: int) -> List[int]:
    """The end offsets of ``tokens``, the first on line ``line`` or after.

    ``line_start`` is the offset of line ``line``.
    """
    ends = []
    for token in tokens:
        while line < token.line:
            line_start = source.index("\n", line_start) + 1
            line += 1
        ends.append(line_start + token.column - 1 + len(token.text))
    return ends


def _common_prefix(a: str, b: str) -> int:
    """The length of the longest common prefix of ``a`` and ``b``."""
    same, limit = 0, min(len(a), len(b))
    while same < limit:  # a[:same] == b[:same]; the answer is <= limit
        middle = (same + limit + 1) // 2
        if a[same:middle] == b[same:middle]:
            same = middle
        else:
            limit = middle - 1
    return same

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
in places is lexed again only there (:func:`tokenize`).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from difflib import SequenceMatcher
from itertools import accumulate
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
    :data:`repro.ir.memo.LEXED`.  When most of ``source`` is shared with
    that source -- their common start and end, and the equal lines
    between -- only each changed window is lexed again: from the last
    token end before it until the lexer reaches an old token end inside
    the next shared stretch.  The old tokens of each shared stretch are
    reused -- the same objects where their line and column did not
    move.  Either way the result is what a cold lex gives, tokens or
    :class:`LexError`.  Tokens are read-only.
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
    line_start)`` of the first token end at or past ``stop``, to resume
    from, and ``None`` after EOF.
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
            continue  # only a token end is a place to resume from
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
    same = _unchanged(old, source)
    if same is None or 2 * sum(size for _, _, size in same) < len(source):
        return None
    if ends is None:
        ends = _token_ends(old, old_tokens, 1, 0)
    final = len(ends) - 1  # EOF's end: nothing to reuse after it
    tokens: List[Token] = []
    new_ends: List[int] = []
    resume: Optional[Tuple[int, int, int]] = (0, 1, 0)
    for old_start, new_start, size in same:
        delta = new_start - old_start
        # The old tokens that end, with the character after them, inside
        # this stretch; from one's end on, both lexes read the same text.
        first = bisect_left(ends, old_start)
        last = min(bisect_left(ends, old_start + size), final) - 1
        # Both lexes start at offset 0, as if a token ended there.
        met = -1 if resume[0] == old_start == new_start == 0 else None
        mark, line, line_start = len(tokens), resume[1], resume[2]
        candidate = first
        while met is None and candidate < last:
            candidate = bisect_left(ends, resume[0] - delta, candidate, last)
            if candidate == last:
                break
            stop = ends[candidate] + delta
            if stop == resume[0]:
                met = candidate
            else:
                resume = _lex(source, *resume, tokens, stop)
                if resume is None:
                    break
        new_ends += _token_ends(source, tokens[mark:], line, line_start)
        if resume is None:
            return tokens, new_ends
        if met is None or met == last:
            continue
        position, line, line_start = resume
        lines = columns = 0
        if met >= 0:
            token = old_tokens[met]
            lines = line - token.line
            columns = position - line_start - (token.column - 1 + len(token.text))
            line = token.line
        tokens += _moved(old_tokens[met + 1 : last + 1], line, lines, columns)
        kept = ends[met + 1 : last + 1]
        new_ends += map(delta.__add__, kept) if delta else kept
        token = tokens[-1]
        position = new_ends[-1]
        resume = position, token.line, position - len(token.text) - token.column + 1
    mark, line, line_start = len(tokens), resume[1], resume[2]
    _lex(source, *resume, tokens, len(source) + 1)
    new_ends += _token_ends(source, tokens[mark:], line, line_start)
    return tokens, new_ends


def _unchanged(old: str, new: str) -> Optional[List[Tuple[int, int, int]]]:
    """``(old offset, new offset, length)`` of each stretch the two
    sources share, in order: their common start and end, and the equal
    lines in between.

    ``None``, before the line diff runs, when even every line the two
    middles both contain could not make up half of ``new``.
    """
    prefix = _common_prefix(old, new)
    suffix = _common_prefix(old[prefix:][::-1], new[prefix:][::-1])
    same = [(0, 0, prefix)]
    old_lines = old[prefix : len(old) - suffix].split("\n")
    new_lines = new[prefix : len(new) - suffix].split("\n")
    if 2 * (prefix + suffix + _shared_lines(old_lines, new_lines)) < len(new):
        return None
    if len(old_lines) > 2 and len(new_lines) > 2:  # whole lines in between
        old_at, new_at = _line_starts(old_lines, prefix), _line_starts(new_lines, prefix)
        old_end, new_end = len(old) - suffix, len(new) - suffix
        matcher = SequenceMatcher(None, old_lines, new_lines)
        for i, j, count in matcher.get_matching_blocks():
            if count:
                start, into = old_at[i], new_at[j]
                size = min(old_at[i + count], old_end) - start
                same.append((start, into, min(size, min(new_at[j + count], new_end) - into)))
    same.append((len(old) - suffix, len(new) - suffix, suffix))
    return [stretch for stretch in same if stretch[2]]


def _shared_lines(old_lines: List[str], new_lines: List[str]) -> int:
    """An upper bound on the text the line diff can match: the
    characters, newline included, of each line as often as both
    lists hold it."""
    both = Counter(old_lines) & Counter(new_lines)
    return sum((len(line) + 1) * count for line, count in both.items())


def _line_starts(lines: List[str], offset: int) -> List[int]:
    """The offset of each of ``lines`` (split at newlines from
    ``offset``), and where a line after the last would start."""
    return list(accumulate((len(line) + 1 for line in lines), initial=offset))


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

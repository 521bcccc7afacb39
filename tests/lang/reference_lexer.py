"""The character-at-a-time lexer the one-pattern lexer replaced.

Kept unchanged as the oracle for ``tests/lang/test_lexer_differential.py``:
on every input both must produce the same tokens or the same
:class:`~repro.lang.lexer.LexError`.  The one intended difference is a
digit that is not a decimal digit (``²``): this lexer lets it into an
integer literal and ``int()`` then raises ``ValueError``.
"""

from __future__ import annotations

from typing import List

from repro.lang.lexer import LexError
from repro.lang.tokens import KEYWORDS, OPERATORS, PUNCTUATION, Token, TokenKind


class Lexer:
    """Single-pass lexer producing a token list ending with EOF."""

    def __init__(self, source: str):
        self.source = source
        self.position = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        while True:
            self._skip_trivia()
            if self.position >= len(self.source):
                tokens.append(Token(TokenKind.EOF, "", self.line, self.column))
                return tokens
            tokens.append(self._next_token())

    # -- internals ----------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.position + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.position < len(self.source):
                if self.source[self.position] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.position += 1

    def _skip_trivia(self) -> None:
        while self.position < len(self.source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self.position < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.column
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self.position >= len(self.source):
                        raise LexError("unterminated block comment", start_line, start_col)
                    self._advance()
                self._advance(2)
            else:
                return

    def _next_token(self) -> Token:
        char = self._peek()
        line, column = self.line, self.column
        if char.isdigit():
            return self._lex_number(line, column)
        if char.isalpha() or char == "_":
            return self._lex_word(line, column)
        for op in OPERATORS:
            if self.source.startswith(op, self.position):
                self._advance(len(op))
                return Token(TokenKind.OP, op, line, column)
        if char in PUNCTUATION:
            self._advance()
            return Token(TokenKind.PUNCT, char, line, column)
        raise LexError(f"unexpected character {char!r}", line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        start = self.position
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek().isalnum():
                self._advance()
            text = self.source[start : self.position]
            try:
                value = int(text, 16)
            except ValueError:
                raise LexError(f"malformed hex literal {text!r}", line, column) from None
            return Token(TokenKind.INT, text, line, column, value=value)
        while self._peek().isdigit():
            self._advance()
        if self._peek() in (".", "e", "E"):
            raise LexError("floating-point literals are not supported", line, column)
        text = self.source[start : self.position]
        return Token(TokenKind.INT, text, line, column, value=int(text))

    def _lex_word(self, line: int, column: int) -> Token:
        start = self.position
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.position]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, line, column)

"""The one-pattern lexer against the character-at-a-time lexer it replaced.

On generated text, ``tokenize`` must produce the oracle's tokens
(kind, text, value, line, column) or the oracle's ``LexError`` message.

The one intended difference is a digit that is not a decimal digit
(``²``).  The oracle takes it into a decimal literal, and then either
``int()`` raises ``ValueError`` or, when a ``.``/``e``/``E`` follows,
the oracle reports a float.  ``tokenize`` reports the digit itself as
an unexpected character.
"""

from hypothesis import given, settings, strategies as st

from repro.lang.lexer import LexError, tokenize
from tests.lang.reference_lexer import Lexer

COMBINING_ACUTE = "\u0301"
#: Printable ASCII and whitespace, a letter, a non-decimal digit, a
#: decimal digit and a combining mark outside ASCII, and the fragments
#: that start literals and comments.
FRAGMENTS = (
    [chr(code) for code in range(32, 127)]
    + [" ", " ", "\t", "\r", "\n", "\n"]
    + ["é", "²", "٣", COMBINING_ACUTE]
    + ["0x", "0X", "//", "/*", "*/", "12", "while", "func"]
)

source_text = st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join)


def outcome(lex, source):
    try:
        return [(t.kind, t.text, t.value, t.line, t.column) for t in lex(source)]
    except LexError as error:
        return ("LexError", str(error), error.line, error.column)


def reference(source):
    return Lexer(source).tokenize()


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(source_text)
def test_tokenize_matches_the_reference_lexer(source):
    new = outcome(tokenize, source)
    try:
        old = outcome(reference, source)
    except ValueError:
        old = None  # int() rejected a literal holding a non-decimal digit
    if new == old:
        return
    # The superscript-digit case, and nothing else.
    assert isinstance(new, tuple), (source, new, old)
    _, message, line, column = new
    char = source.split("\n")[line - 1][column - 1]
    assert char.isdigit() and not char.isdecimal(), (source, new, old)
    assert message.endswith(f"unexpected character {char!r}"), (source, new, old)
    assert old is None or "floating-point" in old[1], (source, new, old)

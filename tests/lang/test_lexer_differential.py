"""The one-pattern lexer against the character-at-a-time lexer it replaced.

On generated text, ``tokenize`` must produce the oracle's tokens
(kind, text, value, line, column) or the oracle's ``LexError`` message.
Lexing a source after another, which reuses the other's tokens, must
give what lexing it cold gives.

The one intended difference is a digit that is not a decimal digit
(``²``).  The oracle takes it into a decimal literal, and then either
``int()`` raises ``ValueError`` or, when a ``.``/``e``/``E`` follows,
the oracle reports a float.  ``tokenize`` reports the digit itself as
an unexpected character.
"""

from hypothesis import given, settings, strategies as st

from repro.ir import memo
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


# -- lexing an edited source again --------------------------------------------

#: What an edit splices in: fragments that join or split the tokens
#: around them (``<`` + ``=``, identifier tails), open or close comments,
#: or move every later line.
SPLICES = ["<", "=", "<=", "//", "/*", "*/", "\n", "\n\n", "x", "_1", "ab", "9", " ", "0x"]
#: Text that mostly lexes, so the edited source often reuses tokens.
LEXABLE = st.lists(
    st.sampled_from(
        ["x", "ab", "_1", "12", "0x1f", "<", "=", "<=", "/", "*", "//", "/*", "*/",
         " ", "\n", "\t", "func", "while", "(", ")", "{", "}", ";", "+", "!="]
    ),
    max_size=60,
).map("".join)


@st.composite
def edit_chains(draw):
    """A source and up to three successive edits of it, each splicing
    fragments in or cutting characters out."""
    sources = [draw(st.one_of(LEXABLE, source_text))]
    for _ in range(draw(st.integers(1, 3))):
        text = sources[-1]
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(text)))
            if draw(st.booleans()):
                text = text[:at] + draw(st.sampled_from(SPLICES)) + text[at:]
            else:
                text = text[:at] + text[at + draw(st.integers(0, 3)) :]
        sources.append(text)
    return sources


def cold(source):
    memo.clear()
    return outcome(tokenize, source)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(edit_chains())
def test_an_edited_source_lexes_as_it_does_cold(sources):
    expected = [cold(source) for source in sources]
    memo.clear()
    assert [outcome(tokenize, source) for source in sources] == expected


def test_an_edit_reuses_the_tokens_after_it():
    from benchmarks.ledger.corpus import EditableModule

    module = EditableModule(11, 5)
    memo.clear()
    before = {id(token) for token in tokenize(module.source())}
    module.edit("constant")
    after = tokenize(module.source())
    assert [(t.kind, t.text, t.value, t.line, t.column) for t in after] == cold(
        module.source()
    )
    # Only the edited literal's line is lexed again or moved.
    shared = sum(id(token) in before for token in after)
    assert len(after) - 30 < shared < len(after)


# -- multi-site edits of a many-line source ------------------------------------

#: Whole lines of toy-language text, comments and blank lines among them.
LINES = st.lists(
    st.sampled_from(
        ["func f(x) {", "}", "  var t = 0;", "  t = t + 12;", "  if (x <= 0x1f) { t = 1; }",
         "  // a note", "", "  /* one", "  two */", "  while (t != 9) { t = t - 1; }", "\t"]
    ),
    min_size=8,
    max_size=40,
).map("\n".join)


@st.composite
def multi_site_chains(draw):
    """A many-line source and up to four successive edits of it.  Each
    edit changes two to four places far apart (spliced fragments, cut
    characters, inserted or deleted lines), or reverts to an earlier
    source of the chain."""
    sources = [draw(LINES)]
    for _ in range(draw(st.integers(1, 4))):
        if len(sources) > 1 and draw(st.booleans()):
            sources.append(draw(st.sampled_from(sources[:-1])))
            continue
        lines = sources[-1].split("\n")
        sites = sorted(
            draw(st.lists(st.integers(0, len(lines)), min_size=2, max_size=4, unique=True)),
            reverse=True,  # edit from the end, so earlier sites keep their index
        )
        for at in sites:
            choice = draw(st.sampled_from(["splice", "cut", "insert", "delete"]))
            if choice == "insert":
                lines[at:at] = [draw(st.sampled_from(["// new", "", "/*", "*/", "x = 1;"]))]
            elif choice == "delete" and at < len(lines):
                del lines[at]
            elif at < len(lines):
                line = lines[at]
                column = draw(st.integers(0, len(line)))
                if choice == "splice":
                    line = line[:column] + draw(st.sampled_from(SPLICES)) + line[column:]
                else:
                    line = line[:column] + line[column + draw(st.integers(1, 3)) :]
                lines[at] = line
        sources.append("\n".join(lines))
    return sources


@settings(max_examples=600, deadline=None, derandomize=True)
@given(multi_site_chains())
def test_a_multi_site_edit_lexes_as_it_does_cold(sources):
    expected = [cold(source) for source in sources]
    memo.clear()
    assert [outcome(tokenize, source) for source in sources] == expected


def test_a_two_site_edit_lexes_only_around_its_two_windows(monkeypatch):
    from benchmarks.ledger.corpus import EditableModule
    from repro.lang import lexer

    source = EditableModule(11, 5).source()
    first = source.index("j < ") + len("j < ")
    last = source.rindex("acc > ") + len("acc > ")
    edited = source[:first] + "7" + source[first:last] + "9" + source[last:]
    memo.clear()
    before = tokenize(source)
    lexed = []

    def counting(text, position, line, line_start, tokens, stop):
        count = len(tokens)
        resume = lexer._lex.__wrapped__(text, position, line, line_start, tokens, stop)
        lexed.append(len(tokens) - count)
        return resume

    counting.__wrapped__ = lexer._lex
    monkeypatch.setattr(lexer, "_lex", counting)
    after = tokenize(edited)
    monkeypatch.undo()
    assert [(t.kind, t.text, t.value, t.line, t.column) for t in after] == cold(edited)
    # The first window runs from its literal to the first token of the
    # next line, the second ends a few tokens after its literal, and EOF
    # is lexed afresh: 16 tokens of more than 700.  Every token between
    # the windows is the old object; the rest of the second literal's
    # line moved a column.
    assert len(before) > 700 and sum(lexed) <= 20
    kept = {id(token) for token in before}
    assert sum(id(token) not in kept for token in after) <= 30


def test_unrelated_sources_build_no_line_diff(monkeypatch):
    from benchmarks.ledger.corpus import large_block
    from repro.lang import lexer

    # A loop-chain module, then the call-graph module after it.
    (_, first), (_, second) = large_block(11, 0)[2:4]
    matchers = []

    def spy(*args, **kwargs):
        matchers.append(args)
        return lexer.SequenceMatcher.__wrapped__(*args, **kwargs)

    spy.__wrapped__ = lexer.SequenceMatcher
    memo.clear()
    tokenize(first)
    monkeypatch.setattr(lexer, "SequenceMatcher", spy)
    after = tokenize(second)
    monkeypatch.undo()
    # The shared start, end and lines cannot make up half of the second
    # module, so it is lexed cold without diffing the two.
    assert matchers == []
    assert [(t.kind, t.text, t.value, t.line, t.column) for t in after] == cold(second)

"""The one-pattern lexer against the character-at-a-time lexer it replaced.

On generated text, ``tokenize`` must produce the oracle's tokens
(kind, text, value, line, column) or the oracle's ``LexError`` message.
Lexing a source after another, which reuses the tokens of the units the
two share, must give what lexing it cold gives.

The one intended difference is a digit that is not a decimal digit
(``²``).  The oracle takes it into a decimal literal, and then either
``int()`` raises ``ValueError`` or, when a ``.``/``e``/``E`` follows,
the oracle reports a float.  ``tokenize`` reports the digit itself as
an unexpected character.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import memo
from repro.lang.lexer import LexError, tokenize
from tests.lang.reference_lexer import Lexer

COMBINING_ACUTE = "\u0301"
#: Printable ASCII and whitespace, a letter, a non-decimal digit, a
#: decimal digit and a combining mark outside ASCII, and the fragments
#: that start literals, comments and top-level units.
FRAGMENTS = (
    [chr(code) for code in range(32, 127)]
    + [" ", " ", "\t", "\r", "\n", "\n"]
    + ["é", "²", "٣", COMBINING_ACUTE]
    + ["0x", "0X", "//", "/*", "*/", "12", "while", "func", "\nfunc", "\nconst"]
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
SPLICES = ["<", "=", "<=", "//", "/*", "*/", "\n", "\n\n", "x", "_1", "ab", "9", " ", "0x",
           "\nfunc ", "\nconst ", " func"]
#: Text that mostly lexes, so the edited source often reuses tokens.
LEXABLE = st.lists(
    st.sampled_from(
        ["x", "ab", "_1", "12", "0x1f", "<", "=", "<=", "/", "*", "//", "/*", "*/",
         " ", "\n", "\t", "func", "const", "while", "(", ")", "{", "}", ";", "+", "!="]
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


@pytest.fixture
def lexed(monkeypatch):
    """The token list of every unit ``tokenize`` lexes, EOF included."""
    from repro.lang import lexer

    calls = []

    def spy(text, line):
        calls.append(real(text, line))
        return calls[-1]

    real = lexer._lex
    monkeypatch.setattr(lexer, "_lex", spy)
    return calls


def fields(tokens):
    return [(t.kind, t.text, t.value, t.line, t.column) for t in tokens]


def test_a_unit_starts_at_column_1_outside_block_comments():
    from repro.lang.lexer import _units

    source = (
        "// a /*\nfunc f() {}\n/*\nfunc g() {}\n*/ func h() {}\n  func i() {}\n"
        "const K = 1;\n/* open\nfunc j() {}"
    )
    assert _units(source) == [
        "// a /*\n",
        "func f() {}\n/*\nfunc g() {}\n*/ func h() {}\n  func i() {}\n",
        "const K = 1;\n/* open\nfunc j() {}",
    ]


def test_a_constant_edit_lexes_only_its_function(lexed):
    from benchmarks.ledger.corpus import EditableModule

    module = EditableModule(11, 5)
    source = module.source()
    module.edit("constant")
    edited = module.source()
    expected = cold(edited)
    memo.clear()
    before = {id(token) for token in tokenize(source)}
    del lexed[:]
    after = tokenize(edited)
    assert fields(after) == expected
    # One unit is lexed: the edited function, from ``func`` to its
    # closing brace, and its EOF.  Every other token is the old object.
    (unit,) = lexed
    assert unit[0].text == "func" and unit[-2].text == "}" and unit[-1].kind == "EOF"
    assert [token for token in after if id(token) not in before] == unit[:-1]


# -- multi-site edits of a many-line source ------------------------------------

#: Whole lines of toy-language text, comments and blank lines among them,
#: with unit starts at column 1, inside a block comment and indented.
LINES = st.lists(
    st.sampled_from(
        ["func f(x) {", "}", "  var t = 0;", "  t = t + 12;", "  if (x <= 0x1f) { t = 1; }",
         "  // a note", "", "  /* one", "  two */", "  while (t != 9) { t = t - 1; }", "\t",
         "func g() {", "const K = 3;", "/*\nfunc h(x) {\n*/", " func"]
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
                inserted = ["// new", "", "/*", "*/", "x = 1;", "func k() {"]
                lines[at:at] = [draw(st.sampled_from(inserted))]
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(multi_site_chains())
def test_a_source_cut_into_units_lexes_as_the_reference(sources):
    # A cut inside a block comment would split the comment: the edit
    # chains above would not see it, as their cold lex cuts the same way.
    for source in sources:
        assert cold(source) == outcome(reference, source)


def test_a_two_site_edit_lexes_exactly_two_units(lexed):
    from benchmarks.ledger.corpus import EditableModule

    source = EditableModule(11, 5).source()
    first = source.index("j < ") + len("j < ")
    last = source.rindex("acc > ") + len("acc > ")
    edited = source[:first] + "7" + source[first:last] + "9" + source[last:]
    expected = cold(edited)
    memo.clear()
    before = {id(token) for token in tokenize(source)}
    del lexed[:]
    after = tokenize(edited)
    assert fields(after) == expected
    # The first and the last function but one, and nothing else.
    assert [unit[1].text for unit in lexed] == ["leaf_0", "top_4"]
    assert [t for t in after if id(t) not in before] == lexed[0][:-1] + lexed[1][:-1]


def test_a_revert_lexes_only_the_units_the_latest_source_lacks(lexed):
    from benchmarks.ledger.corpus import EditableModule
    from repro.lang.lexer import _units

    module = EditableModule(11, 5)
    first = module.source()
    module.edit("comment")  # a line more: every later unit moves down
    module.edit("constant")
    latest = module.source()
    expected = cold(first)
    memo.clear()
    tokenize(first)
    tokenize(latest)
    del lexed[:]
    assert fields(tokenize(first)) == expected
    # The commented function and the one with the new constant.
    missing = [unit for unit in _units(first) if unit not in set(_units(latest))]
    assert len(missing) == 2
    assert [unit[0].line for unit in lexed] == [
        first[: first.index(unit)].count("\n") + 1 for unit in missing
    ]

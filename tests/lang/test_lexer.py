"""Lexer unit tests."""

import pytest

from repro.lang.lexer import MAX_DECIMAL_DIGITS, LexError, tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]  # drop EOF


class TestBasicTokens:
    def test_empty_source_yields_eof_only(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == TokenKind.EOF

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.kind == TokenKind.INT
        assert token.value == 42

    def test_zero_literal(self):
        assert tokenize("0")[0].value == 0

    def test_hex_literal(self):
        token = tokenize("0xFF")[0]
        assert token.value == 255

    def test_hex_literal_lowercase(self):
        assert tokenize("0x1a")[0].value == 26

    def test_identifier(self):
        token = tokenize("counter_2")[0]
        assert token.kind == TokenKind.IDENT
        assert token.text == "counter_2"

    def test_identifier_with_leading_underscore(self):
        assert tokenize("_tmp")[0].kind == TokenKind.IDENT

    def test_keyword_recognised(self):
        token = tokenize("while")[0]
        assert token.kind == TokenKind.KEYWORD

    def test_keyword_prefix_is_identifier(self):
        token = tokenize("whilex")[0]
        assert token.kind == TokenKind.IDENT


class TestOperators:
    @pytest.mark.parametrize(
        "op",
        ["+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "&&",
         "||", "!", "&", "|", "^", "<<", ">>", "="],
    )
    def test_operator(self, op):
        token = tokenize(op)[0]
        assert token.kind == TokenKind.OP
        assert token.text == op

    def test_maximal_munch_shift_left(self):
        assert texts("a << b") == ["a", "<<", "b"]

    def test_maximal_munch_le(self):
        assert texts("a <= b") == ["a", "<=", "b"]

    def test_adjacent_lt(self):
        assert texts("a < < b") == ["a", "<", "<", "b"]

    def test_logical_and_vs_bitand(self):
        assert texts("a && b & c") == ["a", "&&", "b", "&", "c"]


class TestTrivia:
    def test_line_comment_skipped(self):
        assert texts("a // comment here\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never ends")

    def test_whitespace_mix(self):
        assert texts("  a\t\n  b ") == ["a", "b"]


class TestPositions:
    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]

    def test_column_numbers(self):
        tokens = tokenize("ab cd")
        assert tokens[0].column == 1
        assert tokens[1].column == 4


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("a $ b")
        assert "$" in str(excinfo.value)

    def test_float_literal_rejected(self):
        with pytest.raises(LexError):
            tokenize("1.5")

    def test_malformed_hex(self):
        with pytest.raises(LexError):
            tokenize("0xZZ")


class TestFullProgram:
    def test_paper_example_tokenises(self):
        source = """
        func main(n) {
          for (x = 0; x < 10; x = x + 1) {
            if (x > 7) { y = 1; } else { y = x; }
          }
          return n;
        }
        """
        tokens = tokenize(source)
        assert tokens[-1].kind == TokenKind.EOF
        assert sum(1 for t in tokens if t.is_keyword("if")) == 1
        assert sum(1 for t in tokens if t.is_punct("{")) == 4


def spans(source):
    return [(t.kind, t.text, t.value, t.line, t.column) for t in tokenize(source)]


class TestUnicodeAndEdges:
    def test_unicode_letters_make_identifiers(self):
        assert spans("é_1") == [("IDENT", "é_1", None, 1, 1), ("EOF", "", None, 1, 4)]

    def test_unicode_decimal_digits_make_integers(self):
        assert spans("٣٣")[0] == ("INT", "٣٣", 33, 1, 1)

    def test_superscript_digit_is_an_unexpected_character(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("var x = 2²;")
        assert str(excinfo.value) == "lex error at 1:10: unexpected character '²'"

    def test_superscript_digit_alone(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("\n  ²")
        assert (excinfo.value.line, excinfo.value.column) == (2, 3)

    def test_superscript_digit_inside_an_identifier_is_kept(self):
        assert texts("x² y") == ["x²", "y"]

    def test_vulgar_fraction_is_an_unexpected_character(self):
        with pytest.raises(LexError, match="unexpected character '½'"):
            tokenize("½")

    def test_hex_body_stops_at_underscore(self):
        assert spans("0x1_2")[:2] == [("INT", "0x1", 1, 1, 1), ("IDENT", "_2", None, 1, 4)]

    def test_bare_hex_prefix_is_malformed(self):
        with pytest.raises(LexError, match="malformed hex literal '0x'"):
            tokenize("0x;")

    def test_decimal_then_letters_is_int_then_ident(self):
        assert spans("12abc")[:2] == [("INT", "12", 12, 1, 1), ("IDENT", "abc", None, 1, 3)]

    @pytest.mark.parametrize("source", ["1.5", "1e5", "12E", "7."])
    def test_float_error_points_at_the_literal(self, source):
        with pytest.raises(LexError) as excinfo:
            tokenize("x = " + source)
        assert str(excinfo.value) == (
            "lex error at 1:5: floating-point literals are not supported"
        )

    def test_tab_and_carriage_return_are_one_column(self):
        assert [t.column for t in tokenize("\ta\r b")] == [2, 5, 6]

    def test_eof_position_follows_trailing_trivia(self):
        assert spans("a\n  // note")[-1] == ("EOF", "", None, 2, 10)

    def test_block_comment_lines_are_counted(self):
        assert spans("/* one\ntwo\n */ x")[0] == ("IDENT", "x", None, 3, 5)

    def test_unterminated_block_comment_position(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("a\n  /* never */ b /*/")
        assert str(excinfo.value) == "lex error at 2:17: unterminated block comment"

    def test_combining_mark_is_an_unexpected_character(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("e\u0301")
        assert excinfo.value.column == 2

    def test_longest_decimal_literal_is_accepted(self):
        assert MAX_DECIMAL_DIGITS == 4300
        token = tokenize("9" * 4300)[0]
        assert token.value == 10 ** 4300 - 1

    @pytest.mark.parametrize("digits", [4301, 5000])
    def test_longer_decimal_literal_is_a_lex_error(self, digits):
        # On Python 3.11, int() would raise ValueError past 4300 digits;
        # the lexer reports it the same way on every version.
        with pytest.raises(LexError) as excinfo:
            tokenize("var x;\n  x = " + "7" * digits + ";")
        assert str(excinfo.value) == (
            "lex error at 2:7: decimal literal longer than 4300 digits"
        )

    def test_long_hex_literal_is_not_limited(self):
        assert tokenize("0x" + "f" * 5000)[0].value == 16 ** 5000 - 1

from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from levelone import ParseError, parse_laurent, print_laurent
from levelone.parser import laurent_terms
from levelone.errors import CoefficientTooLarge
from levelone.poly import MAX_COEFF_DIGITS

from conftest import laurent_polys


# malformed input: (position, message) of its ParseError
PARSE_ERRORS = {
    "": (0, "empty input at position 0"),
    "t^": (2, "expected an integer exponent at position 2"),
    "t^^2": (2, "expected an integer exponent at position 2 (near '^')"),
    "1//2": (2, "expected an unsigned denominator at position 2 (near '/')"),
    "2*": (2, "expected 't' after '*' at position 2"),
    "t 2": (2, "expected '+', '-' or end of input at position 2 (near '2')"),
    "x": (0, "unexpected character at position 0 (near 'x')"),
    "1/0": (2, "zero denominator at position 2 (near '0')"),
    "+": (0, "expected a coefficient or 't' at position 0 (near '+')"),
    "1 + ": (4, "expected a coefficient or 't' at position 4"),
    "1/t": (2, "expected an unsigned denominator at position 2 (near 't')"),
    "2**t": (2, "expected 't' after '*' at position 2 (near '*')"),
    "t^-": (3, "expected an integer exponent at position 3"),
    "- -1": (2, "expected a coefficient or 't' at position 2 (near '-')"),
    # whitespace other than the ASCII blanks (space, tab, CR, LF)
    "t\x1c+ 2": (1, "unexpected character at position 1 (near '\\x1c')"),
    "t +\u00a02": (3, "unexpected character at position 3 (near '\\xa0')"),
    "\u20032*t": (0, "unexpected character at position 0 (near '\\u2003')"),
    "1 +\x0bt": (3, "unexpected character at position 3 (near '\\x0b')"),
    "t\x0c": (1, "unexpected character at position 1 (near '\\x0c')"),
}


class TestParse:
    def test_the_ascii_blanks_are_insignificant(self):
        assert parse_laurent(" 1/2*t\t+\r\n t^-1 \n") == {1: F(1, 2), -1: F(1)}

    def test_literal_past_the_digit_bound(self):
        ok = "1" * MAX_COEFF_DIGITS
        at_bound = "0" * (MAX_COEFF_DIGITS - 1)
        assert parse_laurent(f"{ok}/{ok}*t - 2*t^{at_bound}3") == {1: F(1), 3: F(-2)}
        for text in (ok + "7", f"1/{ok}7", f"t^{ok}7", f"t + 3*t^-{ok}0"):
            with pytest.raises(CoefficientTooLarge, match=f"of {MAX_COEFF_DIGITS + 1} digits"):
                parse_laurent(text)

    def test_family_coefficient_string(self):
        assert parse_laurent("t^-1 - 1/2*t^-2") == {-1: F(1), -2: F(-1, 2)}

    def test_zero(self):
        assert parse_laurent("0") == {}

    def test_cancellation(self):
        assert parse_laurent("3 + t^2 - t^2") == {0: F(3)}

    def test_bare_t_and_omitted_coefficient(self):
        assert parse_laurent("t") == {1: F(1)}
        assert parse_laurent("-t") == {1: F(-1)}
        assert parse_laurent("2t") == {1: F(2)}
        assert parse_laurent("2*t^3") == {3: F(2)}
        assert parse_laurent("7/4") == {0: F(7, 4)}

    def test_whitespace_insignificant(self):
        assert parse_laurent("  t ^ -1+ 2 ") == parse_laurent("t^-1 + 2")

    @pytest.mark.parametrize("text,position", [(t, p) for t, (p, _) in PARSE_ERRORS.items()])
    def test_errors_carry_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_laurent(text)
        assert (err.value.position, str(err.value)) == PARSE_ERRORS[text]


@st.composite
def written_terms(draw):
    """(text, sign, num, den, exp) of one term in one of the grammar's
    spellings; the coefficient may be zero, unreduced or padded."""
    sign = draw(st.sampled_from([1, -1]))
    exp = draw(st.integers(-4, 4))
    num = draw(st.integers(0, 12) | st.integers(0, 10**30))
    den = draw(st.sampled_from([1, 1, 2, 3, 4, 6, 10**20]))
    tpart = draw(st.sampled_from(["t^", "t ^ "] + ["t^+"] * (exp >= 0))) + str(exp)
    if exp == 1 and draw(st.booleans()):
        tpart = "t"
    coeff = str(num) if den == 1 and draw(st.booleans()) else f"{num}/{den}"
    if num == den == 1 and draw(st.booleans()):
        text = tpart
    elif exp == 0 and draw(st.booleans()):
        text = coeff
    else:
        text = coeff + draw(st.sampled_from(["*", " * ", ""])) + tpart
    return text, sign, num, den, exp


@st.composite
def written_polys(draw):
    """(text, the dict its terms sum to) with exponents that repeat and sums
    that cancel."""
    terms = draw(st.lists(written_terms(), min_size=1, max_size=7))
    if draw(st.booleans()):  # a term and its negative: "t - t"
        text, sign, num, den, exp = draw(st.sampled_from(terms))
        terms.append((text, -sign, num, den, exp))
    want: dict = {}
    parts = []
    for k, (text, sign, num, den, exp) in enumerate(terms):
        if k:
            parts.append(" + " if sign > 0 else draw(st.sampled_from([" - ", "-"])))
        elif sign < 0:
            parts.append("-")
        parts.append(text)
        want[exp] = want.get(exp, 0) + F(sign * num, den)
    return "".join(parts), {e: c for e, c in want.items() if c}


class TestParseTerms:
    @given(written_polys())
    @settings(max_examples=400)
    def test_sum_of_the_terms(self, case):
        text, want = case
        got = parse_laurent(text)
        assert got == want
        assert all(type(c) is F for c in got.values())

    @pytest.mark.parametrize("text,want", [
        ("t - t", {}),
        ("0*t", {}),
        ("0*t + 0 - 0/5*t^-2", {}),
        ("1/2 + 1/2", {0: F(1)}),
        ("2/4*t + 3/6*t - t^2", {1: F(1), 2: F(-1)}),
        ("t^-1 + t - t^-1 + 5", {1: F(1), 0: F(5)}),
    ])
    def test_repeated_exponents_add_and_zero_sums_drop(self, text, want):
        got = parse_laurent(text)
        assert got == want
        assert list(got) == list(want)


class TestPrint:
    def test_zero(self):
        assert print_laurent({}) == "0"

    def test_decreasing_exponents(self):
        s = print_laurent({-2: F(-1, 2), -1: F(1)})
        assert s == "t^-1 - 1/2*t^-2"

    def test_unit_coefficients(self):
        assert print_laurent({1: F(1)}) == "t"
        assert print_laurent({1: F(-1)}) == "-t"
        assert print_laurent({0: F(5)}) == "5"

    @given(laurent_polys(min_exp=-8, max_exp=8, max_terms=6))
    def test_round_trip(self, lp):
        assert parse_laurent(print_laurent(lp)) == lp


# -- the token-list parser the scanner replaced ---------------------------------
#
# A copy of the recursive-descent parser over a token list that
# ``laurent_terms`` replaced: the tokenizer reads the whole text first, so a
# character outside the grammar or an over-long digit run anywhere in it is
# reported ahead of any grammar error.


class TokenList:
    def __init__(self, text: str):
        self.items = []  # (kind, text, position)
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch in " \t\r\n":
                i += 1
            elif ch in "0123456789":
                j = i
                while j < n and text[j] in "0123456789":
                    j += 1
                if j - i > MAX_COEFF_DIGITS:
                    raise CoefficientTooLarge(j - i, MAX_COEFF_DIGITS)
                self.items.append(("int", text[i:j], i))
                i = j
            elif ch == "t" or ch in "+-*/^":
                self.items.append((ch, ch, i))
                i += 1
            else:
                raise ParseError("unexpected character", i, ch)
        self.items.append(("end", "", n))
        self.pos = 0

    def peek(self):
        return self.items[self.pos]

    def take(self, kind: str):
        tok = self.items[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}", tok[2], tok[1])
        self.pos += 1
        return tok


def token_list_parse(text: str) -> dict:
    toks = TokenList(text)
    if toks.peek()[0] == "end":
        raise ParseError("empty input", 0)
    out: dict = {}
    sign = 1
    if toks.peek()[0] == "-":
        toks.take("-")
        sign = -1
    while True:
        num, den, exp = token_list_term(toks)
        coeff = F(sign * num, den) + out.get(exp, 0)
        if coeff:
            out[exp] = coeff
        else:
            out.pop(exp, None)
        kind, tok_text, pos = toks.peek()
        if kind == "end":
            return out
        if kind not in "+-":
            raise ParseError("expected '+', '-' or end of input", pos, tok_text)
        toks.take(kind)
        sign = 1 if kind == "+" else -1


def token_list_term(toks: TokenList):
    kind, text, pos = toks.peek()
    if kind == "t":
        return 1, 1, token_list_tpart(toks)
    if kind != "int":
        raise ParseError("expected a coefficient or 't'", pos, text)
    num, den = int(toks.take("int")[1]), 1
    if toks.peek()[0] == "/":
        toks.take("/")
        dk, dt, dp = toks.peek()
        if dk != "int":
            raise ParseError("expected an unsigned denominator", dp, dt)
        den = int(toks.take("int")[1])
        if den == 0:
            raise ParseError("zero denominator", dp, dt)
    if toks.peek()[0] == "*":
        toks.take("*")
        k, t, p = toks.peek()
        if k != "t":
            raise ParseError("expected 't' after '*'", p, t)
        return num, den, token_list_tpart(toks)
    if toks.peek()[0] == "t":
        return num, den, token_list_tpart(toks)
    return num, den, 0


def token_list_tpart(toks: TokenList) -> int:
    toks.take("t")
    if toks.peek()[0] != "^":
        return 1
    toks.take("^")
    sign = 1
    if toks.peek()[0] in "+-":
        sign = -1 if toks.take(toks.peek()[0])[0] == "-" else 1
    kind, text, pos = toks.peek()
    if kind != "int":
        raise ParseError("expected an integer exponent", pos, text)
    return sign * int(toks.take("int")[1])


def parse_outcome(parse, text: str):
    """The dict's items in order, or the error's type, message, position and
    token."""
    try:
        return list(parse(text).items())
    except ParseError as exc:
        return ParseError, str(exc), exc.position, exc.token
    except CoefficientTooLarge as exc:
        return CoefficientTooLarge, str(exc)


LONG_RUN = "7" * (MAX_COEFF_DIGITS + 1)
# the grammar's alphabet, the ASCII blanks, other whitespace, a stray letter
# and digit runs, one past the bound
PIECES = list("0123456789t+-*/^") + [" ", "\t", "\r", "\n", "\x1c", " ", "x",
                                      "12", "t^-", "1/2*t^", LONG_RUN, "0" + LONG_RUN]


@st.composite
def mutated_polys(draw):
    """A written poly with up to three pieces inserted, deleted or replaced."""
    text = draw(written_polys())[0]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(PIECES))
        cut = draw(st.sampled_from([0, 1]))
        text = text[:k] + (piece if draw(st.booleans()) else "") + text[k + cut:]
    return text


class TestScannerAgainstTheTokenList:
    @given(st.lists(st.sampled_from(PIECES), max_size=14).map("".join) | mutated_polys())
    @settings(max_examples=800, derandomize=True)
    def test_same_outcome_as_the_token_list_parser(self, text):
        assert parse_outcome(parse_laurent, text) == parse_outcome(token_list_parse, text)

    @pytest.mark.parametrize("text", [
        "t 2 x",             # a grammar error, then a stray letter
        "1/0 + \x1c",        # a zero denominator, then other whitespace
        f"t t {LONG_RUN}",   # a grammar error, then a digit run past the bound
        f"x {LONG_RUN}",     # the first lexical error wins
        f"{LONG_RUN} x",
        "",
        " \t",
    ] + list(PARSE_ERRORS))
    def test_a_lexical_error_anywhere_comes_first(self, text):
        assert parse_outcome(parse_laurent, text) == parse_outcome(token_list_parse, text)

    def test_terms_are_the_literals_as_written(self):
        assert laurent_terms(" -2/4*t^-1 + 0*t - t + 3") == [(-1, -2, 4), (1, 0, 1),
                                                              (1, -1, 1), (0, 3, 1)]

from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from levelone import ParseError, parse_laurent, print_laurent
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
}


class TestParse:
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

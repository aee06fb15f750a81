from fractions import Fraction as F

import pytest
from hypothesis import given

from levelone import ParseError, parse_laurent, print_laurent
from levelone.errors import CoefficientTooLarge
from levelone.poly import MAX_COEFF_DIGITS

from conftest import laurent_polys


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

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("t^", 2),
            ("t^^2", 2),
            ("1//2", 2),
            ("2*", 2),
            ("t 2", 2),
            ("x", 0),
            ("1/0", 2),
            ("+", 0),
        ],
    )
    def test_errors_carry_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_laurent(text)
        assert err.value.position == position


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

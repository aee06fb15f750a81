import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from levelone import DegreeOverflow, FieldElement, PoleAtPoint, PoleAtZero
from levelone.poly import poly_scale, poly_shift, poly_sub

from conftest import fe, field_elements, nonzero_field_elements

ONE = FieldElement.constant(1)
ZERO = FieldElement.constant(0)
T = FieldElement.t_power(1)


class TestFieldArithmetic:
    def test_common_denominator_collapses(self):
        assert T / (T + ONE) + ONE / (T + ONE) == ONE

    def test_gcd_cancellation(self):
        assert (T * T - ONE) / (T - ONE) == T + ONE

    def test_laurent_monomial_gets_monic_denominator(self):
        x = fe("1/2*t^-2")
        assert x.num == {0: F(1, 2)}
        assert x.den == {2: F(1)}

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_repr_of_a_quotient(self):
        x = ONE / (T + ONE)
        assert repr(x) == "FieldElement('1' / 't + 1')"
        assert repr(fe("1/2*t^-2")) == "FieldElement('1/2*t^-2')"
        with pytest.raises(ValueError, match="not a Laurent polynomial: FieldElement"):
            x.to_laurent()

    def test_degree_guard(self):
        big = FieldElement.t_power(6000)
        with pytest.raises(DegreeOverflow):
            big * big


class TestValuation:
    def test_examples(self):
        assert (fe("t^2 + t^3") / fe("2*t")).valuation_at_zero() == 1
        assert ZERO.valuation_at_zero() == math.inf
        assert fe("t^-1").valuation_at_zero() == -1

    @given(field_elements(), field_elements())
    def test_additive_under_multiplication(self, f, g):
        assert (f * g).valuation_at_zero() == (
            f.valuation_at_zero() + g.valuation_at_zero()
        )


class TestEvaluation:
    def test_eval_at_zero_examples(self):
        assert (fe("3*t^2 + t^5") / fe("t^2")).eval_at_zero() == 3
        assert (T / (T + ONE)).eval_at_zero() == 0
        with pytest.raises(PoleAtZero):
            fe("t^-1").eval_at_zero()

    def test_eval_at_examples(self):
        assert fe("t^2 + 1").eval_at(F(2)) == 5
        with pytest.raises(PoleAtPoint):
            (ONE / (T - ONE)).eval_at(F(1))
        assert fe("t^-1").eval_at(F(1, 2)) == 2

    @given(field_elements())
    @settings(max_examples=60)
    def test_limit_agrees_with_evaluation_along_one_over_k(self, f):
        """|f(1/k) - f(0)| <= C/k with C computed from the coefficients.

        Writing num(t)*den(0) - num(0)*den(t) = t*r(t), the difference at
        t = 1/k is bounded by (sum |r|) / (k * |den(1/k)| * |den(0)|), and
        |den(1/k)| >= |den(0)|/2 once k >= 2 * (sum |den tail|) / |den(0)|.
        """
        v = f.valuation_at_zero()
        if v == math.inf:
            return
        if v < 0:
            f = f * FieldElement.t_power(-v)  # shift poles away, keep generality
        f0 = f.eval_at_zero()
        d0 = f.den[0]
        n0 = f.num.get(0, F(0))
        r = poly_shift(poly_sub(poly_scale(f.num, d0), poly_scale(f.den, n0)), -1)
        big_r = sum((abs(c) for c in r.values()), F(0))
        tail = sum((abs(c) for e, c in f.den.items() if e >= 1), F(0))
        k = max(10**6, int(2 * tail / abs(d0)) + 1)
        diff = abs(f.eval_at(F(1, k)) - f0)
        assert diff <= (2 * big_r / (d0 * d0)) / k


class TestFieldAxioms:
    @given(field_elements(), field_elements(), field_elements())
    @settings(max_examples=60)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(field_elements(), field_elements())
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(field_elements())
    def test_additive_inverse(self, a):
        assert a - a == ZERO
        assert a + (-a) == ZERO

    @given(nonzero_field_elements)
    def test_multiplicative_inverse(self, a):
        assert a * a.inverse() == ONE
        assert a / a == ONE

    @given(field_elements())
    def test_invariants_hold(self, a):
        from levelone.poly import poly_gcd

        assert a.den, "denominator never empty"
        assert a.den[max(a.den)] == 1, "denominator is monic"
        if a.num:
            assert poly_gcd(a.num, a.den) == {0: F(1)}, "reduced"

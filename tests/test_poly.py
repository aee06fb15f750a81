import math
from fractions import Fraction as F

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from levelone import DegreeOverflow, FieldElement, PoleAtPoint, PoleAtZero
from levelone.poly import poly_mul, poly_pow, poly_scale, poly_shift, poly_sub

from conftest import (
    fe,
    field_elements,
    laurent_polys,
    nonzero_field_elements,
    nonzero_rationals,
    small_rationals,
)

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
        assert a.den, "denominator never empty"
        assert a.den[max(a.den)] == 1, "denominator is monic"
        assert min(a.den) == 0 or min(a.num) == 0, "num and den share no power of t"


ordinary_polys = laurent_polys(min_exp=0, max_exp=4)


def quotient(p, q, r, m, m2):
    """p * (t - r)^m / (q * (t - r)^m2), formed without any cancellation."""
    lin = {1: F(1), 0: -r}
    return FieldElement(poly_mul(p, poly_pow(lin, m)), poly_mul(q, poly_pow(lin, m2)))


class TestUnreducedQuotients:
    """Quotients that keep a common factor (t - r)^k, against sympy QQ(t),
    which reduces every element it forms."""

    @given(ordinary_polys, ordinary_polys.filter(bool), small_rationals,
           st.integers(0, 3), st.integers(0, 3), nonzero_rationals, st.integers(0, 2),
           st.booleans(), ordinary_polys, ordinary_polys.filter(bool), st.integers(0, 3),
           st.integers(0, 3))
    @settings(max_examples=100)
    def test_agree_with_sympy(self, p, q, r, m, m2, c, k, same, p2, q2, m3, m4):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        field = sympy.QQ.frac_field(t)

        def to_k(e):
            def poly(x):
                return sum((sympy.QQ(v.numerator, v.denominator) * field(t) ** j
                            for j, v in x.items()), field.zero)

            return poly(e.num) / poly(e.den)

        def oracle_at(x, t0):
            """The reduced quotient's value at t0, or None at a pole."""
            t0 = sympy.QQ(t0.numerator, t0.denominator)
            d = x.denom(t0)
            if not d:
                return None
            v = x.numer(t0) / d
            return F(int(v.numerator), int(v.denominator))

        f = quotient(p, q, r, m, m2)
        ours = to_k(f)
        assert ours == to_k(FieldElement(p, q)) * field(t - r) ** (m - m2)
        for t0 in (r, F(0)):
            want = oracle_at(ours, t0)
            if want is None:
                with pytest.raises(PoleAtPoint):
                    f.eval_at(t0)
            else:
                assert f.eval_at(t0) == want
        if ours:
            num, den = ours.numer, ours.denom
            v = min(e[0] for e, _ in num.terms()) - min(e[0] for e, _ in den.terms())
        else:
            v = math.inf
        assert f.valuation_at_zero() == v
        if v < 0:
            with pytest.raises(PoleAtZero):
                f.eval_at_zero()
        else:
            assert f.eval_at_zero() == (oracle_at(ours, F(0)) if v == 0 else 0)
        if same:  # the same element, another common factor and scale
            g = quotient(poly_scale(p, c), poly_scale(q, c), r, m + k, m2 + k)
        else:
            g = quotient(p2, q2, r, m3, m4)
        assert (f == g) == (g == f) == (ours == to_k(g))

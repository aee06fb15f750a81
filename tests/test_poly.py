from fractions import Fraction as F

import pytest
import hypothesis.strategies as st
import sympy
from hypothesis import given, settings

from levelone import DegreeOverflow, FieldElement, InexactEntry, PoleAtPoint
from levelone.poly import (
    FE_ZERO,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_shift,
)

from conftest import fe, field_elements, laurent_polys, nonzero_rationals, small_rationals


def quo(num: dict, den: dict) -> FieldElement:
    """num/den from dicts of int coefficients, for readable tests."""
    return FieldElement({e: F(c) for e, c in num.items()}, {e: F(c) for e, c in den.items()})


class TestQuotientForm:
    def test_equality_cross_multiplies(self):
        # (t^2 - 1) / (t - 1) keeps its common factor and equals t + 1
        x = quo({2: 1, 0: -1}, {1: 1, 0: -1})
        assert x.num == {2: F(1), 0: F(-1)} and x.den == {1: F(1), 0: F(-1)}
        assert x == fe("t + 1") and fe("t + 1") == x
        assert x != fe("t - 1")

    def test_laurent_monomial_gets_monic_denominator(self):
        x = fe("1/2*t^-2")
        assert x.num == {0: F(1, 2)}
        assert x.den == {2: F(1)}

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            FieldElement({0: F(1)}, {})

    def test_negation(self):
        x = quo({0: 1, 2: -3}, {1: 1, 0: 2})
        assert (-x).num == {0: F(-1), 2: F(3)} and (-x).den == x.den
        assert -(-x) == x and -FE_ZERO == FE_ZERO

    def test_repr_of_a_quotient(self):
        x = quo({0: 1}, {1: 1, 0: 1})
        assert repr(x) == "FieldElement('1' / 't + 1')"
        assert repr(fe("1/2*t^-2")) == "FieldElement('1/2*t^-2')"
        with pytest.raises(ValueError, match="not a Laurent polynomial: FieldElement"):
            x.to_laurent()

    def test_degree_guard(self):
        with pytest.raises(DegreeOverflow):
            poly_mul({6000: F(1)}, {6000: F(1)})

    @pytest.mark.parametrize("value", [0.1, 2.0, -0.5])
    def test_a_float_coefficient_is_refused(self, value):
        with pytest.raises(InexactEntry, match="coefficient .* is a float"):
            FieldElement(value)
        with pytest.raises(InexactEntry, match="coefficient .* is a float"):
            FieldElement(1, value)

    @given(field_elements())
    def test_invariants_hold(self, a):
        assert a.den, "denominator never empty"
        assert a.den[max(a.den)] == 1, "denominator is monic"
        assert min(a.den) == 0 or min(a.num) == 0, "num and den share no power of t"


class TestEvaluation:
    def test_eval_at_examples(self):
        assert fe("t^2 + 1").eval_at(F(2)) == 5
        with pytest.raises(PoleAtPoint):
            quo({0: 1}, {1: 1, 0: -1}).eval_at(F(1))
        assert fe("t^-1").eval_at(F(1, 2)) == 2

    @pytest.mark.parametrize("value", [0.1, 2.0, -0.5])
    def test_a_float_point_is_refused(self, value):
        with pytest.raises(InexactEntry, match="point .* is a float"):
            fe("t^2 + 1").eval_at(value)

    @given(field_elements())
    @settings(max_examples=60)
    def test_limit_agrees_with_evaluation_along_one_over_k(self, f):
        """|f(1/k) - f(0)| <= C/k with C computed from the coefficients,
        f(0) = num[0] / den[0] once a pole is shifted away.

        Writing num(t)*den(0) - num(0)*den(t) = t*r(t), the difference at
        t = 1/k is bounded by (sum |r|) / (k * |den(1/k)| * |den(0)|), and
        |den(1/k)| >= |den(0)|/2 once k >= 2 * (sum |den tail|) / |den(0)|.
        """
        if not f.num:
            return
        v = min(f.num) - min(f.den)
        if v < 0:
            f = FieldElement(poly_shift(f.num, -v), f.den)  # shift poles away
        d0 = f.den[0]
        n0 = f.num.get(0, F(0))
        f0 = n0 / d0
        big_r = sum((abs(d0 * f.num.get(e, 0) - n0 * f.den.get(e, 0))
                     for e in f.num.keys() | f.den.keys()), F(0))
        tail = sum((abs(c) for e, c in f.den.items() if e >= 1), F(0))
        k = max(10**6, int(2 * tail / abs(d0)) + 1)
        diff = abs(f.eval_at(F(1, k)) - f0)
        assert diff <= (2 * big_r / (d0 * d0)) / k


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
        if same:  # the same element, another common factor and scale
            g = quotient(poly_scale(p, c), poly_scale(q, c), r, m + k, m2 + k)
        else:
            g = quotient(p2, q2, r, m3, m4)
        assert (f == g) == (g == f) == (ours == to_k(g))


class TestPolyEval:
    @given(laurent_polys(min_exp=-8, max_exp=12, max_terms=6), nonzero_rationals)
    @settings(max_examples=200)
    def test_sparse_horner_equals_the_sum_of_terms(self, p, x):
        assert poly_eval(p, x) == sum((c * x**e for e, c in p.items()), F(0))

    @given(laurent_polys(min_exp=0, max_exp=12, max_terms=6))
    def test_at_zero_reads_the_constant_term(self, p):
        assert poly_eval(p, F(0)) == p.get(0, 0)

    def test_a_negative_exponent_at_zero_divides_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_eval({-2: F(1), 3: F(5)}, F(0))

    def test_examples(self):
        assert poly_eval({}, F(3)) == 0
        assert poly_eval({0: F(7, 2)}, F(-5)) == F(7, 2)
        assert poly_eval({-1: F(1, 2), 2: F(-3)}, F(-2, 3)) == F(-3, 4) - F(4, 3)


class TestPolyGcd:
    """poly_gcd against sympy's gcd over QQ, normalised to the monic one."""

    @staticmethod
    def oracle(a, b):
        t = sympy.symbols("t")

        def to_qq(p):
            return sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator) * t**e
                                   for e, c in p.items()), sympy.Integer(0)), t, domain=sympy.QQ)

        g = sympy.gcd(to_qq(a), to_qq(b))
        if g.is_zero:
            return {}
        return {m[0]: F(int(c.numerator), int(c.denominator)) for m, c in g.monic().terms()}

    @given(ordinary_polys, ordinary_polys, ordinary_polys,
           st.sampled_from(["both", "first", "none"]))
    @settings(max_examples=200)
    def test_agrees_with_sympy(self, f, h, c, shared):
        # a common factor c makes most gcds non-trivial; "none" draws a, b
        # apart, and every strategy draws the zero and constant polynomials
        a = poly_mul(f, c) if shared != "none" else f
        b = poly_mul(h, c) if shared == "both" else h
        assert poly_gcd(a, b) == poly_gcd(b, a) == self.oracle(a, b)

    @pytest.mark.parametrize("a,b", [
        ({}, {}), ({}, {0: F(3)}), ({0: F(-2, 3)}, {}), ({0: F(5)}, {0: F(7, 2)}),
        ({}, {1: F(2), 0: F(2)}), ({2: F(1), 0: F(-1)}, {1: F(3), 0: F(-3)}),
    ])
    def test_zero_and_constant_cases(self, a, b):
        assert poly_gcd(a, b) == self.oracle(a, b)

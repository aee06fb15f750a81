"""Exact scalar arithmetic: Q[t], Laurent polynomials and Q(t) quotients.

A polynomial is a sparse dict mapping exponent to a nonzero Fraction; the
zero polynomial is the empty dict.  Ordinary polynomials keep exponents
>= 0, Laurent polynomials may use negative exponents.

``FieldElement`` is the view of an element of Q(t) that the system reads:
the unreduced quotient num/den of two ordinary polynomials, with monic
den and no power of t in common.  ``transport()`` and
``ParamMatrix.entries`` build it; it is evaluated, compared, negated and
printed, and the t -> 0 read-offs take its valuation.  It has no field
arithmetic: every limit and witness is computed over Z and Z[t].  No
polynomial gcd is taken, so a Laurent polynomial keeps the one form num/t^s,
equality cross-multiplies, and evaluation at t0 first divides out the
factors (t - t0) that num and den share.

No floating point enters anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegreeOverflow, PoleAtPoint, PoleAtZero

Poly = dict  # {int exponent: nonzero Fraction}

#: Hard cap on any exponent magnitude produced by multiplication; exceeding
#: it raises DegreeOverflow instead of thrashing on adversarial input.
MAX_DEGREE = 10_000

#: Hard cap on the dimension of any algebra or family read from input; a
#: structure tensor has dim^3 entries and the basis-change kernels allocate
#: that many, so larger inputs are refused before anything is allocated.
MAX_DIM = 64

#: Hard cap on the digits of any integer literal read from input, a
#: coefficient's numerator or denominator or an exponent; it is CPython's
#: default int_max_str_digits, so every literal that converts today is kept.
MAX_COEFF_DIGITS = 4300

ZERO = Fraction(0)
ONE = Fraction(1)

POLY_ONE: Poly = {0: ONE}


def poly_const(c) -> Poly:
    """Constant polynomial, {} for zero."""
    c = Fraction(c)
    return {0: c} if c else {}


def poly_ord(p: Poly):
    """Lowest exponent (order of vanishing at t = 0); +inf for zero."""
    return min(p) if p else math.inf


def poly_neg(a: Poly) -> Poly:
    return {e: -c for e, c in a.items()}


def poly_scale(a: Poly, c: Fraction) -> Poly:
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def poly_shift(a: Poly, k: int) -> Poly:
    """Multiply by t^k (k may be negative)."""
    if k == 0:
        return dict(a)
    return {e + k: c for e, c in a.items()}


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, ZERO) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    if out and (max(out) > MAX_DEGREE or min(out) < -MAX_DEGREE):
        raise DegreeOverflow(f"exponent beyond +/-{MAX_DEGREE}")
    return out


def poly_pow(a: Poly, k: int) -> Poly:
    out = dict(POLY_ONE)
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    """Exact substitution; negative exponents require x != 0.

    Sparse Horner over Z: with x = u/v, D the lcm of the coefficient
    denominators and exponents from low to top, the sum of
    (D*c_e) * u^(e - low) * v^(top - e) takes one power of u and one of v
    per gap between exponents, and p(x) is that sum over D * v^(top - low),
    times x^low.
    """
    if not p:
        return ZERO
    u, v = x.numerator, x.denominator
    den = math.lcm(*(c.denominator for c in p.values()))
    es = sorted(p, reverse=True)
    acc, vpow, low = 0, 1, es[0]  # low: the last exponent taken
    for e in es:
        if e != low:
            acc *= u ** (low - e)
            vpow *= v ** (low - e)
            low = e
        c = p[e]
        acc += c.numerator * (den // c.denominator) * vpow
    return Fraction(acc, den * vpow) * x**low


def _divide_linear(p: Poly, t0: Fraction) -> Poly:
    """p / (t - t0) by Horner's rule, for p != 0 with p(t0) = 0 (exponents
    >= 0)."""
    q: Poly = {}
    acc = ZERO
    for e in range(max(p), 0, -1):
        acc = acc * t0 + p.get(e, ZERO)
        if acc:
            q[e - 1] = acc
    return q


# No code in the package calls poly_gcd: Q(t) quotients stay unreduced.  It
# is kept because perfbench/tracer.py wraps poly.poly_gcd by name, and a
# traced benchmark run fails on a binding it cannot find.
def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in Q[t] by Euclid's algorithm; {} when a = b = 0."""
    while b:
        r, top = dict(a), max(b)
        while r and (k := max(r) - top) >= 0:  # r -= q t^k b cancels r's lead
            q = r[k + top] / b[top]
            for e, c in b.items():
                if s := r.get(e + k, ZERO) - q * c:
                    r[e + k] = s
                else:
                    del r[e + k]
        a, b = b, r
    lc = a[max(a)] if a else ONE
    return {e: c / lc for e, c in a.items()}


class FieldElement:
    """An element of Q(t) as the unreduced quotient num/den: monic den, no
    power of t in common and no other common factor cancelled.

    Instances are immutable.  Equality is num * den' == num' * den.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, dict):
            num = poly_const(num)
        if den is None:
            den = dict(POLY_ONE)
        elif not isinstance(den, dict):
            den = poly_const(den)
        n, d = _normalize(num, den)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> "FieldElement":
        """Wrap already-normalized parts as they are."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    @classmethod
    def constant(cls, c) -> "FieldElement":
        return cls._raw(poly_const(c), dict(POLY_ONE))

    @classmethod
    def from_laurent(cls, lp: Poly) -> "FieldElement":
        """lp * t^s / t^s, s the order of the pole of lp at t = 0."""
        s = max(0, -min(lp, default=0))
        return cls._raw(poly_shift(lp, s), {s: ONE})

    # -- views, sign and comparison -------------------------------------
    def __bool__(self) -> bool:
        return bool(self.num)

    def to_laurent(self) -> Poly:
        """The Laurent dict of self; fails unless den is a pure power of t."""
        if len(self.den) != 1:  # den is monic: a lone term is t^e
            raise ValueError(f"not a Laurent polynomial: {self!r}")
        return poly_shift(self.num, -max(self.den))

    def __neg__(self) -> "FieldElement":
        return FieldElement._raw(poly_neg(self.num), dict(self.den))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return poly_mul(self.num, other.den) == poly_mul(other.num, self.den)

    def __repr__(self) -> str:
        from .parser import print_laurent  # local import avoids a cycle

        if list(self.den.values()) == [1]:  # den a pure power of t
            return f"FieldElement({print_laurent(self.to_laurent())!r})"
        return f"FieldElement({print_laurent(self.num)!r} / {print_laurent(self.den)!r})"

    # -- valuation and evaluation ---------------------------------------
    def valuation_at_zero(self):
        """Order of vanishing at t = 0; +inf for the zero element."""
        if not self.num:
            return math.inf
        return min(self.num) - min(self.den)

    def eval_at_zero(self) -> Fraction:
        """Exact limit of f(t) as t -> 0; requires valuation >= 0."""
        v = self.valuation_at_zero()
        if v > 0:
            return ZERO
        if v < 0:
            raise PoleAtZero(f"valuation {v} < 0")
        # no shared power of t and valuation 0 force ord(num) = ord(den) = 0
        return self.num[0] / self.den[0]

    def eval_at(self, t0: Fraction) -> Fraction:
        """f(t0); PoleAtPoint when den still vanishes at t0 after every
        factor (t - t0) shared with num is divided out."""
        t0 = Fraction(t0)
        num, den = self.num, self.den
        while not (d := poly_eval(den, t0)):
            if poly_eval(num, t0):
                raise PoleAtPoint(f"denominator vanishes at t = {t0}")
            num, den = _divide_linear(num, t0), _divide_linear(den, t0)
        return poly_eval(num, t0) / d


def _normalize(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if not den:
        raise ZeroDivisionError("zero denominator in Q(t)")
    if not num:
        return {}, dict(POLY_ONE)
    shift = min(min(num), min(den))
    if shift:
        num = poly_shift(num, -shift)
        den = poly_shift(den, -shift)
    lc = den[max(den)]
    if lc != 1:
        inv = 1 / lc
        num = poly_scale(num, inv)
        den = poly_scale(den, inv)
    return num, den


FE_ZERO = FieldElement._raw({}, dict(POLY_ONE))

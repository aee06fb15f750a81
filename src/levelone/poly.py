"""Exact scalar arithmetic: Q[t], Laurent polynomials and the field Q(t).

A polynomial is a sparse dict mapping exponent to a nonzero Fraction; the
zero polynomial is the empty dict.  Ordinary polynomials keep exponents
>= 0, Laurent polynomials may use negative exponents.  An element of Q(t)
is a numerator/denominator pair of ordinary polynomials with monic
denominator that share no power of t.  No polynomial gcd is taken, so the
pair need not be reduced: a Laurent polynomial keeps the one form num/t^s,
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


def poly_add(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, ZERO) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_neg(a: Poly) -> Poly:
    return {e: -c for e, c in a.items()}


def poly_sub(a: Poly, b: Poly) -> Poly:
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, ZERO) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


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


# poly_gcd and its helpers below have no caller in the package, since Q(t)
# elements stay unreduced: they are kept only because perfbench/tracer.py wraps
# poly.poly_gcd by name, and can go with the next change to the benchmark.
def _int_primitive(p: Poly) -> dict:
    """Rescale to an integer polynomial with content 1 (sign kept)."""
    if not p:
        return {}
    den_lcm = 1
    for c in p.values():
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = {e: c.numerator * (den_lcm // c.denominator) for e, c in p.items()}
    g = 0
    for v in ints.values():
        g = math.gcd(g, v)
    return {e: v // g for e, v in ints.items()}


def _int_prem(a: dict, b: dict) -> dict:
    """Primitive pseudo-remainder of integer polynomials."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        nr: dict = {}
        for e, c in r.items():
            nr[e] = c * lb
        for e, c in b.items():
            k = e + dr - db
            nr[k] = nr.get(k, 0) - lr * c
        r = {e: v for e, v in nr.items() if v}
        if r:
            g = 0
            for v in r.values():
                g = math.gcd(g, v)
            if g > 1:
                r = {e: v // g for e, v in r.items()}
    return r


def poly_monic(p: Poly) -> Poly:
    if not p:
        return {}
    lc = p[max(p)]
    if lc == 1:
        return dict(p)
    return {e: c / lc for e, c in p.items()}


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in Q[t], via a primitive remainder sequence over Z."""
    if not a:
        return poly_monic(b)
    if not b:
        return poly_monic(a)
    x, y = _int_primitive(a), _int_primitive(b)
    while y:
        x, y = y, _int_prem(x, y)
    return poly_monic({e: Fraction(c) for e, c in x.items()})


class FieldElement:
    """An element of Q(t): num/den with monic den, no power of t in common
    and no other common factor cancelled.

    Instances are immutable; all operations return fresh values.  Equality
    is num * den' == num' * den.
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
    def t_power(cls, k: int) -> "FieldElement":
        """The monomial t^k, k possibly negative."""
        if k >= 0:
            return cls._raw({k: ONE}, dict(POLY_ONE))
        return cls._raw({0: ONE}, {-k: ONE})

    @classmethod
    def from_laurent(cls, lp: Poly) -> "FieldElement":
        """lp * t^s / t^s, s the order of the pole of lp at t = 0."""
        s = max(0, -min(lp, default=0))
        return cls._raw(poly_shift(lp, s), {s: ONE})

    # -- predicates and views ------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.num)

    def to_laurent(self, shift: int = 0) -> Poly:
        """Return the Laurent dict of t^shift * self; fails unless den is a
        pure power of t."""
        if len(self.den) != 1:  # den is monic: a lone term is t^e
            raise ValueError(f"not a Laurent polynomial: {self!r}")
        return poly_shift(self.num, shift - max(self.den))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "FieldElement") -> "FieldElement":
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return FieldElement(poly_add(self.num, other.num), dict(self.den))
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return FieldElement(num, poly_mul(self.den, other.den))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __neg__(self) -> "FieldElement":
        return FieldElement._raw(poly_neg(self.num), dict(self.den))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        if not self.num or not other.num:
            return FieldElement._raw({}, dict(POLY_ONE))
        return FieldElement(
            poly_mul(self.num, other.num), poly_mul(self.den, other.den)
        )

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(t)")
        if not self.num:
            return FieldElement._raw({}, dict(POLY_ONE))
        return FieldElement(
            poly_mul(self.num, other.den), poly_mul(self.den, other.num)
        )

    def inverse(self) -> "FieldElement":
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(t)")
        return FieldElement(dict(self.den), dict(self.num))

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
FE_ONE = FieldElement._raw(dict(POLY_ONE), dict(POLY_ONE))

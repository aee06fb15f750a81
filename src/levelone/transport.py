"""The parametric basis-change action over Q(t) and exact t -> 0 limits.

A parametric family is an n x n matrix g over Q(t) that is invertible over
the function field (its determinant may well vanish or blow up at t = 0).
Transporting an algebra by g gives structure constants in Q(t); when every
entry has non-negative valuation the entrywise limit at t = 0 exists and is
again an algebra.  A Witness packages a family with a claimed limit, and
``verify_degeneration`` checks the claim bit-exactly.

One fraction-free kernel does the arithmetic: g = P / (L*D) with P over
Z[t] (D the lcm of the entry denominators, a power of t for a Laurent
family), ``linalg.bareiss`` on [P | I] (the elimination behind ``mat_det``
and ``char_poly`` too) gives d = +-det P and R = d * P^-1 with no gcds, and
the transported tensor is L*D * P.C.(R x R) / (cden * d^2) with C = cden * c
the algebra's stored integer form, read column by column.  Limits are read
off that integer numerator truncated at exponent 2*val(d) - val(D), after
cancelling the power of t that R and d share; ``transport`` and ``invert``
reduce each entry in Q(t).

Many families, every classifier witness and bundled fixture family among
them, are row-monomial: g = diag(t^e) * m with m rational.  Then
g^-1 = m^-1 diag(t^-e), so entry (k, i, j) of the transported tensor is
t^(e_k - e_i - e_j) times entry (k, i, j) of the rational basis change
b = m.c(m^-1 x, m^-1 y), and det g = t^(sum e) * det m.  ``ParamMatrix.det``
reads det m over Q.  ``transport_limit`` scales m to integers once, inverts
that integer matrix (``linalg._inverse``, over one common denominator) and
has the integer contraction ``algebra._contract`` form only the entries of b
with e_k <= e_i + e_j, since the others vanish at t = 0: a nonzero one with
e_k < e_i + e_j is a pole, and without poles the formed tensor, whose
nonzero entries all have e_k = e_i + e_j, is the limit in its stored form.
For a lambda2 witness, e = -(1, 2, ..., 2), that is n - 1 entries of n^3.
Every other family goes through the kernel.

At a point t0 where g is regular and det g(t0) != 0, the family is just the
rational basis change g(t0), so ``transport_at`` evaluates g first and
transports over Q; only at a pole of g or a root of det g does it need the
reduced Q(t) tensor.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, _contract, apply_basis_change
from .canonical import CanonicalForm, construct
from .errors import (
    DegreeOverflow,
    DimensionMismatch,
    NoLimit,
    PoleAtPoint,
    PoleAtZero,
    SingularFamily,
    SingularMatrix,
)
from .linalg import _int_matrix, _inverse_of, addmul, bareiss, mat_det
from .poly import (
    FE_ONE,
    FE_ZERO,
    MAX_DEGREE,
    FieldElement,
    POLY_ONE,
    poly_exact_div,
    poly_lcm,
    poly_mul,
    poly_ord,
    poly_pow,
    poly_scale,
)

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_DIAGNOSTICS = 6  # entrywise mismatches listed by a failing report
SINGULAR = "family matrix is singular over Q(t)"


def _nested(f, grid, depth: int) -> tuple:
    """Nested tuples of f(x) over the entries x of a depth-deep grid."""
    if depth == 1:
        return tuple(f(x) for x in grid)
    return tuple(_nested(f, g, depth - 1) for g in grid)


@dataclass(frozen=True)
class ParamMatrix:
    """n x n matrix over Q(t); column j holds the image of basis vector j."""

    dim: int
    entries: tuple  # tuple of row tuples of FieldElement

    def __post_init__(self):
        if len(self.entries) != self.dim or any(
            len(row) != self.dim for row in self.entries
        ):
            raise DimensionMismatch("entry grid does not match dim")

    @classmethod
    def identity(cls, n: int) -> "ParamMatrix":
        return cls(
            n,
            tuple(
                tuple(FE_ONE if i == j else FE_ZERO for j in range(n))
                for i in range(n)
            ),
        )

    @classmethod
    def diagonal_powers(cls, exponents) -> "ParamMatrix":
        """diag(t^e1, ..., t^en)."""
        exps = list(exponents)
        n = len(exps)
        return cls(
            n,
            tuple(
                tuple(
                    FieldElement.t_power(exps[i]) if i == j else FE_ZERO
                    for j in range(n)
                )
                for i in range(n)
            ),
        )

    @classmethod
    def from_rational(cls, m: list) -> "ParamMatrix":
        return cls(len(m), _nested(FieldElement.constant, m, 2))

    def __matmul__(self, other: "ParamMatrix") -> "ParamMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch("matrix dimensions differ")
        n = self.dim
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = FE_ZERO
                for k in range(n):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return ParamMatrix(n, tuple(rows))

    def det(self) -> FieldElement:
        """Determinant in Q(t): t^(sum e) * det m for a row-monomial family,
        else sign * d / (L*D)^n from the fraction-free kernel."""
        rm = _row_monomial(self)
        if rm is not None:
            e, m = rm
            c = mat_det(m)
            return FieldElement.from_laurent({sum(e): c}) if c else FE_ZERO
        try:
            ff = _FractionFree(self)
        except SingularFamily:
            return FE_ZERO
        num = {e: Fraction(ff.sign * c) for e, c in ff.d.items()}
        return FieldElement(num, poly_pow(poly_scale(ff.D, ff.L), self.dim))

    def eval_at(self, t0: Fraction) -> list:
        """Specialize to a rational matrix; raises PoleAtPoint on a pole."""
        return [[e.eval_at(t0) for e in row] for row in self.entries]


def _row_monomial(g: ParamMatrix):
    """(e, m) with g = diag(t^e) * m and m rational, or None when some row
    is not t^(e_i) times a rational row.

    A zero row gets e_i = 0 (m is then singular).  Raises DegreeOverflow
    where the fraction-free kernel would: for an invertible m its
    determinant has degree sum(e_i + s), t^s clearing the denominators.
    """
    exps, rows = [], []
    for row in g.entries:
        exp, out = None, []
        for x in row:
            if not x.num:
                out.append(ZERO)
                continue
            if len(x.num) != 1 or len(x.den) != 1:
                return None
            ((en, c),) = x.num.items()
            ((ed, cd),) = x.den.items()
            if cd != 1 or (exp is not None and en - ed != exp):
                return None
            exp = en - ed
            out.append(c)
        exps.append(exp or 0)
        rows.append(out)
    s = max(0, -min(exps))
    if sum(exps) + len(exps) * s > MAX_DEGREE and mat_det(rows):
        raise DegreeOverflow(f"exponent beyond +/-{MAX_DEGREE}")
    return exps, rows


def _cleared(e: FieldElement, D: dict) -> dict:
    """e * D over Q[t], for D a multiple of e's denominator."""
    if len(D) == 1:  # e.den is a power of t as well
        shift = max(D) - max(e.den)
        return {k + shift: c for k, c in e.num.items()}
    return poly_mul(e.num, poly_exact_div(D, e.den))


class _FractionFree:
    """A family cleared to Z[t] and its fraction-free Gauss-Jordan.

    g = P / (L*D) with P an integer polynomial matrix.  ``linalg.bareiss`` on
    [P | I] leaves d = sign * det P and R = d * P^-1; SingularFamily when
    det P = 0, DegreeOverflow on a minor past MAX_DEGREE.
    """

    def __init__(self, g: ParamMatrix):
        n = self.dim = g.dim
        D = POLY_ONE
        for row in g.entries:
            for e in row:
                if e.num and e.den != D:  # two powers of t need no gcd
                    D = (poly_lcm(D, e.den) if len(D) + len(e.den) > 2
                         else {max(max(D), max(e.den)): ONE})
        cleared = [[_cleared(e, D) for e in row] for row in g.entries]
        L = math.lcm(*(c.denominator for row in cleared for p in row for c in p.values()))
        self.D, self.L = D, L
        self.P = [[{e: c.numerator * L // c.denominator for e, c in p.items()} for p in row]
                  for row in cleared]
        rows = [row + [{0: 1} if j == i else {} for j in range(n)]
                for i, row in enumerate(self.P)]
        self.sign, self.d = bareiss(rows)
        if not self.sign:
            raise SingularFamily(SINGULAR)
        self.R = [row[n:] for row in rows]

    def contract(self, a: Algebra, top=math.inf) -> tuple[list, int]:
        """(N, cden): N = P.C.(R x R) with exponents above ``top`` dropped,
        where C = cden * c is the algebra's stored integer form."""
        n = self.dim
        cden, slices = a.integer_slices()
        P, R = self.P, self.R
        if top < math.inf:
            P, R = ([[{e: c for e, c in p.items() if e <= top} for p in row] for row in m]
                    for m in (P, R))
        mid = [[[{} for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for (s, t), hits in slices.items():
            for i, x in enumerate(R[s]):
                for j, y in enumerate(R[t]):
                    if x and y:
                        xy = {}
                        addmul(xy, x, y, top)
                        for r, v in hits:
                            acc = mid[r][i][j]
                            for e, c in xy.items():
                                acc[e] = acc.get(e, 0) + v * c
        num = [[[{} for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for r, plane in enumerate(mid):
            for i, j in itertools.product(range(n), repeat=2):
                m = {e: c for e, c in plane[i][j].items() if c}
                if not m:
                    continue
                for k in range(n):
                    if P[k][r]:
                        addmul(num[k][i][j], P[k][r], m, top)
        return [[[{e: c for e, c in m.items() if c} for m in row] for row in plane]
                for plane in num], cden


def _over(ff: _FractionFree, den: dict):
    """m -> the reduced FieldElement L*D*m / den, for m over Z[t]."""
    factor = poly_scale(ff.D, ff.L)
    den = {e: Fraction(c) for e, c in den.items()}
    return lambda m: FieldElement(poly_mul(m, factor), dict(den))


def invert(g: ParamMatrix) -> ParamMatrix:
    """Exact inverse over Q(t), L*D*R/d; raises SingularFamily when det = 0."""
    ff = _FractionFree(g)
    return ParamMatrix(g.dim, _nested(_over(ff, ff.d), ff.R, 2))


@dataclass(frozen=True)
class ParamAlgebra:
    """Structure tensor with entries in Q(t)."""

    dim: int
    constants: tuple  # constants[k][i][j], FieldElement

    def eval_at(self, t0: Fraction) -> Algebra:
        return Algebra(self.dim, _nested(lambda e: e.eval_at(t0), self.constants, 3))


def embed_algebra(a: Algebra) -> ParamAlgebra:
    """View a rational tensor as a constant parametric tensor."""
    return ParamAlgebra(a.dim, _nested(FieldElement.constant, a.constants, 3))


def transport(a: Algebra, g: ParamMatrix) -> ParamAlgebra:
    """The transported tensor over Q(t), every entry fully reduced."""
    if a.dim != g.dim:
        raise DimensionMismatch("algebra and family dimensions differ")
    ff = _FractionFree(g)
    num, cden = ff.contract(a)
    den = poly_scale(poly_mul(ff.d, ff.d), cden)
    return ParamAlgebra(a.dim, _nested(_over(ff, den), num, 3))


def _limit(n: int, value) -> Algebra:
    """The algebra of value(k, i, j); NoLimit lists (1-based) the entries
    where value raises PoleAtZero."""
    bad = []
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        try:
            table[k][i][j] = value(k, i, j)
        except PoleAtZero:
            bad.append((k + 1, i + 1, j + 1))
    if bad:
        raise NoLimit(bad)
    return Algebra(n, table)


def limit_at_zero(pa: ParamAlgebra) -> Algebra:
    """Entrywise limit at t = 0; raises NoLimit listing poles (1-based)."""
    return _limit(pa.dim, lambda k, i, j: pa.constants[k][i][j].eval_at_zero())


def transport_limit(a: Algebra, g: ParamMatrix) -> Algebra:
    """limit_at_zero(transport(a, g)), exactly, without the Q(t) tensor.

    For a row-monomial g = diag(t^e) * m, g^-1 = m^-1 diag(t^-e), so entry
    (k, i, j) is b[k][i][j] * t^(e_k - e_i - e_j) with b the rational basis
    change of a by m: a pole where the exponent is negative and b != 0, b
    where it is 0, and 0 where it is positive.  m is scaled to integers
    once and inverted over Z; only the entries with e_k <= e_i + e_j are
    formed, and the limit is their integer tensor over its common
    denominator, with no Fraction per entry.

    Any other g goes through the fraction-free numerator.  Entry (k, i, j)
    is L*D*N/(cden*d^2) with N over Z[t], of valuation
    val(N) + val(D) - 2*val(d).  So a term of N below top = 2*val(d) - val(D)
    is a pole and the term at top gives the limit.  No term above top is
    formed, so for top < 0 every entry is 0.
    """
    if a.dim != g.dim:
        raise DimensionMismatch("algebra and family dimensions differ")
    rm = _row_monomial(g)
    if rm is not None:
        e, m = rm
        m = _int_matrix(m)
        try:
            minv = _inverse_of(m)
        except SingularMatrix:
            raise SingularFamily(SINGULAR) from None
        b = _contract(a, m, minv, e)
        poles = sorted((k + 1, i + 1, j + 1) for (i, j), hits in b.integer_slices()[1].items()
                       for k, _ in hits if e[k] < e[i] + e[j])
        if poles:
            raise NoLimit(poles)
        return b
    ff = _FractionFree(g)
    # every entry of R = d * P^-1, and so d = (R.P)[0][0], is a multiple of
    # t^v; cancelling it leaves R / d alone and lowers top by 2v
    v = min(min(x) for row in ff.R for x in row if x)
    if v:
        ff.R = [[{e - v: c for e, c in x.items()} for x in row] for row in ff.R]
        ff.d = {e - v: c for e, c in ff.d.items()}
    vd, v_den = poly_ord(ff.d), poly_ord(ff.D)
    top = 2 * vd - v_den
    num, cden = ff.contract(a, top)
    scale = ff.L * ff.D[v_den] / (cden * ff.d[vd] ** 2)

    def value(k, i, j):
        nm = num[k][i][j]
        if nm and min(nm) < top:
            raise PoleAtZero(f"valuation {min(nm) - top} < 0")
        return nm[top] * scale if nm else ZERO

    return _limit(a.dim, value)


def transport_at(a: Algebra, g: ParamMatrix, t0: Fraction) -> Algebra:
    """transport(a, g).eval_at(t0), through g(t0) where that is invertible.

    Each reduced entry p/q of transport(a, g) equals a quotient whose
    denominator is a product of the entry denominators of g and det g.  Where
    all of these are nonzero at t0, q(t0) != 0 and evaluation commutes with
    the contraction, so the value is apply_basis_change(a, g(t0)).  At a pole
    of g or a root of det g the reduced tensor may still be regular, so there
    it is built and evaluated; PoleAtPoint means it is not.
    """
    if a.dim != g.dim:
        raise DimensionMismatch("algebra and family dimensions differ")
    try:
        return apply_basis_change(a, g.eval_at(t0))
    except (PoleAtPoint, SingularMatrix):
        return transport(a, g).eval_at(t0)


@dataclass(frozen=True)
class Witness:
    """A checkable degeneration certificate: family, claimed target, trace."""

    family: ParamMatrix
    target: CanonicalForm
    branch_trace: tuple = ()


@dataclass
class Report:
    passed: bool
    limit: Algebra | None
    diagnostics: list

    def summary(self) -> str:
        head = "PASS" if self.passed else "FAIL"
        if self.diagnostics:
            return f"{head}: " + "; ".join(self.diagnostics)
        return head


def verify_degeneration(a: Algebra, w: Witness, up_to_iso: bool = False) -> Report:
    """Check that the witness family carries ``a`` onto its target at t = 0.

    With ``up_to_iso`` the limit only has to be recognized as the target
    form; otherwise the tensors must agree entrywise.  A missing limit is a
    failing report, not an exception.
    """
    if a.dim != w.family.dim:
        raise DimensionMismatch("algebra and family dimensions differ")
    if a.dim != w.target.dim:
        raise DimensionMismatch("algebra and target dimensions differ")
    try:
        limit = transport_limit(a, w.family)
    except NoLimit as exc:
        return Report(False, None, [str(exc)])
    if up_to_iso:
        from .recognize import recognize  # deferred: recognize sits above transport

        res = recognize(limit)
        if res.form is None:
            return Report(False, limit, [f"limit not canonical: {res.reason}"])
        if res.form != w.target:
            return Report(
                False,
                limit,
                [f"limit recognized as {res.form.describe()}, "
                 f"wanted {w.target.describe()}"],
            )
        return Report(True, limit, [])
    target = construct(w.target)
    if limit == target:
        return Report(True, limit, [])
    got, want = limit.entries(), target.entries()
    diffs = []
    for k, i, j in sorted(got.keys() | want.keys()):
        x, y = got.get((k, i, j), ZERO), want.get((k, i, j), ZERO)
        if x != y:
            diffs.append(f"entry ({k + 1},{i + 1},{j + 1}): {x} != {y}")
    return Report(False, limit, diffs[:MAX_DIAGNOSTICS])


def random_family(n: int, pole_bound: int, seed: int) -> ParamMatrix:
    """Seed-deterministic sparse Laurent family with det != 0.

    Entries draw one or two monomials with exponents in
    [-pole_bound, pole_bound] and small rational coefficients; the matrix is
    redrawn until it is invertible over Q(t).
    """
    if pole_bound < 0:
        raise ValueError("pole_bound must be >= 0")
    rng = random.Random(seed)
    while True:
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if rng.random() < 0.65:
                    lp: dict[int, Fraction] = {}
                    for _ in range(rng.randint(1, 2)):
                        e = rng.randint(-pole_bound, pole_bound)
                        c = Fraction(
                            rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 2)
                        )
                        s = lp.get(e, ZERO) + c
                        if s:
                            lp[e] = s
                        else:
                            lp.pop(e, None)
                    row.append(FieldElement.from_laurent(lp))
                else:
                    row.append(FE_ZERO)
            rows.append(tuple(row))
        pm = ParamMatrix(n, tuple(rows))
        if pm.det():
            return pm

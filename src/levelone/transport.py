"""The parametric basis-change action over Q(t) and exact t -> 0 limits.

A parametric family is an n x n matrix g over Q(t) that is invertible over
the function field (its determinant may well vanish or blow up at t = 0).
Transporting an algebra by g gives structure constants in Q(t); when every
entry has non-negative valuation the entrywise limit at t = 0 exists and is
again an algebra.  A Witness packages a family with a claimed limit, and
``verify_degeneration`` checks the claim bit-exactly.

A ``ParamMatrix`` holds a Laurent family, the only kind the family
grammar, the classifier and the builders make, stored one way as
g = P / D with D = L*t^s: P a grid of integer polynomials, t^s the largest
entry denominator and L the lcm of the reduced coefficient denominators.
That form is canonical, so ``==`` compares it as it is.  The classifier
builds it from the integer inverse of its frame, ``jsonio`` and
``random_family`` from reduced int pairs through one clearing
(``_clear_pairs``), and ``families`` from Laurent dicts;
``ParamMatrix(n, rows)`` clears Laurent FieldElement rows.  ``@`` works
over Z[t] and is closed on Laurent families.  ``invert`` returns the rows
of g^-1 over Q(t), which form a Laurent family exactly when det g is a
monomial.  ``entries`` is a view: it builds the FieldElement grid on each
read and caches nothing.

One fraction-free kernel does the arithmetic: ``linalg.bareiss`` on
[P | I] (the elimination behind ``mat_det`` and ``char_poly`` too, run as
one integer elimination of the values at t = 2^k) gives d = +-det P and
R = d * P^-1 with no gcds.  The sign of d follows the pivots; every read
below takes d with R, d^2 or sign * d, so none depends on it.  The
transported tensor is D * P.C.(R x R) / (cden * d^2) with C = cden * c the
algebra's stored integer form, read column by column.  Limits are read off
that integer numerator truncated at exponent 2*val(d) - s, after cancelling
the power of t that R and d share.  ``transport`` and ``invert`` return
these quotients unreduced: equal in Q(t) to the reduced ones, with only the
power of t cancelled.  ``ParamMatrix.det`` is sign * d / D^n from
``bareiss`` on P alone.

Many families, every classifier witness and bundled fixture family among
them, are row-monomial: g = diag(t^e) * m with m rational.  Then
g^-1 = m^-1 diag(t^-e), so entry (k, i, j) of the transported tensor is
t^(e_k - e_i - e_j) times entry (k, i, j) of the rational basis change
b = m.c(m^-1 x, m^-1 y).  Each row of P is then one power of t times an
integer row, so m = M / L comes off P as an integer pair.
``transport_limit`` inverts M over Z (``linalg._inverse``, over one common
denominator) and has the integer contraction ``algebra._contract`` form
only the entries of b with e_k <= e_i + e_j, since the others vanish at
t = 0: a nonzero one with e_k < e_i + e_j is a pole, and without poles the
formed tensor, whose nonzero entries all have e_k = e_i + e_j, is the limit
in its stored form.  For a lambda2 witness, e = -(1, 2, ..., 2), that is
n - 1 entries of n^3.

An algebra of scalar-action form, x*y = A(x) y + B(y) x for linear forms
A and B (``algebra._scalar_action``: pminus, nu(alpha)), keeps that form
under any family, with the forms A' = A.g^-1 and B' = B.g^-1:
g(A(g^-1 x) g^-1 y) = A(g^-1 x) y.  So its limit needs only those two
rows, D times A.P^-1 and B.P^-1, from one ``bareiss`` on
[P^T | A^T B^T] (one right-hand column when B is a multiple of A), and
only the 2n^2 - n entries with k in {i, j} are read.  The read-off is
gated on 2 * (sum of the row degrees of P) <= MAX_DEGREE: a minor of
either elimination has degree at most that sum, and the kernel's read-off
exponent at most twice it, so under the gate neither raises
DegreeOverflow and above it the kernel runs and raises as it always has.

``transport_limit`` thus tries the row-monomial read-off, then the
scalar-action read-off, then the kernel; the last two build the limit
straight in the stored integer form, over one common denominator.

At a point t0 where g is regular and det g(t0) != 0, the family is just the
rational basis change g(t0), so ``transport_at`` evaluates P at t0 = u/v
over Z, as one integer matrix over one denominator, and hands it to the
integer contraction; only at t0 = 0 for a family with a pole (s > 0) or at
a root of det g does it evaluate the Q(t) tensor, whose entries then divide
out the factors (t - t0) they share.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, _contract, _dimension, _integer_algebra, _scalar_action
from .canonical import CanonicalForm, construct
from .errors import (
    DegreeOverflow,
    DimensionMismatch,
    NoLimit,
    PoleAtZero,
    SingularFamily,
    SingularMatrix,
)
from .linalg import _inverse_of, addmul, bareiss, mat_det
from .poly import (
    FE_ZERO,
    MAX_DEGREE,
    FieldElement,
    poly_mul,
    poly_ord,
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


class ParamMatrix:
    """n x n matrix of Laurent polynomials over Q; column j holds the image
    of basis vector j.

    Every family is stored one way, as ({s: L}, P) with g = P / (L*t^s): P
    a grid of integer polynomials {exponent >= 0: nonzero int}, t^s the
    largest entry denominator and L the lcm of the reduced coefficient
    denominators.  That form is canonical, so ``==`` compares it
    structurally.  ``entries`` is a view, built on each read.
    """

    __slots__ = ("dim", "_form")

    def __init__(self, dim: int, entries):
        """The family of a grid of FieldElement rows, each entry Laurent;
        ValueError on one that is not."""
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise DimensionMismatch("entry grid does not match dim")
        s, L, P = _clear([[e.to_laurent() for e in row] for row in entries])
        self._set({s: L}, P)

    def _set(self, D, P) -> None:
        object.__setattr__(self, "dim", len(P))
        object.__setattr__(self, "_form", (D, P))

    def __setattr__(self, *_):
        raise AttributeError("ParamMatrix is immutable")

    @classmethod
    def from_cleared(cls, s: int, L: int, P) -> "ParamMatrix":
        """The family P / (L*t^s) of a form that is already canonical, P a
        tuple of row tuples, taken as it is."""
        obj = object.__new__(cls)
        obj._set({s: L}, P)
        return obj

    @classmethod
    def from_laurent(cls, rows) -> "ParamMatrix":
        """The family of a grid of Laurent dicts {exponent: int or Fraction}."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("entry grid does not match dim")
        return cls.from_cleared(*_clear(rows))

    @classmethod
    def identity(cls, n: int) -> "ParamMatrix":
        return cls.diagonal_powers([0] * n)

    @classmethod
    def diagonal_powers(cls, exponents) -> "ParamMatrix":
        """diag(t^e1, ..., t^en)."""
        exps = list(exponents)
        s = max(0, -min(exps, default=0))
        return cls.from_cleared(s, 1, tuple(
            tuple({e + s: 1} if i == j else {} for j in range(len(exps)))
            for i, e in enumerate(exps)))

    @classmethod
    def from_rational(cls, m: list) -> "ParamMatrix":
        return cls.from_laurent([[{0: c} for c in row] for row in m])

    @property
    def entries(self) -> tuple:
        """Tuple of row tuples of FieldElement."""
        s, L, P = _cleared(self)
        return tuple(tuple(FieldElement.from_laurent({e - s: Fraction(c, L)
                                                      for e, c in p.items()})
                           for p in row) for row in P)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamMatrix):
            return NotImplemented
        return self._form == other._form

    def __repr__(self) -> str:
        return f"ParamMatrix(dim={self.dim}, entries={self.entries!r})"

    def __matmul__(self, other: "ParamMatrix") -> "ParamMatrix":
        """(P / (L*t^s)) @ (Q / (M*t^r)) = P.Q / (L*M*t^(s+r)) over Z[t]."""
        if self.dim != other.dim:
            raise DimensionMismatch("matrix dimensions differ")
        (s, L, P), (r, M, Q) = _cleared(self), _cleared(other)
        n = self.dim
        PQ = [[{} for _ in range(n)] for _ in range(n)]
        for i, k, j in itertools.product(range(n), repeat=3):
            if P[i][k] and Q[k][j]:
                addmul(PQ[i][j], P[i][k], Q[k][j], checked=False)
        return ParamMatrix.from_laurent([[{e - s - r: Fraction(c, L * M) for e, c in p.items()}
                                          for p in row] for row in PQ])

    def det(self) -> FieldElement:
        """Determinant in Q(t): sign * d / (L*t^s)^n with d = sign * det P
        from ``bareiss`` on P alone."""
        s, L, P = _cleared(self)
        sign, d = bareiss([list(row) for row in P])
        if not sign:
            return FE_ZERO
        return FieldElement({e: Fraction(sign * c) for e, c in d.items()},
                            {self.dim * s: Fraction(L**self.dim)})

    def eval_at(self, t0: Fraction) -> list:
        """Specialize to a rational matrix; raises PoleAtPoint on a pole."""
        return [[e.eval_at(t0) for e in row] for row in self.entries]


def _clear(rows) -> tuple[int, int, tuple]:
    """The canonical (s, L, P) of a grid of Laurent dicts {exponent: int or
    Fraction}."""
    return _clear_pairs([[{e: c.as_integer_ratio() for e, c in p.items() if c} for p in row]
                         for row in rows])


def _clear_pairs(rows) -> tuple[int, int, tuple]:
    """The canonical (s, L, P) of a grid of Laurent entries given in ints,
    {exponent: (p, q)} with each p/q nonzero, in lowest terms and q > 0 (a
    zero entry empty or None): t^s the largest entry denominator, L the lcm
    of the q."""
    s = max(0, -min((e for row in rows for p in row if p for e in p), default=0))
    L = math.lcm(*(q for row in rows for p in row if p for _, q in p.values()))
    return s, L, tuple(tuple({e + s: c * (L // q) for e, (c, q) in p.items()} if p else {}
                             for p in row) for row in rows)


def _cleared(g: ParamMatrix) -> tuple[int, int, tuple]:
    """(s, L, P) with g = P / (L*t^s)."""
    D, P = g._form
    ((s, L),) = D.items()
    return s, L, P


def _row_monomial(g: ParamMatrix):
    """(e, (L, M)) with g = diag(t^e) * M / L and M an integer matrix, or
    None when some row of P is not one power of t times an integer row.

    A zero row gets e_i = 0 (M is then singular).  Raises DegreeOverflow
    where the fraction-free kernel would: for an invertible M, det P has
    degree sum(e_i + s).
    """
    s, L, P = _cleared(g)
    exps, rows = [], []
    for row in P:
        exp, out = None, []
        for p in row:
            if not p:
                out.append(0)
                continue
            if len(p) != 1:
                return None
            ((e, c),) = p.items()
            if exp is not None and e != exp:
                return None
            exp = e
            out.append(c)
        exps.append(0 if exp is None else exp - s)
        rows.append(out)
    if sum(exps) + len(exps) * s > MAX_DEGREE and mat_det(rows):
        raise DegreeOverflow(f"exponent beyond +/-{MAX_DEGREE}")
    return exps, (L, rows)


class _FractionFree:
    """A family g = P / (L*t^s) over Z[t] and its fraction-free
    Gauss-Jordan.

    ``linalg.bareiss`` on [P | I] leaves d = sign * det P and
    R = d * P^-1.  SingularFamily when det P = 0, DegreeOverflow on a minor
    past MAX_DEGREE.
    """

    def __init__(self, g: ParamMatrix):
        n = self.dim = g.dim
        self.s, self.L, self.P = _cleared(g)
        rows = [[*row, *({0: 1} if j == i else {} for j in range(n))]
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


def invert(g: ParamMatrix) -> tuple:
    """Exact inverse over Q(t) as a tuple of FieldElement row tuples:
    g^-1 = L*t^s * P^-1 = L*t^s*R / d, unreduced; raises SingularFamily when
    det = 0.  ``ParamMatrix(n, invert(g))`` is the inverse family when det g
    is a monomial, and a ValueError otherwise."""
    ff = _FractionFree(g)
    den = {e: Fraction(c) for e, c in ff.d.items()}
    return tuple(tuple(FieldElement({e + ff.s: Fraction(ff.L * c) for e, c in r.items()},
                                    dict(den)) for r in row) for row in ff.R)


@dataclass(frozen=True)
class ParamAlgebra:
    """Structure tensor with entries in Q(t)."""

    dim: int
    constants: tuple  # constants[k][i][j], FieldElement

    def eval_at(self, t0: Fraction) -> Algebra:
        """Each entry at t0; PoleAtPoint where one has a pole there."""
        return Algebra(self.dim, _nested(lambda e: e.eval_at(t0), self.constants, 3))


def embed_algebra(a: Algebra) -> ParamAlgebra:
    """View a rational tensor as a constant parametric tensor."""
    return ParamAlgebra(a.dim, _nested(FieldElement.constant, a.constants, 3))


def transport(a: Algebra, g: ParamMatrix) -> ParamAlgebra:
    """The transported tensor over Q(t), each entry L*t^s*N/(cden*d^2) with
    only the power of t cancelled."""
    if a.dim != g.dim:
        raise DimensionMismatch("algebra and family dimensions differ")
    ff = _FractionFree(g)
    num, cden = ff.contract(a)
    den = {e: Fraction(c) for e, c in poly_scale(poly_mul(ff.d, ff.d), cden).items()}
    return ParamAlgebra(a.dim, _nested(lambda m: FieldElement(
        {e + ff.s: Fraction(ff.L * c) for e, c in m.items()}, dict(den)), num, 3))


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

    A scalar-action algebra, c^k_ij = (A_i [k = j] + B_j [k = i]) / D
    (pminus and nu(alpha) among them), keeps its form under transport, with
    the linear forms A.g^-1 and B.g^-1: ``_scalar_action_limit`` reads the
    limit off those two rows, from one elimination of n x (n + 2) or fewer.
    It is taken when twice the sum of the row degrees of P stays within
    MAX_DEGREE; no minor of either elimination, nor the kernel's read-off
    exponent, can pass MAX_DEGREE then, so both raise alike.

    Any other g = P / (L*t^s) goes through the fraction-free numerator.
    Entry (k, i, j) is L*t^s*N/(cden*d^2) with N over Z[t], of valuation
    val(N) + s - 2*val(d).  So a term of N below top = 2*val(d) - s is a
    pole and the term at top, times L, gives the limit.  No term above top
    is formed, so for top < 0 every entry is 0.
    """
    if a.dim != g.dim:
        raise DimensionMismatch("algebra and family dimensions differ")
    n = a.dim
    rm = _row_monomial(g)
    if rm is not None:
        e, m = rm
        try:
            minv = _inverse_of(m)
        except SingularMatrix:
            raise SingularFamily(SINGULAR) from None
        b = _contract(a, m, minv, e)
        poles = [(k + 1, i + 1, j + 1) for (i, j), hits in b.integer_slices()[1].items()
                 for k, _ in hits if e[k] < e[i] + e[j]]
        if poles:
            raise NoLimit(poles)
        return b
    action = _scalar_action(a)
    if action is not None:
        s, L, P = _cleared(g)
        if 2 * _row_degree_sum(P) <= MAX_DEGREE:
            return _scalar_action_limit(n, action, s, L, P)
    ff = _FractionFree(g)
    # every entry of R = d * P^-1, and so d = (R.P)[0][0], is a multiple of
    # t^v; cancelling it leaves R / d alone and lowers top by 2v
    v = min(min(x) for row in ff.R for x in row if x)
    if v:
        ff.R = [[{e - v: c for e, c in x.items()} for x in row] for row in ff.R]
        ff.d = {e - v: c for e, c in ff.d.items()}
    vd = poly_ord(ff.d)
    top = 2 * vd - ff.s
    num, cden = ff.contract(a, top)
    poles, cols = [], {}
    for i, j in itertools.product(range(n), repeat=2):
        hits = []
        for k in range(n):
            nm = num[k][i][j]
            if nm and min(nm) < top:
                poles.append((k + 1, i + 1, j + 1))
            elif top in nm:
                hits.append((k, ff.L * nm[top]))
        if hits:
            cols[(i, j)] = tuple(hits)
    if poles:
        raise NoLimit(poles)
    return _integer_algebra(n, cden * ff.d[vd] ** 2, cols)


def _scalar_action_limit(n: int, action: tuple, s: int, L: int, P: list) -> Algebra:
    """The limit at t = 0 of c^k_ij = (A_i [k = j] + B_j [k = i]) / D
    transported by g = P / (L*t^s).

    g.c(g^-1 x, g^-1 y) = (A.g^-1 x) y / D + (B.g^-1 y) x / D, so the
    transported tensor has the same form with the rows A' = L*t^s*A.P^-1
    and B' = L*t^s*B.P^-1.  ``linalg.bareiss`` on [P^T | A^T B^T] gives
    d = +-det P and Y = d*P^-T [A^T B^T], so A'_i = L*t^s*Y_A[i] / d: a term
    of Y below exponent val(d) - s is a pole, and the term there, over
    d's lowest coefficient and D, is the limit.  Entry (k, i, j) is nonzero
    only for k in {i, j}, so 2n^2 - n entries are read.  When B is a
    multiple B_p / A_p of A, or A = 0, one right-hand column serves both.
    """
    A, B, D = action
    # A' and B' are read as wa * ya / q and wb * yb / q below, ya and yb the
    # solutions for the first and the last right-hand column
    p = next((i for i, x in enumerate(A) if x), None)
    if p is None:  # A = 0
        cols, wa, wb, q = [B] if any(B) else [], 0, 1, 1
    elif all(A[p] * y == B[p] * x for x, y in zip(A, B)):  # B = (B_p / A_p) * A
        cols, wa, wb, q = [A], A[p], B[p], A[p]
    else:
        cols, wa, wb, q = [A, B], 1, 1, 1
    rows = [[P[j][i] for j in range(n)] + [{0: c[i]} if c[i] else {} for c in cols]
            for i in range(n)]
    sign, d = bareiss(rows)
    if not sign:
        raise SingularFamily(SINGULAR)
    if not cols:
        return Algebra.zero(n)
    vd = min(d)
    top = vd - s

    def read(*parts) -> tuple[bool, int]:
        """(pole, L times the coefficient at top) of the sum of w*y."""
        acc = {}
        for w, y in parts:
            if w:
                for e, c in y.items():
                    if e <= top:
                        acc[e] = acc.get(e, 0) + w * c
        return any(c for e, c in acc.items() if e < top), L * acc.get(top, 0)

    ya, yb = [row[n] for row in rows], [row[-1] for row in rows]
    ra = [read((wa, y)) for y in ya]  # A'_i: the entries (j, i, j), j != i
    rb = [read((wb, y)) for y in yb]  # B'_j: the entries (i, i, j), i != j
    rd = [read((wa, x), (wb, y)) for x, y in zip(ya, yb)]  # A'_i + B'_i at (i, i, i)
    if any(pole for r in (ra, rb, rd) for pole, _ in r):
        poles = []
        for k in range(n):
            for i in range(n):
                if i == k:
                    poles += [(k + 1, k + 1, j + 1) for j in range(n)
                              if (rd if j == k else rb)[j][0]]
                elif ra[i][0]:
                    poles.append((k + 1, i + 1, k + 1))
        raise NoLimit(poles)
    out = {}
    for i, j in itertools.product(range(n), repeat=2):
        hits = ((i, rd[i][1]),) if i == j else ((i, rb[j][1]), (j, ra[i][1]))
        hits = tuple(sorted(h for h in hits if h[1]))
        if hits:
            out[(i, j)] = hits
    return _integer_algebra(n, d[vd] * D * q, out)


def transport_at(a: Algebra, g: ParamMatrix, t0: Fraction) -> Algebra:
    """transport(a, g).eval_at(t0), through g(t0) over Z where that is
    invertible.

    Each entry of transport(a, g) is a quotient whose denominator is a
    product of L*t^s and det P for g = P / (L*t^s).  Where both are nonzero
    at t0, evaluation commutes with the contraction, so the value is
    apply_basis_change(a, g(t0)).  With t0 = u/v, g(t0) is Q / den over Z:
    Q = v^top * P(t0) and den = L * u^s * v^(top - s), top the largest
    exponent of P and s, signed so that den > 0.  A top past MAX_DEGREE (a
    high power of t in P or a pole of that order) raises DegreeOverflow
    first.  At t0 = 0 with s > 0, or at a root of det g (Q singular), the
    reduced tensor may still be regular, so there it is built and
    evaluated, dividing out the shared factors (t - t0); PoleAtPoint means
    it is not regular.
    """
    if a.dim != g.dim:
        raise DimensionMismatch("algebra and family dimensions differ")
    t0 = Fraction(t0)
    s, L, P = _cleared(g)
    exps = {e for row in P for p in row for e in p}
    top = max(max(exps, default=0), s)
    if top > MAX_DEGREE:
        raise DegreeOverflow(f"exponent beyond +/-{MAX_DEGREE}")
    u, v = t0.numerator, t0.denominator
    powers = {e: u**e * v ** (top - e) for e in exps}  # t^e at t0, times v^top
    den = L * u**s * v ** (top - s)
    if den:
        sign = -1 if den < 0 else 1
        m = (abs(den), [[sign * sum(c * powers[e] for e, c in p.items()) for p in row]
                        for row in P])
        try:
            return _contract(a, m, _inverse_of(m))
        except SingularMatrix:
            pass
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
    [-pole_bound, pole_bound] and coefficients +-c/q, c in 1..3 and q in
    1..2; the matrix is redrawn until it is invertible over Q(t).  The
    coefficients are summed in halves, as ints, and cleared once into the
    stored form; ``_det_nonzero`` decides each draw.
    """
    _dimension(n, 0)
    if pole_bound < 0:
        raise ValueError("pole_bound must be >= 0")
    rng = random.Random(seed)
    draw, choice, randint = rng.random, rng.choice, rng.randint
    while True:
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                halves: dict = {}  # exponent: twice the coefficient
                if draw() < 0.65:
                    for _ in range(randint(1, 2)):
                        e = randint(-pole_bound, pole_bound)
                        h = halves.get(e, 0) + choice((1, -1)) * randint(1, 3) * (
                            2 // randint(1, 2))
                        if h:
                            halves[e] = h
                        else:
                            halves.pop(e, None)
                row.append({e: (h, 2) if h % 2 else (h // 2, 1) for e, h in halves.items()})
            rows.append(row)
        s, L, P = _clear_pairs(rows)
        if _det_nonzero(P):
            return ParamMatrix.from_cleared(s, L, P)


def _row_degree_sum(P) -> int:
    """The sum of the row degrees of a grid P of integer polynomials, a zero
    row counting 0: a bound on the degree of every minor of P."""
    return sum(max((max(p) for p in row if p), default=0) for row in P)


def _det_nonzero(P) -> bool:
    """Whether det P != 0 for a grid P of integer polynomials.

    When D, the sum of the row degrees of P, is at most MAX_DEGREE, one
    ``bareiss`` of the integer matrix P(2) decides it if det P(2) != 0, as
    evaluation is a ring map.  Otherwise (det P may have the factor t - 2,
    or D is past MAX_DEGREE) ``bareiss`` runs on P over Z[t] as it always
    did.  So DegreeOverflow is raised exactly where it was: no minor can
    pass MAX_DEGREE while D is within it, and past it P(2) is not tried.
    """
    if _row_degree_sum(P) <= MAX_DEGREE:
        values = [[{0: v} if (v := sum(c << e for e, c in p.items())) else {} for p in row]
                  for row in P]
        if bareiss(values)[0]:
            return True
    return bool(bareiss([list(row) for row in P])[0])

"""Exact linear algebra over Q with Fraction entries, and over Z[t].

Matrices are lists of row lists; no function but ``bareiss`` and the private
``_echelon`` mutates its arguments.  Reduced row echelon form is the canonical representative used for
subspace equality throughout the package.  Over Q there is one elimination,
``_echelon``: an integer Gauss-Jordan on integer rows, kept primitive.
``rref``, ``rank`` and ``nullspace`` read it on rows scaled to integers, and
so does ``Subspace.contains`` (a rank); ``_kernel`` is the rref kernel basis
read off an echelon, behind ``nullspace`` and called nowhere else.
``_inverse`` reads the echelon of [a | I] for an integer matrix a as
(den, rows), rows / den = a^-1 over the lcm of the pivots; ``mat_inverse`` is its Fraction view, and basis changes
and the row-monomial limit in ``transport`` take the integers as they are.
``algebra._frame`` (behind the public ``extend_basis``) eliminates its
candidates once and reads both the chosen frame (the pivot columns) and the
frame's inverse (the identity block, each row over its pivot) off the same
echelon; no library operation calls it, as the classifier's and the
recognizer's frame inverses are written down from their reads, and the
tests take it as their reference.  Only output entries are built as
Fractions.

The one other elimination is ``bareiss``, a fraction-free Gauss-Jordan over
Z[t] that works in place.  ``mat_det`` runs it on the row-scaled integer
matrix, ``char_poly`` on t*I - den*a, the family kernel of ``transport``
on [P | I] and its scalar-action read-off on [P^T | A^T B^T].  It
eliminates the values at t = 2^k as integers (Kronecker substitution), k
large enough that each value stands for one polynomial, and unpacks only
what its callers read; past a bit budget on those values, or on sparse
input of high degree, it runs term by term on the polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegreeOverflow, SingularMatrix
from .poly import MAX_DEGREE

ZERO = Fraction(0)
ONE = Fraction(1)


def mat_identity(n: int) -> list:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a: list, b: list) -> list:
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = [[ZERO] * p for _ in range(n)]
    for i in range(n):
        row = a[i]
        out_i = out[i]
        for k in range(m):
            c = row[k]
            if c:
                bk = b[k]
                for j in range(p):
                    if bk[j]:
                        out_i[j] += c * bk[j]
    return out


def mat_trace(a: list) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), ZERO)


def _echelon(work: list) -> tuple[list, list]:
    """Integer Gauss-Jordan, in place, on nonzero rows of ints:
    (primitive rows, pivot columns).

    Every changed row is divided by the gcd of its entries, which keeps the
    row space and bounds the growth.  Row r has its pivot at column
    pivots[r] and zeros in every other pivot column.
    """
    pivots: list[int] = []
    if not work:
        return work, pivots
    for col in range(len(work[0])):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r]
        p = prow[col]
        for i, row in enumerate(work):
            f = row[col]
            if f and i != r:
                new = [p * x - f * y for x, y in zip(row, prow)]
                g = math.gcd(*new)
                work[i] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        if len(pivots) == len(work):
            break
    del work[len(pivots):]
    return work, pivots


def _scaled_echelon(rows: list) -> tuple[list, list]:
    """``_echelon`` of rows of ints or Fractions, each scaled to integers;
    zero rows are dropped."""
    work = []
    for r in rows:
        den = math.lcm(*(x.denominator for x in r))
        ints = [x.numerator * (den // x.denominator) for x in r]
        if any(ints):
            work.append(ints)
    return _echelon(work)


def rref(rows: list) -> tuple[list, list]:
    """Reduced row echelon form.

    Returns (nonzero rows, pivot column indices); rows come out with leading
    coefficient 1 and cleared pivot columns, so equal row spaces give equal
    outputs.  Only these output entries are built as Fractions.
    """
    work, pivots = _scaled_echelon(rows)
    return [
        [Fraction(x, row[col]) if x else ZERO for x in row]
        for row, col in zip(work, pivots)
    ], pivots


def rank(rows: list) -> int:
    return len(_scaled_echelon(rows)[1])


def _pivot_inverse(work: list, pivots: list, start: int) -> tuple[int, list]:
    """(den, rows) with rows / den the inverse of the frame an echelon chose.

    The echelon E * [F ... | I] of a matrix with an identity block from
    column ``start`` on has E * F = diag(pivot values) for F the pivot
    columns, so F^-1 is the identity block with each row divided by its
    pivot; den is the lcm of the pivots.
    """
    ps = [row[col] for row, col in zip(work, pivots)]
    den = math.lcm(*ps)
    return den, [[x * (den // p) for x in row[start:]] for row, p in zip(work, ps)]


def _int_matrix(m: list) -> tuple[int, list]:
    """(den, den * m) over Z, den the lcm of all entry denominators."""
    den = math.lcm(*(x.denominator for row in m for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in m]


def _inverse(a: list) -> tuple[int, list]:
    """(den, rows) with rows / den = a^-1 for an integer matrix a, from the
    echelon of [a | I]; den is the lcm of the pivots, which is that of the
    reduced denominators of a^-1."""
    n = len(a)
    work, pivots = _echelon([[*row, *(0,) * i, 1, *(0,) * (n - 1 - i)]
                             for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular over Q")
    return _pivot_inverse(work, pivots, n)


def _inverse_of(m: tuple[int, list]) -> tuple[int, list]:
    """(den, rows) of (M / d)^-1 = d * M^-1 for m = (d, M) over Z."""
    d, rows = m
    dd, inv = _inverse(rows)
    g = math.gcd(d, dd)
    if d == g:
        return dd // g, inv
    f = d // g
    return dd // g, [[f * x for x in row] for row in inv]


def _fractions(inv: tuple[int, list]) -> list:
    """The Fraction matrix rows / den of a (den, rows) pair."""
    den, rows = inv
    return [[Fraction(x, den) if x else ZERO for x in row] for row in rows]


def mat_inverse(a: list) -> list:
    """a^-1 as Fractions: the view of ``_inverse`` of a scaled to integers."""
    return _fractions(_inverse_of(_int_matrix(a)))


def nullspace(rows: list) -> list:
    """Basis of {v : rows @ v = 0}, canonical via rref free columns."""
    if not rows:
        return []
    return _kernel(*_scaled_echelon(rows), len(rows[0]))


def _kernel(work: list, pivots: list, ncols: int) -> list:
    """The rref basis of the kernel of an echelon's row space: one vector per
    free column f, 1 at f and -row[f] / row[p] at each pivot column p."""
    pivot_set = set(pivots)
    out = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for row, p in zip(work, pivots):
            if row[free]:
                v[p] = Fraction(-row[free], row[p])
        out.append(tuple(v))
    return out


# -- fraction-free elimination over Z[t] -------------------------------------
# Integer polynomials are sparse dicts {exponent >= 0: int}; accumulators may
# hold zero coefficients until a caller drops them.


def addmul(acc: dict, a: dict, b: dict, top=math.inf, checked=True) -> None:
    """acc += a*b over Z[t] with exponents above ``top`` dropped; unless
    ``checked`` is off, DegreeOverflow if a kept exponent could pass
    MAX_DEGREE."""
    if checked and top > MAX_DEGREE and max(a) + max(b) > MAX_DEGREE:
        raise DegreeOverflow(f"exponent beyond +/-{MAX_DEGREE}")
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e <= top:
                acc[e] = acc.get(e, 0) + ca * cb


def _exact_div(a: dict, b: dict) -> dict:
    """a / b over Z[t], for a quotient known to exist."""
    if len(b) == 1:
        ((eb, cb),) = b.items()
        return {e - eb: c // cb for e, c in a.items() if c}
    r = {e: c for e, c in a.items() if c}
    q = {}
    db = max(b)
    while r:
        e = max(r) - db
        c, rem = divmod(r[e + db], b[db])
        if rem or e < 0:
            raise ArithmeticError("inexact division over Z[t]")
        q[e] = c
        for eb, cb in b.items():
            r[e + eb] = r.get(e + eb, 0) - c * cb
        r = {k: v for k, v in r.items() if v}
    return q


#: The largest (D + 1) * k, in bits, that ``bareiss`` packs: D the sum of
#: the row degrees and 2^k the base.  Every call of the benchmark workloads
#: stays within 323 bits, and the kernel [P | I] of a general family of
#: dimension 8 to 16 with pole bound 2 within 1 080 to 5 888, where a limit
#: runs 3.5 to 26 times faster packed.  diag(c*t^1200) with a 4000-digit c
#: (about 10^9 bits) does not finish packed in 300 s.  2^14 keeps the
#: general families packed and leaves diag(t^4000, t^4000, 1 + t) (24 006
#: bits) to the dict loop.
_PACK_BITS = 1 << 14

#: The largest D per nonzero term of [B | X] that ``bareiss`` packs.  A
#: packed value pays for every power of t up to its degree, the dict loop
#: only for the terms there are, so sparse input of high degree runs term by
#: term even inside the bit budget: [P | I] for P = diag(t^200, ..., t^200,
#: 1 + t) of dimension 8 (D = 1 401 over 17 terms) takes 25 ms packed and
#: 0.47 ms term by term, and diag(t^1000, t^1000, 1 + t) (D = 2 001 over 7)
#: 5.2 ms against 0.05 ms.  Packing and the dict loop cost about the same
#: near 4 to 8; every call of the benchmark workloads stays below 3, and a
#: general family below 1.
_PACK_DEGREE_PER_TERM = 4


def bareiss(rows: list) -> tuple[int, dict]:
    """Fraction-free Gauss-Jordan over Z[t] of n rows [B | X], in place
    (Bareiss, Math. Comp. 22, 1968): every entry stays a minor, so each
    division is exact.  Returns (sign, d) with det B = sign * d, and leaves
    d*B^-1*X in the right-hand block of the rows; the left block is left
    partly reduced, so callers read only the right-hand block.  (0, {}) when
    B is singular.  The sign of d depends on the pivots taken, so callers
    read only sign * d, or d together with the right-hand block.

    Every entry formed is +- a minor of [B | X]: of degree at most D, the
    sum of the row degrees, with coefficients at most W in absolute value,
    W the product over the rows of max(1, sum of |coefficients| in the
    row), as the l1 norm of a product is at most the product of the l1
    norms.  With k = W.bit_length() + 1, t -> 2^k maps these polynomials
    one to one onto the integers (balanced base-2^k digits give them back),
    and it is a ring map, so each exact division over Z[t] is one exact
    integer division.  When D <= MAX_DEGREE, (D + 1) * k <= _PACK_BITS and
    D <= _PACK_DEGREE_PER_TERM * T, T the number of nonzero terms of
    [B | X], the elimination runs on those integers (``_bareiss_packed``)
    and no minor can pass MAX_DEGREE; otherwise ``_bareiss_dicts`` runs term
    by term and raises DegreeOverflow on a minor past MAX_DEGREE.
    """
    D, k, T = _packing(rows)
    if D <= MAX_DEGREE and (D + 1) * k <= _PACK_BITS and D <= _PACK_DEGREE_PER_TERM * T:
        return _bareiss_packed(rows, k)
    return _bareiss_dicts(rows)


def _packing(rows: list) -> tuple[int, int, int]:
    """(D, k, T) of rows [B | X] for ``bareiss``: D the sum of the row
    degrees, k = W.bit_length() + 1, W the product over the rows of
    max(1, sum of |coefficients| in the row), and T the number of nonzero
    terms."""
    D, W, T = 0, 1, 0
    for row in rows:
        deg, l1 = 0, 0
        for p in row:
            if p:
                deg = max(deg, max(p))
                T += len(p)
                for c in p.values():
                    l1 += abs(c)
        D += deg
        if l1 > 1:
            W *= l1
    return D, W.bit_length() + 1, T


def _bareiss_packed(rows: list, k: int) -> tuple[int, dict]:
    """``bareiss`` on the values at t = 2^k, for rows whose minors all have
    coefficients below 2^(k-1) in absolute value; the pivot in each column
    is the live value smallest in absolute value.  Only d and the
    right-hand block are unpacked."""
    n = len(rows)
    vals = []
    for row in rows:
        vrow = []
        for p in row:
            x = 0
            for e, c in p.items():
                x += c << (e * k)
            vrow.append(x)
        vals.append(vrow)
    sign, prev = 1, 1
    for c in range(n):
        live = [r for r in range(c, n) if vals[r][c]]
        if not live:
            return 0, {}
        p = min(live, key=lambda r: abs(vals[r][c]))
        if p != c:
            vals[c], vals[p], sign = vals[p], vals[c], -sign
        pivot_row = vals[c]
        pk = pivot_row[c]
        for i, row in enumerate(vals):
            if i == c:
                continue
            f = row[c]
            for j in range(c + 1, len(row)):
                row[j] = (pk * row[j] - f * pivot_row[j]) // prev
        prev = pk
    base, half = 1 << k, 1 << (k - 1)
    mask = base - 1

    def unpack(x: int) -> dict:
        """The polynomial of x, from its balanced base-2^k digits."""
        out, e = {}, 0
        while x:
            c = x & mask
            if c >= half:
                c -= base
            if c:
                out[e] = c
            x = (x - c) >> k
            e += 1
        return out

    for row, vrow in zip(rows, vals):
        row[n:] = [unpack(x) for x in vrow[n:]]
    return sign, unpack(prev)


def _bareiss_dicts(rows: list) -> tuple[int, dict]:
    """``bareiss`` term by term on the dicts, pivoting on the live entry
    with the fewest terms.  DegreeOverflow on a minor past MAX_DEGREE, not
    on the products before each exact division, whose factors are input
    entries or checked minors."""
    n = len(rows)
    sign, prev = 1, {0: 1}
    for k in range(n):
        live = [r for r in range(k, n) if rows[r][k]]
        if not live:
            return 0, {}
        p = min(live, key=lambda r: len(rows[r][k]))
        if p != k:
            rows[k], rows[p], sign = rows[p], rows[k], -sign
        pivot_row, pk = rows[k], rows[k][k]
        for row in rows[:k] + rows[k + 1:]:
            f = {e: -c for e, c in row[k].items()}
            for j in range(k + 1, len(row)):
                acc = {}
                if row[j]:
                    addmul(acc, pk, row[j], checked=False)
                if f and pivot_row[j]:
                    addmul(acc, f, pivot_row[j], checked=False)
                row[j] = _exact_div(acc, prev) if acc else {}
                if row[j] and max(row[j]) > MAX_DEGREE:
                    raise DegreeOverflow(f"exponent beyond +/-{MAX_DEGREE}")
        prev = pk
    return sign, prev


def mat_det(a: list) -> Fraction:
    """det a: the Bareiss determinant of a with each row scaled to integers,
    divided by the row scales."""
    rows, scale = [], 1
    for r in a:
        den = math.lcm(*(x.denominator for x in r))
        rows.append([{0: x.numerator * (den // x.denominator)} if x else {} for x in r])
        scale *= den
    sign, d = bareiss(rows)
    return Fraction(sign * d[0], scale) if sign else ZERO


def char_poly(a: list) -> dict:
    """Monic characteristic polynomial det(x*I - a) as {exponent: Fraction}.

    With den the lcm of a's denominators, det(t*I - den*a) over Z[t] has
    coefficient den^(n-k) * c_k at t^k, where c_k is that of det(x*I - a).
    """
    n = len(a)
    den = math.lcm(*(x.denominator for r in a for x in r))
    rows = [[{0: -x.numerator * (den // x.denominator)} if x else {} for x in r] for r in a]
    for i, row in enumerate(rows):
        row[i] = {1: 1, **row[i]}
    sign, d = bareiss(rows)
    return {k: Fraction(sign * c, den ** (n - k)) for k, c in d.items()}

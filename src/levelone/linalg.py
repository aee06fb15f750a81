"""Exact linear algebra over Q with Fraction entries.

Matrices are lists of row lists; functions never mutate their arguments.
Reduced row echelon form is the canonical representative used for subspace
equality throughout the package.  ``rref`` eliminates fraction-free: rows are
scaled to integers and kept primitive, and only the output entries are built
as Fractions; ``mat_inverse`` is the rref of [a | I].
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SingularMatrix

ZERO = Fraction(0)
ONE = Fraction(1)


def mat_identity(n: int) -> list:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_copy(a: list) -> list:
    return [list(row) for row in a]


def mat_mul(a: list, b: list) -> list:
    n, m, p = len(a), len(b), len(b[0])
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


def mat_vec(a: list, v) -> tuple:
    return tuple(sum((c * x for c, x in zip(row, v) if c and x), ZERO) for row in a)


def mat_trace(a: list) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), ZERO)


def rref(rows: list) -> tuple[list, list]:
    """Reduced row echelon form.

    Returns (nonzero rows, pivot column indices); rows come out with leading
    coefficient 1 and cleared pivot columns, so equal row spaces give equal
    outputs.  Entries may be ints or Fractions: each row is scaled to
    integers, and Gauss-Jordan runs over Z with every changed row divided by
    the gcd of its entries, which keeps the row space and bounds the growth.
    """
    work = []
    for r in rows:
        den = math.lcm(*(x.denominator for x in r))
        ints = [x.numerator * (den // x.denominator) for x in r]
        if any(ints):
            work.append(ints)
    pivots: list[int] = []
    if not work:
        return [], pivots
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
    return [
        [Fraction(x, row[col]) if x else ZERO for x in row]
        for row, col in zip(work, pivots)
    ], pivots


def rank(rows: list) -> int:
    return len(rref(rows)[0])


def reduce_against(basis_rows: list, pivots: list, v) -> tuple:
    """Residual of v after eliminating the pivot columns of an rref basis."""
    res = list(v)
    for row, p in zip(basis_rows, pivots):
        c = res[p]
        if c:
            for j in range(len(res)):
                if row[j]:
                    res[j] -= c * row[j]
    return tuple(res)


def mat_inverse(a: list) -> list:
    n = len(a)
    rows, pivots = rref(
        [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    )
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular over Q")
    return [row[n:] for row in rows]


def mat_det(a: list) -> Fraction:
    n = len(a)
    work = mat_copy(a)
    det = ONE
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        lead = work[col][col]
        det *= lead
        inv = 1 / lead
        for i in range(col + 1, n):
            if work[i][col]:
                f = work[i][col] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return det


def nullspace(rows: list) -> list:
    """Basis of {v : rows @ v = 0}, canonical via rref free columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    basis_rows, pivots = rref(rows)
    pivot_set = set(pivots)
    out = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for row, p in zip(basis_rows, pivots):
            if row[free]:
                v[p] = -row[free]
        out.append(tuple(v))
    return out


def char_poly(a: list) -> dict:
    """Monic characteristic polynomial det(x*I - a) as {exponent: Fraction}.

    Computed by the Faddeev-LeVerrier recursion; exact over Q.
    """
    n = len(a)
    coeffs = {n: ONE}
    m = mat_copy(a)
    c = ONE
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                m[i][i] += c
            m = mat_mul(a, m)
        c = -mat_trace(m) / k
        if c:
            coeffs[n - k] = c
    return coeffs

"""Recognition of the canonical algebras with explicit isomorphisms.

``recognize`` decides whether an algebra is isomorphic to one of the
canonical forms and, where the normalization closes over Q, returns the
rational matrix realizing the isomorphism.  The procedures are the natural
ones: images of scaled complement vectors for the scalar-action algebras,
hyperbolic pairs of the induced bilinear form for the one-dimensional-square
algebras, and an idempotent with prescribed left/right spectra for the
nu family.

Each branch computes only what it reads.  An algebra that is neither
commutative nor anticommutative goes straight to the nu search, with no A^2;
the other two build A^2, and the annihilation A*A^2 = A^2*A = 0 (read only
when dim A^2 = 1) and A^2*A^2 = 0 are zero tests on the integer products,
with no span built.

A nu match (n >= 2) is read off the tensor.  nu(alpha) is
x*y = alpha phi(x) y + (1 - alpha) phi(y) x, so the algebra is nu(alpha)
exactly when ``algebra._scalar_action`` finds c^k_ij = (A_i [k = j] +
B_j [k = i]) / D with A parallel to S = A + B != 0; then alpha = A_p / S_p
at the first p with S_p != 0 and phi = S / D.  The idempotent is
e = e_p / phi(e_p) (e_p is the first candidate with a nonzero square, as
x*x = phi(x) x) and its joint eigenspace is ker phi, so the iso is the
inverse of the frame (e, ker phi), with no product, multiplication matrix
or contraction.  Otherwise the algebra is not nu(alpha), and the sweep for
an idempotent, its spectrum and its eigenspace run only to name what fails.

One case is decided only up to isomorphism over the algebraic closure: a
commutative algebra whose rank-2 symmetric product form has no rational
isotropic vector (e.g. the form x^2 + y^2) is reported with the n3plus tag
but without an iso matrix, since none exists over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import linalg
from .algebra import (
    Algebra,
    Subspace,
    _frame,
    _rebased,
    _scalar_action,
    derived_subspace,
    deterministic_candidates,
    product_form,
    products_vanish,
    proportionality,
    rebase,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
)
from .canonical import CanonicalForm, Tag, construct
from .errors import NotNu
from .poly import poly_mul, poly_pow

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class RecognitionResult:
    form: CanonicalForm | None
    iso: tuple | None = None  # rational matrix as row tuples, when available
    reason: str | None = None

    @property
    def recognized(self) -> bool:
        return self.form is not None


def _recognized(form: CanonicalForm, iso: list | None, reason: str | None = None):
    frozen = tuple(tuple(row) for row in iso) if iso is not None else None
    return RecognitionResult(form, frozen, reason)


def _not_canonical(reason: str) -> RecognitionResult:
    return RecognitionResult(None, None, reason)


def recognize(a: Algebra) -> RecognitionResult:
    n = a.dim
    if a.is_abelian():
        return _recognized(CanonicalForm(Tag.ABELIAN, n), linalg.mat_identity(n))
    skew = a.is_anticommutative()
    if not skew and not a.is_commutative():
        return _try_nu(a)
    square = derived_subspace(a)
    d2 = square.dim
    # A*A^2 = A^2*A = 0, read only when dim A^2 = 1; one side suffices, since
    # y*x = +-x*y here
    annihilates = d2 == 1 and products_vanish(
        a, [unit_vector(n, i) for i in range(n)], square.basis
    )
    if skew:
        if annihilates:
            b = product_form(a, square)
            r = linalg.rank(b)
            if r == 2 and n >= 3:
                basis, inv = _skew_pair_basis(a, b)
                return _check_basis(a, basis, Tag.N3_MINUS, inverse=inv)
            return _not_canonical(f"skew product form has rank {r}, need 2")
        if d2 == n - 1 and products_vanish(a, square.basis, square.basis):
            return _scalar_line_path(a, square, Tag.P_MINUS)
        return _not_canonical(
            f"anticommutative with dim A^2 = {d2}: matches no canonical form"
        )
    if annihilates:
        b = product_form(a, square)
        r = linalg.rank(b)
        if r == 1:
            basis, inv = _rank_one_basis(a, b)
            return _check_basis(a, basis, Tag.LAMBDA2, inverse=inv)
        if r == 2 and n >= 3:
            return _symmetric_pair_path(a, b)
        return _not_canonical(
            f"symmetric product form has rank {r} in dimension {n}"
        )
    if d2 == n - 1 and n >= 2:
        if not products_vanish(a, square.basis, square.basis):
            return _not_canonical("A^2 * A^2 != 0")
        return _scalar_line_path(a, square, Tag.P_PLUS)
    return _try_nu(a)


def alpha_of(a: Algebra) -> Fraction:
    """The scalar of the nu family, a basis-change invariant."""
    res = recognize(a)
    if res.form is None or res.form.tag is not Tag.NU:
        raise NotNu(f"algebra is not of nu type: {res.reason or res.form.describe()}")
    if res.form.alpha is None:
        raise NotNu("the 1-dimensional idempotent algebra carries no scalar")
    return res.form.alpha


# -- shared helpers ------------------------------------------------------


def _check_basis(a: Algebra, basis: list, tag: Tag, inverse=None) -> RecognitionResult:
    """Rebase and compare against the canonical table; iso on success.

    ``inverse`` is the frame's inverse (den, rows) when ``algebra._frame``
    chose the basis, so that it is not computed again.
    """
    form = CanonicalForm(tag, a.dim)
    if inverse is None:
        rebased, m = rebase(a, basis)
    else:
        rebased, m = _rebased(a, basis, inverse), None
    if rebased == construct(form):
        return _recognized(form, m if inverse is None else linalg._fractions(inverse))
    return _not_canonical(
        f"normalized table does not match {form.describe()}"
    )


def _form_value(b: list, x: Vector, y: Vector) -> Fraction:
    total = ZERO
    for i, xi in enumerate(x):
        if xi:
            row = b[i]
            for j, yj in enumerate(y):
                if yj and row[j]:
                    total += xi * row[j] * yj
    return total


# -- one-dimensional-square paths ----------------------------------------


def _skew_pair_basis(a: Algebra, b: list) -> tuple:
    """Frame (u, v, u*v, radical...) with form value 1 on the leading pair,
    with its inverse."""
    n = a.dim
    i, j = next(
        (i, j) for i in range(n) for j in range(n) if b[i][j]
    )
    u = unit_vector(n, i)
    v = vec_scale(unit_vector(n, j), 1 / b[i][j])
    b3 = a.product(u, v)
    radical = linalg.nullspace(b)
    return _frame(n, [u, v, b3], pool=radical)


def _rank_one_basis(a: Algebra, b: list) -> tuple:
    """Frame (u, u*u, radical...) with its inverse; u*u is free, so no
    square roots appear."""
    n = a.dim
    i = next(i for i in range(n) if b[i][i])
    u = unit_vector(n, i)
    b2 = a.product(u, u)
    radical = linalg.nullspace(b)
    return _frame(n, [u, b2], pool=radical)


def _sqrt_fraction(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _symmetric_pair_path(a: Algebra, b: list) -> RecognitionResult:
    """Rank-2 symmetric form: hyperbolic pair over Q when one exists."""
    n = a.dim
    pair = next(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if b[i][i] * b[j][j] - b[i][j] * b[i][j]
    )
    i, j = pair
    u, v = unit_vector(n, i), unit_vector(n, j)
    p, q, r = b[i][i], b[i][j], b[j][j]
    if p == 0:
        w = u
    elif r == 0:
        w = v
    else:
        root = _sqrt_fraction(q * q - p * r)
        if root is None:
            form = CanonicalForm(Tag.N3_PLUS, n)
            return _recognized(
                form,
                None,
                "recognized over the algebraic closure only: the rank-2 "
                "symmetric form has no rational isotropic vector",
            )
        w = vec_add(vec_scale(u, (-q + root) / p), v)
    partner = u if _form_value(b, w, u) else v
    v1 = vec_scale(partner, 1 / _form_value(b, w, partner))
    v2 = vec_add(v1, vec_scale(w, -_form_value(b, v1, v1) / 2))
    b3 = a.product(w, v2)
    radical = linalg.nullspace(b)
    basis, inv = _frame(n, [w, v2, b3], pool=radical)
    return _check_basis(a, basis, Tag.N3_PLUS, inverse=inv)


# -- scalar-action path (p+ and p-) --------------------------------------


def _scalar_line_path(a: Algebra, square: Subspace, tag: Tag) -> RecognitionResult:
    n = a.dim
    x = next(unit_vector(n, i) for i in range(n) if not square.contains(unit_vector(n, i)))
    v0 = square.basis[0]
    c = proportionality(a.product(x, v0), v0)
    if not c:
        return _not_canonical(
            "left multiplication by a complement vector is not a nonzero scalar on A^2"
        )
    for v in square.basis[1:]:
        if a.product(x, v) != vec_scale(v, c):
            return _not_canonical(
                "left multiplication by a complement vector is not scalar on A^2"
            )
    if tag is Tag.P_PLUS:
        # remove the square of x, which lives in A^2 and is killed by A^2*A^2 = 0
        s = a.product(x, x)
        x = vec_add(x, vec_scale(s, Fraction(-1, 2) / c))
    basis = [vec_scale(x, 1 / c)] + list(square.basis)
    return _check_basis(a, basis, tag)


# -- the nu family --------------------------------------------------------


def _try_nu(a: Algebra) -> RecognitionResult:
    n = a.dim
    action = _scalar_action(a)
    if action is not None:
        A, B, D = action
        s = [x + y for x, y in zip(A, B)]
        p = next((i for i, x in enumerate(s) if x), None)
        if p is not None and all(x * s[p] == A[p] * y for x, y in zip(A, s)):
            # x*y = alpha phi(x) y + (1 - alpha) phi(y) x with phi = s / D, so
            # x*x = phi(x) x: e_p is the first candidate with a nonzero square,
            # e = e_p / phi(e_p) the idempotent and ker phi its eigenspace
            e = vec_scale(unit_vector(n, p), Fraction(D, s[p]))
            _, inv = _frame(n, [e], pool=linalg.nullspace([s]))
            form = CanonicalForm(Tag.NU, n, Fraction(A[p], s[p]))
            return _recognized(form, linalg._fractions(inv))
    # n = 1, or not nu: the sweep names what fails
    found = None
    for x in deterministic_candidates(n):
        sq = a.product(x, x)
        if not vec_is_zero(sq):
            c = proportionality(sq, x)
            if c is None:
                return _not_canonical("found x with x*x outside the line of x")
            found = (x, c)
            break
    if found is None:
        # unreachable: zero squares on every e_i and e_i + e_j make the tensor
        # skew, and anticommutative input never gets here
        return _not_canonical("no vector with a nonzero square in the sweep")
    x, c = found
    e = vec_scale(x, 1 / c)
    if n == 1:
        return _check_basis(a, [e], Tag.NU)
    left = a.left_mult_matrix(e)
    alpha = (linalg.mat_trace(left) - 1) / (n - 1)
    factor = {1: ONE, 0: -alpha} if alpha else {1: ONE}
    if linalg.char_poly(left) != poly_mul({1: ONE, 0: -ONE}, poly_pow(factor, n - 1)):
        return _not_canonical(
            "left multiplication by the idempotent has the wrong spectrum"
        )
    right = a.right_mult_matrix(e)
    rows = []
    for idx in range(n):
        rows.append([left[idx][j] - (alpha if idx == j else ZERO) for j in range(n)])
    beta = 1 - alpha
    for idx in range(n):
        rows.append([right[idx][j] - (beta if idx == j else ZERO) for j in range(n)])
    eigen = linalg.nullspace(rows)
    if len(eigen) != n - 1:
        return _not_canonical(
            f"joint eigenspace of the idempotent actions has dimension "
            f"{len(eigen)}, need {n - 1}"
        )
    # the identity failed, so the frame (e, eigen) does not carry the table
    form = CanonicalForm(Tag.NU, n, alpha)
    return _not_canonical(f"normalized table does not match {form.describe()}")

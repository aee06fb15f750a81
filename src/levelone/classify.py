"""Constructive degeneration of a non-abelian algebra onto a level-one target.

``classify`` produces, for any non-abelian algebra over Q, an explicit
one-parameter family of basis changes whose t -> 0 limit is one of four
canonical algebras, together with a trace of the branch taken:

  * anticommutative, some product x*y escapes the plane of x and y:
    frame (x, y, x*y, completion) with pole weights (1, 1, 2, ..., 2),
    target n3minus;
  * anticommutative otherwise: normalize a frame so that e1*ei = ei for
    i >= 2, weights (0, 1, ..., 1), target pminus;
  * some square x*x escapes the line of x: frame (x, x*x, completion),
    weights (1, 2, ..., 2), target lambda2;
  * squares stay on their lines but some mixed product escapes its plane:
    n3minus as in the first branch;
  * otherwise: idempotent normalization, weights (0, 1, ..., 1), target
    nu(alpha) with the scalar read off the scalar-action identity.

The classifier is deterministic and total.  Both negative outcomes are
decided by an identity on the tensor (``algebra._scalar_action``): every
square stays on its line iff the symmetrised tensor c^k_ij + c^k_ji has the
scalar-action form (n >= 2), and every product stays in the plane of its
factors iff the tensor has it (n >= 3).  When an identity fails, a witness
sits on a small fixed grid (Alon's Combinatorial Nullstellensatz, in the
binary case: a nonzero binary form of degree d is nonzero at one of d + 1
points of distinct slope):

  * pairs.  Every monomial of x ^ y ^ (x*y) names at most two coordinates
    p, i of x and two q, j of y, with degree 2 in each of x and y, so the
    form is nonzero on span(e_p, e_i) x span(e_q, e_j), and then at one of
    {e_p, e_i, e_p + e_i} x {e_q, e_j, e_q + e_j}: the basis vectors and
    their pairwise sums hold a witness pair.
  * squares.  x ^ (x*x) is cubic.  Were its monomials all square-free,
    every (x*x)_b would be x_b L_b with L_b - L_a free of x_a and x_b, so
    all the L_b would be equal and x ^ (x*x) = 0.  Some x_p^3 or
    x_p^2 x_q therefore survives, and the form, restricted to
    span(e_p, e_q), is nonzero at e_p, e_q, e_p + e_q or 2 e_p + e_q: the
    basis vectors, their pairwise sums, then 2 e_p + e_q for p != q.

The searches sweep these lists in that order and stop at the first
witness, so nothing is drawn at random and there is no fallback.  Both run
over Z: a basis vector's square is a stored column, every other candidate
is squared or multiplied in ints (``algebra._pair_products``), and the
line and plane tests are integer minors.  The square search reads the
identity once its n basis vectors, which find most witnesses, found none:
first the tensor's, which implies the symmetrised one and which the pair
search and the pminus and nu branches then reuse, and the symmetrised one
only when it fails.  Each branch's premise follows from the identities, so
the branches build their frames without re-checking it;
``verify_degeneration`` still checks every emitted witness exactly.

Every branch ends in the inverse (den, rows) over Z of a frame, and pole
weights w; no branch runs an elimination.  The lambda2 and n3minus frames
are their k = 2 or 3 seeds completed by basis vectors, and their inverses
are written down from the adjugate of a k x k block of the seeds
(``_frame_inverse``); the pminus and nu inverses are written down from the
identity's (A, B, D).  ``_assemble`` stores the family diag(t^-w) *
rows / den straight in the cleared form P / (L*t^s) of
``transport.ParamMatrix``, canonical after one gcd, and the verifier's
row-monomial read-off takes the integers back off P, in the one
elimination of the op.  No Fraction matrix and no FieldElement is built
between the frame and the verdict.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Algebra,
    Vector,
    _deterministic_candidates,
    _pair_products,
    _scalar_action,
    rebase,  # noqa: F401  (perfbench/test_perfbench.py reads this binding)
)
from .canonical import CanonicalForm, Tag
from .errors import AbelianInput, SearchExhausted
from .transport import ParamMatrix, Witness, verify_degeneration


@dataclass(frozen=True)
class ClassifierConfig:
    """Accepted for compatibility: the classifier is deterministic, and
    nothing reads the seed."""

    seed: int = 0


def classify(a: Algebra, cfg: ClassifierConfig | None = None) -> Witness:
    """Return a verified degeneration witness for a non-abelian algebra;
    ``cfg`` has no effect."""
    if a.is_abelian():
        raise AbelianInput("every product is zero; nothing to classify")
    witness = _attempt(a)
    report = verify_degeneration(a, witness)
    if not report.passed:
        raise SearchExhausted(f"the witness failed exact verification: {report.diagnostics}")
    return witness


# -- candidate grids ---------------------------------------------------------


def _pair_grid(n: int) -> tuple:
    """Basis vectors, then pairwise sums e_i + e_j (i < j), over Z."""
    return _integer_candidates(n)


def _square_grid(n: int):
    """The pair grid, then 2 e_p + e_q for ordered p != q."""
    yield from _integer_candidates(n)
    for p in range(n):
        for q in range(n):
            if q != p:
                yield tuple(2 if k == p else 1 if k == q else 0 for k in range(n))


@functools.cache
def _integer_candidates(n: int) -> tuple:
    """``algebra.deterministic_candidates`` over Z, built once per n."""
    return tuple(tuple(map(int, v)) for v in _deterministic_candidates(n))


def _find_square(a: Algebra) -> tuple:
    """(hit, read): hit = (x, S) for the first x on the square grid whose
    square x*x = S / cden leaves its line, S over Z, or None; read is
    ``_scalar_action(a)`` when the sweep read it, else None.

    A basis vector's square is the column (i, i), which leaves the line of
    e_i when it has an entry off row i.  Past the n basis vectors, which
    find most witnesses, the sweep reads the tensor's scalar-action form,
    then, only when it has none, the symmetrised tensor's: either form keeps
    every square on its line, and the sweep stops.  Every other candidate is
    squared in ints, and S is on the line of x exactly when
    S_k x_p = S_p x_k for p the first index with x_p != 0."""
    n, slices = a.dim, a._slices
    grid = _square_grid(n)
    for i, x in enumerate(itertools.islice(grid, n)):
        hits = slices.get((i, i), ())
        if any(k != i for k, _ in hits):
            square = [0] * n
            for k, c in hits:
                square[k] = c
            return (x, square), None
    read = _scalar_action(a)
    if read is None and n > 1 and _scalar_action(a, symmetrised=True) is None:
        for x in grid:
            square = next(_pair_products(a, [x], [x]))
            p = next(i for i, v in enumerate(x) if v)
            if any(s * x[p] != square[p] * v for s, v in zip(square, x)):
                return (x, square), None
    return None, read


def _find_pair(a: Algebra, read: tuple | None):
    """(x, y, P) for the first ordered pair on the pair grid whose product
    x*y = P / cden leaves their plane, P over Z; None at once when the
    tensor has the scalar-action form (``read``, its ``_scalar_action``),
    which in dimension >= 3 is every product staying in its plane."""
    if a.dim < 3 or read is not None:
        return None
    grid = _pair_grid(a.dim)
    m = len(grid)
    for idx, prod in enumerate(_pair_products(a, grid, grid)):
        ix, iy = divmod(idx, m)
        if ix != iy and _leaves_plane(grid[ix], grid[iy], prod):
            return grid[ix], grid[iy], prod
    return None


def _leaves_plane(x: Vector, y: Vector, p: list) -> bool:
    """Whether the integer vector p is off the plane of the independent x
    and y.  For a the first index with x_a != 0 and b the first with
    m = x_a y_b - x_b y_a != 0, Cramer's rule on the coordinates a, b puts
    p in the plane exactly when m p = u x + v y with u = p_a y_b - p_b y_a
    and v = x_a p_b - x_b p_a."""
    a = next(i for i, v in enumerate(x) if v)
    xa, ya, pa = x[a], y[a], p[a]
    b, m = next((b, m) for b in range(len(x)) if (m := xa * y[b] - x[b] * ya))
    u, v = pa * y[b] - p[b] * ya, xa * p[b] - x[b] * pa
    return any(m * pc != u * xc + v * yc for xc, yc, pc in zip(x, y, p))


def _frame_inverse(seeds: list, dens: list) -> tuple[int, list]:
    """(den, rows) over Z for the inverse of the frame ``algebra._frame``
    completes k = 2 or 3 independent seeds x_s = X_s / d_s (X_s over Z,
    ``seeds``; d_s, ``dens``) to: the seeds, then e_j in increasing j for
    the j outside a set J of k rows.

    e_j joins the frame unless it depends on the seeds and the earlier e's,
    that is unless row j of X = (X_0 ... X_(k-1)) is independent of the
    rows below it; so J is picked from the bottom: the last nonzero row,
    then each time the last earlier row independent of those picked (a
    2 x 2 minor for k = 2, a cross or triple product for k = 3).  With
    delta = det X_J and its adjugate, the inverse over delta has
    d_s adj(X_J)[s] at the columns J for seed s, and for j outside J delta
    at column j and -X[j] adj(X_J) at the columns J; everything is negated
    when delta < 0, so that den > 0."""
    rows = list(zip(*seeds))  # X, one row per coordinate
    n = len(rows)
    j_last = _last_row(rows, n, any)
    r_last = rows[j_last]
    if len(seeds) == 2:
        c, d = r_last
        j = _last_row(rows, j_last, lambda r: r[0] * d - r[1] * c)
        a, b = rows[j]
        picked, delta, adj = (j, j_last), a * d - b * c, [(d, -c), (-b, a)]
    else:
        j1 = _last_row(rows, j_last, lambda r: any(_cross(r, r_last)))
        r1 = rows[j1]
        adj0 = _cross(r1, r_last)
        j0 = _last_row(rows, j1, lambda r: _dot(r, adj0))
        r0 = rows[j0]
        picked, delta = (j0, j1, j_last), _dot(r0, adj0)
        adj = [adj0, _cross(r_last, r0), _cross(r0, r1)]
    if delta < 0:
        delta, adj = -delta, [[-x for x in col] for col in adj]
    out = []
    for s, ds in enumerate(dens):
        row = [0] * n
        for j, col in zip(picked, adj):
            row[j] = ds * col[s]
        out.append(row)
    for j, r in enumerate(rows):
        if j not in picked:
            row = [0] * n
            row[j] = delta
            for jj, col in zip(picked, adj):
                row[jj] = -_dot(r, col)
            out.append(row)
    return delta, out


def _last_row(rows: list, stop: int, test) -> int:
    """The last index j < stop with test(rows[j])."""
    return next(j for j in reversed(range(stop)) if test(rows[j]))


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


def _fmt(v: Vector) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


def _assemble(inv: tuple, weights: list, tag: Tag, trace: list, alpha=None) -> Witness:
    """Family = diag(t^-w) composed with the change onto a frame, whose
    inverse is inv = (den, rows) over Z: entry (i, j) is
    rows[i][j] / den * t^-w_i, stored cleared as P / (L*t^s) with
    s = max(w) and P[i][j] = rows[i][j] / g * t^(s - w_i), L = den / g for
    g the gcd of den and rows.  That is the canonical form: den > 0, every
    row is nonzero, and a row of weight s has exponent 0."""
    den, rows = inv
    g = math.gcd(den, *itertools.chain.from_iterable(rows))
    s = max(weights)
    family = ParamMatrix.from_cleared(s, den // g, tuple([
        tuple([{s - w: x // g} if x else {} for x in row]) for w, row in zip(weights, rows)]))
    return Witness(family, CanonicalForm(tag, len(rows), alpha), tuple(trace))


# -- the decision tree ------------------------------------------------------


def _attempt(a: Algebra) -> Witness:
    n = a.dim
    skew = a.is_anticommutative()
    hit, read = (None, _scalar_action(a)) if skew else _find_square(a)
    if hit is not None:
        x, square = hit
        trace = [f"SquareWitnessFound x={_fmt(x)}"]
        return _assemble(_frame_inverse([x, square], [1, a._cden]), [1] + [2] * (n - 1),
                         Tag.LAMBDA2, trace)
    trace = ["Antisymmetric" if skew else "SquareInSpan"]
    pair = _find_pair(a, read)
    if pair is not None:
        return _n3minus_branch(a, pair, trace)
    if skew:
        return _pminus_branch(read, trace + ["PairWitnessAbsent"])
    return _nu_branch(a, read, trace + ["NuNormalization"])


def _n3minus_branch(a: Algebra, pair: tuple, trace: list) -> Witness:
    """The product x*y = P / cden escapes the plane of x and y.

    Either the algebra is anticommutative, or its squares stay on their
    lines and polarization gives y*x = -x*y modulo the plane; either way
    that is exactly what survives the (1, 1, 2, ..., 2) scaling."""
    x, y, prod = pair
    trace.append(f"PairWitnessFound x={_fmt(x)} y={_fmt(y)}")
    inv = _frame_inverse([x, y, prod], [1, 1, a._cden])
    return _assemble(inv, [1, 1] + [2] * (a.dim - 2), Tag.N3_MINUS, trace)


def _unit_row(n: int, i: int, c: int) -> list:
    return [c if k == i else 0 for k in range(n)]


def _pminus_branch(read: tuple, trace: list) -> Witness:
    """Every product of an anticommutative algebra stays in the plane of its
    factors: x*y = phi(x) y - phi(y) x with (A, -A, D) = ``read``,
    phi = A / D.  For p the first index with A_p != 0, the frame
    (D e_p / A_p, then e_i - (A_i / A_p) e_p for i != p) normalizes
    e1*ei = ei, and its inverse is phi, then e_i^* for i != p."""
    A, _, D = read
    n = len(A)
    p = next(i for i, x in enumerate(A) if x)
    rows = [A] + [_unit_row(n, i, D) for i in range(n) if i != p]
    return _assemble((D, rows), [0] + [1] * (n - 1), Tag.P_MINUS, trace)


def _nu_branch(a: Algebra, read: tuple | None, trace: list) -> Witness:
    """Every square on its line, every product in its plane: x*y =
    (A(x) y + B(y) x) / D with (A, B, D) = ``read``, and x*x = phi(x) x for
    phi = s / D, s = A + B != 0 (the algebra is not anticommutative).  For
    p the first index with s_p != 0 the frame is the idempotent
    b1 = D e_p / s_p, then D e_i / s_i - b1 for i != p with s_i != 0, then
    e_i for s_i = 0; its inverse is phi, then s_i e_i^* / D, then e_i^*,
    and alpha = A(b1) / D.  Dimension 1 has no read: the frame is e1 / c
    for e1*e1 = c e1."""
    if read is None:
        ((_, c),) = a._slices[(0, 0)]
        return _assemble((a._cden, [[c]]), [0], Tag.NU, trace)
    A, B, D = read
    n = len(A)
    s = [x + y for x, y in zip(A, B)]
    p = next(i for i, x in enumerate(s) if x)
    rows = [s] + [_unit_row(n, i, s[i]) for i in range(n) if i != p and s[i]]
    rows += [_unit_row(n, i, D) for i in range(n) if not s[i]]
    return _assemble((D, rows), [0] + [1] * (n - 1), Tag.NU, trace, Fraction(A[p], s[p]))

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
witness, so nothing is drawn at random and there is no fallback.  The
square search checks the identity once its n basis vectors, which find
most witnesses, found none.  Each branch's premise follows from the
identities, so the branches build their frames without re-checking it;
``verify_degeneration`` still checks every emitted witness exactly.

Every branch ends in the inverse (den, rows) over Z of a frame, and pole
weights w.  The lambda2 and n3minus frames are read off one integer echelon
with their inverse; the pminus and nu inverses are written down from the
identity's (A, B, D), so those branches run no elimination.  ``_assemble``
stores the family diag(t^-w) * rows / den straight in the cleared form
P / (L*t^s) of ``transport.ParamMatrix``, canonical after one gcd, and the
verifier's row-monomial read-off takes the integers back off P.  No
Fraction matrix and no FieldElement is built between the frame and the
verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import (
    Algebra,
    Vector,
    _deterministic_candidates,
    _frame,
    _scalar_action,
    proportionality,
    rebase,  # noqa: F401  (perfbench/test_perfbench.py reads this binding)
    vec_is_zero,
)
from .canonical import CanonicalForm, Tag
from .errors import AbelianInput, SearchExhausted
from .transport import ParamMatrix, Witness, verify_degeneration

ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)


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


def span_witness_search(a: Algebra, mode: str):
    """A vector whose square leaves its line (``"square"``) or an ordered
    pair whose product leaves its plane (``"pair"``), the first on the
    grid; None exactly when there is none."""
    if mode == "square":
        hit = _find_square(a)
        return hit and hit[0]
    if mode == "pair":
        return _find_pair(a, _scalar_action(a))
    raise ValueError(f"unknown search mode {mode!r}")


# -- candidate grids ---------------------------------------------------------


def _pair_grid(n: int) -> tuple:
    """Basis vectors, then pairwise sums e_i + e_j (i < j)."""
    return _deterministic_candidates(n)


def _square_grid(n: int):
    """The pair grid, then 2 e_p + e_q for ordered p != q."""
    yield from _deterministic_candidates(n)
    for p in range(n):
        for q in range(n):
            if q != p:
                yield tuple(TWO if k == p else ONE if k == q else ZERO for k in range(n))


def _find_square(a: Algebra):
    """(x, x*x) for the first x on the square grid whose square leaves its
    line.

    Past the n basis vectors, which find most witnesses, the sweep stops
    when the symmetrised tensor has the scalar-action form: every square
    then stays on its line."""
    n = a.dim
    if n < 2:
        return None
    for idx, x in enumerate(_square_grid(n)):
        if idx == n and _scalar_action(a, symmetrised=True) is not None:
            return None
        s = a.product(x, x)
        if not vec_is_zero(s) and proportionality(s, x) is None:
            return x, s
    return None


def _find_pair(a: Algebra, read: tuple | None):
    """(x, y) for the first ordered pair on the pair grid whose product
    leaves their plane; None at once when the tensor has the scalar-action
    form (``read``, its ``_scalar_action``), which in dimension >= 3 is
    every product staying in its plane."""
    if a.dim < 3 or read is not None:
        return None
    grid = _pair_grid(a.dim)
    for ix, x in enumerate(grid):
        for iy, y in enumerate(grid):
            if ix == iy:
                continue
            p = a.product(x, y)
            if vec_is_zero(p):
                continue
            if linalg.rank([list(x), list(y), list(p)]) == 3:
                return x, y
    return None


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
    if not skew and (sq := _find_square(a)) is not None:
        x, square = sq
        _, inv = _frame(n, [x, square])
        trace = [f"SquareWitnessFound x={_fmt(x)}"]
        return _assemble(inv, [1] + [2] * (n - 1), Tag.LAMBDA2, trace)
    trace = ["Antisymmetric" if skew else "SquareInSpan"]
    read = _scalar_action(a)
    pair = _find_pair(a, read)
    if pair is not None:
        return _n3minus_branch(a, pair, trace)
    if skew:
        return _pminus_branch(read, trace + ["PairWitnessAbsent"])
    return _nu_branch(a, read, trace + ["NuNormalization"])


def _n3minus_branch(a: Algebra, pair: tuple, trace: list) -> Witness:
    """The product x*y escapes the plane of x and y.

    Either the algebra is anticommutative, or its squares stay on their
    lines and polarization gives y*x = -x*y modulo the plane; either way
    that is exactly what survives the (1, 1, 2, ..., 2) scaling."""
    x, y = pair
    trace.append(f"PairWitnessFound x={_fmt(x)} y={_fmt(y)}")
    _, inv = _frame(a.dim, [x, y, a.product(x, y)])
    return _assemble(inv, [1, 1] + [2] * (a.dim - 2), Tag.N3_MINUS,
                     trace)


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

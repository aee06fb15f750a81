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
``verify_degeneration`` still checks every emitted witness exactly.  The
pminus and nu branches read what they need of the normalized table (the
leads on e1, the scalar) off the identity's (A, B, D), so no branch
contracts the tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import (
    Algebra,
    Vector,
    _deterministic_candidates,
    _frame,
    _scalar_action,
    extend_basis,
    proportionality,
    rebase,  # noqa: F401  (perfbench/test_perfbench.py reads this binding)
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from .canonical import CanonicalForm, Tag
from .errors import AbelianInput, SearchExhausted
from .poly import FE_ZERO, FieldElement
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
        return _find_pair(a)
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


def _find_pair(a: Algebra):
    """(x, y) for the first ordered pair on the pair grid whose product
    leaves their plane; None at once when the tensor has the scalar-action
    form, which in dimension >= 3 is every product staying in its plane."""
    if a.dim < 3 or _scalar_action(a) is not None:
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


def _assemble(minv: list, weights: list, tag: Tag, trace: list, alpha=None) -> Witness:
    """Family = diag(t^-w) composed with the change onto a frame, minv the
    frame's inverse; entry (i, j) is the monomial minv[i][j] * t^-w_i, built
    in the form that ``FieldElement.from_laurent`` gives it (every
    w >= 0)."""
    n = len(minv)
    family = ParamMatrix(n, tuple(
        tuple(FieldElement._raw({0: c}, {w: ONE}) if c else FE_ZERO for c in row)
        for w, row in zip(weights, minv)
    ))
    return Witness(family, CanonicalForm(tag, n, alpha), tuple(trace))


# -- the decision tree ------------------------------------------------------


def _attempt(a: Algebra) -> Witness:
    n = a.dim
    if a.is_anticommutative():
        trace = ["Antisymmetric"]
        pair = _find_pair(a)
        if pair is not None:
            return _n3minus_branch(a, pair, trace)
        trace.append("PairWitnessAbsent")
        return _pminus_branch(a, trace)
    sq = _find_square(a)
    if sq is not None:
        x, square = sq
        trace = [f"SquareWitnessFound x={_fmt(x)}"]
        _, inv = _frame(n, [x, square])
        return _assemble(linalg._fractions(inv), [1] + [2] * (n - 1), Tag.LAMBDA2, trace)
    trace = ["SquareInSpan"]
    pair = _find_pair(a)
    if pair is not None:
        return _n3minus_branch(a, pair, trace)
    trace.append("NuNormalization")
    return _nu_branch(a, trace)


def _n3minus_branch(a: Algebra, pair: tuple, trace: list) -> Witness:
    """The product x*y escapes the plane of x and y.

    Either the algebra is anticommutative, or its squares stay on their
    lines and polarization gives y*x = -x*y modulo the plane; either way
    that is exactly what survives the (1, 1, 2, ..., 2) scaling."""
    x, y = pair
    trace.append(f"PairWitnessFound x={_fmt(x)} y={_fmt(y)}")
    _, inv = _frame(a.dim, [x, y, a.product(x, y)])
    return _assemble(linalg._fractions(inv), [1, 1] + [2] * (a.dim - 2), Tag.N3_MINUS,
                     trace)


def _pminus_branch(a: Algebra, trace: list) -> Witness:
    """All products of an anticommutative algebra stay in the plane of their
    factors, so x*y = phi(y) x - phi(x) y: normalize e1*ei = ei and scale
    everything but e1 down."""
    n = a.dim
    # the first nonzero product of basis vectors; off the diagonal, as a skew
    # tensor has no nonzero square
    i, j = min((i, j) for _, i, j in a.entries())
    p = a.basis_product(i, j)
    if p[j]:
        first, second = i, j
        q = p
    else:
        first, second = j, i
        q = a.basis_product(j, i)
    g2, g1 = q[second], q[first]
    b1 = vec_scale(unit_vector(n, first), 1 / g2)
    b2 = vec_add(unit_vector(n, second), vec_scale(b1, g1))
    basis, _ = _frame(n, [b1, b2])
    # x*y = phi(x) y - phi(y) x with phi = A / D and phi(b1) = 1, so b1 * f
    # has lead -phi(f) on b1
    A, _, D = _scalar_action(a)
    absorbed = [basis[0], basis[1]]
    for f in basis[2:]:
        lead = -sum(x * y for x, y in zip(A, f)) / D
        absorbed.append(vec_add(f, vec_scale(basis[0], lead)))
    _, minv = _frame(n, absorbed)
    return _assemble(linalg._fractions(minv), [0] + [1] * (n - 1), Tag.P_MINUS, trace)


def _nu_branch(a: Algebra, trace: list) -> Witness:
    """Every square on its line, every product in its plane: idempotent
    normalization onto the scalar-action table.

    A non-anticommutative algebra has a nonzero square among the basis
    vectors and their pairwise sums, and each nonzero square is a multiple
    of its vector."""
    n = a.dim
    x, s = next((x, s) for x in _deterministic_candidates(n)
                if not vec_is_zero(s := a.product(x, x)))
    b1 = vec_scale(x, 1 / proportionality(s, x))
    idem: list[Vector] = []
    null: list[Vector] = []
    for w in extend_basis(n, [b1])[1:]:
        s = a.product(w, w)
        if vec_is_zero(s):
            null.append(w)
        else:
            idem.append(vec_scale(w, 1 / proportionality(s, w)))
    # squares on their lines give b1*w + w*b1 = b1 + w for an idempotent w and
    # w for w*w = 0, so b1*f + f*b1 = f for every f after b1 below
    final = [b1] + [vec_sub(w, b1) for w in idem] + null
    _, minv = _frame(n, final)
    alpha = None
    if n >= 2:
        # x*y = a(x) y + b(y) x with a = A / D, so b1 * f has a(b1) on f
        A, _, D = _scalar_action(a)
        alpha = sum(x * y for x, y in zip(A, b1)) / D
    return _assemble(linalg._fractions(minv), [0] + [1] * (n - 1), Tag.NU, trace, alpha)

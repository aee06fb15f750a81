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
    nu(alpha) with the scalar read off the normalized table.

Both negative outcomes are first decided by an identity on the tensor
(``algebra._scalar_action``): every square stays on its line iff the
symmetrised tensor c^k_ij + c^k_ji has the scalar-action form (n >= 2), and
every product stays in the plane of its factors iff the tensor has it
(n >= 3).  When the identity holds the search below could find nothing, so
it stops (the square search once its basis vectors found no witness); the
pool it leaves unread is drawn lazily, so the seeded stream is unchanged.
Otherwise the witness searches are Las Vegas with a deterministic sweep
first (basis vectors, then pairwise sums of basis vectors, then seeded
random integer vectors).  A round's random vectors are drawn when a search
first reaches them, and a failed round draws the ones it skipped before the
next round, so the seeded stream is that of drawing every round in full.  A
positive witness is confirmed by an exact rank computation.
When a branch assertion fails, the in-span premise behind it was wrong, so
vectors pinpointing the violation are fed into the next round's sweep; the
emitted witness is always re-verified exactly before being returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import (
    Algebra,
    Vector,
    _frame,
    _rebased,
    _scalar_action,
    deterministic_candidates,
    extend_basis,
    proportionality,
    rebase,
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


@dataclass(frozen=True)
class ClassifierConfig:
    """Search budget; the defaults classify everything seen in practice."""

    seed: int = 0
    samples_per_round: int = 32
    max_rounds: int = 4
    coordinate_range: int = 10**6

    def __post_init__(self):
        if self.samples_per_round < 1 or self.max_rounds < 1 or self.coordinate_range < 1:
            raise ValueError("budget fields must be positive")


@dataclass
class _Failure:
    reason: str
    suspects: list


def classify(a: Algebra, cfg: ClassifierConfig | None = None) -> Witness:
    """Return a verified degeneration witness for a non-abelian algebra."""
    if cfg is None:
        cfg = ClassifierConfig()
    if a.is_abelian():
        raise AbelianInput("every product is zero; nothing to classify")
    rng = random.Random(cfg.seed)
    suspects: list[Vector] = []
    log: list[str] = []
    for round_no in range(cfg.max_rounds):
        pool = _pool(a.dim, cfg, rng, suspects)
        outcome = _attempt(a, pool)
        if isinstance(outcome, Witness):
            report = verify_degeneration(a, outcome)
            if report.passed:
                return outcome
            log.append(f"round {round_no}: verification failed: {report.diagnostics}")
        else:
            log.append(f"round {round_no}: {outcome.reason}")
            for v in outcome.suspects:
                if not vec_is_zero(v) and v not in suspects:
                    suspects.append(v)
        pool.drain()
    raise SearchExhausted("; ".join(log))


def span_witness_search(a: Algebra, mode: str, cfg: ClassifierConfig | None = None):
    """Search for a vector whose square leaves its line (``"square"``) or an
    ordered pair whose product leaves its plane (``"pair"``).

    Sweeps basis vectors, pairwise sums, then seeded random vectors; every
    hit is confirmed by an exact rank computation.  Returns None when the
    sweep finds nothing.
    """
    if cfg is None:
        cfg = ClassifierConfig()
    rng = random.Random(cfg.seed)
    pool = _pool(a.dim, cfg, rng, [])
    if mode == "square":
        hit = _find_square(a, pool)
        return hit and hit[0]
    if mode == "pair":
        return _find_pair(a, pool)
    raise ValueError(f"unknown search mode {mode!r}")


# -- candidate machinery ---------------------------------------------------


class _Pool:
    """Deterministic candidates and new suspects, then ``count`` nonzero
    random vectors drawn from ``rng`` when an iteration first reaches them.

    Iterations may nest; each sees the same sequence.
    """

    def __init__(self, head: list, rng: random.Random, count: int, n: int, bound: int):
        self._items, self._rng = head, rng
        self._left, self._n, self._bound = count, n, bound

    def _draw(self) -> bool:
        if not self._left:
            return False
        self._left -= 1
        rng, n, bound = self._rng, self._n, self._bound
        while True:
            v = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
            if any(v):
                break
        self._items.append(v)
        return True

    def __iter__(self):
        items = self._items
        i = 0
        while i < len(items) or self._draw():
            yield items[i]
            i += 1

    def drain(self) -> None:
        """Draw whatever no iteration reached, keeping the rng in step."""
        while self._draw():
            pass


def _pool(n: int, cfg: ClassifierConfig, rng: random.Random, suspects: list) -> _Pool:
    head = deterministic_candidates(n)
    if suspects:
        seen = set(head)
        for v in suspects:
            if v not in seen:
                head.append(v)
                seen.add(v)
    return _Pool(head, rng, cfg.samples_per_round, n, cfg.coordinate_range)


def _find_square(a: Algebra, pool):
    """(x, x*x) for the first x in the pool whose square leaves its line.

    Past the n basis vectors, which find most witnesses, the sweep stops
    when the symmetrised tensor has the scalar-action form: every square
    then stays on its line."""
    n = a.dim
    if n < 2:
        return None
    for idx, x in enumerate(pool):
        if idx == n and _scalar_action(a, symmetrised=True) is not None:
            return None
        s = a.product(x, x)
        if not vec_is_zero(s) and proportionality(s, x) is None:
            return x, s
    return None


def _find_pair(a: Algebra, pool):
    """(x, y) for the first ordered pair in the pool whose product leaves
    their plane; None at once when the tensor has the scalar-action form,
    which in dimension >= 3 is every product staying in its plane."""
    if a.dim < 3 or _scalar_action(a) is not None:
        return None
    for ix, x in enumerate(pool):
        for iy, y in enumerate(pool):
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
    in the reduced form that ``FieldElement.from_laurent`` gives it (every
    w >= 0)."""
    n = len(minv)
    family = ParamMatrix(n, tuple(
        tuple(FieldElement._raw({0: c}, {w: ONE}) if c else FE_ZERO for c in row)
        for w, row in zip(weights, minv)
    ))
    return Witness(family, CanonicalForm(tag, n, alpha), tuple(trace))


# -- the decision tree ------------------------------------------------------


def _attempt(a: Algebra, pool):
    n = a.dim
    if a.is_anticommutative():
        trace = ["Antisymmetric"]
        pair = _find_pair(a, pool)
        if pair is not None:
            x, y = pair
            trace.append(f"PairWitnessFound x={_fmt(x)} y={_fmt(y)}")
            _, inv = _frame(n, [x, y, a.product(x, y)])
            return _assemble(linalg._fractions(inv), [1, 1] + [2] * (n - 2), Tag.N3_MINUS,
                             trace)
        trace.append("PairWitnessAbsent")
        return _pminus_branch(a, trace)
    sq = _find_square(a, pool)
    if sq is not None:
        x, square = sq
        trace = [f"SquareWitnessFound x={_fmt(x)}"]
        _, inv = _frame(n, [x, square])
        return _assemble(linalg._fractions(inv), [1] + [2] * (n - 1), Tag.LAMBDA2, trace)
    trace = ["SquareInSpan"]
    pair = _find_pair(a, pool)
    if pair is not None:
        x, y = pair
        trace.append(f"PairWitnessFound x={_fmt(x)} y={_fmt(y)}")
        return _n3_mixed_branch(a, x, y, trace)
    trace.append("NuNormalization")
    return _nu_branch(a, trace)


def _pminus_branch(a: Algebra, trace: list):
    """All products of an anticommutative algebra stay in the plane of their
    factors: normalize e1*ei = ei and scale everything but e1 down."""
    n = a.dim
    # the first nonzero product of basis vectors; off the diagonal, as a skew
    # tensor has no nonzero square
    i, j = min((i, j) for _, i, j in a.entries())
    p = a.basis_product(i, j)
    if any(p[k] for k in range(n) if k not in (i, j)):
        # the sweep reported every pair in-span, yet a basis product escapes
        return _Failure(
            "a basis product escapes the span of its factors",
            [unit_vector(n, i), unit_vector(n, j)],
        )
    if p[j]:
        first, second = i, j
        q = p
    else:
        first, second = j, i
        q = a.basis_product(j, i)
    g2, g1 = q[second], q[first]
    b1 = vec_scale(unit_vector(n, first), 1 / g2)
    b2 = vec_add(unit_vector(n, second), vec_scale(b1, g1))
    basis, inv = _frame(n, [b1, b2])
    reb = _rebased(a, basis, inv)
    absorbed = [basis[0], basis[1]]
    for m in range(2, n):
        lead = reb.constants[0][0][m]
        absorbed.append(vec_add(basis[m], vec_scale(basis[0], lead)))
    reb2, minv = rebase(a, absorbed)
    suspects: list = []
    for m in range(1, n):
        col = [reb2.constants[k][0][m] for k in range(n)]
        if any(col[k] != (ONE if k == m else ZERO) for k in range(n)):
            suspects += [
                absorbed[0],
                absorbed[m],
                vec_add(absorbed[1], absorbed[m]),
            ]
    if suspects:
        return _Failure("normalization e1*ei = ei failed", suspects)
    return _assemble(minv, [0] + [1] * (n - 1), Tag.P_MINUS, trace)


def _n3_mixed_branch(a: Algebra, x: Vector, y: Vector, trace: list):
    """Squares stay on their lines, the product x*y escapes its plane.

    Polarization then forces y*x = -x*y modulo the plane, which is exactly
    what survives the (1, 1, 2, ..., 2) scaling; check it and expose the
    hidden square witness x + y when it fails.
    """
    n = a.dim
    basis, inv = _frame(n, [x, y, a.product(x, y)])
    reb = _rebased(a, basis, inv)
    ok = True
    for k in range(2, n):
        if reb.constants[k][0][0] or reb.constants[k][1][1]:
            ok = False
        if reb.constants[k][1][0] != (-ONE if k == 2 else ZERO):
            ok = False
    if not ok:
        return _Failure(
            "polarization identities failed on a mixed-product frame",
            [x, y, vec_add(x, y)],
        )
    return _assemble(linalg._fractions(inv), [1, 1] + [2] * (n - 2), Tag.N3_MINUS, trace)


def _nu_branch(a: Algebra, trace: list):
    """Every square on its line, every product in its plane: idempotent
    normalization onto the scalar-action table."""
    n = a.dim
    start = None
    for x in deterministic_candidates(n):
        s = a.product(x, x)
        if not vec_is_zero(s):
            c = proportionality(s, x)
            if c is None:
                return _Failure("square witness surfaced in the idempotent step", [x])
            start = (x, c)
            break
    if start is None:
        # a non-anticommutative algebra has a nonzero square among basis
        # vectors and their pairwise sums; getting here means the tensor
        # anticommutativity check and this sweep disagree
        return _Failure("no nonzero square among deterministic candidates", [])
    x, c = start
    b1 = vec_scale(x, 1 / c)
    frame = extend_basis(n, [b1])
    idem: list[Vector] = []
    null: list[Vector] = []
    for w in frame[1:]:
        s = a.product(w, w)
        if vec_is_zero(s):
            null.append(w)
        else:
            cw = proportionality(s, w)
            if cw is None:
                return _Failure("square witness surfaced in the idempotent step", [w])
            idem.append(vec_scale(w, 1 / cw))
    ordered = [b1] + idem + null
    k = 1 + len(idem)
    suspects: list = []
    for m in range(1, n):
        w = ordered[m]
        s = vec_add(a.product(b1, w), a.product(w, b1))
        want = vec_add(b1, w) if m < k else w
        if s != want:
            suspects += [vec_add(b1, w), vec_sub(b1, w)]
    if suspects:
        return _Failure("idempotent sum relations failed", suspects)
    final = [b1] + [vec_sub(w, b1) for w in ordered[1:k]] + ordered[k:]
    reb, minv = rebase(a, final)
    head = [reb.constants[kk][0][0] for kk in range(n)]
    if any(head[kk] != (ONE if kk == 0 else ZERO) for kk in range(n)):
        return _Failure("idempotent head product broke", [b1])
    alphas: list[Fraction] = []
    for m in range(1, n):
        col01 = [reb.constants[kk][0][m] for kk in range(n)]
        col10 = [reb.constants[kk][m][0] for kk in range(n)]
        stray = [
            kk for kk in range(n) if kk not in (0, m) and (col01[kk] or col10[kk])
        ]
        if stray or col10[m] != 1 - col01[m] or col10[0] != -col01[0]:
            suspects += [final[m], vec_add(b1, final[m]), vec_sub(b1, final[m])]
        alphas.append(col01[m])
    if suspects:
        return _Failure("pair span relations failed around the idempotent", suspects)
    alpha = None
    if n >= 2:
        alpha = alphas[0]
        for m in range(2, n):
            if alphas[m - 1] != alpha:
                return _Failure(
                    "direction scalars disagree",
                    [vec_add(final[1], final[m])],
                )
    return _assemble(minv, [0] + [1] * (n - 1), Tag.NU, trace, alpha)

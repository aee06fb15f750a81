"""The fraction-free transport kernel against sympy as an independent oracle.

sympy (a test-only dependency) does the same computations over QQ(t) with
its own field arithmetic: determinant, inverse, and the transported tensor
g.c(g^-1 x, g^-1 y), whose t -> 0 limit is read off each reduced entry's
valuation and whose value at t0 is each reduced entry evaluated there.
"""

import random
from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")
from sympy import QQ, symbols  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from levelone import (  # noqa: E402
    CanonicalForm,
    ClassifierConfig,
    NoLimit,
    PoleAtPoint,
    ParamMatrix,
    SingularFamily,
    Tag,
    apply_basis_change,
    classify,
    construct,
    invert,
    random_algebra,
    random_family,
    random_invertible_matrix,
    transport,
    transport_at,
    transport_limit,
)
from levelone.families import scaling_family  # noqa: E402
from levelone.poly import FieldElement  # noqa: E402
from levelone.transport import _row_monomial  # noqa: E402

T = symbols("t")
K = QQ.frac_field(T)


def to_k(e: FieldElement):
    def poly(p):
        return sum((QQ(c.numerator, c.denominator) * K(T) ** k for k, c in p.items()), K.zero)

    return poly(e.num) / poly(e.den)


def to_dm(g: ParamMatrix) -> DomainMatrix:
    return DomainMatrix([[to_k(e) for e in row] for row in g.entries], (g.dim, g.dim), K)


def order(p) -> int:
    return min(m[0] for m, _ in p.terms())


def coeff(p, k):
    return dict((m[0], c) for m, c in p.terms()).get(k, QQ(0))


def to_fraction(q) -> F:
    return F(int(q.numerator), int(q.denominator))


def oracle_tensor(a, g: ParamMatrix) -> dict:
    """{(k, i, j): nonzero entry in QQ(t)} of the transported tensor."""
    n = a.dim
    gk = to_dm(g).to_list()
    gik = to_dm(g).inv().to_list()
    c = a.constants
    nonzero = [(r, s, u, c[r][s][u]) for r in range(n) for s in range(n) for u in range(n)
               if c[r][s][u]]
    out = {}
    for k in range(n):
        for i in range(n):
            for j in range(n):
                acc = K.zero
                for r, s, u, v in nonzero:
                    acc += QQ(v.numerator, v.denominator) * gk[k][r] * gik[s][i] * gik[u][j]
                if acc:
                    out[(k, i, j)] = acc
    return out


def oracle_limit(a, g: ParamMatrix):
    """(limit entries as Fractions, None), or (None, sorted 1-based poles)."""
    table, poles = {}, []
    for (k, i, j), acc in oracle_tensor(a, g).items():
        num, den = acc.numer, acc.denom
        val = order(num) - order(den)
        if val < 0:
            poles.append((k + 1, i + 1, j + 1))
        elif val == 0:
            table[(k, i, j)] = to_fraction(coeff(num, order(num)) / coeff(den, order(den)))
    return (None, poles) if poles else (table, None)


def oracle_at(a, g: ParamMatrix, t0: F):
    """Nonzero entries of the tensor at t0, each reduced entry evaluated
    there, or PoleAtPoint when some reduced entry has a pole at t0."""
    x = QQ(t0.numerator, t0.denominator)
    table = {}
    for kij, acc in oracle_tensor(a, g).items():
        if not acc.denom(x):
            return PoleAtPoint
        if acc.numer(x):
            table[kij] = to_fraction(acc.numer(x) / acc.denom(x))
    return table


def ours_at(f):
    """The nonzero entries of the algebra f() returns, or PoleAtPoint."""
    try:
        return f().entries()
    except PoleAtPoint:
        return PoleAtPoint


def ours_limit(a, g):
    try:
        lim = transport_limit(a, g)
    except NoLimit as exc:
        return None, exc.entries
    n = a.dim
    return {(k, i, j): lim.constants[k][i][j] for k in range(n) for i in range(n)
            for j in range(n) if lim.constants[k][i][j]}, None


def cases():
    """(algebra, family) pairs: random Laurent families at n = 2..3."""
    rng = random.Random(20240611)
    out = []
    for idx in range(24):
        n = 2 + idx % 2
        g = random_family(n, idx % 3, rng.randrange(10**6))
        pool = [construct(CanonicalForm(Tag.P_MINUS, n)),
                construct(CanonicalForm(Tag.NU, n, F(2, 3))),
                random_algebra(n, 0.5, rng.randrange(10**6), nonabelian=True)]
        out.append((pool[idx % 3], g))
    return out


CASES = cases()


def test_some_inverses_have_non_monomial_denominators():
    assert any(len(e.den) > 1 for _, g in CASES for row in invert(g).entries for e in row)


def test_a_family_that_is_not_laurent_is_refused():
    """The kernel takes Laurent families only: the inverse of a family whose
    det is not a monomial has entries over other denominators."""
    a, g = next((a, g) for a, g in CASES
                if any(len(e.den) > 1 for row in invert(g).entries for e in row))
    h = invert(g)
    for f in (lambda: transport_limit(a, h), lambda: transport(a, h), h.det):
        with pytest.raises(ValueError, match="not a Laurent polynomial: FieldElement"):
            f()


@pytest.mark.parametrize("a,g", CASES)
def test_det_and_inverse_agree_with_sympy(a, g):
    dm = to_dm(g)
    assert to_k(g.det()) == dm.det()
    assert to_dm(invert(g)) == dm.inv()


@pytest.mark.parametrize("a,g", CASES)
def test_limit_or_poles_agree_with_sympy(a, g):
    assert ours_limit(a, g) == oracle_limit(a, g)


def test_the_cases_reach_both_outcomes():
    outcomes = [ours_limit(a, g)[0] is None for a, g in CASES]
    assert any(outcomes) and not all(outcomes)


def double_root_cases():
    """(algebra, g, r) with (t - r)^2 dividing det g, r != 0: a random
    Laurent family times diag(1, ..., (t - r)^2), and the two pinned
    families diag(1, (t - 1)^2) (regular) and [[1, t], [0, (t - 1)^2]] (a
    pole) on pminus."""
    rng = random.Random(20261020)
    t, one, zero = (FieldElement.t_power(1), FieldElement.constant(1),
                    FieldElement.constant(0))

    def diag(xs):
        return ParamMatrix(len(xs), tuple(tuple(x if i == j else zero for j in range(len(xs)))
                                          for i, x in enumerate(xs)))

    out = []
    for idx in range(16):
        n = 2 + idx % 2
        r = (F(1), F(-1), F(1, 2), F(-3, 2))[idx % 4]
        lin = t - FieldElement.constant(r)
        g = random_family(n, idx % 3, rng.randrange(10**6)) @ diag([one] * (n - 1) + [lin * lin])
        pool = [construct(CanonicalForm(Tag.P_MINUS, n)),
                construct(CanonicalForm(Tag.LAMBDA2, n)),
                random_algebra(n, 0.5, rng.randrange(10**6), nonabelian=True)]
        out.append((pool[idx % 3], g, r))
    pminus = construct(CanonicalForm(Tag.P_MINUS, 2))
    sq = (t - one) * (t - one)
    out.append((pminus, diag([one, sq]), F(1)))
    out.append((pminus, ParamMatrix(2, ((one, t), (zero, sq))), F(1)))
    return out


DOUBLE_ROOT_CASES = double_root_cases()


@pytest.mark.parametrize("a,g,r", DOUBLE_ROOT_CASES)
def test_transport_at_a_double_root_agrees_with_sympy(a, g, r):
    assert not g.det().eval_at(r)
    want = oracle_at(a, g, r)
    assert ours_at(lambda: transport(a, g).eval_at(r)) == want
    assert ours_at(lambda: transport_at(a, g, r)) == want


def test_the_double_root_cases_reach_both_outcomes():
    outcomes = [oracle_at(a, g, r) is PoleAtPoint for a, g, r in DOUBLE_ROOT_CASES]
    assert outcomes[-2:] == [False, True]
    assert any(outcomes[:-2]) and not all(outcomes[:-2])


def row_monomial_cases():
    """(algebra, diag(t^e) * m) at n = 2..3, e in [-2, 2], m invertible."""
    rng = random.Random(20261018)
    out = []
    for idx in range(18):
        n = 2 + idx % 2
        g = (ParamMatrix.diagonal_powers([rng.randint(-2, 2) for _ in range(n)])
             @ ParamMatrix.from_rational(random_invertible_matrix(n, rng)))
        pool = [construct(CanonicalForm(Tag.LAMBDA2, n)),
                construct(CanonicalForm(Tag.NU, n, F(2, 3))),
                random_algebra(n, 0.5, rng.randrange(10**6), nonabelian=True)]
        out.append((pool[idx % 3], g))
    return out


ROW_MONOMIAL_CASES = row_monomial_cases()


@pytest.mark.parametrize("a,g", ROW_MONOMIAL_CASES)
def test_row_monomial_read_off_agrees_with_sympy(a, g):
    assert _row_monomial(g) is not None
    assert to_k(g.det()) == to_dm(g).det()
    assert ours_limit(a, g) == oracle_limit(a, g)


def test_the_row_monomial_cases_reach_both_outcomes():
    outcomes = [ours_limit(a, g)[0] is None for a, g in ROW_MONOMIAL_CASES]
    assert any(outcomes) and not all(outcomes)


def classify_witness_cases():
    """(algebra, classify witness family) with the witness's target, for
    each target the classifier reaches, at n = 3..5: the target in a random
    basis, and for lambda2 a random algebra too.  Each family is also
    applied to a second random algebra, where most entries are dropped at
    t = 0 and poles appear."""
    rng = random.Random(20261019)
    out = []
    for n in (3, 4, 5):
        for tag, alpha in ((Tag.LAMBDA2, None), (Tag.NU, F(2, 3)), (Tag.P_MINUS, None),
                           (Tag.N3_MINUS, None)):
            form = CanonicalForm(tag, n, alpha)
            inputs = [apply_basis_change(construct(form), random_invertible_matrix(n, rng))]
            if tag is Tag.LAMBDA2:
                inputs.append(random_algebra(n, 0.5, rng.randrange(10**6), nonabelian=True))
            for a in inputs:
                w = classify(a, ClassifierConfig(seed=rng.randrange(10**6)))
                other = random_algebra(n, 0.4, rng.randrange(10**6), nonabelian=True)
                out += [(a, w.family, w.target), (other, w.family, None)]
    return out


WITNESS_CASES = classify_witness_cases()


@pytest.mark.parametrize("a,g,target", WITNESS_CASES)
def test_classify_witness_read_off_agrees_with_sympy(a, g, target):
    assert _row_monomial(g) is not None
    ours = ours_limit(a, g)
    assert ours == oracle_limit(a, g)
    if target is not None:
        assert ours == (construct(target).entries(), None)


def test_the_witness_cases_reach_every_target_and_both_outcomes():
    targets = {target.tag for _, _, target in WITNESS_CASES if target is not None}
    assert targets == {Tag.LAMBDA2, Tag.NU, Tag.P_MINUS, Tag.N3_MINUS}
    outcomes = [ours_limit(a, g)[0] is None for a, g, target in WITNESS_CASES if target is None]
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_uniform_scaling_limit_is_abelian(n):
    # P = t * diag(t^-1) = I, so 2*val(det P) - val(D) = -1 < 0
    for a in (construct(CanonicalForm(Tag.P_MINUS, n)),
              construct(CanonicalForm(Tag.NU, n, F(2, 3)))):
        g = scaling_family([1] * n)
        assert transport_limit(a, g).is_abelian()
        assert ours_limit(a, g) == oracle_limit(a, g)


def test_singular_family_raises_from_transport_limit():
    t = FieldElement.t_power(1)
    one = FieldElement.constant(1)
    g = ParamMatrix(2, ((t, one), (t * t, t)))
    assert not g.det()
    with pytest.raises(SingularFamily):
        transport_limit(construct(CanonicalForm(Tag.P_MINUS, 2)), g)

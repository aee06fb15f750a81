"""The fraction-free transport kernel against sympy as an independent oracle.

sympy (a test-only dependency) does the same computations over QQ(t) with
its own field arithmetic: determinant, inverse, and the transported tensor
g.c(g^-1 x, g^-1 y), whose t -> 0 limit is read off each reduced entry's
valuation.
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


def oracle_limit(a, g: ParamMatrix):
    """(limit entries as Fractions, None), or (None, sorted 1-based poles)."""
    n = a.dim
    gk = to_dm(g).to_list()
    gik = to_dm(g).inv().to_list()
    c = a.constants
    nonzero = [(r, s, u, c[r][s][u]) for r in range(n) for s in range(n) for u in range(n)
               if c[r][s][u]]
    table, poles = {}, []
    for k in range(n):
        for i in range(n):
            for j in range(n):
                acc = K.zero
                for r, s, u, v in nonzero:
                    acc += QQ(v.numerator, v.denominator) * gk[k][r] * gik[s][i] * gik[u][j]
                if not acc:
                    continue
                num, den = acc.numer, acc.denom
                val = order(num) - order(den)
                if val < 0:
                    poles.append((k + 1, i + 1, j + 1))
                elif val == 0:
                    q = coeff(num, order(num)) / coeff(den, order(den))
                    table[(k, i, j)] = F(int(q.numerator), int(q.denominator))
    return (None, poles) if poles else (table, None)


def ours_limit(a, g):
    try:
        lim = transport_limit(a, g)
    except NoLimit as exc:
        return None, exc.entries
    n = a.dim
    return {(k, i, j): lim.constants[k][i][j] for k in range(n) for i in range(n)
            for j in range(n) if lim.constants[k][i][j]}, None


def cases():
    """(algebra, family) pairs: random Laurent families at n = 2..3, and the
    inverse of one, whose denominators are not powers of t."""
    rng = random.Random(20240611)
    out = []
    for idx in range(24):
        n = 2 + idx % 2
        g = random_family(n, idx % 3, rng.randrange(10**6))
        if idx % 4 == 3:
            g = invert(g)
        pool = [construct(CanonicalForm(Tag.P_MINUS, n)),
                construct(CanonicalForm(Tag.NU, n, F(2, 3))),
                random_algebra(n, 0.5, rng.randrange(10**6), nonabelian=True)]
        out.append((pool[idx % 3], g))
    return out


CASES = cases()


def test_some_cases_have_non_monomial_denominators():
    assert any(len(e.den) > 1 for _, g in CASES for row in g.entries for e in row)


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

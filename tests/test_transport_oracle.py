"""The fraction-free transport kernel against sympy as an independent oracle.

sympy (a test-only dependency) does the same computations over QQ(t) with
its own field arithmetic: determinant, inverse, and the transported tensor
g.c(g^-1 x, g^-1 y), whose t -> 0 limit is read off each reduced entry's
valuation and whose value at t0 is each reduced entry evaluated there.
"""

import importlib
import itertools
import random
from fractions import Fraction as F

import pytest
import sympy
from sympy import QQ, symbols
from sympy.polys.matrices import DomainMatrix

from levelone import (
    Algebra,
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
from levelone.families import scaling_family
from levelone.poly import FieldElement
from levelone.transport import _row_monomial

from conftest import fe

# ``levelone.transport`` is also the name of a function the package exports
transport_module = importlib.import_module("levelone.transport")

T = symbols("t")
K = QQ.frac_field(T)


def to_k(e: FieldElement):
    def poly(p):
        return sum((QQ(c.numerator, c.denominator) * K(T) ** k for k, c in p.items()), K.zero)

    return poly(e.num) / poly(e.den)


def to_dm(rows) -> DomainMatrix:
    """The matrix of a grid of FieldElement rows, such as ``g.entries``."""
    return DomainMatrix([[to_k(e) for e in row] for row in rows], (len(rows), len(rows)), K)


def order(p) -> int:
    return min(m[0] for m, _ in p.terms())


def coeff(p, k):
    return dict((m[0], c) for m, c in p.terms()).get(k, QQ(0))


def to_fraction(q) -> F:
    return F(int(q.numerator), int(q.denominator))


def oracle_tensor(a, g: ParamMatrix) -> dict:
    """{(k, i, j): nonzero entry in QQ(t)} of the transported tensor."""
    n = a.dim
    gk = to_dm(g.entries).to_list()
    gik = to_dm(g.entries).inv().to_list()
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
    return read_limit(oracle_tensor(a, g))


def read_limit(tensor: dict):
    """oracle_limit of the tensor {(k, i, j): nonzero entry in QQ(t)}."""
    table, poles = {}, []
    for (k, i, j), acc in sorted(tensor.items()):
        num, den = acc.numer, acc.denom
        val = order(num) - order(den)
        if val < 0:
            poles.append((k + 1, i + 1, j + 1))
        elif val == 0:
            table[(k, i, j)] = to_fraction(coeff(num, order(num)) / coeff(den, order(den)))
    return (None, poles) if poles else (table, None)


def oracle_at(a, g: ParamMatrix, t0: F, tensor=None):
    """Nonzero entries of the tensor at t0, each reduced entry evaluated
    there, or PoleAtPoint when some reduced entry has a pole at t0."""
    x = QQ(t0.numerator, t0.denominator)
    table = {}
    for kij, acc in (tensor or oracle_tensor(a, g)).items():
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
    assert any(len(e.den) > 1 for _, g in CASES for row in invert(g) for e in row)


@pytest.mark.parametrize("a,g", CASES)
def test_det_and_inverse_agree_with_sympy(a, g):
    dm = to_dm(g.entries)
    assert to_k(g.det()) == dm.det()
    assert to_dm(invert(g)) == dm.inv()


def sympy_inverse_is_laurent(g: ParamMatrix) -> bool:
    """Every reduced entry of g^-1 over QQ(t) has a power of t for its
    denominator."""
    return all(len(x.denom.terms()) == 1 for row in to_dm(g.entries).inv().to_list()
               for x in row)


@pytest.mark.parametrize("a,g", CASES)
def test_the_inverse_is_a_family_exactly_when_sympy_finds_it_laurent(a, g):
    """ParamMatrix(n, invert(g)) is the inverse family, read by every kernel
    as sympy reads g^-1, when g^-1 is Laurent, and is refused otherwise."""
    if not sympy_inverse_is_laurent(g):
        with pytest.raises(ValueError, match="^not a Laurent polynomial: "):
            ParamMatrix(g.dim, invert(g))
        return
    h = ParamMatrix(g.dim, invert(g))
    assert to_dm(h.entries) == to_dm(g.entries).inv()
    assert g @ h == ParamMatrix.identity(g.dim)
    tensor = oracle_tensor(a, h)
    assert ours_limit(a, h) == read_limit(tensor)
    for t0 in AT_POINTS:
        assert ours_at(lambda: transport_at(a, h, t0)) == oracle_at(a, h, t0, tensor)


def test_the_inverse_cases_reach_both_kinds():
    kinds = [sympy_inverse_is_laurent(g) for _, g in CASES]
    assert any(kinds) and not all(kinds)


@pytest.mark.parametrize("a,g", CASES)
def test_limit_or_poles_agree_with_sympy(a, g):
    assert ours_limit(a, g) == oracle_limit(a, g)


def test_the_cases_reach_both_outcomes():
    outcomes = [ours_limit(a, g)[0] is None for a, g in CASES]
    assert any(outcomes) and not all(outcomes)


AT_POINTS = (F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(-7, 5))


@pytest.mark.parametrize("a,g", CASES)
def test_transport_at_agrees_with_sympy(a, g):
    """g(t0) over Z where it is invertible, the reduced tensor elsewhere."""
    tensor = oracle_tensor(a, g)
    for t0 in AT_POINTS:
        assert ours_at(lambda: transport_at(a, g, t0)) == oracle_at(a, g, t0, tensor)


def double_root_cases():
    """(algebra, g, r) with (t - r)^2 dividing det g, r != 0: a random
    Laurent family times diag(1, ..., (t - r)^2), and the two pinned
    families diag(1, (t - 1)^2) (regular) and [[1, t], [0, (t - 1)^2]] (a
    pole) on pminus."""
    rng = random.Random(20261020)
    t, one, zero = (fe("t"), fe("1"), fe("0"))

    def diag(xs):
        return ParamMatrix(len(xs), tuple(tuple(x if i == j else zero for j in range(len(xs)))
                                          for i, x in enumerate(xs)))

    out = []
    for idx in range(16):
        n = 2 + idx % 2
        r = (F(1), F(-1), F(1, 2), F(-3, 2))[idx % 4]
        square = FieldElement({2: F(1), 1: -2 * r, 0: r * r})  # (t - r)^2
        g = random_family(n, idx % 3, rng.randrange(10**6)) @ diag([one] * (n - 1) + [square])
        pool = [construct(CanonicalForm(Tag.P_MINUS, n)),
                construct(CanonicalForm(Tag.LAMBDA2, n)),
                random_algebra(n, 0.5, rng.randrange(10**6), nonabelian=True)]
        out.append((pool[idx % 3], g, r))
    pminus = construct(CanonicalForm(Tag.P_MINUS, 2))
    sq = fe("t^2 - 2*t + 1")
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
    assert to_k(g.det()) == to_dm(g.entries).det()
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
    t, one = fe("t"), fe("1")
    g = ParamMatrix(2, ((t, one), (fe("t^2"), t)))
    assert not g.det()
    with pytest.raises(SingularFamily):
        transport_limit(construct(CanonicalForm(Tag.P_MINUS, 2)), g)


def scalar_action_algebra(n, A, B):
    """c^k_ij = A_i [k = j] + B_j [k = i]: x*y = A(x) y + B(y) x."""
    entries = {}
    for i, j in itertools.product(range(n), repeat=2):
        if A[i]:
            entries[(j, i, j)] = entries.get((j, i, j), 0) + A[i]
        if B[j]:
            entries[(i, i, j)] = entries.get((i, i, j), 0) + B[j]
    return Algebra.from_entries(n, {kij: v for kij, v in entries.items() if v})


SCALAR_KINDS = ("general", "B = -A", "B parallel to A", "A = 0", "B = 0", "abelian")


def scalar_action_cases():
    """(algebra, A, B, family) with the algebra x*y = A(x) y + B(y) x, A and
    B of each kind, at n = 2..6 and pole bound 0..3."""
    rng = random.Random(20261021)
    out = []
    for idx in range(36):
        n, pole_bound, kind = 2 + idx % 5, idx % 4, SCALAR_KINDS[idx % 6]
        A, B = ([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in "AB")
        A[0] = A[0] or F(1)
        B[-1] = B[-1] or F(-2)
        lam = F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        zero = [F(0)] * n
        A, B = {"general": (A, B), "B = -A": (A, [-x for x in A]),
                "B parallel to A": (A, [lam * x for x in A]), "A = 0": (zero, B),
                "B = 0": (A, zero), "abelian": (zero, zero)}[kind]
        g = random_family(n, pole_bound, rng.randrange(10**6))
        out.append((scalar_action_algebra(n, A, B), A, B, g))
    return out


SCALAR_ACTION_CASES = scalar_action_cases()


def oracle_scalar_limit(A, B, g: ParamMatrix):
    """oracle_limit for x*y = A(x) y + B(y) x: the transported product is
    x*y = A'(x) y + B'(y) x with A' = A.g^-1 and B' = B.g^-1 over QQ(t)."""
    n = g.dim
    gik = to_dm(g.entries).inv().to_list()
    A2, B2 = ([sum((QQ(v[r].numerator, v[r].denominator) * gik[r][i] for r in range(n)), K.zero)
               for i in range(n)] for v in (A, B))
    tensor = {}
    for k, i, j in itertools.product(range(n), repeat=3):
        acc = (A2[i] if k == j else K.zero) + (B2[j] if k == i else K.zero)
        if acc:
            tensor[(k, i, j)] = acc
    return read_limit(tensor)


@pytest.mark.parametrize("a,A,B,g", SCALAR_ACTION_CASES)
def test_scalar_action_limit_agrees_with_sympy(a, A, B, g, monkeypatch):
    calls = []
    branch = transport_module._scalar_action_limit
    monkeypatch.setattr(transport_module, "_scalar_action_limit",
                        lambda *args: calls.append(1) or branch(*args))
    want = oracle_scalar_limit(A, B, g)
    # the generic contraction over QQ(t) takes minutes at n = 6; where it is
    # quick it checks the transported forms against the whole tensor too
    if g.dim <= 3:
        assert oracle_limit(a, g) == want
    assert ours_limit(a, g) == want
    assert calls == ([] if _row_monomial(g) is not None else [1])


def test_the_scalar_action_cases_reach_the_branch_and_both_outcomes():
    outcomes = [ours_limit(a, g)[0] is None for a, _, _, g in SCALAR_ACTION_CASES
                if _row_monomial(g) is None]
    assert len(outcomes) >= 24 and any(outcomes) and not all(outcomes)

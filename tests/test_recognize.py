import importlib
import math
import random
from fractions import Fraction as F

import pytest

from levelone import (
    Algebra,
    CanonicalForm,
    NotNu,
    Tag,
    alpha_of,
    apply_basis_change,
    construct,
    derived_subspace,
    random_algebra,
    random_invertible_matrix,
    recognize,
)
from levelone import linalg
from levelone.algebra import _scalar_action, extend_basis
from levelone.linalg import char_poly, mat_identity, mat_inverse
from levelone.poly import poly_mul, poly_pow


def canon(tag, n, alpha=None):
    return construct(CanonicalForm(tag, n, alpha))


def moved(tag, n, alpha=None, seed=0):
    rng = random.Random(seed)
    return apply_basis_change(canon(tag, n, alpha), random_invertible_matrix(n, rng))


ALL_FORMS = [
    (Tag.ABELIAN, None),
    (Tag.P_MINUS, None),
    (Tag.P_PLUS, None),
    (Tag.N3_MINUS, None),
    (Tag.N3_PLUS, None),
    (Tag.LAMBDA2, None),
    (Tag.NU, F(0)),
    (Tag.NU, F(1)),
    (Tag.NU, F(1, 2)),
    (Tag.NU, F(2, 3)),
    (Tag.NU, F(-3)),
]


class TestExamples:
    def test_lambda2_after_change(self):
        a = moved(Tag.LAMBDA2, 4, seed=5)
        res = recognize(a)
        assert res.form == CanonicalForm(Tag.LAMBDA2, 4)

    def test_nu_two_dimensional_large_scalar(self):
        res = recognize(canon(Tag.NU, 2, F(5)))
        assert res.form == CanonicalForm(Tag.NU, 2, F(5))

    def test_pminus_identity_iso(self):
        res = recognize(canon(Tag.P_MINUS, 4))
        assert res.form == CanonicalForm(Tag.P_MINUS, 4)
        assert [list(r) for r in res.iso] == mat_identity(4)

    def test_n3minus_after_change(self):
        res = recognize(moved(Tag.N3_MINUS, 4, seed=3))
        assert res.form == CanonicalForm(Tag.N3_MINUS, 4)

    def test_not_canonical_generic_tensor(self):
        a = random_algebra(3, 0.7, seed=19, nonabelian=True)
        res = recognize(a)
        assert not res.recognized
        assert res.reason


class TestAlpha:
    def test_nu_zero(self):
        assert alpha_of(canon(Tag.NU, 3, F(0))) == 0

    def test_alpha_survives_basis_change_with_eigen_oracle(self):
        alpha = F(2, 3)
        a = moved(Tag.NU, 4, alpha, seed=11)
        assert alpha_of(a) == alpha
        # oracle: the idempotent's left action has char poly (x-1)(x-alpha)^3
        res = recognize(a)
        iso = [list(r) for r in res.iso]
        back = apply_basis_change(a, iso)
        e = tuple(F(1) if i == 0 else F(0) for i in range(4))
        left = back.left_mult_matrix(e)
        want = poly_mul({1: F(1), 0: F(-1)}, poly_pow({1: F(1), 0: -alpha}, 3))
        assert char_poly(left) == want

    def test_commutative_half_routes_to_nu(self):
        a = canon(Tag.NU, 2, F(1, 2))
        assert derived_subspace(a).dim == 2  # not 1: cannot be lambda2
        res = recognize(a)
        assert res.form == CanonicalForm(Tag.NU, 2, F(1, 2))

    def test_alpha_of_rejects_others(self):
        with pytest.raises(NotNu):
            alpha_of(canon(Tag.LAMBDA2, 3))


class TestRoundTrip:
    @pytest.mark.parametrize("tag,alpha", ALL_FORMS)
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_recognition_round_trip(self, tag, alpha, n):
        from levelone.errors import BadDimension

        try:
            form = CanonicalForm(tag, n, alpha)
        except BadDimension:
            return
        base = construct(form)
        for seed in range(6):
            rng = random.Random(seed)
            a = apply_basis_change(base, random_invertible_matrix(n, rng))
            res = recognize(a)
            assert res.form == form, res.reason
            if res.iso is not None:
                assert apply_basis_change(a, [list(r) for r in res.iso]) == base

    @pytest.mark.parametrize("tag,alpha", ALL_FORMS)
    def test_iso_soundness_at_dim_four(self, tag, alpha):
        from levelone.errors import BadDimension

        try:
            form = CanonicalForm(tag, 4, alpha)
        except BadDimension:
            return
        a = moved(tag, 4, alpha, seed=23)
        res = recognize(a)
        assert res.form == form
        if res.iso is not None:
            assert apply_basis_change(a, [list(r) for r in res.iso]) == construct(form)


class TestSeparation:
    def test_tags_are_pairwise_distinguished(self):
        n = 4
        outcomes = {}
        for tag, alpha in ALL_FORMS:
            outcomes[(tag, alpha)] = recognize(canon(tag, n, alpha)).form
        forms = list(outcomes.values())
        assert len(set(forms)) == len(forms)

    def test_nu_scalars_are_strict_invariants(self):
        a = recognize(canon(Tag.NU, 3, F(2, 3))).form
        b = recognize(canon(Tag.NU, 3, F(1, 3))).form  # the opposite algebra
        assert a != b

    def test_flag_cross_checks(self):
        for tag, alpha in ALL_FORMS:
            for n in (3, 4):
                a = moved(tag, n, alpha, seed=7)
                res = recognize(a)
                if res.form is None:
                    continue
                if res.form.tag in (Tag.P_MINUS, Tag.P_PLUS, Tag.NU):
                    assert not a.is_nilpotent()
                if res.form.tag in (Tag.N3_MINUS, Tag.N3_PLUS, Tag.LAMBDA2):
                    assert a.is_nilpotent()


class TestClosureLevelCases:
    def test_anisotropic_symmetric_form_has_no_rational_iso(self):
        # e1*e1 = e3, e2*e2 = e3: the form x^2 + y^2 never vanishes over Q
        a = Algebra.from_entries(3, {(2, 0, 0): F(1), (2, 1, 1): F(1)})
        res = recognize(a)
        assert res.form == CanonicalForm(Tag.N3_PLUS, 3)
        assert res.iso is None
        assert res.reason == (
            "recognized over the algebraic closure only: the rank-2 "
            "symmetric form has no rational isotropic vector"
        )

    def test_isotropic_symmetric_form_gets_an_iso(self):
        # e1*e1 = e3, e2*e2 = -e3: x^2 - y^2 vanishes at (1, 1)
        a = Algebra.from_entries(3, {(2, 0, 0): F(1), (2, 1, 1): F(-1)})
        res = recognize(a)
        assert res.form == CanonicalForm(Tag.N3_PLUS, 3)
        assert res.iso is not None
        assert apply_basis_change(a, [list(r) for r in res.iso]) == canon(Tag.N3_PLUS, 3)

    def test_scaled_square_still_gets_lambda2_iso(self):
        # e1*e1 = 2*e2: no square root needed, the image of e2 is free
        a = Algebra.from_entries(2, {(1, 0, 0): F(2)})
        res = recognize(a)
        assert res.form == CanonicalForm(Tag.LAMBDA2, 2)
        assert apply_basis_change(a, [list(r) for r in res.iso]) == canon(Tag.LAMBDA2, 2)

    def test_rank_four_skew_form_is_not_canonical(self):
        # e1*e2 = e5 = -e2*e1, e3*e4 = e5 = -e4*e3
        a = Algebra.from_entries(
            5,
            {
                (4, 0, 1): F(1),
                (4, 1, 0): F(-1),
                (4, 2, 3): F(1),
                (4, 3, 2): F(-1),
            },
        )
        res = recognize(a)
        assert not res.recognized
        assert res.reason == "skew product form has rank 4, need 2"


# Every reason recognize can give for a non-canonical input, each on an input
# of its own (0-based (k, i, j) keys: e_i * e_j has e_k-coefficient c).  The
# one left out, "no vector with a nonzero square in the sweep", cannot be
# reached (see the comment in _try_nu).
REASONS = [
    (  # e1e1 = e1, e1e2 = e2e1 = e2/2, e1e3 = e3/3, e3e1 = 2e3/3
        3,
        {(0, 0, 0): F(1), (1, 0, 1): F(1, 2), (2, 0, 2): F(1, 3),
         (1, 1, 0): F(1, 2), (2, 2, 0): F(2, 3)},
        "left multiplication by the idempotent has the wrong spectrum",
    ),
    (  # e1e1 = e1, e1e2 = e2/2, e1e3 = e3/2
        3,
        {(0, 0, 0): F(1), (1, 0, 1): F(1, 2), (2, 0, 2): F(1, 2)},
        "joint eigenspace of the idempotent actions has dimension 0, need 2",
    ),
    (  # nu(2/3) plus e2e3 = e1
        3,
        {**canon(Tag.NU, 3, F(2, 3)).entries(), (0, 1, 2): F(1)},
        "normalized table does not match nu(2/3) dim 3",
    ),
    (  # e1e1 = e2, e1e2 = e1: not commutative, and x*x leaves the line of x
        2,
        {(1, 0, 0): F(1), (0, 0, 1): F(1)},
        "found x with x*x outside the line of x",
    ),
    (  # e1e1 = e2, e1e2 = e2e1 = e3, e2e2 = e2
        3,
        {(1, 0, 0): F(1), (2, 0, 1): F(1), (2, 1, 0): F(1), (1, 1, 1): F(1)},
        "A^2 * A^2 != 0",
    ),
    (  # e1e1 = e2e2 = e3e3 = e4
        4,
        {(3, 0, 0): F(1), (3, 1, 1): F(1), (3, 2, 2): F(1)},
        "symmetric product form has rank 3 in dimension 4",
    ),
    (  # so(3): e1e2 = e3, e2e3 = e1, e3e1 = e2
        3,
        {(2, 0, 1): F(1), (2, 1, 0): F(-1), (0, 1, 2): F(1), (0, 2, 1): F(-1),
         (1, 2, 0): F(1), (1, 0, 2): F(-1)},
        "anticommutative with dim A^2 = 3: matches no canonical form",
    ),
    (  # e1e2 = e3, e1e3 = -e2 (skew): e1 rotates A^2
        3,
        {(2, 0, 1): F(1), (2, 1, 0): F(-1), (1, 0, 2): F(-1), (1, 2, 0): F(1)},
        "left multiplication by a complement vector is not a nonzero scalar on A^2",
    ),
    (  # e1e2 = e2, e1e3 = 2e3 (skew)
        3,
        {(1, 0, 1): F(1), (1, 1, 0): F(-1), (2, 0, 2): F(2), (2, 2, 0): F(-2)},
        "left multiplication by a complement vector is not scalar on A^2",
    ),
]


@pytest.mark.parametrize("n,entries,reason", REASONS, ids=[r[2][:40] for r in REASONS])
def test_each_reason_is_pinned(n, entries, reason):
    res = recognize(Algebra.from_entries(n, entries))
    assert res.form is None and res.iso is None
    assert res.reason == reason


@pytest.mark.parametrize("alpha", [F(0), F(1), F(1, 2), F(2, 3), F(-3)])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_nu_match_implies_its_spectrum(n, alpha):
    """A nu match is returned without a spectrum check; this is the fact that
    makes that safe: the idempotent the iso picks has char (x - 1)(x - alpha)^(n-1)."""
    want = poly_mul({1: F(1), 0: F(-1)}, poly_pow({1: F(1), 0: -alpha}, n - 1))
    for seed in range(4):
        a = moved(Tag.NU, n, alpha, seed=seed)
        res = recognize(a)
        assert res.form == CanonicalForm(Tag.NU, n, alpha)
        e = tuple(row[0] for row in mat_inverse([list(r) for r in res.iso]))
        assert a.product(e, e) == e
        assert char_poly(a.left_mult_matrix(e)) == want


def test_a_match_reads_only_its_branch(monkeypatch):
    """A nu match computes no spectrum, and input that is neither commutative
    nor anticommutative builds no A^2."""
    module = importlib.import_module("levelone.recognize")

    def unread(*args):
        raise AssertionError("computed on a branch that does not read it")

    monkeypatch.setattr(linalg, "char_poly", unread)
    for alpha in (F(0), F(1), F(1, 2), F(2, 3), F(-3)):
        assert recognize(moved(Tag.NU, 4, alpha, seed=2)).form.alpha == alpha
    monkeypatch.setattr(module, "derived_subspace", unread)
    for alpha in (F(0), F(2, 3), F(-3)):
        assert recognize(moved(Tag.NU, 3, alpha, seed=4)).form.alpha == alpha
    res = recognize(Algebra.from_entries(2, {(1, 0, 0): F(1), (0, 0, 1): F(1)}))
    assert res.reason == "found x with x*x outside the line of x"


@pytest.mark.parametrize("n", range(2, 9))
def test_nu_is_read_off_the_tensor(monkeypatch, n):
    """A moved nu(alpha) is recognized, with the iso of the full check, by
    the scalar-action identity alone: no product, multiplication matrix,
    contraction or characteristic polynomial."""
    algebra_mod = importlib.import_module("levelone.algebra")
    inputs = [moved(Tag.NU, n, alpha, seed=seed)
              for alpha in (F(0), F(1), F(1, 2), F(2, 3), F(-3)) for seed in range(2)]
    want = [recognize(a) for a in inputs]

    def unread(*args):
        raise AssertionError("the nu identity needs no products")

    monkeypatch.setattr(Algebra, "product", unread)
    monkeypatch.setattr(Algebra, "left_mult_matrix", unread)
    monkeypatch.setattr(algebra_mod, "_contract", unread)
    monkeypatch.setattr(linalg, "char_poly", unread)
    for a, res in zip(inputs, want):
        got = recognize(a)
        assert got == res and got.form.tag is Tag.NU
    monkeypatch.undo()
    for a, res in zip(inputs, want):
        assert apply_basis_change(a, [list(row) for row in res.iso]) == construct(res.form)


def test_the_nu_identity_accepts_no_skew_tensor():
    """x*y = a(x) y - a(y) x has the scalar-action form with a + b = 0;
    it is pminus, not nu, and the nu search says so."""
    module = importlib.import_module("levelone.recognize")
    for n in (2, 3, 5):
        res = module._try_nu(moved(Tag.P_MINUS, n, seed=n))
        assert res.form is None
        assert res.reason == "no vector with a nonzero square in the sweep"


def test_independent_scalar_actions_are_not_nu():
    """x*y = a(x) y + b(y) x with a and b independent is not nu(alpha) for
    any alpha: the identity holds, the nu test fails, and the sweep names it."""
    # e1*e1 = e1, e1*e2 = e2 (a = e1*), e2*e2 = e2, e1*e2 gains e1 (b = e2*)
    a = Algebra.from_entries(2, {(0, 0, 0): F(1), (1, 0, 1): F(1), (0, 0, 1): F(1),
                                 (1, 1, 1): F(1)})
    assert _scalar_action(a) is not None
    res = recognize(a)
    assert res.form is None
    assert res.reason == "joint eigenspace of the idempotent actions has dimension 0, need 1"


# -- the integer reads: pminus, pplus and the rank-one forms ------------------


READS = {  # each read and the tags it names
    "_read_pminus": {Tag.P_MINUS},
    "_read_pplus": {Tag.P_PLUS},
    "_read_rank_one": {Tag.LAMBDA2, Tag.N3_MINUS, Tag.N3_PLUS},
}


def canonical_forms(ns):
    from levelone.errors import BadDimension

    for n in ns:
        for tag, alpha in ALL_FORMS:
            try:
                yield CanonicalForm(tag, n, alpha)
            except BadDimension:
                pass


@pytest.mark.parametrize("n", range(2, 9))
def test_a_match_contracts_nothing(monkeypatch, n):
    """Every canonical form, moved, is recognized with its iso by its read
    alone: no contraction, rebase, A^2, product zero test or comparison
    against the canonical table, and no elimination after the read (at most
    one echelon, that of the rank-one forms' B).  Then, independently of how
    recognize found it, the iso carries the input onto the canonical table."""
    algebra_mod = importlib.import_module("levelone.algebra")
    canonical_mod = importlib.import_module("levelone.canonical")
    module = importlib.import_module("levelone.recognize")
    inputs = [(form, moved(form.tag, n, form.alpha, seed=seed))
              for form in canonical_forms([n]) for seed in range(3)]

    def unread(*args):
        raise AssertionError("a match needs no contraction, A^2 or second elimination")

    for owner, name in ((algebra_mod, "_contract"), (algebra_mod, "rebase"),
                        (module, "rebase"), (algebra_mod, "derived_subspace"),
                        (module, "derived_subspace"), (module, "products_vanish"),
                        (canonical_mod, "construct"), (algebra_mod, "_frame"),
                        (linalg, "nullspace"), (linalg, "_kernel"), (linalg, "_inverse")):
        monkeypatch.setattr(owner, name, unread)
    echelon, echelons = linalg._echelon, []
    monkeypatch.setattr(linalg, "_echelon", lambda *args: echelons.append(1) or echelon(*args))
    got = []
    for _, a in inputs:
        echelons.clear()
        got.append(recognize(a))
        assert len(echelons) <= 1, got[-1].form
    monkeypatch.undo()
    for (form, a), res in zip(inputs, got):
        assert res.form == form, res.reason
        assert apply_basis_change(a, [list(row) for row in res.iso]) == construct(form)


@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("n", range(2, 7))
def test_each_read_names_only_its_own_tags(read, n):
    fn = getattr(importlib.import_module("levelone.recognize"), read)
    for form in canonical_forms([n]):
        for seed in range(2):
            res = fn(moved(form.tag, n, form.alpha, seed=seed))
            if form.tag in READS[read]:
                assert res.form == form
            else:
                assert res is None, (form, res)


# the reasons recognize gives, as patterns
REASON_PATTERNS = [
    r"left multiplication by the idempotent has the wrong spectrum",
    r"joint eigenspace of the idempotent actions has dimension \d+, need \d+",
    r"normalized table does not match nu\(-?\d+(/\d+)?\) dim \d+",
    r"found x with x\*x outside the line of x",
    r"A\^2 \* A\^2 != 0",
    r"symmetric product form has rank \d+ in dimension \d+",
    r"skew product form has rank \d+, need 2",
    r"anticommutative with dim A\^2 = \d+: matches no canonical form",
    r"left multiplication by a complement vector is not a nonzero scalar on A\^2",
    r"left multiplication by a complement vector is not scalar on A\^2",
]


def single_entry_perturbations(a, rng, count):
    """a with one entry c^k_ij moved by 1/7 (and c^k_ji by +-1/7, keeping a
    commutative or anticommutative tensor so)."""
    n = a.dim
    sign = 1 if a.is_commutative() else -1 if a.is_anticommutative() else 0
    for _ in range(count):
        k, i, j = (rng.randrange(n) for _ in range(3))
        if sign == -1 and i == j:
            continue
        entries = a.entries()
        entries[(k, i, j)] = entries.get((k, i, j), F(0)) + F(1, 7)
        if sign and i != j:
            entries[(k, j, i)] = entries.get((k, j, i), F(0)) + sign * F(1, 7)
        yield Algebra.from_entries(n, entries)


@pytest.mark.parametrize("read", sorted(READS))
def test_each_read_rejects_a_perturbation_of_its_forms(read):
    """A perturbed form with other invariants than the form is not the form:
    the read does not name it, and recognize gives one of its reasons, or
    another tag with an iso that carries the input onto that tag's table."""
    import re

    from levelone import invariant_vector

    fn = getattr(importlib.import_module("levelone.recognize"), read)
    checked = 0
    for n in range(2, 7):
        for form in canonical_forms([n]):
            if form.tag not in READS[read]:
                continue
            want = invariant_vector(construct(form))
            for seed in range(2):
                a = moved(form.tag, n, seed=seed)
                rng = random.Random(f"{read}:{form.describe()}:{seed}")
                for b in single_entry_perturbations(a, rng, 8):
                    if invariant_vector(b) == want:
                        continue  # possibly still the form
                    got = fn(b)
                    assert got is None or got.form is None or got.form.tag is not form.tag
                    res = recognize(b)
                    if res.form is None:
                        assert any(re.fullmatch(p, res.reason) for p in REASON_PATTERNS), \
                            res.reason
                    else:
                        assert res.form != form
                        if res.iso is not None:
                            iso = [list(row) for row in res.iso]
                            assert apply_basis_change(b, iso) == construct(res.form)
                    checked += 1
    assert checked >= 40


@pytest.mark.parametrize("tag", [Tag.P_MINUS, Tag.P_PLUS])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_scalar_line_iso_is_the_normalization_frame(tag, n):
    """The pminus / pplus iso is the inverse of the frame of the full
    normalization: x / c for the first basis vector x outside A^2, with
    x*v = c v on A^2 (for pplus x less x*x / 2c first), then the rref basis
    of A^2."""
    for seed in range(3):
        a = moved(tag, n, seed=seed)
        square = derived_subspace(a)
        x = next(e for e in (tuple(F(int(i == j)) for j in range(n)) for i in range(n))
                 if not square.contains(e))
        v0 = square.basis[0]
        p = next(i for i, v in enumerate(v0) if v)
        c = a.product(x, v0)[p] / v0[p]
        if tag is Tag.P_PLUS:
            s = a.product(x, x)
            x = tuple(xi - si / (2 * c) for xi, si in zip(x, s))
        frame = [tuple(xi / c for xi in x), *square.basis]
        want = mat_inverse([[v[i] for v in frame] for i in range(n)])
        assert [list(row) for row in recognize(a).iso] == want


def _old_hyperbolic_pair(b: list) -> list:
    """The hyperbolic pair of a rank-2 symmetric form as the frame seeds
    were built over Q: from the first nonzero principal 2x2 minor."""
    n = len(b)
    i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                if b[i][i] * b[j][j] - b[i][j] ** 2)
    unit = [tuple(F(int(k == m)) for m in range(n)) for k in range(n)]

    def value(x, y):
        return sum(x[k] * b[k][m] * y[m] for k in range(n) for m in range(n))

    def comb(c, x, d, y):
        return tuple(c * xk + d * yk for xk, yk in zip(x, y))

    p, q, r = b[i][i], b[i][j], b[j][j]
    if p == 0 or r == 0:
        w = unit[i] if p == 0 else unit[j]
    else:
        d = q * q - p * r
        root = F(math.isqrt(d.numerator), math.isqrt(d.denominator))
        assert root * root == d
        w = comb((-q + root) / p, unit[i], 1, unit[j])
    partner = unit[i] if value(w, unit[i]) else unit[j]
    v1 = comb(1 / value(w, partner), partner, 0, w)
    return [w, comb(1, v1, -value(v1, v1) / 2, w)]


def _old_frame(a) -> tuple:
    """(seeds, pool) of the nu or rank-one frame, built over Q the way the
    recognizer built it before its iso was written down in ints."""
    n = a.dim
    c = a.constants
    action = _scalar_action(a)
    if action is not None and any(x + y for x, y in zip(action[0], action[1])):
        A, B, D = action
        s = [x + y for x, y in zip(A, B)]
        p = next(i for i, x in enumerate(s) if x)
        e = tuple(F(D, s[p]) if k == p else F(0) for k in range(n))
        return [e], linalg.nullspace([s])
    # x*y = b(x, y) z' with z' = z / z_p: b is the slice of c at p
    col = next([c[k][i][j] for k in range(n)] for i in range(n) for j in range(n)
               if any(c[k][i][j] for k in range(n)))
    p = next(k for k, x in enumerate(col) if x)
    z = tuple(x / col[p] for x in col)
    b = [list(row) for row in c[p]]
    unit = [tuple(F(int(k == m)) for m in range(n)) for k in range(n)]
    if all(b[i][j] == -b[j][i] for i in range(n) for j in range(n)):
        i, j = next((i, j) for i in range(n) for j in range(n) if b[i][j])
        seeds = [unit[i], tuple(x / b[i][j] for x in unit[j]), z]
    elif linalg.rank(b) == 1:
        i = next(i for i in range(n) if b[i][i])
        seeds = [unit[i], tuple(b[i][i] * x for x in z)]
    else:
        seeds = [*_old_hyperbolic_pair(b), z]
    return seeds, linalg.nullspace(b)


@pytest.mark.parametrize("form", [
    form for form in canonical_forms(range(2, 9))
    if form.tag in (Tag.LAMBDA2, Tag.N3_MINUS, Tag.N3_PLUS, Tag.NU)],
    ids=lambda form: form.describe().replace(" ", "_"))
def test_frame_iso_is_the_inverse_of_the_old_frame(form):
    """The nu and rank-one isos, written down in ints, equal the inverse of
    the frame that ``extend_basis`` completes from the same seeds and pool."""
    n = form.dim
    for seed in range(3):
        a = moved(form.tag, n, form.alpha, seed=seed)
        seeds, pool = _old_frame(a)
        frame = extend_basis(n, seeds, pool)
        want = mat_inverse([[v[i] for v in frame] for i in range(n)])
        assert [list(row) for row in recognize(a).iso] == want


@pytest.mark.parametrize("n", range(3, 9))
def test_diagonal_n3plus_iso_is_the_inverse_of_the_old_frame(n):
    """n3plus given as c x^2 - c k^2 y^2, moved, so that the hyperbolic
    pair's minor has both diagonal entries nonzero and its root is taken,
    with either sign of the product form's scale."""
    for c, k in ((F(1), F(1)), (F(-2, 3), F(3, 2)), (F(5), F(2, 7))):
        table = Algebra.from_entries(n, {(n - 1, 0, 0): c, (n - 1, 1, 1): -c * k * k})
        for seed in range(4):
            a = apply_basis_change(table, random_invertible_matrix(n, random.Random(seed)))
            seeds, pool = _old_frame(a)
            frame = extend_basis(n, seeds, pool)
            want = mat_inverse([[v[i] for v in frame] for i in range(n)])
            res = recognize(a)
            assert res.form == CanonicalForm(Tag.N3_PLUS, n)
            assert [list(row) for row in res.iso] == want


def test_the_rank_one_read_needs_a_symmetric_or_skew_form():
    """e1*e2 = e3 alone has dim A^2 = 1 and B z = 0, but B is neither
    symmetric nor skew: no rank-one tag."""
    module = importlib.import_module("levelone.recognize")
    a = Algebra.from_entries(3, {(2, 0, 1): F(1)})
    assert module._read_rank_one(a) is None
    assert recognize(a).reason == "found x with x*x outside the line of x"

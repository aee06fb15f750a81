import importlib
import random
import sys
from fractions import Fraction as F
from operator import mul
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from levelone import (
    AbelianInput,
    Algebra,
    CanonicalForm,
    ClassifierConfig,
    Tag,
    apply_basis_change,
    classify,
    construct,
    deterministic_candidates,
    random_algebra,
    random_invertible_matrix,
    span_witness_search,
    unit_vector,
    verify_degeneration,
)
from levelone.algebra import (
    _frame,
    _pair_products,
    _scalar_action,
    extend_basis,
    proportionality,
    vec_add,
    vec_is_zero,
    vec_scale,
)
from levelone.errors import SearchExhausted
from levelone.jsonio import witness_to_dict
from levelone.linalg import _fractions, rank

classify_mod = importlib.import_module("levelone.classify")


def canon(tag, n, alpha=None):
    return construct(CanonicalForm(tag, n, alpha))


def classify_and_check(a, seed=0):
    w = classify(a, ClassifierConfig(seed=seed))
    report = verify_degeneration(a, w)
    assert report.passed, report.diagnostics
    return w


class TestSearch:
    def test_n3minus_pair_found_on_basis(self):
        a = canon(Tag.N3_MINUS, 3)
        got = span_witness_search(a, "pair")
        assert got == (unit_vector(3, 0), unit_vector(3, 1))

    def test_pplus_square_found_on_pairwise_sum(self):
        a = canon(Tag.P_PLUS, 3)
        x = span_witness_search(a, "square")
        assert x == (F(1), F(1), F(0))
        sq = a.product(x, x)
        assert sq == (F(0), F(2), F(0))  # 2*e2, off the line of e1 + e2
        assert rank([list(x), list(sq)]) == 2

    def test_nu_has_no_witnesses(self):
        a = canon(Tag.NU, 3, F(2, 3))
        assert span_witness_search(a, "square") is None
        assert span_witness_search(a, "pair") is None

    def test_every_returned_pair_is_rank_three(self):
        for seed in range(8):
            a = random_algebra(4, 0.4, seed=seed, nonabelian=True)
            got = span_witness_search(a, "pair")
            if got is not None:
                x, y = got
                assert rank([list(x), list(y), list(a.product(x, y))]) == 3


class TestFixedPoints:
    @pytest.mark.parametrize(
        "tag,alpha",
        [
            (Tag.P_MINUS, None),
            (Tag.N3_MINUS, None),
            (Tag.LAMBDA2, None),
            (Tag.NU, F(3, 7)),
        ],
    )
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_canonical_inputs_classify_to_themselves(self, tag, alpha, n):
        w = classify_and_check(canon(tag, n, alpha))
        assert w.target == CanonicalForm(tag, n, alpha)

    def test_nu_scalar_is_recovered(self):
        w = classify_and_check(canon(Tag.NU, 4, F(3, 7)))
        assert w.target.alpha == F(3, 7)


class TestBranches:
    def test_pplus_lands_on_lambda2(self):
        w = classify_and_check(canon(Tag.P_PLUS, 4))
        assert w.target.tag is Tag.LAMBDA2

    def test_n3plus_lands_on_lambda2(self):
        # its square witness sits on e1 + e2
        w = classify_and_check(canon(Tag.N3_PLUS, 5))
        assert w.target.tag is Tag.LAMBDA2

    def test_abelian_is_rejected(self):
        with pytest.raises(AbelianInput):
            classify(canon(Tag.ABELIAN, 3))

    def test_dimension_one_idempotent_core(self):
        a = Algebra.from_entries(1, {(0, 0, 0): F(5)})
        w = classify_and_check(a)
        assert w.target == CanonicalForm(Tag.NU, 1, None)

    def test_anticommutative_never_lands_on_lambda2_or_nu(self):
        for seed in range(12):
            raw = random_algebra(3, 0.5, seed=seed, nonabelian=True)
            c = raw.constants
            n = raw.dim
            skew = Algebra(n, tuple(
                tuple(tuple((c[k][i][j] - c[k][j][i]) / 2 for j in range(n))
                      for i in range(n)) for k in range(n)))
            if skew.is_abelian():
                continue
            w = classify_and_check(skew, seed=seed)
            assert w.target.tag in (Tag.P_MINUS, Tag.N3_MINUS)

    def test_nonzero_square_never_lands_on_pminus(self):
        for seed in range(12):
            a = random_algebra(3, 0.5, seed=100 + seed, nonabelian=True)
            if a.is_anticommutative():
                continue
            w = classify_and_check(a, seed=seed)
            assert w.target.tag is not Tag.P_MINUS


class TestTwoDimensional:
    def test_only_three_targets_appear(self):
        for seed in range(60):
            a = random_algebra(2, 0.5, seed=seed, nonabelian=True)
            w = classify_and_check(a, seed=seed)
            assert w.target.tag in (Tag.P_MINUS, Tag.LAMBDA2, Tag.NU)

    def test_all_three_targets_are_reachable(self):
        import random as _random

        from levelone import apply_basis_change, random_invertible_matrix

        rng = _random.Random(0)
        inputs = [
            canon(Tag.P_MINUS, 2),
            canon(Tag.LAMBDA2, 2),
            canon(Tag.NU, 2, F(5)),
        ]
        seen = set()
        for a in inputs:
            moved = apply_basis_change(a, random_invertible_matrix(2, rng))
            seen.add(classify_and_check(moved).target.tag)
        assert seen == {Tag.P_MINUS, Tag.LAMBDA2, Tag.NU}


class TestDeterminism:
    def test_identical_seed_gives_identical_witness(self):
        a = random_algebra(4, 0.4, seed=42, nonabelian=True)
        w1 = classify(a, ClassifierConfig(seed=3))
        w2 = classify(a, ClassifierConfig(seed=3))
        assert witness_to_dict(w1) == witness_to_dict(w2)


class TestSoundnessSample:
    """A quick slice of the full sweep that the acceptance suite runs."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_nonabelian_algebras(self, n):
        for seed in range(10):
            a = random_algebra(n, 0.4, seed=10 * n + seed, nonabelian=True)
            w = classify_and_check(a, seed=seed)
            if n >= 3:
                assert w.target.tag in (
                    Tag.P_MINUS,
                    Tag.N3_MINUS,
                    Tag.LAMBDA2,
                    Tag.NU,
                )

    def test_sparse_algebras_exercise_special_branches(self):
        # low density surfaces the structured cases (nu, pminus) more often
        traces = set()
        for seed in range(25):
            a = random_algebra(3, 0.12, seed=seed, nonabelian=True)
            w = classify_and_check(a, seed=seed)
            traces.add(w.branch_trace[0])
        assert len(traces) >= 2


def count_calls(monkeypatch, names):
    """Wrap the levelone functions named by (module, name) wherever a
    levelone module binds them; the returned list gets (name, args, kwargs)
    for every call."""
    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append((name, args, kwargs))
            return f(*args, **kwargs)
        return wrapper

    originals = {name: getattr(importlib.import_module(module), name) for module, name in names}
    for modname, module in list(sys.modules.items()):
        if modname.startswith("levelone"):
            for name, f in originals.items():
                if getattr(module, name, None) is f:
                    monkeypatch.setattr(module, name, counted(name, f))
    return calls


FRAME_AND_ECHELON = [("levelone.algebra", "_frame"), ("levelone.algebra", "extend_basis"),
                     ("levelone.linalg", "_echelon")]


def only_the_verifiers_elimination(calls, n):
    """No frame was built, and the one elimination had the verifier's n rows."""
    assert not [c for c in calls if c[0] in ("_frame", "extend_basis")]
    assert [len(args[0]) for name, args, _ in calls if name == "_echelon"] == [n]


def non_skew_n3minus(n, rng):
    """n3minus plus the symmetric part x*y + y*x = l(x) y + l(y) x, moved: its
    squares stay on their lines, and e1*e2 leaves its plane."""
    lam = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
    entries = {(2, 0, 1): F(1), (2, 1, 0): F(-1)}
    for i in range(n):
        for j in range(n):
            entries[(j, i, j)] = entries.get((j, i, j), 0) + lam[i] / 2
            entries[(i, i, j)] = entries.get((i, i, j), 0) + lam[j] / 2
    a = Algebra.from_entries(n, {key: v for key, v in entries.items() if v})
    return apply_basis_change(a, random_invertible_matrix(n, rng, bound=2))


class TestEliminationCount:
    """A square or pair witness is written down from the adjugate of its
    seeds' block: the one integer elimination of the op is the verifier's,
    which inverts the family's rational part itself."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_a_lambda2_witness_costs_one_elimination(self, monkeypatch, n):
        calls = count_calls(monkeypatch, FRAME_AND_ECHELON)
        squares = 0
        for seed in range(6):
            a = random_algebra(n, (0.15, 0.4, 0.8)[seed % 3], seed=seed, nonabelian=True)
            calls.clear()
            w = classify(a, ClassifierConfig(seed=seed))
            if w.branch_trace[0].startswith("SquareWitnessFound"):
                assert w.target.tag is Tag.LAMBDA2
                only_the_verifiers_elimination(calls, n)
                squares += 1
        assert squares

    @pytest.mark.parametrize("skew", [True, False], ids=["Antisymmetric", "SquareInSpan"])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_an_n3minus_witness_costs_one_elimination(self, monkeypatch, n, skew):
        rng = random.Random(f"n3minus:{n}")
        if skew:
            a = apply_basis_change(canon(Tag.N3_MINUS, n),
                                   random_invertible_matrix(n, rng, bound=2))
        else:
            a = non_skew_n3minus(n, rng)
        calls = count_calls(monkeypatch, FRAME_AND_ECHELON)
        w = classify(a)
        assert w.target.tag is Tag.N3_MINUS
        assert w.branch_trace[0] == ("Antisymmetric" if skew else "SquareInSpan")
        only_the_verifiers_elimination(calls, n)


class TestFrameInverse:
    """``_frame_inverse`` writes down, from a k x k adjugate, the inverse
    that ``algebra._frame`` reads off an echelon for the same seeds."""

    @staticmethod
    def coordinates(data, n, near):
        """An integer vector, mostly zeros, optionally plus multiples of the
        ``near`` vectors, so that rows of the seed matrix vanish or depend on
        the rows below them."""
        v = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=n, max_size=n))
        for u in near:
            c = data.draw(st.integers(-2, 2))
            v = [x + c * y for x, y in zip(v, u)]
        return v

    @staticmethod
    def check(n, seeds, dens):
        rational = [[F(x, d) for x in seed] for seed, d in zip(seeds, dens)]
        assume(rank(rational) == len(seeds))
        got = classify_mod._frame_inverse(seeds, dens)
        assert got[0] > 0
        assert _fractions(got) == _fractions(_frame(n, rational)[1])

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=300)
    def test_a_square_seed_pair(self, n, data):
        x = data.draw(st.sampled_from(list(classify_mod._square_grid(n))))
        near = data.draw(st.sampled_from([[], [x]]))
        self.check(n, [x, self.coordinates(data, n, near)], [1, data.draw(st.integers(1, 12))])

    @given(st.integers(3, 8), st.data())
    @settings(max_examples=300)
    def test_a_pair_seed_triple(self, n, data):
        grid = classify_mod._pair_grid(n)
        x, y = data.draw(st.lists(st.sampled_from(grid), min_size=2, max_size=2, unique=True))
        near = data.draw(st.sampled_from([[], [x], [x, y]]))
        self.check(n, [x, y, self.coordinates(data, n, near)],
                   [1, 1, data.draw(st.integers(1, 12))])

    @given(st.integers(3, 8), st.data())
    @settings(max_examples=100)
    def test_the_witness_triples_of_random_algebras(self, n, data):
        a = random_algebra(n, data.draw(st.sampled_from([0.1, 0.3, 0.6])),
                           data.draw(st.integers(0, 2**31)))
        grid = classify_mod._pair_grid(n)
        x, y = data.draw(st.lists(st.sampled_from(grid), min_size=2, max_size=2, unique=True))
        prod = next(_pair_products(a, [x], [y]))
        self.check(n, [x, y, prod], [1, 1, a.integer_slices()[0]])


class TestScalarActionBranches:
    """pminus and nu witnesses are written down from the one scalar-action
    read that decides their branch: no frame and no elimination runs before
    the verifier's, and no symmetrised read."""

    @pytest.mark.parametrize("form", [
        CanonicalForm(Tag.NU, 1), CanonicalForm(Tag.P_MINUS, 2), CanonicalForm(Tag.NU, 2, F(2, 3)),
        CanonicalForm(Tag.P_MINUS, 3), CanonicalForm(Tag.NU, 3, F(0)),
        CanonicalForm(Tag.NU, 5, F(1)), CanonicalForm(Tag.P_MINUS, 8),
        CanonicalForm(Tag.NU, 8, F(-3))], ids=CanonicalForm.describe)
    def test_one_read_and_only_the_verifiers_elimination(self, monkeypatch, form):
        n = form.dim
        a = apply_basis_change(construct(form),
                               random_invertible_matrix(n, random.Random(n), bound=2))
        want = witness_to_dict(classify(a))
        calls = count_calls(monkeypatch,
                            FRAME_AND_ECHELON + [("levelone.algebra", "_scalar_action")])
        assert witness_to_dict(classify(a)) == want
        only_the_verifiers_elimination(calls, n)
        assert [kw.get("symmetrised", False)
                for name, _, kw in calls if name == "_scalar_action"] == [False]

    @given(st.integers(1, 8), st.sampled_from(["skew", "parallel", "a zero", "general"]),
           st.data())
    @settings(max_examples=120)
    def test_the_witness_is_the_frame_construction_it_replaced(self, n, kind, data):
        def forms():
            return data.draw(st.lists(st.fractions(-4, 4, max_denominator=3), min_size=n,
                                      max_size=n))

        A = forms()
        if kind == "skew":
            B = [-x for x in A]
        elif kind == "parallel":
            lam = data.draw(st.fractions(-3, 3, max_denominator=3))
            B = [lam * x for x in A]
        elif kind == "a zero":
            A, B = [F(0)] * n, A
        else:
            B = forms()
        table = {}
        for i in range(n):
            for j in range(n):
                table[(j, i, j)] = table.get((j, i, j), 0) + A[i]
                table[(i, i, j)] = table.get((i, i, j), 0) + B[j]
        a = Algebra.from_entries(n, {key: v for key, v in table.items() if v})
        assume(not a.is_abelian())
        seed = data.draw(st.integers(0, 2**32))
        a = apply_basis_change(a, random_invertible_matrix(n, random.Random(seed), bound=2))
        w = classify(a)
        assert w.target.tag in (Tag.P_MINUS, Tag.NU)
        old = frame_construction(a, w.target.tag)
        assert (w.family, w.target) == (old.family, old.target)


def frame_construction(a, tag):
    """The pminus or nu witness as it was built before it was read off the
    identity: Fraction frames completed by ``_frame`` and ``extend_basis``,
    each inverted by an elimination."""
    n = a.dim
    if tag is Tag.P_MINUS:
        i, j = min((i, j) for _, i, j in a.entries())
        p = a.basis_product(i, j)
        first, second, q = (i, j, p) if p[j] else (j, i, a.basis_product(j, i))
        b1 = vec_scale(unit_vector(n, first), 1 / q[second])
        b2 = vec_add(unit_vector(n, second), vec_scale(b1, q[first]))
        basis, _ = _frame(n, [b1, b2])
        A, _, D = _scalar_action(a)
        absorbed = basis[:2] + [vec_add(f, vec_scale(basis[0], -sum(map(mul, A, f)) / D))
                                for f in basis[2:]]
        _, inv = _frame(n, absorbed)
        return classify_mod._assemble(inv, [0] + [1] * (n - 1), tag, [])
    x, s = next((x, s) for x in deterministic_candidates(n)
                if not vec_is_zero(s := a.product(x, x)))
    b1 = vec_scale(x, 1 / proportionality(s, x))
    idem, null = [], []
    for w in extend_basis(n, [b1])[1:]:
        s = a.product(w, w)
        if vec_is_zero(s):
            null.append(w)
        else:
            idem.append(vec_scale(w, 1 / proportionality(s, w)))
    _, inv = _frame(n, [b1] + [vec_add(w, vec_scale(b1, -1)) for w in idem] + null)
    alpha = None
    if n >= 2:
        A, _, D = _scalar_action(a)
        alpha = sum(map(mul, A, b1)) / D
    return classify_mod._assemble(inv, [0] + [1] * (n - 1), tag, [], alpha)


class TestWitnessPath:
    """The witness family is built from the frame's integer inverse and read
    by the verifier as integers: no Fraction matrix on the way."""

    def test_no_branch_converts_the_inverse_to_fractions(self, monkeypatch):
        rng = random.Random(20)
        inputs = [a for n in range(2, 6) for a in identity_inputs(n, rng)]

        def refuse(*args):
            raise AssertionError("classify converted a matrix between Z and Q")

        for name, module in list(sys.modules.items()):
            if name.startswith("levelone"):
                for attr in ("_fractions", "_int_matrix"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        branches = set()
        for a in inputs:
            w = classify(a)
            branches.add(tuple(step.split(" ")[0] for step in w.branch_trace))
        assert branches == {
            ("Antisymmetric", "PairWitnessFound"),
            ("Antisymmetric", "PairWitnessAbsent"),
            ("SquareWitnessFound",),
            ("SquareInSpan", "PairWitnessFound"),
            ("SquareInSpan", "NuNormalization"),
        }


def identity_inputs(n, rng):
    """Canonical forms of every tag in random bases, one-entry perturbations
    of them, random tensors and their symmetric and skew parts, planar
    tensors x*y = a(x) y + b(y) x, and squares on their lines plus a skew
    part."""
    def q():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    out = []
    for tag in Tag:
        for alpha in ((F(0), F(1), F(1, 2), F(2, 3), F(-3)) if tag is Tag.NU else (None,)):
            try:
                base = canon(tag, n, alpha)
            except ValueError:  # no such form in dimension n
                continue
            m = apply_basis_change(base, random_invertible_matrix(n, rng, bound=2))
            entries = m.entries()
            entries[(rng.randrange(n), rng.randrange(n), rng.randrange(n))] = q() or F(1)
            out += [m, Algebra.from_entries(n, {k: v for k, v in entries.items() if v})]
    for _ in range(30):
        c = random_algebra(n, rng.choice((0.15, 0.4, 0.8)), rng.randrange(2**31)).constants
        a_form, b_form, lam = ([q() for _ in range(n)] for _ in range(3))
        tables = {
            "random": lambda k, i, j: c[k][i][j],
            "symmetric": lambda k, i, j: c[k][i][j] + c[k][j][i],
            "skew": lambda k, i, j: c[k][i][j] - c[k][j][i],
            "planar": lambda k, i, j: a_form[i] * (k == j) + b_form[j] * (k == i),
            "on lines": lambda k, i, j: (lam[i] * (k == j) + lam[j] * (k == i)
                                         + c[k][i][j] - c[k][j][i]),
        }
        for entry in tables.values():
            out.append(Algebra.from_entries(n, {
                (k, i, j): v for k in range(n) for i in range(n) for j in range(n)
                if (v := F(entry(k, i, j)))}))
    return [a for a in out if not a.is_abelian()]


class TestIdentities:
    """``_find_square`` and ``_find_pair`` return None at once when the
    scalar-action identity holds; the sweeps they skip could find nothing."""

    def test_identities_agree_with_the_sweeps(self, monkeypatch):
        rng = random.Random("identities")
        inputs = [a for n in range(2, 7) for a in identity_inputs(n, rng)]
        assert len(inputs) >= 700
        new = [(span_witness_search(a, "square"), span_witness_search(a, "pair"))
               for a in inputs]
        monkeypatch.setattr(classify_mod, "_scalar_action", lambda *args, **kw: None)
        kinds = set()
        for a, got in zip(inputs, new):
            old = (span_witness_search(a, "square"), span_witness_search(a, "pair"))
            assert got == old
            on_lines = _scalar_action(a, symmetrised=True) is not None
            planar = _scalar_action(a) is not None
            assert on_lines == (old[0] is None)
            if a.dim >= 3:
                assert planar == (old[1] is None)
                kinds.add((on_lines, planar))
        assert kinds == {(True, True), (True, False), (False, False)}

    def test_the_integer_sweeps_find_the_fraction_sweeps_witnesses(self):
        """The sweeps square and multiply over Z; the same grids swept with
        Fraction products, lines and ranks find the same first witnesses."""
        rng = random.Random("fraction sweeps")
        for a in [a for n in range(2, 6) for a in identity_inputs(n, rng)]:
            n = a.dim
            pairs = deterministic_candidates(n)
            doubled = [vec_add(vec_scale(unit_vector(n, p), F(2)), unit_vector(n, q))
                       for p in range(n) for q in range(n) if p != q]
            square = next((x for x in pairs + doubled if not vec_is_zero(s := a.product(x, x))
                           and proportionality(s, x) is None), None)
            pair = next(((x, y) for x in pairs for y in pairs
                         if x != y and rank([x, y, a.product(x, y)]) == 3), None)
            assert span_witness_search(a, "square") == square
            assert span_witness_search(a, "pair") == (pair if n >= 3 else None)

    @pytest.mark.parametrize("tag,alpha", [(Tag.NU, F(2, 3)), (Tag.NU, F(-3)),
                                           (Tag.P_MINUS, None)])
    def test_scalar_action_forms_never_sweep(self, monkeypatch, tag, alpha):
        """A moved nu or pminus form goes to its branch reading at most the
        basis vectors of the square grid and the one item after them, at
        which the square search stops, and none of the pair grid."""
        n = 8
        a = apply_basis_change(canon(tag, n, alpha),
                               random_invertible_matrix(n, random.Random(3)))
        want = witness_to_dict(classify_and_check(a))
        read, pair_grids = [], []
        square_grid = classify_mod._square_grid

        def counted(n):
            for v in square_grid(n):
                read.append(v)
                yield v

        monkeypatch.setattr(classify_mod, "_square_grid", counted)
        monkeypatch.setattr(classify_mod, "_pair_grid", pair_grids.append)
        assert witness_to_dict(classify(a)) == want
        assert read == deterministic_candidates(n)[:len(read)] and len(read) <= n + 1
        assert pair_grids == []

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_squares_on_their_lines_stop_the_square_sweep(self, monkeypatch, n):
        """Squares on their lines but a product off its plane: the square
        search reads the basis vectors, then both identities, and stops."""
        a = non_skew_n3minus(n, random.Random(n))
        read = []
        square_grid = classify_mod._square_grid

        def counted(n):
            for v in square_grid(n):
                read.append(v)
                yield v

        monkeypatch.setattr(classify_mod, "_square_grid", counted)
        w = classify_and_check(a)
        assert [step.split(" ")[0] for step in w.branch_trace] == [
            "SquareInSpan", "PairWitnessFound"]
        assert read == deterministic_candidates(n)[:n]


class TestGrids:
    def test_the_grids_in_order(self):
        n = 4
        basis = [unit_vector(n, i) for i in range(n)]
        sums = [tuple(a + b for a, b in zip(basis[i], basis[j]))
                for i in range(n) for j in range(i + 1, n)]
        doubled = [tuple(2 * a + b for a, b in zip(basis[p], basis[q]))
                   for p in range(n) for q in range(n) if p != q]
        assert list(classify_mod._pair_grid(n)) == basis + sums
        assert list(classify_mod._square_grid(n)) == basis + sums + doubled

    def test_deterministic_candidates_are_a_fresh_list(self):
        n = 4
        cands = deterministic_candidates(n)
        cands.append((F(1), F(2), F(3), F(4)))
        assert deterministic_candidates(n)[-1] == (F(0), F(0), F(1), F(1))

    @pytest.mark.parametrize("entries", [
        {(0, 0, 1): -7, (0, 1, 0): 2, (1, 1, 0): -5},
        {(0, 0, 1): -9, (1, 0, 1): -9},
        {(1, 1, 1): -1, (1, 0, 1): 1},
    ])
    def test_witnesses_past_the_pairwise_sums(self, entries):
        """Inputs whose only square witnesses on the grid are 2 e_p + e_q:
        each classifies to lambda2 on a small witness, whatever the seed."""
        a = Algebra.from_entries(2, {key: F(v) for key, v in entries.items()})
        w = classify_and_check(a, seed=0)
        assert w.target.tag is Tag.LAMBDA2
        x = tuple(F(c) for c in w.branch_trace[0].split("x=(")[1].rstrip(")").split(", "))
        assert set(x) <= {0, 1, 2} and x not in deterministic_candidates(2)
        assert witness_to_dict(w) == witness_to_dict(classify(a, ClassifierConfig(seed=7)))

    def test_a_witness_that_fails_verification_raises(self, monkeypatch):
        def failed(a, w):
            return SimpleNamespace(passed=False, diagnostics="injected")

        monkeypatch.setattr(classify_mod, "verify_degeneration", failed)
        with pytest.raises(SearchExhausted, match="failed exact verification: injected"):
            classify(canon(Tag.LAMBDA2, 3))

import math
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from levelone import (
    Algebra,
    CanonicalForm,
    DimensionMismatch,
    InexactEntry,
    ParamMatrix,
    Subspace,
    Tag,
    apply_basis_change,
    construct,
    derived_subspace,
    ideal_powers,
    invariant_vector,
    random_algebra,
    random_invertible_matrix,
    rebase,
    subspace_product,
    transport_limit,
    unit_vector,
)
from levelone.algebra import (MIN_NONZERO_CHANCE, _SHARED, _SHARED_BOUND, _below, _contract,
                              _scalar_action)
from levelone.families import pplus_to_lambda2
from levelone.jsonio import dumps
from levelone.linalg import _int_matrix, mat_inverse, mat_mul
from levelone.poly import FE_ZERO, FieldElement
from levelone.transport import _row_monomial

from conftest import algebras, fe, invertible_matrices, small_rationals


def canon(tag, n, alpha=None):
    return construct(CanonicalForm(tag, n, alpha))


class TestProduct:
    def test_lambda2_square(self):
        a = canon(Tag.LAMBDA2, 2)
        e1, e2 = unit_vector(2, 0), unit_vector(2, 1)
        assert a.product(e1, e1) == e2

    def test_abelian_kills_everything(self):
        a = canon(Tag.ABELIAN, 3)
        x = (F(1), F(-2), F(3))
        assert a.product(x, x) == (F(0),) * 3

    def test_nu_right_action(self):
        alpha = F(2, 3)
        a = canon(Tag.NU, 3, alpha)
        e1, e2 = unit_vector(3, 0), unit_vector(3, 1)
        assert a.product(e2, e1) == tuple(
            (1 - alpha) * c for c in e2
        )

    @given(algebras(max_dim=3))
    @settings(max_examples=40)
    def test_bilinearity(self, a):
        rng = random.Random(11)
        n = a.dim
        x, y, z = (
            tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(3)
        )
        c = F(3, 2)
        lhs = a.product(tuple(xi + c * yi for xi, yi in zip(x, y)), z)
        rhs = tuple(
            p + c * q for p, q in zip(a.product(x, z), a.product(y, z))
        )
        assert lhs == rhs


class TestPredicates:
    def test_pminus_flags(self):
        a = canon(Tag.P_MINUS, 4)
        assert a.is_anticommutative()
        assert not a.is_nilpotent()

    def test_n3minus_padded_flags(self):
        a = canon(Tag.N3_MINUS, 4)
        assert a.is_anticommutative()
        assert a.is_nilpotent()

    def test_abelian_flags(self):
        a = canon(Tag.ABELIAN, 5)
        assert a.is_abelian()
        assert a.is_commutative()
        assert a.is_anticommutative()
        assert a.is_nilpotent()

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("alpha", [F(0), F(1), F(1, 2), F(2, 3), F(-3)])
    def test_canonical_nilpotency_table(self, n, alpha):
        assert not canon(Tag.P_MINUS, n).is_nilpotent()
        assert not canon(Tag.NU, n, alpha).is_nilpotent()
        lam = canon(Tag.LAMBDA2, n)
        assert lam.is_nilpotent()
        assert ideal_powers(lam)[2].dim == 0  # A^3 = 0
        if n >= 3:
            for tag in (Tag.N3_MINUS, Tag.N3_PLUS):
                a = canon(tag, n)
                assert a.is_nilpotent()
                assert ideal_powers(a)[2].dim == 0

    @pytest.mark.parametrize("n", range(2, 6))
    def test_nu_commutativity(self, n):
        assert canon(Tag.NU, n, F(1, 2)).is_commutative()
        for alpha in (F(0), F(1), F(2, 3), F(-3)):
            a = canon(Tag.NU, n, alpha)
            assert not a.is_commutative()
            assert not a.is_anticommutative()


class TestSubspaces:
    def test_n3minus_square(self):
        a = canon(Tag.N3_MINUS, 3)
        full = Subspace.full(3)
        assert subspace_product(a, full, full) == Subspace.span(
            3, [unit_vector(3, 2)]
        )

    def test_abelian_square_is_zero(self):
        a = canon(Tag.ABELIAN, 4)
        assert derived_subspace(a).dim == 0

    def test_pminus_square_by_brute_force(self):
        a = canon(Tag.P_MINUS, 3)
        got = derived_subspace(a)
        # oracle: span of all pairwise basis products, reduced independently
        products = [
            a.product(unit_vector(3, i), unit_vector(3, j))
            for i in range(3)
            for j in range(3)
        ]
        assert got == Subspace.span(3, products)
        assert got == Subspace.span(3, [unit_vector(3, 1), unit_vector(3, 2)])

    @given(algebras(max_dim=4))
    @settings(max_examples=40)
    def test_ideal_power_ladder_is_monotone(self, a):
        powers = ideal_powers(a)
        dims = [s.dim for s in powers]
        assert all(d1 >= d2 for d1, d2 in zip(dims, dims[1:]))
        assert a.is_nilpotent() == (dims[-1] == 0)


class TestBasisChange:
    def test_identity_fixes_everything(self):
        a = random_algebra(3, 0.5, seed=1)
        from levelone.linalg import mat_identity

        assert apply_basis_change(a, mat_identity(3)) == a

    def test_lambda2_rescaled_entry_matches_direct_transport(self):
        a = canon(Tag.LAMBDA2, 2)
        g = [[F(2), F(0)], [F(0), F(1)]]
        c = apply_basis_change(a, g).constants
        # oracle: evaluate g(a(g^-1 e1, g^-1 e1)) directly
        ginv = mat_inverse(g)
        for i in range(2):
            for j in range(2):
                p = a.product([row[i] for row in ginv], [row[j] for row in ginv])
                direct = tuple(sum(x * y for x, y in zip(row, p)) for row in g)
                assert tuple(c[k][i][j] for k in range(2)) == direct
        assert c[1][0][0] == F(1, 4)

    def test_swap_in_n3minus(self):
        a = canon(Tag.N3_MINUS, 3)
        swap = [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
        c = apply_basis_change(a, swap).constants
        assert c[2][0][1] == F(-1)
        assert c[2][1][0] == F(1)

    @given(algebras(min_dim=2, max_dim=3), invertible_matrices(3))
    @settings(max_examples=30)
    def test_right_action_law(self, a, h):
        if a.dim != 3:
            return
        rng = random.Random(5)
        g = random_invertible_matrix(3, rng)
        combined = apply_basis_change(a, mat_mul(h, g))
        stepwise = apply_basis_change(apply_basis_change(a, g), h)
        assert combined == stepwise

    @given(algebras(min_dim=3, max_dim=3), invertible_matrices(3))
    @settings(max_examples=30)
    def test_flags_are_invariant(self, a, g):
        b = apply_basis_change(a, g)
        assert a.is_commutative() == b.is_commutative()
        assert a.is_anticommutative() == b.is_anticommutative()
        assert a.is_nilpotent() == b.is_nilpotent()
        assert derived_subspace(a).dim == derived_subspace(b).dim

    def test_rebase_expresses_products_in_new_frame(self):
        a = canon(Tag.N3_MINUS, 3)
        basis = [unit_vector(3, 1), unit_vector(3, 0), unit_vector(3, 2)]
        b, m = rebase(a, basis)
        assert b.constants[2][0][1] == F(-1)
        assert apply_basis_change(a, m) == b


class TestInvariantVector:
    def test_lambda2_padded(self):
        iv = invariant_vector(canon(Tag.LAMBDA2, 4))
        assert iv.power_dims[0] == 1
        assert iv.commutative and iv.nilpotent
        assert iv.sym_rank == 1 and iv.skew_rank == 0

    def test_n3plus_padded(self):
        iv = invariant_vector(canon(Tag.N3_PLUS, 4))
        assert iv.power_dims[0] == 1
        assert iv.commutative and iv.nilpotent
        assert iv.sym_rank == 2 and iv.skew_rank == 0

    def test_n3minus_padded(self):
        iv = invariant_vector(canon(Tag.N3_MINUS, 4))
        assert iv.sym_rank == 0 and iv.skew_rank == 2

    def test_abelian(self):
        iv = invariant_vector(canon(Tag.ABELIAN, 3))
        assert iv.power_dims == (0,)


class TestRandomAlgebra:
    def test_density_zero_is_abelian(self):
        assert random_algebra(3, 0.0, seed=0).is_abelian()

    def test_seed_determinism(self):
        a = random_algebra(4, 0.3, seed=7)
        b = random_algebra(4, 0.3, seed=7)
        assert a == b

    def test_nonabelian_rejection(self):
        a = random_algebra(2, 0.05, seed=3, nonabelian=True)
        assert not a.is_abelian()

    @pytest.mark.parametrize("n,density", [(3, 0.0), (1, 0.0), (3, 1e-5), (1, 0.0009)])
    def test_nonabelian_draw_without_hope_is_refused(self, n, density):
        # at density 0 the redraw loop could never end; below a chance of
        # 1/1000 per draw it is refused too
        with pytest.raises(ValueError, match=r"non-abelian draw .* has chance .* < 0\.001"):
            random_algebra(n, density, seed=1, nonabelian=True)

    @pytest.mark.parametrize("n,density", [(3, 0.0), (3, 1e-5)])
    def test_abelian_draws_at_any_density_are_kept(self, n, density):
        assert random_algebra(n, density, seed=1).is_abelian()

    def test_draws_at_a_hopeful_density_are_unchanged(self):
        # chance 1 - (1 - 0.002)^1 = 0.002: kept, and redrawn until nonzero
        assert random_algebra(1, 0.002, seed=5, nonabelian=True).entries() == {(0, 0, 0): F(2)}
        assert random_algebra(2, 0.15, seed=3, nonabelian=True).entries() == {(1, 0, 1): F(8, 3)}


def reference_random_algebra(n, density, seed, nonabelian=False):
    """``random_algebra`` as it was written over Fraction: the entries of
    the draw in (k, i, j) order, or ValueError."""
    if n < 1 or not 0 <= density <= 1:
        raise ValueError("need n >= 1 and 0 <= density <= 1")
    if nonabelian and (chance := 1 - (1 - float(density)) ** n**3) < MIN_NONZERO_CHANCE:
        raise ValueError(f"a non-abelian draw at n = {n} and density {density} has chance "
                         f"{chance:.3g} < {MIN_NONZERO_CHANCE}")
    rng = random.Random(seed)
    while True:
        entries = {}
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if rng.random() < density:
                        num = rng.choice((1, -1)) * rng.randint(1, 9)
                        entries[(k, i, j)] = F(num, rng.randint(1, 4))
        if entries or not nonabelian:
            return entries


def reference_stored_form(entries: dict) -> tuple:
    """(cden, slices) of {(k, i, j): value} as the Fraction-based store made
    it: the nonzero values in (i, j, k) order over the lcm of their
    denominators."""
    nonzero = [(kij, F(v)) for kij, v in sorted(
        entries.items(), key=lambda e: (e[0][1], e[0][2], e[0][0])) if v]
    cden = math.lcm(*(q.denominator for _, q in nonzero))
    slices: dict = {}
    for (k, i, j), q in nonzero:
        slices.setdefault((i, j), []).append((k, q.numerator * (cden // q.denominator)))
    return cden, [(ij, tuple(hits)) for ij, hits in slices.items()]


def reference_random_invertible_matrix(n, rng, bound=3):
    """``random_invertible_matrix`` as it was written: L * U * P over Fraction."""
    lower = [[F(1) if i == j else (F(rng.randint(-bound, bound)) if i > j else F(0))
              for j in range(n)] for i in range(n)]
    upper = [[F(rng.choice((1, -1)) * rng.randint(1, bound)) if i == j
              else (F(rng.randint(-bound, bound)) if i < j else F(0)) for j in range(n)]
             for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    pmat = [[F(1) if perm[i] == j else F(0) for j in range(n)] for i in range(n)]
    return mat_mul(mat_mul(lower, upper), pmat)


def stored(a) -> tuple:
    return a._cden, list(a._slices.items())


draw_densities = st.sampled_from([0, 1]) | st.fractions(0, 1, max_denominator=50) | st.floats(0, 1)


class TestDrawsInStoredForm:
    """The generators draw straight into the stored form: the same draws,
    slice order included, as the Fraction code they replace."""

    @given(st.integers(1, 8), draw_densities, st.integers(0, 2**32), st.booleans())
    @settings(max_examples=300)
    def test_random_algebra_matches_the_fraction_draws(self, n, density, seed, nonabelian):
        try:
            want = reference_random_algebra(n, density, seed, nonabelian)
        except ValueError:
            with pytest.raises(ValueError):
                random_algebra(n, density, seed, nonabelian)
            return
        a = random_algebra(n, density, seed, nonabelian)
        assert stored(a) == reference_stored_form(want)
        assert a.entries() == want

    @given(st.integers(0, 8), st.integers(1, 3), st.integers(0, 2**32))
    @settings(max_examples=300)
    def test_random_invertible_matrix_matches_the_fraction_product(self, n, bound, seed):
        # the caller goes on drawing from its rng, so its state must match too
        mine, theirs = random.Random(seed), random.Random(seed)
        m = random_invertible_matrix(n, mine, bound)
        assert m == reference_random_invertible_matrix(n, theirs, bound)
        assert mine.getstate() == theirs.getstate()
        assert all(type(x) is F for row in m for x in row)

    @pytest.mark.parametrize("bound", [0, -1, True, 2.0, "2", None])
    def test_a_bound_that_is_not_a_positive_int_is_refused(self, bound):
        # on every Python version; at width 0 the rejection draw would never end
        with pytest.raises(ValueError, match=r"^bound must be an int >= 1, got "):
            random_invertible_matrix(2, random.Random(0), bound)


#: Widths 1..2^70, with 1, each 2^k and 2^k +- 1 (where a rejection draw's
#: bit count steps) drawn often.
widths = st.integers(1, 2**70) | st.builds(lambda k, d: max(1, 2**k + d),
                                           st.integers(0, 70), st.integers(-1, 1))


class TestBelow:
    """``_below`` makes the stdlib's draws from getrandbits alone: the same
    values, and the generator left in the same state."""

    @given(st.integers(0, 2**64), widths)
    @settings(max_examples=300)
    def test_it_is_randrange(self, seed, w):
        mine, theirs = random.Random(seed), random.Random(seed)
        assert _below(mine.getrandbits, w) == theirs.randrange(w)
        assert mine.getstate() == theirs.getstate()

    @given(st.integers(0, 2**64), st.integers(0, 20))
    @settings(max_examples=200)
    def test_it_spells_out_choice_and_shuffle(self, seed, n):
        mine, theirs = random.Random(seed), random.Random(seed)
        assert [(1, -1)[_below(mine.getrandbits, 2)] for _ in range(n)] == [
            theirs.choice((1, -1)) for _ in range(n)]
        perm, want = list(range(n)), list(range(n))
        for i in range(n - 1, 0, -1):
            j = _below(mine.getrandbits, i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        theirs.shuffle(want)
        assert perm == want
        assert mine.getstate() == theirs.getstate()


class TestDimensionIsAnInt:
    """A bool or a non-int dimension is refused by every constructor and
    generator: True once stored as a dim was written out as invalid JSON."""

    @pytest.mark.parametrize("dim", [True, False, 2.0, "2", None])
    def test_constructors_refuse_it(self, dim):
        with pytest.raises(DimensionMismatch, match="dimension must be an int"):
            Algebra(dim, ((("1",),),))
        with pytest.raises(DimensionMismatch, match="dimension must be an int"):
            Algebra.from_entries(dim, {})
        with pytest.raises(DimensionMismatch, match="dimension must be an int"):
            Algebra.zero(dim)

    @pytest.mark.parametrize("dim", [True, 2.0])
    def test_generators_refuse_it(self, dim):
        with pytest.raises(ValueError, match="dimension must be an int"):
            random_algebra(dim, 1, 0)
        with pytest.raises(ValueError, match="dimension must be an int"):
            random_invertible_matrix(dim, random.Random(0))

    def test_a_dimension_below_one_is_refused(self):
        for make in (lambda: Algebra(0, ()), lambda: Algebra.from_entries(0, {}),
                     lambda: random_algebra(0, 1, 0), lambda: random_algebra(-1, 1, 0)):
            with pytest.raises(DimensionMismatch, match="dimension must be at least 1"):
                make()
        with pytest.raises(ValueError, match="density"):
            random_algebra(2, 2, 0)

    def test_an_int_dimension_is_written_as_json(self):
        a = random_algebra(1, 1, 0)
        assert type(a.dim) is int
        assert dumps(a).startswith('{\n  "dim": 1,')


class TestCanonicalTables:
    def test_each_table_is_built_once_and_shared(self):
        """``construct`` is cached: equal forms give the one immutable table."""
        form = CanonicalForm(Tag.NU, 5, F(2, 3))
        a = construct(form)
        assert construct(CanonicalForm(Tag.NU, 5, F(4, 6))) is a
        assert a == Algebra.from_entries(5, a.entries())
        with pytest.raises(FrozenInstanceError):
            a.dim = 4

    @pytest.mark.parametrize("value", [0.1, 2.0, -0.5])
    def test_a_float_alpha_is_refused(self, value):
        with pytest.raises(InexactEntry, match="alpha .* is a float"):
            CanonicalForm(Tag.NU, 2, value)


@st.composite
def tensors(draw):
    """Random tensors at n = 1..5, diagonal entries included, then possibly
    symmetrized or made skew by negated pairs; zero values and the zero
    tensor are drawn as well."""
    n = draw(st.integers(1, 5))
    idx = st.integers(0, n - 1)
    drawn = draw(st.dictionaries(st.tuples(idx, idx, idx), small_rationals,
                                 max_size=2 * n * n))
    sign = draw(st.sampled_from([None, 1, -1]))
    if sign is None:
        return Algebra.from_entries(n, drawn)
    entries = {}
    for (k, i, j), v in drawn.items():
        entries[(k, i, j)] = v
        entries[(k, j, i)] = sign * v
        if sign < 0 and i == j:
            entries[(k, i, i)] = 0
    return Algebra.from_entries(n, entries)


def dense_change(a, g):
    """c'[k][i][j] = sum g[k][r] c[r][s][t] ginv[s][i] ginv[t][j], term by term."""
    n, c, h = a.dim, a.constants, mat_inverse(g)
    return tuple(tuple(tuple(
        sum((g[k][r] * c[r][s][t] * h[s][i] * h[t][j]
             for r in range(n) for s in range(n) for t in range(n)), F(0))
        for j in range(n)) for i in range(n)) for k in range(n))


class TestStoredForm:
    @given(tensors())
    @settings(max_examples=150)
    def test_dense_round_trip(self, a):
        b = Algebra(a.dim, a.constants)
        assert b == a and hash(b) == hash(a)
        assert Algebra.from_entries(a.dim, a.entries()) == a

    @given(tensors())
    @settings(max_examples=150)
    def test_both_constructors_match_the_fraction_store(self, a):
        n, entries = a.dim, a.entries()
        want = reference_stored_form(entries)
        assert stored(Algebra.from_entries(n, entries)) == want
        assert stored(Algebra(n, a.constants)) == want
        ints = [[[int(v) if v.denominator == 1 else v for v in row] for row in plane]
                for plane in a.constants]
        assert stored(Algebra(n, ints)) == want

    @given(tensors(), tensors())
    @settings(max_examples=150)
    def test_equality_is_dense_equality(self, a, b):
        n = a.dim
        c = a.constants
        assert (a == b) == (a.constants == b.constants)
        # an integral table given as ints is the same tensor
        ints = tuple(tuple(tuple(int(v) if v.denominator == 1 else v for v in row)
                           for row in plane) for plane in c)
        assert Algebra(n, ints) == a
        # so is the table scaled by 2 and back, which changes no entry
        assert Algebra(n, tuple(tuple(tuple(2 * v / 2 for v in row) for row in plane)
                                for plane in c)) == a
        # and a table with one entry moved is not
        moved = [[list(row) for row in plane] for plane in c]
        moved[n - 1][0][n - 1] += F(1, 3)
        assert Algebra(n, moved) != a

    @given(tensors(), st.integers(0, 2**32))
    @settings(max_examples=80)
    def test_kernel_outputs_are_canonical(self, a, seed):
        n = a.dim
        g = random_invertible_matrix(n, random.Random(seed))
        moved = apply_basis_change(a, g)
        assert moved == Algebra(n, moved.constants)
        assert moved.constants == dense_change(a, g)
        frame = random_invertible_matrix(n, random.Random(seed + 1))
        basis = [tuple(frame[i][j] for i in range(n)) for j in range(n)]
        rebased, m = rebase(a, basis)
        assert rebased == Algebra(n, rebased.constants)
        assert rebased == apply_basis_change(a, m)

    @given(tensors())
    @settings(max_examples=150)
    def test_symmetry_predicates_match_the_dense_definitions(self, a):
        n, c = a.dim, a.constants
        triples = [(k, i, j) for k in range(n) for i in range(n) for j in range(n)]
        assert a.is_commutative() == all(c[k][i][j] == c[k][j][i] for k, i, j in triples)
        assert a.is_anticommutative() == all(
            c[k][i][j] == -c[k][j][i] for k, i, j in triples)

    def test_zero_tensor(self):
        z = Algebra.zero(3)
        assert z == Algebra(3, canon(Tag.ABELIAN, 3).constants) == Algebra.from_entries(3, {})
        assert z.is_abelian() and z.is_commutative() and z.is_anticommutative()
        assert z.entries() == {}

    @given(tensors())
    @settings(max_examples=50)
    def test_the_dense_table_is_built_on_each_read_and_not_kept(self, a):
        n = a.dim
        table = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
        for (k, i, j), v in a.entries().items():
            table[k][i][j] = v
        assert a.constants == tuple(tuple(map(tuple, plane)) for plane in table)
        assert "constants" not in vars(a)

    @pytest.mark.parametrize("value", [0.1, 2.0, -0.5])
    def test_float_entries_are_refused(self, value):
        with pytest.raises(InexactEntry, match="is a float"):
            Algebra(1, [[[value]]])
        with pytest.raises(InexactEntry, match="is a float"):
            Algebra.from_entries(2, {(0, 1, 1): F(1), (1, 0, 1): value})

    def test_attributes_cannot_be_assigned(self):
        a = canon(Tag.NU, 3, F(2, 3))
        for name in ("dim", "constants", "_cden", "_slices", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(a, name, None)
        with pytest.raises(FrozenInstanceError):
            del a.dim
        assert a == canon(Tag.NU, 3, F(2, 3))

    @pytest.mark.parametrize("key", [(-1, 0, 0), (0, -1, 0), (0, 0, -2), (2, 0, 0),
                                     (0, 2, 0), (0, 0, 2), (0, 0)])
    def test_entries_outside_the_index_range_are_rejected(self, key):
        with pytest.raises(DimensionMismatch):
            Algebra.from_entries(2, {key: 1})


@st.composite
def exponent_vectors(draw, n):
    """Exponents in [-4, 4]: any, all equal, or all negative."""
    kind = draw(st.sampled_from(("any", "equal", "negative")))
    if kind == "equal":
        return [draw(st.integers(-4, 4))] * n
    hi = -1 if kind == "negative" else 4
    return draw(st.lists(st.integers(-4, hi), min_size=n, max_size=n))


@st.composite
def rational_matrices(draw, n):
    """Square rational matrices, often with zero entries and zero rows."""
    coeff = st.one_of(st.just(F(0)), small_rationals)
    m = draw(st.lists(st.lists(coeff, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        m[i] = [F(0)] * n
    return m


class TestBoundedContraction:
    @given(tensors(), st.data())
    @settings(max_examples=200)
    def test_equals_the_full_contraction_on_every_formed_entry(self, a, data):
        n = a.dim
        e = data.draw(exponent_vectors(n))
        g, h = data.draw(rational_matrices(n)), data.draw(rational_matrices(n))
        g, h = _int_matrix(g), _int_matrix(h)
        full = _contract(a, g, h)
        bounded = _contract(a, g, h, e)
        assert bounded == Algebra(n, bounded.constants)  # a canonical stored form
        assert bounded.entries() == {
            (k, i, j): v for (k, i, j), v in full.entries().items() if e[k] <= e[i] + e[j]}
        assert list(bounded.entries()) == sorted(bounded.entries(), key=lambda x: x[1:])


# -- shared entries ------------------------------------------------------------


def entry_tuples(a) -> list:
    """Every stored entry (k, c) of the algebra, as the objects it holds."""
    return [x for hits in a._slices.values() for x in hits]


def in_bound(x) -> bool:
    kb, cb = _SHARED_BOUND
    return x[0] < kb and abs(x[1]) <= cb


def assert_shared(a):
    """Each in-bound entry and slice key of ``a`` is the table's tuple; no
    other is in the table."""
    for x in [*a._slices, *entry_tuples(a)]:
        if in_bound(x):
            assert _SHARED.get(x) is x
        else:
            assert x not in _SHARED


def binomial_family(n: int) -> ParamMatrix:
    """diag(1 + t, 1, ..., 1): not row-monomial, with limit I at t = 0."""
    one = FieldElement(1)
    return ParamMatrix(n, tuple(tuple(fe("1 + t") if i == j == 0 else one if i == j
                                      else FE_ZERO for j in range(n)) for i in range(n)))


#: Entries on both sides of the bound, at n = 3 and, for k past 64, at n = 70.
MIXED_ENTRIES = {(0, 0, 1): 7, (2, 1, 1): F(-255, 4), (1, 2, 0): 10**12, (2, 2, 2): F(3, 8)}
WIDE_ENTRIES = {(69, 0, 1): 3, (63, 1, 0): -255, (64, 5, 5): 1, (0, 69, 69): 256}


def built_by_each_builder():
    """(label, algebra) from every builder of the stored form."""
    nu = construct(CanonicalForm(Tag.NU, 3, F(2, 3)))
    lam = construct(CanonicalForm(Tag.LAMBDA2, 3))
    shear = [[F(1), F(2), F(0)], [F(0), F(1), F(0)], [F(0), F(-1), F(1)]]
    bent = binomial_family(3)
    assert _row_monomial(pplus_to_lambda2(3)) is not None and _row_monomial(bent) is None
    assert _scalar_action(nu) is not None and _scalar_action(lam) is None
    return [
        ("random_algebra", random_algebra(4, 0.5, seed=5, nonabelian=True)),
        ("random_algebra n = 70", random_algebra(70, 1e-4, seed=2, nonabelian=True)),
        ("Algebra(n, table)", Algebra(3, Algebra.from_entries(3, MIXED_ENTRIES).constants)),
        ("from_entries", Algebra.from_entries(3, MIXED_ENTRIES)),
        ("from_entries n = 70", Algebra.from_entries(70, WIDE_ENTRIES)),
        ("zero", Algebra.zero(3)),
        ("construct", nu),
        ("apply_basis_change", apply_basis_change(nu, shear)),
        ("rebase", rebase(lam, [tuple(row) for row in shear])[0]),
        ("row-monomial limit", transport_limit(construct(CanonicalForm(Tag.P_PLUS, 3)),
                                               pplus_to_lambda2(3))),
        ("scalar-action limit", transport_limit(nu, bent)),
        ("kernel limit", transport_limit(lam, bent)),
    ]


class TestSharedEntries:
    """Equal stored entries (k, c) and slice keys (i, j) inside the bound are
    one tuple across all algebras, whichever builder made them; the others
    stay private."""

    @pytest.mark.parametrize("a", [pytest.param(a, id=label)
                                   for label, a in built_by_each_builder()])
    def test_every_builder_shares_its_in_bound_entries(self, a):
        assert_shared(a)
        assert a == Algebra.from_entries(a.dim, a.entries())

    def test_the_builders_hold_entries_on_both_sides_of_the_bound(self):
        held = [x for _, a in built_by_each_builder() for x in entry_tuples(a)]
        assert any(map(in_bound, held)) and not all(map(in_bound, held))
        # 10**12 is stored over MIXED_ENTRIES' cden = 8
        assert {x for x in held if not in_bound(x)} >= {(1, 8 * 10**12), (69, 3), (64, 1),
                                                         (0, 256)}

    @given(st.sampled_from([1, 3, 64, 65, 70]), st.data())
    @settings(max_examples=100)
    def test_entries_past_the_bound_build_the_same_algebra(self, n, data):
        idx = st.integers(0, n - 1)
        value = (st.integers(-300, 300) | st.integers(-10**20, 10**20)
                 | st.fractions(-10**4, 10**4, max_denominator=300))
        entries = data.draw(st.dictionaries(st.tuples(idx, idx, idx), value, max_size=12))
        a = Algebra.from_entries(n, entries)
        assert stored(a) == reference_stored_form(entries)
        assert_shared(a)
        assert len(_SHARED) <= 32704
        assert all(in_bound(x) for x in _SHARED)

    def test_the_table_stops_at_its_largest_size(self):
        kb, cb = _SHARED_BOUND
        n = 64
        cells = [(i, j) for j in range(n) for i in range(n)]
        # every in-bound value once, each (k, c) in its own column c + cb;
        # the first 64 columns are the keys (i, 0), which are no entry
        full = Algebra.from_entries(n, {(k, *cells[c + cb]): c for k in range(kb)
                                        for c in range(-cb, cb + 1) if c})
        assert {(i, 0) for i in range(kb)} <= set(full._slices)
        assert_shared(full)
        assert len(_SHARED) == kb * (2 * cb + 1) == 32704  # every k, every c
        before = dict(_SHARED)
        past = Algebra.from_entries(70, {(k, i, 0): v for k in (0, 63, 64, 69)
                                         for i, v in enumerate((256, -256, 10**9))})
        assert_shared(past)
        assert _SHARED == before

    def test_a_fixed_draw_set_holds_one_object_per_value(self):
        """The classify workload's shape: 2 016 draws, n = 2..8, three
        densities; its distinct entry objects are its distinct values."""
        rng = random.Random("shared entries")
        draws = [random_algebra(n, d, rng.randrange(2**31), nonabelian=True)
                 for n in range(2, 9) for d in (0.15, 0.4, 0.8) for _ in range(96)]
        assert len(draws) == 2016
        objects = {id(x): x for a in draws for x in entry_tuples(a)}
        values = set(objects.values())
        assert len(objects) == len(values)
        assert all(in_bound(x) and _SHARED.get(x) is x for x in values)
        keys = {id(ij): ij for a in draws for ij in a._slices}
        assert len(keys) <= 64  # the cells (i, j) of n = 8
        assert all(_SHARED.get(ij) is ij for ij in keys.values())

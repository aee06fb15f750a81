"""The integer-accumulating tensor kernels against independent oracles.

sympy (a test-only dependency) redoes the rational arithmetic with its own
matrices: the basis-change contraction g.c.(g^-1 x g^-1), reduced row
echelon form, rank and inverse (and the integer inverse over one common
denominator behind it), the frames ``extend_basis`` completes and the
inverse that the same elimination gives with them,
``Subspace.contains``, the spans behind ``subspace_product``, and the
determinant and characteristic polynomial that ``mat_det`` and ``char_poly``
read off one Bareiss elimination, and the isomorphisms ``recognize`` returns
(the input transported by the iso is the canonical table), and the
scalar-action identity behind the classifier's negative branches and the nu
recognizer (x ^ x*x and x ^ y ^ x*y expanded for symbolic x and y), with
the completeness of the classifier's candidate grids: a witness is found
wherever sympy says one exists.  The
slice reads (multiplication matrices, ``product_form``) are checked against
the per-pair definition ``Algebra.product``.  Inputs carry denominators up to 6 and sparse tensors,
so many (i, j) slices are zero.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
import sympy

from levelone import (
    Algebra,
    CanonicalForm,
    Subspace,
    Tag,
    apply_basis_change,
    construct,
    deterministic_candidates,
    derived_subspace,
    extend_basis,
    random_algebra,
    rebase,
    recognize,
    span_witness_search,
    subspace_product,
    unit_vector,
)
from levelone.algebra import _frame, _scalar_action, product_form, products_vanish
from levelone.errors import BadDimension, SingularMatrix
from levelone.linalg import (
    _int_matrix,
    _inverse,
    char_poly,
    mat_det,
    mat_inverse,
    nullspace,
    rank,
    rref,
)


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def from_sympy(m):
    return [[F(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


def rational(rng, bound=5, den=6):
    return F(rng.randint(-bound, bound), rng.randint(1, den))


def invertible(rng, n):
    """A random rational matrix with non-trivial denominators and det != 0."""
    while True:
        g = [[rational(rng) for _ in range(n)] for _ in range(n)]
        if to_sympy(g).det() != 0:
            return g


def sparse_algebra(rng, n):
    """Tensor with small rational entries and mostly zero (i, j) slices."""
    density = rng.choice((0.1, 0.3, 0.6))
    return random_algebra(n, density, rng.randrange(2**31))


def sympy_contraction(a, g, h):
    """c'[k][i][j] = sum g[k][r] c[r][s][t] h[s][i] h[t][j], entry by entry."""
    n = a.dim
    c = [to_sympy(a.constants[r]) for r in range(n)]
    planes = [h.T * c[r] * h for r in range(n)]  # (h^T c_r h)[i][j]
    out = []
    for k in range(n):
        plane = sympy.zeros(n, n)
        for r in range(n):
            plane += g[k, r] * planes[r]
        out.append(from_sympy(plane))
    return Algebra(n, out)


CASES = [(n, seed) for n in (2, 3, 4) for seed in range(8)]


@pytest.mark.parametrize("n,seed", CASES)
def test_apply_basis_change_matches_sympy(n, seed):
    rng = random.Random(f"abc:{n}:{seed}")
    a = sparse_algebra(rng, n)
    g = invertible(rng, n)
    gs = to_sympy(g)
    assert apply_basis_change(a, g) == sympy_contraction(a, gs, gs.inv())


@pytest.mark.parametrize("n,seed", CASES)
def test_rebase_is_the_change_by_the_inverse_frame(n, seed):
    rng = random.Random(f"rebase:{n}:{seed}")
    a = sparse_algebra(rng, n)
    basis = [tuple(col) for col in zip(*invertible(rng, n))]
    frame = to_sympy([[basis[j][i] for j in range(n)] for i in range(n)])
    got, m = rebase(a, basis)
    assert m == from_sympy(frame.inv())
    assert got == apply_basis_change(a, from_sympy(frame.inv()))
    assert got == sympy_contraction(a, frame.inv(), frame)


@pytest.mark.parametrize("seed", range(40))
def test_rref_matches_sympy(seed):
    rng = random.Random(f"rref:{seed}")
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[rational(rng) if rng.random() < 0.6 else F(0) for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.5:  # a dependent row
        c = rational(rng)
        rows.append([c * x for x in rows[0]])
    got, pivots = rref(rows)
    want, want_pivots = to_sympy(rows).rref()
    rank = len(want_pivots)
    assert got == from_sympy(want[:rank, :])
    assert pivots == list(want_pivots)


def sympy_char_poly(m):
    """det(x*I - m) as {exponent: Fraction}, computed by sympy."""
    coeffs = to_sympy(m).charpoly().all_coeffs()  # leading coefficient first
    top = len(coeffs) - 1
    return {top - k: F(int(c.p), int(c.q)) for k, c in enumerate(coeffs) if c}


def square_matrix(rng, n, kind):
    """Dense, sparse or singular n x n rational matrix, denominators up to 6."""
    density = 0.3 if kind == "sparse" else 1.0
    m = [[rational(rng) if rng.random() < density else F(0) for _ in range(n)]
         for _ in range(n)]
    if kind == "singular":  # last row a combination of the others, or zero
        coeffs = [rational(rng) for _ in range(n - 1)]
        m[-1] = [sum((c * row[j] for c, row in zip(coeffs, m)), F(0)) for j in range(n)]
    return m


@pytest.mark.parametrize("kind", ["dense", "sparse", "singular"])
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("seed", range(3))
def test_det_and_char_poly_match_sympy(n, kind, seed):
    rng = random.Random(f"det:{n}:{kind}:{seed}")
    m = square_matrix(rng, n, kind)
    want = to_sympy(m).det()
    assert mat_det(m) == F(int(want.p), int(want.q))
    if kind == "singular":
        assert mat_det(m) == 0
    assert char_poly(m) == sympy_char_poly(m)


@pytest.mark.parametrize("n", range(1, 9))
def test_det_and_char_poly_of_zero(n):
    zero = [[F(0)] * n for _ in range(n)]
    assert mat_det(zero) == 0
    assert char_poly(zero) == sympy_char_poly(zero) == {n: 1}


@pytest.mark.parametrize("c", [F(0), F(1), F(-5, 6), F(7, 4)])
def test_det_and_char_poly_of_one_by_one(c):
    assert mat_det([[c]]) == c
    assert char_poly([[c]]) == sympy_char_poly([[c]])


def test_rref_of_zero_and_integer_rows():
    assert rref([[F(0), F(0)], [0, 0]]) == ([], [])
    assert rref([[2, 4, 0], [1, 2, 1]]) == ([[1, 2, 0], [0, 0, 1]], [0, 2])


@pytest.mark.parametrize("kind", ["dense", "sparse", "singular"])
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", range(3))
def test_rank_and_inverse_match_sympy(n, kind, seed):
    rng = random.Random(f"inv:{n}:{kind}:{seed}")
    m = square_matrix(rng, n, kind)
    want = to_sympy(m)
    assert rank(m) == want.rank()
    assert rank(m[:-1] + [[F(0)] * n]) == to_sympy(m[:-1] + [[F(0)] * n]).rank()
    if want.det() == 0:
        with pytest.raises(SingularMatrix, match="matrix is singular over Q"):
            mat_inverse(m)
    else:
        assert mat_inverse(m) == from_sympy(want.inv())


def sympy_frame(cands):
    """The candidates at the pivot columns of the matrix whose columns they are."""
    _, pivots = sympy.Matrix.hstack(*(to_sympy([v]).T for v in cands)).rref()
    return [tuple(cands[p]) for p in pivots]


def vector(rng, n, density=0.6):
    return tuple(rational(rng) if rng.random() < density else F(0) for _ in range(n))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", range(4))
def test_extend_basis_takes_the_pivot_columns(n, seed):
    rng = random.Random(f"frame:{n}:{seed}")
    units = [unit_vector(n, i) for i in range(n)]
    seeds = [vector(rng, n) for _ in range(rng.randint(1, n))]
    if to_sympy(seeds).rank() == len(seeds):
        assert extend_basis(n, seeds) == sympy_frame(seeds + units)
    pool = [vector(rng, n, 0.4) for _ in range(2 * n)] + units
    seeds = seeds[:1] if any(seeds[0]) else [units[0]]
    assert extend_basis(n, seeds, pool) == sympy_frame(seeds + pool)
    assert extend_basis(n, [], pool) == sympy_frame(pool)


def frame_cases(rng, n):
    """(seeds, pool) pairs whose frame exists: the default pool, seeds that
    already span (with and without a pool), a radical-like pool (the kernel
    of a random form, seeds outside it) and an eigenspace-like one (a
    hyperplane, one seed off it)."""
    units = [unit_vector(n, i) for i in range(n)]
    seeds = [vector(rng, n) for _ in range(rng.randint(1, n))]
    if to_sympy(seeds).rank() == len(seeds):
        yield seeds, None
    spanning = [tuple(col) for col in zip(*invertible(rng, n))]
    yield spanning, None
    yield spanning, [vector(rng, n) for _ in range(2)]
    r = rng.randint(1, n)
    form = [[rational(rng) for _ in range(n)] for _ in range(r)]
    radical = nullspace(form)
    seeds = [vector(rng, n) for _ in range(n - len(radical))]
    if to_sympy(seeds + radical).rank() == n:
        yield seeds, radical
        yield seeds[:1], [*radical, *seeds[1:], *units]
    normal = [rational(rng) or F(1) for _ in range(n)]
    hyperplane = nullspace([normal])
    seed = vector(rng, n)
    if sum(a * b for a, b in zip(normal, seed)):
        yield [seed], hyperplane
        yield [seed], [*hyperplane, seed, *units]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", range(4))
def test_frame_inverse_is_the_inverse_of_the_chosen_frame(n, seed):
    rng = random.Random(f"frame-inverse:{n}:{seed}")
    for seeds, pool in frame_cases(rng, n):
        basis, (den, rows) = _frame(n, seeds, pool)
        cands = seeds + (pool if pool is not None else [unit_vector(n, i) for i in range(n)])
        assert basis == extend_basis(n, seeds, pool) == sympy_frame(cands)
        frame = sympy.Matrix.hstack(*(to_sympy([v]).T for v in basis))
        assert type(den) is int and den > 0
        assert [[F(x, den) for x in row] for row in rows] == from_sympy(frame.inv())


def test_frame_of_dimension_zero():
    assert extend_basis(0, []) == []
    assert _frame(0, []) == ([], (1, []))


@pytest.mark.parametrize("kind", ["dense", "sparse", "singular"])
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", range(3))
def test_integer_inverse_over_one_denominator(n, kind, seed):
    rng = random.Random(f"int-inverse:{n}:{kind}:{seed}")
    _, m = _int_matrix(square_matrix(rng, n, kind))
    want = to_sympy([[F(x) for x in row] for row in m])
    if want.det() == 0:
        with pytest.raises(SingularMatrix, match="matrix is singular over Q"):
            _inverse(m)
        return
    den, rows = _inverse(m)
    inv = from_sympy(want.inv())
    assert [[F(x, den) for x in row] for row in rows] == inv == mat_inverse(m)
    assert den == math.lcm(*(x.denominator for row in inv for x in row))


def test_extend_basis_rejects_dependent_or_zero_seeds():
    x, y = (F(1), F(2), F(0)), (F(0), F(1, 3), F(-1))
    twice = tuple(2 * c for c in x)
    for seeds in ([x, twice], [x, y, tuple(a - b for a, b in zip(x, y))],
                  [(F(0),) * 3], [x, (F(0),) * 3],
                  [x, y, (F(0), F(0), F(1)), (F(1), F(0), F(0))]):  # more than a_dim
        with pytest.raises(SingularMatrix, match="seed vectors are linearly dependent"):
            extend_basis(3, seeds)


def test_extend_basis_rejects_a_pool_that_cannot_complete():
    x = (F(1), F(2), F(0))
    for pool in ([], [x], [(F(0), F(1), F(0)), (F(1, 2), F(1), F(0))], [(F(0),) * 3]):
        with pytest.raises(SingularMatrix, match="candidate pool does not complete the basis"):
            extend_basis(3, [x], pool)
    assert extend_basis(3, [x], [(F(0), F(1), F(0)), (F(0), F(0), F(5))]) == [
        x, (F(0), F(1), F(0)), (F(0), F(0), F(5))]
    assert extend_basis(0, []) == []


@pytest.mark.parametrize("n,seed", CASES)
def test_subspace_contains_matches_sympy_rank(n, seed):
    rng = random.Random(f"contains:{n}:{seed}")
    for _ in range(6):
        sub = random_subspace(rng, n)
        coeffs = [rational(rng) for _ in sub.basis]
        inside = tuple(sum((c * b[i] for c, b in zip(coeffs, sub.basis)), F(0))
                       for i in range(n))
        for v in (inside, vector(rng, n), (F(0),) * n):
            rows = [list(b) for b in sub.basis] + [list(v)]
            assert sub.contains(v) == (to_sympy(rows).rank() == sub.dim)
        assert sub.contains(inside)


def sympy_span(ambient, vectors):
    """The rref basis of span(vectors), computed by sympy."""
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return ()
    m, pivots = to_sympy(vectors).rref()
    return tuple(tuple(row) for row in from_sympy(m[: len(pivots), :]))


def random_subspace(rng, n):
    k = rng.randint(0, n)
    return Subspace.span(n, [[rational(rng) for _ in range(n)] for _ in range(k)])


@pytest.mark.parametrize("n,seed", CASES)
def test_subspace_product_is_the_span_of_pair_products(n, seed):
    rng = random.Random(f"sp:{n}:{seed}")
    a = sparse_algebra(rng, n)
    for u, w in [
        (random_subspace(rng, n), random_subspace(rng, n)),
        (Subspace.full(n), Subspace.full(n)),
        (derived_subspace(a), Subspace.full(n)),
        (Subspace.zero(n), Subspace.full(n)),
    ]:
        products = [a.product(x, y) for x in u.basis for y in w.basis]
        assert subspace_product(a, u, w).basis == sympy_span(n, products)
        assert products_vanish(a, u.basis, w.basis) == (sympy_span(n, products) == ())
    assert Subspace.full(n) == Subspace.span(n, [unit_vector(n, i) for i in range(n)])
    zero = (F(0),) * n
    assert products_vanish(a, [zero], Subspace.full(n).basis)
    assert products_vanish(a, Subspace.full(n).basis, [zero])
    every = [a.product(unit_vector(n, i), unit_vector(n, j))
             for i in range(n) for j in range(n)]
    assert derived_subspace(a).basis == sympy_span(n, every)


@pytest.mark.parametrize("n,seed", CASES)
def test_mult_matrices_are_product_columns(n, seed):
    rng = random.Random(f"mult:{n}:{seed}")
    a = sparse_algebra(rng, n)
    x = tuple(rational(rng) if rng.random() < 0.7 else F(0) for _ in range(n))
    left, right = a.left_mult_matrix(x), a.right_mult_matrix(x)
    for j in range(n):
        e = unit_vector(n, j)
        assert [row[j] for row in left] == list(a.product(x, e))
        assert [row[j] for row in right] == list(a.product(e, x))
        for i in range(n):
            assert a.basis_product(i, j) == a.product(unit_vector(n, i), e)


@pytest.mark.parametrize("n,seed", CASES)
def test_product_form_rebuilds_every_product(n, seed):
    """A rank-one tensor c[k][i][j] = z_k * B_ij has A^2 = span(z)."""
    rng = random.Random(f"form:{n}:{seed}")
    z = [rational(rng) for _ in range(n)]
    if not any(z):
        z[0] = F(1, 3)
    b = [[rational(rng) if rng.random() < 0.5 else F(0) for _ in range(n)] for _ in range(n)]
    if not any(map(any, b)):
        b[0][0] = F(-2, 5)
    a = Algebra(n, [[[z[k] * b[i][j] for j in range(n)] for i in range(n)] for k in range(n)])
    square = derived_subspace(a)
    assert square.dim == 1
    form = product_form(a, square)
    zs = square.basis[0]
    for i in range(n):
        for j in range(n):
            want = a.product(unit_vector(n, i), unit_vector(n, j))
            assert tuple(form[i][j] * c for c in zs) == want


def sympy_transport(a, g):
    """g.A(g^-1 x, g^-1 y) as a dense table, with h = g^-1 from sympy and the
    sum c'[k][i][j] = sum g[k][r] c[r][s][t] h[s][i] h[t][j] taken one index
    at a time."""
    n = a.dim
    h = g.inv()
    c = [[[sympy.Rational(x.numerator, x.denominator) for x in row] for row in plane]
         for plane in a.constants]
    idx = range(n)
    gc = [[[sum(g[k, r] * c[r][s][t] for r in idx) for t in idx] for s in idx] for k in idx]
    gch = [[[sum(gc[k][s][t] * h[s, i] for s in idx) for t in idx] for i in idx] for k in idx]
    out = [[[sum(gch[k][i][t] * h[t, j] for t in idx) for j in idx] for i in idx] for k in idx]
    return [[[F(int(x.p), int(x.q)) for x in row] for row in plane] for plane in out]


RECOGNIZED_FORMS = [
    (Tag.ABELIAN, None), (Tag.P_MINUS, None), (Tag.P_PLUS, None), (Tag.N3_MINUS, None),
    (Tag.N3_PLUS, None), (Tag.LAMBDA2, None), (Tag.NU, F(0)), (Tag.NU, F(1)),
    (Tag.NU, F(1, 2)), (Tag.NU, F(2, 3)), (Tag.NU, F(-3)),
]


def moved_forms():
    """(form, the canonical table under a random rational basis change), twice
    for every form at n = 2..5."""
    for n in (2, 3, 4, 5):
        for tag, alpha in RECOGNIZED_FORMS:
            try:
                form = CanonicalForm(tag, n, alpha)
            except BadDimension:
                continue
            for seed in range(2):
                rng = random.Random(f"recognize:{tag.value}:{alpha}:{n}:{seed}")
                yield form, apply_basis_change(construct(form), invertible(rng, n))


@pytest.mark.parametrize("form,a", list(moved_forms()), ids=lambda x: str(x)[:40])
def test_recognize_iso_transports_onto_the_canonical_table(form, a):
    res = recognize(a)
    assert res.form == form
    want = [[list(row) for row in plane] for plane in construct(form).constants]
    g = to_sympy(res.iso)
    assert sympy_transport(a, g) == want
    if g != g.T:  # the oracle tells the iso from its transpose
        assert sympy_transport(a, g.T) != want


# -- the scalar-action identity ------------------------------------------------


def square_and_plane_stay(a):
    """(x*x in Qx for every x, x*y in span(x, y) for every x, y), decided by
    sympy on symbolic x and y: every 2x2 minor of [x, x*x] and every 3x3
    minor of [x, y, x*y] must expand to the zero polynomial."""
    n = a.dim
    ring, *gens = sympy.ring([f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)],
                             sympy.QQ)
    xs, ys = gens[:n], gens[n:]
    c = a.constants

    def prod(u, v):
        return [sum((sympy.QQ(c[k][i][j].numerator, c[k][i][j].denominator) * u[i] * v[j]
                     for i in range(n) for j in range(n) if c[k][i][j]), ring.zero)
                for k in range(n)]

    sq, xy = prod(xs, xs), prod(xs, ys)
    on_line = all(xs[i] * sq[j] - xs[j] * sq[i] == 0
                  for i in range(n) for j in range(i + 1, n))
    in_plane = all(
        xs[p] * (ys[q] * xy[r] - ys[r] * xy[q]) - xs[q] * (ys[p] * xy[r] - ys[r] * xy[p])
        + xs[r] * (ys[p] * xy[q] - ys[q] * xy[p]) == 0
        for p, q, r in itertools.combinations(range(n), 3)
    ) if n >= 3 else None
    return on_line, in_plane


def scalar_action_table(n, a_form, b_form):
    """The tensor c^k_ij = a_i [k = j] + b_j [k = i]."""
    entries = {}
    for i in range(n):
        for j in range(n):
            for k, v in ((j, a_form[i]), (i, b_form[j])):
                if v:
                    entries[(k, i, j)] = entries.get((k, i, j), 0) + v
    return Algebra.from_entries(n, {key: v for key, v in entries.items() if v})


def perturbed(a, rng):
    """One entry of the table changed: set to a new value or removed."""
    n = a.dim
    entries = a.entries()
    key = rng.choice(list(entries)) if entries and rng.random() < 0.3 else \
        (rng.randrange(n), rng.randrange(n), rng.randrange(n))
    entries[key] = 0 if key in entries and rng.random() < 0.5 else rational(rng) or F(1)
    return Algebra.from_entries(n, {key: v for key, v in entries.items() if v})


def identity_inputs(n):
    """Moved nu(alpha) and pminus, their one-entry perturbations, planar
    tensors with independent forms, squares-on-lines tensors with a skew
    part, each also with one column shifted (``column_shifted``), and random
    algebras."""
    rng = random.Random(f"identity:{n}")
    out = []
    for form in [CanonicalForm(Tag.NU, n, al) for al in (F(0), F(1), F(1, 2), F(2, 3), F(-3))] + \
            [CanonicalForm(Tag.P_MINUS, n)]:
        moved = apply_basis_change(construct(form), invertible(rng, n))
        out += [moved, perturbed(moved, rng), perturbed(construct(form), rng)]
    lines = []
    for _ in range(5):
        lam = [rational(rng) for _ in range(n)]
        c = sparse_algebra(rng, n).constants
        squares = scalar_action_table(n, lam, lam).constants
        # x*x = lam(x) x, plus the skew part of a random table
        on_lines = {(k, i, j): squares[k][i][j] + c[k][i][j] - c[k][j][i]
                    for k in range(n) for i in range(n) for j in range(n)}
        lines.append(Algebra.from_entries(n, {key: v for key, v in on_lines.items() if v}))
        out += [scalar_action_table(n, [rational(rng) for _ in range(n)],
                                    [rational(rng) for _ in range(n)]),
                lines[-1],
                sparse_algebra(rng, n)]
    return out + [column_shifted(a, rng) for a in lines]


def column_shifted(a, rng):
    """e_p*e_q moved by d (e_p + e_q), p != q, so that x*x gains
    d x_p x_q (e_p + e_q).  On a squares-on-lines tensor, x ^ x*x becomes
    d x_p x_q (x ^ (e_p + e_q)), which vanishes on every basis vector and
    pairwise sum but not at 2 e_p + e_q.  One shifted entry could not do
    this: it adds d x_i x_j (x ^ e_k), with a monomial x_i^2 x_j or
    x_k^2 x_a, which some e_i or pairwise sum sees."""
    n = a.dim
    p, q = rng.sample(range(n), 2)
    d = rational(rng) or F(1)
    entries = a.entries()
    for key in ((p, p, q), (q, p, q)):
        entries[key] = entries.get(key, 0) + d
    return Algebra.from_entries(n, {key: v for key, v in entries.items() if v})


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_scalar_action_identity_matches_sympy(n):
    """The kernel's verdict on the symmetrised tensor is "every square on its
    line" and on the tensor "every product in its plane" (n >= 3), as
    sympy expands them; when it holds, A, B and D rebuild the tensor.  The
    classifier's grids are complete: its square and pair searches find a
    witness exactly where sympy says one exists, and a column-shifted
    squares-on-lines tensor needs one of the form 2 e_p + e_q."""
    seen = set()
    inputs = identity_inputs(n)
    for idx, a in enumerate(inputs):
        on_line, in_plane = square_and_plane_stay(a)
        assert (_scalar_action(a, symmetrised=True) is not None) == on_line
        x = span_witness_search(a, "square")
        assert (x is None) == on_line
        action = _scalar_action(a)
        if n >= 3:
            assert (action is not None) == in_plane
            assert (span_witness_search(a, "pair") is None) == in_plane
        if action is not None:
            A, B, D = action
            assert a == scalar_action_table(n, [F(x, D) for x in A], [F(x, D) for x in B])
        if idx >= len(inputs) - 5:  # column_shifted
            assert x not in deterministic_candidates(n)
            assert sorted(x) == [0] * (n - 2) + [1, 2]
        seen.add((on_line, action is not None))
    # at n = 2 squares on their lines make the tensor planar: its skew part
    # e1*e2 = -e2*e1 = v is a_1 e2 - a_2 e1 for a = (v_2, -v_1)
    assert seen == {(True, True), (False, False)} | ({(True, False)} if n >= 3 else set())


def test_scalar_action_needs_dimension_two():
    assert _scalar_action(construct(CanonicalForm(Tag.NU, 1))) is None
    assert _scalar_action(construct(CanonicalForm(Tag.NU, 1)), symmetrised=True) is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_scalar_action_fails_on_a_missing_column(n):
    """Removing any one column of nu(2/3) or pminus leaves a tensor without
    the form, though each column left has its entries in its own plane."""
    for form in (CanonicalForm(Tag.NU, n, F(2, 3)), CanonicalForm(Tag.P_MINUS, n)):
        entries = construct(form).entries()
        for i, j in {(i, j) for _, i, j in entries}:
            a = Algebra.from_entries(n, {key: v for key, v in entries.items()
                                         if key[1:] != (i, j)})
            assert _scalar_action(a) is None

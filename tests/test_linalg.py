import copy
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from levelone import DegreeOverflow, SingularMatrix
from levelone.linalg import (
    _bareiss_dicts,
    _bareiss_packed,
    _packing,
    bareiss,
    char_poly,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_mul,
    nullspace,
    rank,
    rref,
)
from levelone.poly import MAX_DEGREE

from conftest import invertible_matrices


def test_rref_is_canonical():
    rows = [[F(2), F(4), F(0)], [F(1), F(2), F(1)]]
    got, pivots = rref(rows)
    assert got == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]
    assert pivots == [0, 2]


def test_rref_equal_row_spaces_agree():
    rows_a = [[F(1), F(1)], [F(0), F(1)]]
    rows_b = [[F(2), F(3)], [F(5), F(4)]]
    assert rref(rows_a)[0] == rref(rows_b)[0]


@given(invertible_matrices(4))
@settings(max_examples=40)
def test_inverse_round_trip(m):
    assert mat_mul(m, mat_inverse(m)) == mat_identity(4)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrix):
        mat_inverse([[F(1), F(2)], [F(2), F(4)]])
    assert mat_det([[F(1), F(2)], [F(2), F(4)]]) == 0


@given(invertible_matrices(3), invertible_matrices(3))
@settings(max_examples=40)
def test_det_is_multiplicative(a, b):
    assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


def test_nullspace_of_rank_one():
    rows = [[F(1), F(2), F(3)]]
    basis = nullspace(rows)
    assert len(basis) == 2
    for v in basis:
        assert sum(c * x for c, x in zip(rows[0], v)) == 0
    assert rank([list(v) for v in basis]) == 2


def test_char_poly_diagonal():
    m = [[F(2), F(0)], [F(0), F(3)]]
    # (x - 2)(x - 3) = x^2 - 5x + 6
    assert char_poly(m) == {2: F(1), 1: F(-5), 0: F(6)}


@given(st.integers(0, 2**32))
def test_char_poly_matches_det_of_shift(seed):
    """Oracle: p(c) = det(c*I - m) for a handful of rational points c."""
    from levelone import random_invertible_matrix
    from levelone.poly import poly_eval

    m = random_invertible_matrix(4, random.Random(seed))
    p = char_poly(m)
    for c in (F(0), F(1), F(-2), F(1, 3)):
        shifted = [
            [(c if i == j else F(0)) - m[i][j] for j in range(4)] for i in range(4)
        ]
        assert poly_eval(p, c) == mat_det(shifted)


# -- bareiss: the packed elimination against the term-by-term one ------------


def eliminated(f, rows):
    """(sign * d, sign * right-hand block) of f on a copy of rows, zero terms
    dropped: det B and adj(B).X, whatever the pivots; (0, None) when B is
    singular, "overflow" on DegreeOverflow."""
    rows = copy.deepcopy(rows)
    try:
        sign, d = f(rows)
    except DegreeOverflow:
        return "overflow"
    if not sign:
        return 0, None

    def signed(p):
        return {e: sign * c for e, c in p.items() if c}

    return signed(d), [[signed(p) for p in row[len(rows):]] for row in rows]


def packed(rows):
    return _bareiss_packed(rows, _packing(rows)[1])


@st.composite
def eliminations(draw):
    """[B | X] with n = 1..6 and 0, 1, 2 or n right-hand columns: small or
    40-digit coefficients of either sign, low or sparse high powers, and
    sometimes a zero row or a repeated row of B (singular)."""
    n = draw(st.integers(1, 6))
    m = draw(st.sampled_from([0, 1, 2, n]))
    bound = draw(st.sampled_from([3, 10**40]))
    coeff = st.integers(-bound, bound).filter(bool)
    if n <= 3 and draw(st.booleans()):  # sparse high powers
        poly = st.dictionaries(st.integers(0, 300), coeff, max_size=2)
    else:
        poly = st.dictionaries(st.integers(0, 2), coeff, max_size=3)
    rows = draw(st.lists(st.lists(poly, min_size=n + m, max_size=n + m),
                         min_size=n, max_size=n))
    shape = draw(st.sampled_from(["any", "zero row", "repeated row"]))
    if n > 1 and shape == "zero row":
        rows[draw(st.integers(0, n - 1))] = [{} for _ in range(n + m)]
    elif n > 1 and shape == "repeated row":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[i][:n] = [dict(p) for p in rows[j][:n]]
    return rows


@given(eliminations())
@settings(max_examples=200, deadline=None)
def test_packed_elimination_matches_the_dict_loop(rows):
    want = eliminated(_bareiss_dicts, rows)
    assert want != "overflow"
    assert eliminated(packed, rows) == want
    assert eliminated(bareiss, rows) == want


@st.composite
def at_the_degree_bound(draw, D):
    """[B | X] whose row degrees sum to D: one term t^deg_i per row, the
    other entries sparse, of degree at most deg_i."""
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from([0, 1, n]))
    cuts = sorted(draw(st.lists(st.integers(0, D), min_size=n - 1, max_size=n - 1)))
    degs = [b - a for a, b in zip([0, *cuts], [*cuts, D])]
    rows = []
    for deg in degs:
        exps = st.integers(0, deg)
        row = draw(st.lists(st.dictionaries(exps, st.integers(-3, 3).filter(bool), max_size=2),
                            min_size=n + m, max_size=n + m))
        col = draw(st.integers(0, n + m - 1))
        row[col] = {**row[col], deg: draw(st.integers(-3, 3).filter(bool))}
        rows.append(row)
    assert _packing(rows)[0] == D
    return rows


@given(at_the_degree_bound(MAX_DEGREE))
@settings(max_examples=10, deadline=None)
def test_no_minor_passes_max_degree_at_the_bound(rows):
    # bareiss runs the dict loop here, past the bit budget; had it packed,
    # it would have given the same answer
    want = eliminated(_bareiss_dicts, rows)
    assert want != "overflow"
    assert eliminated(bareiss, rows) == want
    assert eliminated(packed, rows) == want


@given(at_the_degree_bound(MAX_DEGREE + 1))
@settings(max_examples=10, deadline=None)
def test_past_the_bound_bareiss_is_the_dict_loop(rows):
    # a minor may now pass MAX_DEGREE, and then both raise DegreeOverflow
    assert eliminated(bareiss, rows) == eliminated(_bareiss_dicts, rows)


@pytest.mark.parametrize("second,raises", [(5000, False), (5001, True)])
def test_degree_overflow_on_the_determinant_at_the_bound(second, raises):
    # diag(t^5000, t^second): D = 10000 and 10001, det of degree D
    rows = [[{5000: 1}, {}, {0: 1}], [{0: 2}, {second: -1}, {}]]
    got = eliminated(bareiss, rows)
    assert got == ("overflow" if raises else ({5000 + second: -1}, [[{second: -1}], [{0: -2}]]))


@pytest.mark.parametrize("seed", range(6))
def test_bareiss_gives_the_sympy_determinant_and_adjugate(seed):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    rng = random.Random(seed)
    n = 1 + seed % 4
    m = rng.choice([1, 2, n])
    rows = [[{e: c for e, c in ((rng.randint(0, 3), rng.randint(-5, 5)) for _ in range(2)) if c}
             for _ in range(n + m)] for _ in range(n)]

    def expr(p):
        return sum((c * t**e for e, c in p.items()), sympy.Integer(0))

    def poly(x):
        return {e: int(c) for (e,), c in sympy.Poly(sympy.expand(x), t).terms() if c}

    B = sympy.Matrix([[expr(p) for p in row[:n]] for row in rows])
    X = sympy.Matrix([[expr(p) for p in row[n:]] for row in rows])
    det, rhs = eliminated(bareiss, rows)
    assert (det or {}) == poly(B.det())
    if not det:
        return
    assert rhs == [[poly(x) for x in row] for row in (B.adjugate() * X).tolist()]

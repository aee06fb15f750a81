"""Structure-constant algebras over Q.

An algebra of dimension n is a tensor c[k][i][j]: the coefficient of basis
vector k in the product of basis vectors i and j (0-based internally;
interchange formats are 1-based).  Any tensor is a valid algebra, products
are bilinear by construction.  Vectors are tuples of Fractions.

``Algebra`` stores the tensor once, sparse and over Z, as the nonzero
columns C[:, i, j] of C = cden * c, cden the lcm of the entry denominators;
the dense table of Fractions is a view built on first use.  Equality, the predicates and the kernels
(``Algebra.product``, ``apply_basis_change``, ``rebase``,
``subspace_product`` and its zero test ``products_vanish``, the
multiplication matrices) read the stored form,
scale vectors and matrices to integers, accumulate in Python ints and
divide once at the end.

One integer contraction, ``_contract``, is behind ``apply_basis_change``,
``rebase`` and the t -> 0 read-off of a row-monomial family diag(t^e) * m in
``transport``.  Given e, it forms only the entries (k, i, j) with
e_k <= e_i + e_j, the ones that do not vanish at t = 0; without e it forms
every entry.  It takes both matrices over Z as (den, integer rows): each
caller scales its rational input once, and an inverse comes straight from
the integer elimination (``linalg._inverse``) with no Fraction in between.
The limits ``transport`` reads off Z[t] are stored by ``_integer_algebra``:
integer columns over one denominator, divided by their gcd.

``_frame`` completes seed vectors to a frame and returns the frame's
inverse from the same elimination; ``extend_basis`` is its basis.  The
classifier's witnesses and the recognizer's isos are such inverses, written
down from integer reads instead, and their tests take ``_frame`` as the
reference.

``_scalar_action`` decides in one read of the slices, in ints, whether the
tensor is c^k_ij = a_i [k = j] + b_j [k = i] for linear forms a and b: the
scalar-action shape of nu(alpha) (a = alpha phi, b = (1 - alpha) phi) and
of pminus (b = -a).  It is the identity behind every product staying in the
plane of its factors (n >= 3), and, on the symmetrised tensor, behind every
square staying on its line (n >= 2); the classifier writes its pminus and
nu frame inverses down from its (A, B, D), and the recognizer its pminus and
nu matches.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .linalg import _int_matrix, _inverse_of
from .errors import DimensionMismatch, SingularMatrix

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(x: Vector, c: Fraction) -> Vector:
    return tuple(c * a for a in x)


def vec_is_zero(x: Vector) -> bool:
    return not any(x)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def proportionality(p: Vector, v: Vector) -> Fraction | None:
    """The scalar c with p = c*v, or None; v must be nonzero."""
    pivot = next(i for i, x in enumerate(v) if x)
    c = p[pivot] / v[pivot]
    if all(x == c * y for x, y in zip(p, v)):
        return c
    return None


@dataclass(frozen=True, init=False)
class Algebra:
    """Immutable algebra stored as (dim, cden, slices): C = cden * c is the
    tensor over Z, cden the lcm of the reduced entry denominators, and
    slices = {(i, j): ((k, C[k][i][j]), ...)} holds the nonzero columns with
    k increasing.  The form is canonical: equal tensors have equal fields."""

    dim: int
    _cden: int
    _slices: dict = field(hash=False)

    def __init__(self, dim: int, constants):
        """The algebra of the dense table constants[k][i][j]."""
        n = dim
        if len(constants) != n or any(
            len(plane) != n or any(len(row) != n for row in plane) for plane in constants
        ):
            raise DimensionMismatch("structure tensor shape does not match dim")
        _store(self, n, (((k, i, j), plane[i][j])
                         for i in range(n) for j in range(n) for k, plane in enumerate(constants)))

    @classmethod
    def zero(cls, n: int) -> "Algebra":
        return cls.from_entries(n, {})

    @classmethod
    def from_entries(cls, n: int, entries: dict) -> "Algebra":
        """Build from {(k, i, j): coeff} with 0-based indices in 0..n-1."""
        for key in entries:
            if len(key) != 3 or not all(isinstance(x, int) and 0 <= x < n for x in key):
                raise DimensionMismatch(f"entry index {key} outside 0..{n - 1}")
        ordered = sorted(entries.items(), key=lambda e: (e[0][1], e[0][2], e[0][0]))
        return _store(object.__new__(cls), n, ordered)

    @functools.cached_property
    def constants(self) -> tuple:
        """The dense table constants[k][i][j] of Fractions, built on first use."""
        n = self.dim
        table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (k, i, j), v in self.entries().items():
            table[k][i][j] = v
        return tuple(tuple(tuple(row) for row in plane) for plane in table)

    def entries(self) -> dict:
        """{(k, i, j): c[k][i][j]} over the nonzero entries; inverse of from_entries."""
        return {(k, i, j): Fraction(c, self._cden)
                for (i, j), hits in self._slices.items() for k, c in hits}

    def integer_slices(self) -> tuple[int, dict]:
        """The stored (cden, slices), read-only."""
        return self._cden, self._slices

    # -- products -----------------------------------------------------
    def product(self, x: Vector, y: Vector) -> Vector:
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatch("vector length does not match algebra dimension")
        dx, xs = _int_vector(x)
        dy, ys = _int_vector(y)
        out = [0] * n
        for (i, j), hits in self._slices.items():
            xy = xs[i] * ys[j]
            if xy:
                for k, c in hits:
                    out[k] += c * xy
        den = self._cden * dx * dy
        return tuple(_fraction(v, den) for v in out)

    def basis_product(self, i: int, j: int) -> Vector:
        """e_i * e_j: the column c[:, i, j] of the tensor."""
        col = [ZERO] * self.dim
        for k, c in self._slices.get((i, j), ()):
            col[k] = Fraction(c, self._cden)
        return tuple(col)

    def left_mult_matrix(self, x: Vector) -> list:
        """Matrix of v -> x * v: entry (k, j) is sum_i x_i c[k][i][j]."""
        return _mult_matrix(self, x, left=True)

    def right_mult_matrix(self, x: Vector) -> list:
        """Matrix of v -> v * x: entry (k, i) is sum_j c[k][i][j] x_j."""
        return _mult_matrix(self, x, left=False)

    # -- predicates -----------------------------------------------------
    def is_abelian(self) -> bool:
        return not self._slices

    def is_commutative(self) -> bool:
        slices = self._slices
        return all(slices.get((j, i)) == hits for (i, j), hits in slices.items())

    def is_anticommutative(self) -> bool:
        """Skew tensor; over Q this is the same as x*x = 0 for every x."""
        slices = self._slices
        for (i, j), hits in slices.items():
            other = slices.get((j, i), ())
            if len(other) != len(hits):
                return False
            for (k, c), (l, d) in zip(hits, other):
                if k != l or c != -d:
                    return False
        return True

    def is_nilpotent(self) -> bool:
        powers = ideal_powers(self)
        return powers[-1].dim == 0


def _store(a: Algebra, n: int, entries) -> Algebra:
    """Give ``a`` the stored form of the ((k, i, j), value) pairs, which come
    in (i, j, k) order; zero values are skipped."""
    if n < 1:
        raise DimensionMismatch("dimension must be positive")
    nonzero = [(kij, q) for kij, v in entries
               if v and (q := v if type(v) in (int, Fraction) else Fraction(v))]
    cden = math.lcm(*(q.denominator for _, q in nonzero))
    slices: dict = {}
    for (k, i, j), q in nonzero:
        slices.setdefault((i, j), []).append((k, q.numerator * (cden // q.denominator)))
    return _stored(a, n, cden, {ij: tuple(hits) for ij, hits in slices.items()})


def _stored(a: Algebra, n: int, cden: int, slices: dict) -> Algebra:
    """``a`` with a stored form that is already canonical."""
    vars(a).update(dim=n, _cden=cden, _slices=slices)  # frozen: no setattr
    return a


# -- integer scaling of vectors and matrices ----------------------------------


def _int_vector(v) -> tuple[int, list]:
    """(den, den * v) over Z, den the lcm of the entry denominators."""
    den = math.lcm(*(x.denominator for x in v))
    return den, [x.numerator * (den // x.denominator) for x in v]


def _primitive(v: Vector) -> list:
    """The primitive integer vector on the line of a rational vector; zero
    stays zero."""
    ints = _int_vector(v)[1]
    g = math.gcd(*ints) or 1
    return [x // g for x in ints]


def _fraction(num: int, den: int) -> Fraction:
    return Fraction(num, den) if num else ZERO


def _mult_matrix(a: Algebra, x: Vector, left: bool) -> list:
    n = a.dim
    if len(x) != n:
        raise DimensionMismatch("vector length does not match algebra dimension")
    dx, xs = _int_vector(x)
    acc = [[0] * n for _ in range(n)]
    for (i, j), hits in a._slices.items():
        xi, col = (xs[i], j) if left else (xs[j], i)
        if xi:
            for k, c in hits:
                acc[k][col] += c * xi
    den = dx * a._cden
    return [[_fraction(v, den) for v in row] for row in acc]


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n held in reduced row echelon form.

    The canonical basis makes equality of subspaces plain dataclass equality.
    """

    ambient: int
    basis: tuple  # rref rows, tuple of coordinate tuples

    @classmethod
    def span(cls, ambient: int, vectors) -> "Subspace":
        rows, _ = linalg.rref([list(v) for v in vectors])
        return cls(ambient, tuple(tuple(r) for r in rows))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, tuple(unit_vector(ambient, i) for i in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        return linalg.rank([*self.basis, v]) == self.dim

    def join(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        return Subspace.span(self.ambient, list(self.basis) + list(other.basis))


def subspace_product(a: Algebra, u: Subspace, w: Subspace) -> Subspace:
    """span{ x*y : x in basis(u), y in basis(w) }; exact since products are bilinear."""
    n = a.dim
    if u.ambient != n or w.ambient != n:
        raise DimensionMismatch("subspace ambient dimension does not match algebra")
    return Subspace.span(n, _pair_products(a, u.basis, w.basis))


def products_vanish(a: Algebra, xs, ys) -> bool:
    """Whether x*y = 0 for every x in xs and y in ys; a zero test, no span."""
    return not any(map(any, _pair_products(a, xs, ys)))


def _pair_products(a: Algebra, xs, ys):
    """The products x*y, x in xs and y in ys, as integer vectors.

    Each vector is scaled to a primitive integer vector on its line and each
    product accumulated in ints; scaling changes neither a span nor a zero.
    """
    n = a.dim
    slices = a._slices
    ys = [_primitive(y) for y in ys]
    for x in map(_primitive, xs):
        for y in ys:
            p = [0] * n
            for (i, j), hits in slices.items():
                xy = x[i] * y[j]
                if xy:
                    for k, c in hits:
                        p[k] += c * xy
            yield p


def _scalar_action(a: Algebra, symmetrised: bool = False) -> tuple | None:
    """(A, B, D) over Z with c^k_ij = (A_i [k = j] + B_j [k = i]) / D, or
    None when the tensor has no such form; with ``symmetrised`` the tensor
    read is c^k_ij + c^k_ji.  None in dimension 1, where A and B are not
    unique.

    With C = cden * c, the sums u_i = sum_k C[k][i][k] and
    w_i = sum_k C[k][k][i] of a tensor of the form are u = n a + b and
    w = a + n b in units of 1 / cden, so A = n u - w and B = n w - u over
    D = (n^2 - 1) cden.  The read stops at the first entry of a column
    (i, j) off the plane of e_i and e_j, so a tensor far from the form
    costs little; the two entries each column may have are then checked
    against the prediction.  A missing predicted column fails too: the form
    tensor would be the input plus the missing columns, with the same u and
    w, but the missing columns add r A_i + d (A_i + B_i) to u_i and
    c B_i + d (A_i + B_i) to w_i (r and c counting them off the diagonal in
    row and column i, d on it), which cannot all vanish unless no column is
    missing.
    """
    n = a.dim
    if n < 2:
        return None
    u, w = [0] * n, [0] * n
    cols = []  # (i, j, C[i][i][j], C[j][i][j])
    for (i, j), hits in _symmetrised(a._slices) if symmetrised else a._slices.items():
        ci = cj = 0
        for k, c in hits:
            if k == j:
                u[i] += c
                cj = c
            if k == i:
                w[j] += c
                ci = c
            elif k != j:
                return None
        cols.append((i, j, ci, cj))
    A = [n * x - y for x, y in zip(u, w)]
    B = [n * y - x for x, y in zip(u, w)]
    m = n * n - 1
    for i, j, ci, cj in cols:
        if i == j:
            if m * ci != A[i] + B[i]:
                return None
        elif m * cj != A[i] or m * ci != B[j]:
            return None
    return A, B, m * a._cden


def _symmetrised(slices: dict):
    """The nonzero columns of C[k][i][j] + C[k][j][i] as ((i, j), hits) in
    the stored form, made one at a time so that a reader may stop early."""
    for (i, j), hits in slices.items():
        if i > j and (j, i) in slices:
            continue  # made with (j, i)
        col = dict(hits)
        for k, c in slices.get((j, i), ()):
            col[k] = col.get(k, 0) + c
        merged = tuple(sorted((k, c) for k, c in col.items() if c))
        if merged:
            yield (i, j), merged
            if i != j:
                yield (j, i), merged


def ideal_powers(a: Algebra) -> list:
    """[A^1, ..., A^(n+1)] under A^m = sum of A^p * A^q with p + q = m.

    The ladder is decreasing, so A^(n+1) = 0 is equivalent to nilpotency.
    """
    n = a.dim
    powers = [Subspace.full(n)]
    for m in range(2, n + 2):
        acc = Subspace.zero(n)
        for p in range(1, m):
            q = m - p
            acc = acc.join(subspace_product(a, powers[p - 1], powers[q - 1]))
        powers.append(acc)
        if acc.dim == 0:
            while len(powers) < n + 1:
                powers.append(acc)
            break
    return powers


def derived_subspace(a: Algebra) -> Subspace:
    """A^2: the span of the columns c[:, i, j], read as integer slices."""
    n = a.dim
    vectors = []
    for hits in a._slices.values():
        v = [0] * n
        for k, c in hits:
            v[k] = c
        vectors.append(v)
    return Subspace.span(n, vectors)


@dataclass(frozen=True)
class InvariantVector:
    """Basis-change invariants used to separate the canonical algebras."""

    dim: int
    power_dims: tuple  # dim A^2, dim A^3, ... truncated at stabilization
    commutative: bool
    anticommutative: bool
    nilpotent: bool
    sym_rank: int | None = None  # only when dim A^2 = 1
    skew_rank: int | None = None


def product_form(a: Algebra, square: Subspace) -> list:
    """When dim A^2 = 1 write e_i * e_j = B[i][j] * z for the spanning z.

    B[i][j] is c[pivot][i][j] / z[pivot], pivot the first nonzero entry of z.
    """
    n = a.dim
    z = square.basis[0]
    pivot = next(i for i, v in enumerate(z) if v)
    den = z[pivot] * a._cden
    b = [[ZERO] * n for _ in range(n)]
    for (i, j), hits in a._slices.items():
        b[i][j] = dict(hits).get(pivot, 0) / den
    return b


def invariant_vector(a: Algebra) -> InvariantVector:
    powers = ideal_powers(a)
    dims = [s.dim for s in powers[1:]]
    trimmed: list[int] = []
    for k, d in enumerate(dims):
        trimmed.append(d)
        if d == 0 or (k > 0 and dims[k - 1] == d):
            break
    sym_rank = skew_rank = None
    if dims[0] == 1:
        b = product_form(a, powers[1])
        n = a.dim
        sym = [[b[i][j] + b[j][i] for j in range(n)] for i in range(n)]
        skew = [[b[i][j] - b[j][i] for j in range(n)] for i in range(n)]
        sym_rank = linalg.rank(sym)
        skew_rank = linalg.rank(skew)
    return InvariantVector(
        dim=a.dim,
        power_dims=tuple(trimmed),
        commutative=a.is_commutative(),
        anticommutative=a.is_anticommutative(),
        nilpotent=powers[-1].dim == 0,
        sym_rank=sym_rank,
        skew_rank=skew_rank,
    )


def apply_basis_change(a: Algebra, g: list) -> Algebra:
    """Transport the tensor by an invertible rational matrix g.

    The result is the isomorphic algebra with products
    (x, y) -> g(a(g^-1 x, g^-1 y)); entry formula
    c'[k][i][j] = sum g[k][r] c[r][s][t] ginv[s][i] ginv[t][j].
    """
    n = a.dim
    if len(g) != n or any(len(row) != n for row in g):
        raise DimensionMismatch("matrix size does not match algebra dimension")
    g = _int_matrix(g)
    return _contract(a, g, _inverse_of(g))  # raises SingularMatrix


def _contract(a: Algebra, g: tuple, h: tuple, e=None) -> Algebra:
    """The tensor c'[k][i][j] = sum g[k][r] c[r][s][t] h[s][i] h[t][j],
    formed only where e_k <= e_i + e_j; the other entries are left 0.

    g and h come over Z as (dg, G) and (dh, H), g = G / dg and h = H / dh,
    straight from an elimination or from one scaling of a rational matrix.
    For a family diag(t^e) * g with h = g^-1, entry (k, i, j) of the
    transported tensor is t^(e_k - e_i - e_j) c'[k][i][j], so the entries
    left out are exactly those that vanish at t = 0.  No exponents means
    e = 0: every entry is formed.

    With C = cden * c over Z, the sum G.C.(H x H) runs in ints over the
    nonzero (s, t) slices of C, and only over the pairs (i, j) with
    e_i + e_j >= min(e), visiting only the i that have such a pair; taken by
    e_i + e_j descending, the pairs that row k of G needs are a prefix of
    them.  The result's stored form is the integer tensor over
    dg * dh^2 * cden, both divided by their gcd.
    """
    n = a.dim
    cden, slices = a._cden, a._slices
    dg, G = g
    dh, H = h
    pairs, width, by_i = _pair_order((0,) * n if e is None else tuple(e))
    mid = [[0] * len(pairs) for _ in range(n)]  # mid[r][p] = (C.(H x H))[r][pairs[p]]
    for (s, t), hits in slices.items():
        hs, ht = H[s], H[t]
        for i, js in by_i:
            x = hs[i]
            if x:
                for j, p in js:
                    y = ht[j]
                    if y:
                        xy = x * y
                        for r, c in hits:
                            mid[r][p] += c * xy
    live = [(r, plane) for r, plane in enumerate(mid) if any(plane)]
    out = []  # out[k][p] = (G.C.(H x H))[k][pairs[p]] for p < width[k]
    for grow, w in zip(G, width):
        acc = [0] * w
        for r, plane in live:
            f = grow[r]
            if f:
                acc = [u + f * v for u, v in zip(acc, plane)]
        out.append(acc)
    den = dg * dh * dh * cden
    g = math.gcd(den, *itertools.chain.from_iterable(out))
    cols = []
    for ij, col in zip(pairs, itertools.zip_longest(*out, fillvalue=0)):
        if any(col):
            cols.append((ij, tuple((k, v // g) for k, v in enumerate(col) if v)))
    return _stored(object.__new__(Algebra), n, den // g, dict(sorted(cols)))


def _integer_algebra(n: int, den: int, cols: dict) -> Algebra:
    """The algebra c = C / den for the nonzero integer columns
    cols = {(i, j): ((k, C[k][i][j]), ...)}, given in (i, j) order with k
    increasing: its stored form is C and den divided by their gcd, signed
    so that the denominator is positive."""
    g = math.gcd(den, *(c for hits in cols.values() for _, c in hits))
    if den < 0:
        g = -g
    if g != 1:
        cols = {ij: tuple((k, c // g) for k, c in hits) for ij, hits in cols.items()}
    return _stored(object.__new__(Algebra), n, den // g, cols)


@functools.lru_cache(maxsize=64)
def _pair_order(e: tuple) -> tuple:
    """(pairs, width, by_i) for ``_contract``: the pairs (i, j) with
    e_i + e_j >= min(e) by e_i + e_j descending, the length of row k's
    prefix of them, and by_i = ((i, ((j, position of (i, j)), ...)), ...)
    over the rows i that have such a pair."""
    n = len(e)
    lo = min(e)
    pairs = sorted(((i, j) for i in range(n) for j in range(n) if e[i] + e[j] >= lo),
                   key=lambda ij: -e[ij[0]] - e[ij[1]])
    sums = [-e[i] - e[j] for i, j in pairs]  # ascending
    width = [bisect.bisect_right(sums, -ek) for ek in e]
    by_i = [[] for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        by_i[i].append((j, p))
    return (tuple(pairs), tuple(width),
            tuple((i, tuple(js)) for i, js in enumerate(by_i) if js))


def _frame_matrix(n: int, basis: list) -> tuple[int, list]:
    """(den, den * F) over Z for the frame F whose columns are the basis."""
    return _int_matrix([[basis[j][i] for j in range(n)] for i in range(n)])


def rebase(a: Algebra, basis: list) -> tuple[Algebra, list]:
    """Express the algebra in the given basis (columns of the new frame).

    Returns (algebra in the new coordinates, the matrix that realizes it),
    i.e. apply_basis_change(a, m) with m the inverse of the frame matrix;
    the frame itself is m^-1, so it is inverted once.
    """
    h = _frame_matrix(a.dim, basis)
    try:
        g = _inverse_of(h)
    except SingularMatrix:
        raise SingularMatrix("proposed basis is linearly dependent")
    return _contract(a, g, h), linalg._fractions(g)


def extend_basis(a_dim: int, vectors: list, pool: list | None = None) -> list:
    """Complete independent vectors to a full basis.

    Candidates are drawn greedily from ``pool`` (standard basis vectors by
    default) in order, so the completion is deterministic: the chosen ones
    are the pivot columns of the matrix whose columns are the seeds and then
    the pool.  Raises when the pool cannot reach full rank.
    """
    return _frame(a_dim, vectors, pool)[0]


def _frame(n: int, seeds: list, pool: list | None = None) -> tuple[list, tuple]:
    """(basis, inverse): ``extend_basis(n, seeds, pool)`` and the inverse
    (den, rows) of the frame whose columns it is, from one elimination.

    The matrix whose columns are the seeds, then the pool, then I is
    eliminated once, each row scaled to integers; with the default pool,
    the pool block is I and nothing is appended.  The I block of the
    echelon, each row over its pivot, is the frame's inverse.
    """
    k = len(seeds)
    if pool is None:
        cands, width = [*seeds, *_deterministic_candidates(n)[:n]], k
    else:
        cands = [*seeds, *pool]
        width = len(cands)  # where the appended I block starts
    work, head = [], cands[:width]
    for i in range(n):
        den, row = _int_vector([v[i] for v in head])
        row += [0] * n
        row[width + i] = den
        work.append(row)
    work, pivots = linalg._echelon(work)
    if pivots[:k] != list(range(k)):
        raise SingularMatrix("seed vectors are linearly dependent")
    if pivots and pivots[-1] >= len(cands):  # a pivot in the appended I block
        raise SingularMatrix("candidate pool does not complete the basis")
    return [tuple(cands[p]) for p in pivots], linalg._pivot_inverse(work, pivots, width)


def deterministic_candidates(n: int) -> list:
    """Standard basis vectors followed by all pairwise sums e_i + e_j (i < j),
    as a fresh list the caller may extend."""
    return list(_deterministic_candidates(n))


@functools.cache
def _deterministic_candidates(n: int) -> tuple:
    basis = [unit_vector(n, i) for i in range(n)]
    sums = [vec_add(basis[i], basis[j]) for i in range(n) for j in range(i + 1, n)]
    return tuple(basis + sums)


#: The least chance, per draw, of a nonzero entry at which ``random_algebra``
#: redraws for a non-abelian sample.
MIN_NONZERO_CHANCE = 1e-3


def random_algebra(
    n: int, density: float, seed: int, nonabelian: bool = False
) -> Algebra:
    """Seed-deterministic sparse random tensor with small rational entries.

    Each entry is nonzero with probability ``density``; values have
    numerators in [-9, 9] and denominators in [1, 4].  With ``nonabelian``
    the sample is redrawn until some entry is nonzero; a draw has one with
    chance 1 - (1 - density)^(n^3), and below MIN_NONZERO_CHANCE (more than
    a thousand expected draws, and none at all at density 0) ValueError is
    raised instead.
    """
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
                        entries[(k, i, j)] = Fraction(num, rng.randint(1, 4))
        if entries or not nonabelian:
            return Algebra.from_entries(n, entries)


def random_invertible_matrix(n: int, rng: random.Random, bound: int = 3) -> list:
    """Random invertible rational matrix, built as L * U * P so no rejection loop."""
    lower = [
        [
            ONE
            if i == j
            else (Fraction(rng.randint(-bound, bound)) if i > j else ZERO)
            for j in range(n)
        ]
        for i in range(n)
    ]
    upper = [
        [
            Fraction(rng.choice((1, -1)) * rng.randint(1, bound))
            if i == j
            else (Fraction(rng.randint(-bound, bound)) if i < j else ZERO)
            for j in range(n)
        ]
        for i in range(n)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    pmat = [[ONE if perm[i] == j else ZERO for j in range(n)] for i in range(n)]
    return linalg.mat_mul(linalg.mat_mul(lower, upper), pmat)

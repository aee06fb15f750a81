"""Recognition of the canonical algebras with explicit isomorphisms.

``recognize`` decides whether an algebra is isomorphic to one of the
canonical forms and, where the normalization closes over Q, returns the
rational matrix realizing the isomorphism: the inverse of a frame on which
the algebra has the canonical table.

Every match is decided by one read of the stored integer slices
C = cden * c, an identity on the tensor that the tag's table satisfies in
every basis, so no isomorphic input escapes it.  Its iso, the inverse of
the frame, is written down over Z from the integers of that read, with no
product, contraction, comparison against the canonical table or
elimination after the match:

* pminus is x*y = phi(x) y - phi(y) x with phi != 0: ``algebra._scalar_action``
  returns (A, B, D) with B = -A != 0 and phi = A / D.  The frame is
  f = e_p D / A_p (p the first index with A_p != 0), then the rref basis of
  ker phi, g_i = e_i - (A_i / A_q) e_q for i != q (q the last such index).
  As phi(f) = 1 and phi(g_i) = 0: f*g = g, g*f = -g, and g*g' = f*f = 0.
* pplus is x*y = phi(x) y + phi(y) x - 2 phi(x) phi(y) u with phi(u) = 1.
  The traces sum_k c^k_ik of that tensor are (n - 1) phi_i, and its column
  (p, p) at the first p with phi_p != 0 is 2 phi_p e_p - 2 phi_p^2 u, so phi
  and then u are read off and every column is checked in ints.  A tensor
  that passes has the shape for the phi read and some u, and its traces
  (n + 1 - 2 phi(u)) phi force phi(u) = 1.  The frame is u, then the basis
  of ker phi as for pminus: u*g = g*u = g, and g*g' = u*u = 0.
* nu(alpha), n >= 2, is x*y = alpha phi(x) y + (1 - alpha) phi(y) x:
  ``_scalar_action`` finds A parallel to S = A + B != 0, alpha = A_p / S_p
  at the first p with S_p != 0 and phi = S / D.  The frame is the
  idempotent e = e_p / phi(e_p) (x*x = phi(x) x), then its eigenspace
  ker phi in the rref basis pivoting on p.  In dimension 1 a non-abelian
  algebra is e1*e1 = c e1, nu with iso [[c]].
  For these three, x = phi(x) f + sum_i (x - phi(x) f)_i g_i over i != q,
  so row 0 of the iso is phi and the row of g_i is e_i^* - f_i phi.
* lambda2, n3minus and n3plus have every column C[:, i, j] = B_ij z over Z
  for one primitive z, B symmetric or skew and B z = 0, so x*y = (x^T B y) z
  with z in the radical of B.  One integer echelon of B gives its rank and
  the free columns of its radical, whose rref basis completes each frame
  below.  With b = B z_p / cden (z_p the first nonzero entry of z) and
  z' = z / z_p, x*y = b(x, y) z'.
  - lambda2, B symmetric of rank 1: frame (e_i, e_i*e_i, radical...) at the
    first i with b_ii != 0; e_i*e_i = b_ii z' is the only nonzero product.
  - n3minus, B skew of rank 2: frame (e_i, e_j / b_ij, z', radical...) at
    the first b_ij != 0 in row order: e_i * (e_j / b_ij) = z' = -(e_j / b_ij) * e_i.
  - n3plus, B symmetric of rank 2: a hyperbolic pair (w, v) of b, with
    b(w, w) = b(v, v) = 0 and b(w, v) = 1, gives the frame (w, v, z',
    radical...): w*v = v*w = z'.  The pair comes from a nonzero principal
    2x2 minor of B; it exists over Q exactly when -det of the minor is a
    square.  Otherwise (e.g. the form x^2 + y^2) the algebra is n3plus only
    over the algebraic closure: the tag is reported without an iso.
  The seed coefficients of x solve a Gram system of B, and the rest of x is
  in the radical, read at its free columns (``_rank_one_inverse``).

After the abelian test (and in dimension 1 the nu case) the reads run as
one chain, with no symmetry scan ahead of them: the scalar-action read
(pminus or nu from the same (A, B, D)), then the rank-one read (lambda2,
n3minus, n3plus, or the rank of B that matches none), then the pplus read.
The order changes no verdict, iso or reason, as at most one read gives a
verdict on any tensor: each accepts exactly the tensors of its tags, a skew
scalar action has B = -A (pminus) and a commutative one A = B (nu(1/2)),
the rank-one shape is nilpotent while pminus, nu and pplus are not, and
pplus has neither the scalar-action nor the rank-one shape.  When every
read fails, the algebra matches no canonical form, and only then do the
symmetry scans run, to choose which normalization names what fails:
anticommutative input that of pminus (A^2, the scalar action of a
complement vector on it), commutative input that of pplus and then the
idempotent's, other input the idempotent's (its spectrum and eigenspace).
An input passing all of a normalization's checks would have the pminus,
pplus or nu shape, which its read accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import linalg
from .algebra import (
    Algebra,
    Subspace,
    _scalar_action,
    derived_subspace,
    deterministic_candidates,
    products_vanish,
    proportionality,
    rebase,  # noqa: F401  (perfbench/test_perfbench.py reads this binding)
    unit_vector,
    vec_is_zero,
    vec_scale,
)
from .canonical import CanonicalForm, Tag
from .poly import poly_mul, poly_pow

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class RecognitionResult:
    form: CanonicalForm | None
    iso: tuple | None = None  # rational matrix as row tuples, when available
    reason: str | None = None

    @property
    def recognized(self) -> bool:
        return self.form is not None


def _recognized(form: CanonicalForm, iso: list | None, reason: str | None = None):
    frozen = tuple(tuple(row) for row in iso) if iso is not None else None
    return RecognitionResult(form, frozen, reason)


def _not_canonical(reason: str) -> RecognitionResult:
    return RecognitionResult(None, None, reason)


def recognize(a: Algebra) -> RecognitionResult:
    n = a.dim
    if a.is_abelian():
        return _recognized(CanonicalForm(Tag.ABELIAN, n), linalg.mat_identity(n))
    if n == 1:  # e1*e1 = c e1 with c != 0: nu, iso [[c]]
        cden, slices = a.integer_slices()
        ((_, c),) = slices[(0, 0)]
        return _recognized(CanonicalForm(Tag.NU, 1), [[Fraction(c, cden)]])
    return (_read_scalar_action(a) or _read_rank_one(a) or _read_pplus(a)
            or _name_failure(a))


def _name_failure(a: Algebra) -> RecognitionResult:
    """Why an algebra that no read accepts, n >= 2, is not canonical."""
    if a.is_anticommutative():
        return _name_skew_failure(a)
    if a.is_commutative():
        return _name_commutative_failure(a)
    return _name_nu_failure(a)


# -- the scalar-action and scalar-line forms (pminus, nu, pplus) ------------


def _read_scalar_action(a: Algebra) -> RecognitionResult | None:
    """pminus or nu with its iso when ``_scalar_action`` gives (A, B, D) with
    B = -A != 0 (pminus) or A parallel to S = A + B != 0 (nu), else None."""
    action = _scalar_action(a)
    if action is None:
        return None
    A, B, D = action
    n = a.dim
    S = [x + y for x, y in zip(A, B)]
    p = next((i for i, x in enumerate(S) if x), None)
    if p is not None:
        if any(x * S[p] != A[p] * y for x, y in zip(A, S)):
            return None
        # phi = S / D; the idempotent e = e_p / phi(e_p) = D e_p / S_p, and
        # the rref basis of its eigenspace ker phi pivots on p
        form = CanonicalForm(Tag.NU, n, Fraction(A[p], S[p]))
        return _recognized(form, _line_frame_inverse(S, D, _unit(n, p, D), S[p], p))
    support = [i for i, x in enumerate(A) if x]  # B = -A
    if not support:
        return None  # the zero tensor
    p, q = support[0], support[-1]
    return _recognized(CanonicalForm(Tag.P_MINUS, n),
                       _line_frame_inverse(A, D, _unit(n, p, D), A[p], q))


def _read_pplus(a: Algebra) -> RecognitionResult | None:
    """pplus with its iso when the tensor is
    x*y = phi(x) y + phi(y) x - 2 phi(x) phi(y) u, else None.

    In ints, with the traces T_i = sum_k C[k][i][k] = (n - 1) cden phi_i, p
    the first index with T_p != 0 and W = 2 T_p e_p - (n - 1) C[:, p, p]:
    u = (n - 1) cden W / (2 T_p^2), and the shape is
    (n - 1) T_p^2 C[:, i, j] = T_p^2 (T_i e_j + T_j e_i) - T_i T_j W for every
    ordered pair (i, j).
    """
    n = a.dim
    if n < 2:
        return None
    cden, slices = a.integer_slices()
    T = [0] * n
    for (i, j), hits in slices.items():
        for k, c in hits:
            if k == j:
                T[i] += c
    p = next((i for i, t in enumerate(T) if t), None)
    if p is None:
        return None
    m = n - 1
    tp2 = T[p] * T[p]
    W = [0] * n
    for k, c in slices.get((p, p), ()):
        W[k] = -m * c
    W[p] += 2 * T[p]
    scale = m * tp2
    for i, ti in enumerate(T):
        for j, tj in enumerate(T):
            hits = slices.get((i, j), ())
            if not (ti or tj):
                if hits:
                    return None
                continue
            want = [-ti * tj * w for w in W] if ti and tj else [0] * n
            want[j] += tp2 * ti
            want[i] += tp2 * tj
            got = [0] * n
            for k, c in hits:
                got[k] = scale * c
            if got != want:
                return None
    q = max(i for i, t in enumerate(T) if t)
    return _recognized(CanonicalForm(Tag.P_PLUS, n), _line_frame_inverse(
        T, m * cden, [m * cden * w for w in W], 2 * tp2, q))


def _unit(n: int, i: int, c: int = 1) -> list:
    return [c if k == i else 0 for k in range(n)]


def _row(nums: list, den: int) -> list:
    return [ONE if x == den else Fraction(x, den) if x else ZERO for x in nums]


def _line_frame_inverse(A: list, D: int, F: list, fd: int, q: int) -> list:
    """The inverse of the frame (f, g_i for i != q) over Z, with phi = A / D,
    f = F / fd, phi(f) = 1 and g_i = e_i - (A_i / A_q) e_q the rref basis of
    ker phi pivoting on q (A_q != 0): row 0 is phi and the row of g_i is
    e_i^* - f_i phi = (fd D e_i - F_i A) / (fd D)."""
    den = fd * D
    rows = [_row(A, D)]
    for i, fi in enumerate(F):
        if i != q:
            nums = [-fi * x for x in A] if fi else [0] * len(A)
            nums[i] += den
            rows.append(_row(nums, den))
    return rows


def _name_skew_failure(a: Algebra) -> RecognitionResult:
    """Why an anticommutative algebra that no read accepts is not canonical."""
    square = derived_subspace(a)
    d2 = square.dim
    if d2 == a.dim - 1 and products_vanish(a, square.basis, square.basis):
        return _name_scalar_line_failure(a, square, Tag.P_MINUS)
    return _not_canonical(
        f"anticommutative with dim A^2 = {d2}: matches no canonical form"
    )


def _name_commutative_failure(a: Algebra) -> RecognitionResult:
    """Why a commutative algebra that no read accepts is not canonical."""
    n = a.dim
    square = derived_subspace(a)
    if square.dim == n - 1 and n >= 2:
        if not products_vanish(a, square.basis, square.basis):
            return _not_canonical("A^2 * A^2 != 0")
        return _name_scalar_line_failure(a, square, Tag.P_PLUS)
    return _name_nu_failure(a)


def _name_scalar_line_failure(a: Algebra, square: Subspace, tag: Tag) -> RecognitionResult:
    """Which scalar-action check fails, for dim A^2 = n - 1 and A^2 * A^2 = 0."""
    n = a.dim
    x = next(unit_vector(n, i) for i in range(n) if not square.contains(unit_vector(n, i)))
    v0 = square.basis[0]
    c = proportionality(a.product(x, v0), v0)
    if not c:
        return _not_canonical(
            "left multiplication by a complement vector is not a nonzero scalar on A^2"
        )
    for v in square.basis[1:]:
        if a.product(x, v) != vec_scale(v, c):
            return _not_canonical(
                "left multiplication by a complement vector is not scalar on A^2"
            )
    # unreachable: x acting by c on A^2 makes the algebra pminus or pplus
    # (for pplus after x -> x - x*x / 2c), which its read accepts
    form = CanonicalForm(tag, n)
    return _not_canonical(f"normalized table does not match {form.describe()}")


# -- the one-dimensional-square forms (lambda2, n3minus, n3plus) ------------


def _read_rank_one(a: Algebra) -> RecognitionResult | None:
    """The verdict on C = z (x) B with B symmetric or skew and B z = 0: the
    tag and its iso, or the rank of B that matches none; None for any other
    tensor."""
    n = a.dim
    cden, slices = a.integer_slices()
    if not slices:
        return None
    first = next(iter(slices.values()))
    g = math.gcd(*(c for _, c in first))
    zs = tuple((k, c // g) for k, c in first)
    z0 = zs[0][1]
    B = [[0] * n for _ in range(n)]
    columns = {}  # m -> the column m z
    for (i, j), hits in slices.items():
        m, rem = divmod(hits[0][1], z0)
        if rem:
            return None
        col = columns.get(m)
        if col is None:
            col = columns[m] = tuple((k, m * c) for k, c in zs)
        if hits != col:
            return None
        B[i][j] = m
    if any(sum(row[k] * c for k, c in zs) for row in B):
        return None
    if all(B[i][j] == B[j][i] for i in range(n) for j in range(i)):
        skew = False
    elif all(B[i][j] == -B[j][i] for i in range(n) for j in range(i + 1)):
        skew = True
    else:
        return None
    _, pivots = linalg._echelon([list(row) for row in B if any(row)])
    r = len(pivots)
    Z, dz = [0] * n, z0  # z' = Z / dz
    for k, c in zs:
        Z[k] = c
    # the seeds outside the radical, each as (S, d) for S / d over Z
    if skew:
        if r != 2:
            return _not_canonical(f"skew product form has rank {r}, need 2")
        i, j = next((i, j) for i in range(n) for j in range(n) if B[i][j])
        seeds = [(_unit(n, i), 1), (_unit(n, j, cden), z0 * B[i][j])]
        tag = Tag.N3_MINUS
    elif r == 1:
        i = next(i for i in range(n) if B[i][i])
        seeds = [(_unit(n, i), 1)]
        Z, dz = [B[i][i] * c for c in Z], cden  # e_i * e_i = b_ii z'
        tag = Tag.LAMBDA2
    elif r == 2:  # B z = 0 with z != 0, so n >= 3
        seeds = _hyperbolic_pair(B, z0, cden)
        if seeds is None:
            return _recognized(CanonicalForm(Tag.N3_PLUS, n), None, "recognized over the "
                               "algebraic closure only: the rank-2 symmetric form has no "
                               "rational isotropic vector")
        tag = Tag.N3_PLUS
    else:
        return _not_canonical(f"symmetric product form has rank {r} in dimension {n}")
    return _recognized(CanonicalForm(tag, n), _rank_one_inverse(B, pivots, seeds, Z, dz))


def _rank_one_inverse(B: list, pivots: list, seeds: list, Z: list, dz: int) -> list:
    """The inverse over Z of the frame: the seeds S_a / d_a outside the
    radical of B, zeta = Z / dz in it, then the rref radical basis k_f (1 at
    the free column f of B's echelon) less k_r', r' the last free f with
    Z_f != 0, as ``algebra._frame`` would choose it.

    x = sum_a c_a S_a / d_a + y with B y = 0, so U_a = S_a^T B gives
    U x = H (c / d) for the Gram block H_ab = U_a S_b.  H is invertible: if
    H c = 0, B sum_b c_b S_b is orthogonal to the seeds and to the radical,
    so sum_b c_b S_b is in the radical, and c = 0 as the seeds are
    independent modulo it.  With V = adj(H) U, c_a = d_a V_a x / det H and
    y_f = Y_f x / det H, Y_f = det H e_f - sum_a S_a[f] V_a; y = c_zeta zeta
    + sum c_f k_f gives c_zeta = dz y_r' / Z_r', c_f = y_f - Z_f y_r' / Z_r'.
    """
    n = len(B)
    S = [sa for sa, _ in seeds]
    U = [[sum(x * B[k][c] for k, x in enumerate(sa) if x) for c in range(n)] for sa in S]
    H = [[sum(x * y for x, y in zip(u, sb) if y) for sb in S] for u in U]
    if len(S) == 1:
        det, V = H[0][0], U
    else:
        (h11, h12), (h21, h22) = H
        det = h11 * h22 - h12 * h21
        V = [[h22 * x - h12 * y for x, y in zip(*U)], [h11 * y - h21 * x for x, y in zip(*U)]]
    rows = [_row([d * x for x in v], det) for (_, d), v in zip(seeds, V)]
    Y = {f: [det * (k == f) - sum(sa[f] * v[k] for sa, v in zip(S, V)) for k in range(n)]
         for f in range(n) if f not in pivots}
    rp = max(f for f in Y if Z[f])
    den, zr, yr = det * Z[rp], Z[rp], Y.pop(rp)
    rows.append(_row([dz * x for x in yr], den))
    rows.extend(_row([zr * x - Z[f] * y for x, y in zip(yf, yr)], den) for f, yf in Y.items())
    return rows


def _hyperbolic_pair(B: list, z0: int, cden: int) -> list | None:
    """[(W, dw), (V, dv)]: w = W / dw and v = V / dv with b(w, w) = b(v, v) = 0
    and b(w, v) = 1 for b = s B, s = z0 / cden, or None when b has no rational
    isotropic vector.  At the first nonzero principal minor (i, j), w is e_i
    or e_j if B_ii or B_jj is 0, else x e_i + e_j, x = (-B_ij + sign(s) R) / B_ii
    and R^2 = B_ij^2 - B_ii B_jj, rational exactly when that integer is a
    square; v = v1 - b(v1, v1) w / 2, v1 = e_k / b(w, e_k), k = i unless that is 0.
    """
    n = len(B)
    i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                if B[i][i] * B[j][j] - B[i][j] * B[i][j])
    if B[i][i] == 0 or B[j][j] == 0:
        W, dw = _unit(n, i if B[i][i] == 0 else j), 1
    else:
        delta = B[i][j] * B[i][j] - B[i][i] * B[j][j]
        root = isqrt(delta) if delta > 0 else -1
        if root * root != delta:
            return None
        W, dw = _unit(n, j, B[i][i]), B[i][i]
        W[i] = -B[i][j] + (root if z0 > 0 else -root)
    WB = [sum(x * B[m][c] for m, x in enumerate(W) if x) for c in range(n)]
    k = i if WB[i] else j
    P = WB[k]
    V = [-B[k][k] * x for x in W]
    V[k] += 2 * P
    # b(w, e_k) = s P / dw, so v = cden dw (2 P e_k - B_kk W) / (2 z0 P^2)
    return [(W, dw), ([cden * dw * x for x in V], 2 * z0 * P * P)]


# -- the nu normalization, run only to name a failure -----------------------


def _name_nu_failure(a: Algebra) -> RecognitionResult:
    """Which step of the idempotent normalization fails, n >= 2."""
    n = a.dim
    found = None
    for x in deterministic_candidates(n):
        sq = a.product(x, x)
        if not vec_is_zero(sq):
            c = proportionality(sq, x)
            if c is None:
                return _not_canonical("found x with x*x outside the line of x")
            found = (x, c)
            break
    if found is None:
        # unreachable: zero squares on every e_i and e_i + e_j make the tensor
        # skew, and anticommutative input never gets here
        return _not_canonical("no vector with a nonzero square in the sweep")
    x, c = found
    e = vec_scale(x, 1 / c)
    left = a.left_mult_matrix(e)
    alpha = (linalg.mat_trace(left) - 1) / (n - 1)
    factor = {1: ONE, 0: -alpha} if alpha else {1: ONE}
    if linalg.char_poly(left) != poly_mul({1: ONE, 0: -ONE}, poly_pow(factor, n - 1)):
        return _not_canonical(
            "left multiplication by the idempotent has the wrong spectrum"
        )
    right = a.right_mult_matrix(e)
    rows = []
    for idx in range(n):
        rows.append([left[idx][j] - (alpha if idx == j else ZERO) for j in range(n)])
    beta = 1 - alpha
    for idx in range(n):
        rows.append([right[idx][j] - (beta if idx == j else ZERO) for j in range(n)])
    eigen = linalg.nullspace(rows)
    if len(eigen) != n - 1:
        return _not_canonical(
            f"joint eigenspace of the idempotent actions has dimension "
            f"{len(eigen)}, need {n - 1}"
        )
    # the identity failed, so the frame (e, eigen) does not carry the table
    form = CanonicalForm(Tag.NU, n, alpha)
    return _not_canonical(f"normalized table does not match {form.describe()}")

"""Explicit degeneration families with known exact limits.

Two non-diagonal families carry the scalar-action algebras onto
lambda2 + abelian:

    pplus_to_lambda2(n):   e1 -> t^-1 e1 - (t^-2/2) e2,
                           e2 -> (t^-2/2) e2,
                           ei -> t^-2 ei            (3 <= i <= n)

    n3plus_to_lambda2(n):  e1 -> t^-1 e1 - t^-2 e3,
                           e2 -> t^-2 e3,
                           e3 -> (t^-2/2) e2,
                           ei -> ei                 (4 <= i <= n)

``scaling_family`` builds the diagonal families diag(t^-w1, ..., t^-wn);
with the right weights each canonical algebra is a fixed point of its own
branch family, which is how the four targets are seen to be reachable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadDimension
from .transport import ParamMatrix

_HALF = Fraction(1, 2)


def scaling_family(weights) -> ParamMatrix:
    """diag(t^-w) for the given non-negative pole weights."""
    return ParamMatrix.diagonal_powers([-w for w in weights])


def pplus_to_lambda2(n: int) -> ParamMatrix:
    if n < 2:
        raise BadDimension("needs dimension >= 2")
    grid = [[{} for _ in range(n)] for _ in range(n)]
    grid[0][0] = {-1: 1}
    grid[1][0] = {-2: -_HALF}
    grid[1][1] = {-2: _HALF}
    for i in range(2, n):
        grid[i][i] = {-2: 1}
    return ParamMatrix.from_laurent(grid)


def n3plus_to_lambda2(n: int) -> ParamMatrix:
    if n < 3:
        raise BadDimension("needs dimension >= 3")
    grid = [[{} for _ in range(n)] for _ in range(n)]
    grid[0][0] = {-1: 1}
    grid[2][0] = {-2: -1}
    grid[2][1] = {-2: 1}
    grid[1][2] = {-2: _HALF}
    for i in range(3, n):
        grid[i][i] = {0: 1}
    return ParamMatrix.from_laurent(grid)


#: Pole weights under which each canonical target is a fixed point.
FIXED_POINT_WEIGHTS = {
    "pminus": lambda n: [0] + [1] * (n - 1),
    "nu": lambda n: [0] + [1] * (n - 1),
    "n3minus": lambda n: [1, 1] + [2] * (n - 2),
    "lambda2": lambda n: [1] + [2] * (n - 1),
}

"""The canonical algebras and their constructors.

Multiplication tables (all unlisted products are zero, indices 1-based):

    abelian   a_n       everything zero
    pminus    p_n^-     e1*ei = ei,  ei*e1 = -ei          (i >= 2)
    pplus     p_n^+     e1*ei = ei,  ei*e1 = ei           (i >= 2)
    n3minus   n3^- (+) a_{n-3}   e1*e2 = e3,  e2*e1 = -e3
    n3plus    n3^+ (+) a_{n-3}   e1*e2 = e3,  e2*e1 = e3
    lambda2   l2  (+) a_{n-2}    e1*e1 = e2
    nu        nu_n(alpha)  e1*e1 = e1, e1*ei = alpha*ei,
                           ei*e1 = (1-alpha)*ei           (i >= 2)

The direct abelian summands are implied by the requested dimension.  In
dimension 1 only ``abelian`` and ``nu`` exist; ``nu`` then has no scalar
and ``alpha`` must be omitted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .algebra import Algebra
from .errors import BadDimension


class Tag(str, Enum):
    ABELIAN = "abelian"
    P_MINUS = "pminus"
    P_PLUS = "pplus"
    N3_MINUS = "n3minus"
    N3_PLUS = "n3plus"
    LAMBDA2 = "lambda2"
    NU = "nu"


#: Minimum dimension in which each form exists.
_MIN_DIM = {
    Tag.ABELIAN: 1,
    Tag.P_MINUS: 2,
    Tag.P_PLUS: 2,
    Tag.N3_MINUS: 3,
    Tag.N3_PLUS: 3,
    Tag.LAMBDA2: 2,
    Tag.NU: 1,
}


@dataclass(frozen=True)
class CanonicalForm:
    tag: Tag
    dim: int
    alpha: Fraction | None = None

    def __post_init__(self):
        if self.dim < _MIN_DIM[self.tag]:
            raise BadDimension(
                f"{self.tag.value} needs dimension >= {_MIN_DIM[self.tag]}, got {self.dim}"
            )
        if self.tag is Tag.NU:
            if self.dim >= 2:
                if self.alpha is None:
                    raise BadDimension("nu needs a scalar alpha in dimension >= 2")
                object.__setattr__(self, "alpha", Fraction(self.alpha))
            elif self.alpha is not None:
                raise BadDimension("nu carries no scalar in dimension 1")
        elif self.alpha is not None:
            raise BadDimension(f"{self.tag.value} does not take a scalar")

    def describe(self) -> str:
        if self.tag is Tag.NU and self.alpha is not None:
            return f"nu({self.alpha}) dim {self.dim}"
        return f"{self.tag.value} dim {self.dim}"


@functools.lru_cache(maxsize=256)
def construct(form: CanonicalForm) -> Algebra:
    """Exact structure tensor of the named algebra; each table is built once
    and shared, which is safe as an ``Algebra`` is immutable."""
    n = form.dim
    one = Fraction(1)
    entries: dict = {}
    if form.tag in (Tag.P_MINUS, Tag.P_PLUS):
        sign = one if form.tag is Tag.P_PLUS else -one
        for i in range(1, n):
            entries[(i, 0, i)] = one
            entries[(i, i, 0)] = sign
    elif form.tag in (Tag.N3_MINUS, Tag.N3_PLUS):
        sign = one if form.tag is Tag.N3_PLUS else -one
        entries[(2, 0, 1)] = one
        entries[(2, 1, 0)] = sign
    elif form.tag is Tag.LAMBDA2:
        entries[(1, 0, 0)] = one
    elif form.tag is Tag.NU:
        entries[(0, 0, 0)] = one
        if n >= 2:
            alpha = form.alpha
            for i in range(1, n):
                if alpha:
                    entries[(i, 0, i)] = alpha
                if alpha != 1:
                    entries[(i, i, 0)] = 1 - alpha
    return Algebra.from_entries(n, entries)


def abelian(n: int) -> Algebra:
    return construct(CanonicalForm(Tag.ABELIAN, n))

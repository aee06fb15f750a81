"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings

from levelone import Algebra, FieldElement, random_invertible_matrix
from levelone.parser import parse_laurent

ROOT = Path(__file__).resolve().parent.parent

# exact arithmetic has occasional slow examples; wall-clock deadlines only
# add flakiness here
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero_rationals = small_rationals.filter(bool)


@st.composite
def laurent_polys(draw, min_exp=-5, max_exp=5, max_terms=4):
    exps = draw(
        st.lists(st.integers(min_exp, max_exp), max_size=max_terms, unique=True)
    )
    return {e: draw(nonzero_rationals) for e in exps}


nonzero_laurent_polys = laurent_polys().filter(bool)


@st.composite
def field_elements(draw):
    num = draw(laurent_polys())
    den = draw(nonzero_laurent_polys)
    return FieldElement.from_laurent(num) / FieldElement.from_laurent(den)


nonzero_field_elements = field_elements().filter(bool)


@st.composite
def algebras(draw, min_dim=1, max_dim=4, nonabelian=False):
    n = draw(st.integers(min_dim, max_dim))
    triples = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1)
    )
    entries = draw(
        st.dictionaries(triples, nonzero_rationals, min_size=1 if nonabelian else 0,
                        max_size=2 * n * n)
    )
    return Algebra.from_entries(n, entries)


@st.composite
def invertible_matrices(draw, n: int):
    seed = draw(st.integers(0, 2**32))
    return random_invertible_matrix(n, random.Random(seed))


def fe(text: str) -> FieldElement:
    """Field element from a Laurent expression, for readable tests."""
    return FieldElement.from_laurent(parse_laurent(text))


def frac(text) -> Fraction:
    return Fraction(text)


def subprocess_env() -> dict:
    """os.environ with this checkout's src/ first on PYTHONPATH, for a
    subprocess that imports levelone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env

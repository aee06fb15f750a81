"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import os
import random
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
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
    return FieldElement(draw(laurent_polys()), draw(nonzero_laurent_polys))


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


# -- the outcomes of this session's test modules ----------------------------

#: The test that reads the outcomes below; it is run last.
LAST = "test_criterion_7_property_suites_green"


class ModuleOutcomes:
    """A plugin recording what this session ran of each test module, keyed by
    its resolved path: the items selected to run, the items finished, the
    node ids that failed, and the modules of which an item was deselected."""

    def __init__(self):
        self.module_of: dict = {}  # node id -> module path
        self.selected: Counter = Counter()
        self.finished: Counter = Counter()
        self.failed: defaultdict = defaultdict(list)
        self.partial: set = set()

    def failures(self, path) -> list | None:
        """The failed node ids of the module at ``path``, or None when this
        session has not run the whole module."""
        path = Path(path).resolve()
        selected = self.selected[path]
        if not selected or path in self.partial or self.finished[path] < selected:
            return None
        return self.failed[path]

    @pytest.hookimpl(trylast=True)
    def pytest_collection_modifyitems(self, items):
        items.sort(key=lambda item: item.name == LAST)  # stable: only LAST moves

    def pytest_deselected(self, items):
        self.partial.update(item.path.resolve() for item in items)

    def pytest_collection_finish(self, session):
        for item in session.items:
            path = self.module_of[item.nodeid] = item.path.resolve()
            self.selected[path] += 1

    def pytest_runtest_logreport(self, report):
        path = self.module_of.get(report.nodeid)
        if path is None:
            return
        if report.failed:
            self.failed[path].append(report.nodeid)
        if report.when == "teardown":
            self.finished[path] += 1


def pytest_configure(config):
    config.pluginmanager.register(ModuleOutcomes(), "module-outcomes")


@pytest.fixture
def module_outcomes(request) -> ModuleOutcomes:
    return request.config.pluginmanager.get_plugin("module-outcomes")

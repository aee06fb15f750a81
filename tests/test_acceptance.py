"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact (tolerance zero).  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import subprocess
import sys
import time
import zlib
from fractions import Fraction as F
from pathlib import Path

import pytest

from levelone import (
    Algebra,
    CanonicalForm,
    ClassifierConfig,
    NoLimit,
    Tag,
    Witness,
    apply_basis_change,
    classify,
    construct,
    derived_subspace,
    embed_algebra,
    invariant_vector,
    random_algebra,
    random_family,
    random_invertible_matrix,
    recognize,
    transport,
    transport_limit,
    verify_degeneration,
)
from levelone.jsonio import algebra_from_dict, family_from_dict, load_path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fixture_algebra(name: str) -> Algebra:
    return algebra_from_dict(load_path(str(FIXTURES / "canonical" / f"{name}.algebra.json")))


def fixture_family(name: str):
    return family_from_dict(load_path(str(FIXTURES / "families" / f"{name}.family.json")))


def canon(tag, n, alpha=None):
    return construct(CanonicalForm(tag, n, alpha))


NU_ALPHAS = {F(0): "0", F(1): "1", F(1, 2): "1_2", F(2, 3): "2_3", F(-3): "m3"}


def test_criterion_1_explicit_families_reach_lambda2():
    """The two bundled non-diagonal families degenerate the scalar-action
    algebras onto lambda2 + abelian, entrywise exactly."""
    t0 = time.time()
    for n in range(2, 9):
        a = fixture_algebra(f"pplus_n{n}")
        g = fixture_family(f"pplus_to_lambda2_n{n}")
        report = verify_degeneration(a, Witness(g, CanonicalForm(Tag.LAMBDA2, n)))
        assert report.passed, (n, report.diagnostics)
        assert report.limit == canon(Tag.LAMBDA2, n)
    for n in range(3, 9):
        a = fixture_algebra(f"n3plus_n{n}")
        g = fixture_family(f"n3plus_to_lambda2_n{n}")
        report = verify_degeneration(a, Witness(g, CanonicalForm(Tag.LAMBDA2, n)))
        assert report.passed, (n, report.diagnostics)
        assert report.limit == canon(Tag.LAMBDA2, n)
    print(f"\nPASS criterion 1: 13 explicit-family degenerations exact "
          f"({time.time() - t0:.2f}s)")


def test_criterion_2_fixed_point_families():
    """Each branch's diagonal family fixes its own target identically in t,
    confirming all four targets are reachable."""
    t0 = time.time()
    checked = 0
    for n in range(3, 9):
        fix_tail = fixture_family(f"fix_pminus_n{n}")
        for name in (f"pminus_n{n}",):
            a = fixture_algebra(name)
            assert transport(a, fix_tail) == embed_algebra(a), name
            checked += 1
        for alpha, label in NU_ALPHAS.items():
            a = fixture_algebra(f"nu_n{n}_alpha_{label}")
            assert transport(a, fix_tail) == embed_algebra(a), (n, alpha)
            checked += 1
        a = fixture_algebra(f"n3minus_n{n}")
        assert transport(a, fixture_family(f"fix_n3minus_n{n}")) == embed_algebra(a)
        a = fixture_algebra(f"lambda2_n{n}")
        assert transport(a, fixture_family(f"fix_lambda2_n{n}")) == embed_algebra(a)
        checked += 2
    print(f"\nPASS criterion 2: {checked} fixed-point transports identical "
          f"({time.time() - t0:.2f}s)")


def test_criterion_3_classifier_soundness_sweep():
    """1000 seed-pinned random non-abelian algebras classify and re-verify
    with exact target equality, tags restricted per dimension."""
    t0 = time.time()
    dims = (2, 3, 4, 5, 6)
    densities = (0.15, 0.4, 0.8)
    tags_seen = set()
    for idx in range(1000):
        n = dims[idx % len(dims)]
        density = densities[(idx // len(dims)) % len(densities)]
        a = random_algebra(n, density, seed=idx, nonabelian=True)
        w = classify(a, ClassifierConfig(seed=idx))
        report = verify_degeneration(a, w)
        assert report.passed, (idx, report.diagnostics)
        tags_seen.add(w.target.tag)
        if n >= 3:
            assert w.target.tag in (Tag.P_MINUS, Tag.N3_MINUS, Tag.LAMBDA2, Tag.NU)
        else:
            assert w.target.tag in (Tag.P_MINUS, Tag.LAMBDA2, Tag.NU)
    print(f"\nPASS criterion 3: 1000/1000 classified and re-verified exactly, "
          f"targets seen: {sorted(t.value for t in tags_seen)} "
          f"({time.time() - t0:.2f}s)")


def test_criterion_4_rigidity_of_pminus_and_nu():
    """Existing limits of p_n^- recognize as p_n^- or abelian; of nu_n(2/3)
    as nu(2/3) or abelian - the orbit closures contain nothing else.  The
    draws include every one of ``scripts/rigidity_sweep.py --dims 3,4
    --count 60``: random_family(n, i % 3, seed=n*1000 + i), for more i and n."""
    t0 = time.time()
    total = 0
    for n in (3, 4, 5):
        pminus = canon(Tag.P_MINUS, n)
        nu = canon(Tag.NU, n, F(2, 3))
        hits = {"pminus": 0, "nu": 0}
        for i in range(200):
            g = random_family(n, i % 3, seed=n * 1000 + i)
            for key, a, tag in (("pminus", pminus, Tag.P_MINUS), ("nu", nu, Tag.NU)):
                try:
                    lim = transport_limit(a, g)
                except NoLimit:
                    continue
                hits[key] += 1
                total += 1
                res = recognize(lim)
                assert res.form is not None, (n, i, key, res.reason)
                assert res.form.tag in (tag, Tag.ABELIAN), (n, i, key, res.form)
                if res.form.tag is Tag.NU and n >= 2:
                    assert res.form.alpha == F(2, 3), (n, i)
        assert hits["pminus"] >= 30 and hits["nu"] >= 30, (n, hits)
    print(f"\nPASS criterion 4: {total} existing limits, every one recognized "
          f"as the input algebra or abelian ({time.time() - t0:.2f}s)")


def test_criterion_5_separation_invariants():
    """The invariant vectors pairwise separate the four level-one targets,
    and the separating conditions are closed under existing limits."""
    t0 = time.time()
    for n in range(3, 9):
        for alpha in (F(0), F(1, 2), F(2, 3), F(-3)):
            iv = {
                "pminus": invariant_vector(canon(Tag.P_MINUS, n)),
                "n3minus": invariant_vector(canon(Tag.N3_MINUS, n)),
                "lambda2": invariant_vector(canon(Tag.LAMBDA2, n)),
                "nu": invariant_vector(canon(Tag.NU, n, alpha)),
            }
            # anticommutativity separates the skew pair from lambda2
            assert iv["pminus"].anticommutative and iv["n3minus"].anticommutative
            assert not iv["lambda2"].anticommutative
            assert not iv["nu"].anticommutative
            assert iv["lambda2"].commutative
            # nilpotency separates {n3minus, lambda2} from {pminus, nu}
            assert iv["n3minus"].nilpotent and iv["lambda2"].nilpotent
            assert not iv["pminus"].nilpotent and not iv["nu"].nilpotent
            # dim A^2 finishes pminus vs nu
            assert iv["pminus"].power_dims[0] == n - 1
            assert iv["nu"].power_dims[0] == n
            # form ranks finish n3minus vs lambda2
            assert iv["n3minus"].skew_rank == 2 and iv["n3minus"].sym_rank == 0
            assert iv["lambda2"].sym_rank == 1 and iv["lambda2"].skew_rank == 0
            # and the full vectors are pairwise distinct
            vals = list(iv.values())
            assert len({repr(v) for v in vals}) == 4

    # closed-condition suite over 500 verified degenerations
    import random as _random

    degenerations = 0
    attempt = 0
    while degenerations < 500:
        rng = _random.Random(attempt)
        attempt += 1
        n = rng.randint(2, 3)
        a = random_algebra(n, 0.5, seed=rng.randint(0, 10**6))
        flavor = attempt % 4
        c = a.constants
        if flavor == 1:  # commutative input
            a = Algebra(n, tuple(tuple(tuple((c[k][i][j] + c[k][j][i]) / 2
                        for j in range(n)) for i in range(n)) for k in range(n)))
        elif flavor == 2:  # anticommutative input
            a = Algebra(n, tuple(tuple(tuple((c[k][i][j] - c[k][j][i]) / 2
                        for j in range(n)) for i in range(n)) for k in range(n)))
        elif flavor == 3:  # strictly triangular tensor: nilpotent input
            a = Algebra(n, tuple(tuple(tuple(
                c[k][i][j] if k > max(i, j) else F(0)
                for j in range(n)) for i in range(n)) for k in range(n)))
        g = random_family(n, attempt % 2, seed=rng.randint(0, 10**6))
        try:
            lim = transport_limit(a, g)
        except NoLimit:
            continue
        degenerations += 1
        if a.is_commutative():
            assert lim.is_commutative()
        if a.is_anticommutative():
            assert lim.is_anticommutative()
        if a.is_nilpotent():
            assert lim.is_nilpotent()
        assert derived_subspace(lim).dim <= derived_subspace(a).dim
    print(f"\nPASS criterion 5: separation table exact for n=3..8 and "
          f"closed conditions held on {degenerations} verified degenerations "
          f"({time.time() - t0:.2f}s)")


def test_criterion_6_recognizer_round_trip():
    """100 random rational basis changes per canonical form recover the tag
    and scalar every time, including nu(1/2) routing to nu."""
    import random as _random

    t0 = time.time()
    alphas = [F(0), F(1), F(1, 2), F(2, 3), F(-3), F(7)]
    combos = []
    for n in range(2, 9):
        combos.append((Tag.ABELIAN, n, None))
        combos.append((Tag.P_MINUS, n, None))
        combos.append((Tag.P_PLUS, n, None))
        combos.append((Tag.LAMBDA2, n, None))
        if n >= 3:
            combos.append((Tag.N3_MINUS, n, None))
            combos.append((Tag.N3_PLUS, n, None))
        for alpha in alphas:
            combos.append((Tag.NU, n, alpha))
    runs = 0
    for tag, n, alpha in combos:
        form = CanonicalForm(tag, n, alpha)
        base = construct(form)
        for trial in range(100):
            # crc32 of the repr, not hash(): the same data in every process
            key = repr((tag.value, n, str(alpha), trial)).encode()
            rng = _random.Random(zlib.crc32(key))
            a = apply_basis_change(base, random_invertible_matrix(n, rng, bound=2))
            res = recognize(a)
            assert res.form == form, (tag, n, alpha, trial, res.reason)
            runs += 1
    print(f"\nPASS criterion 6: {runs} recognition round trips, 100% tag and "
          f"scalar recovery ({time.time() - t0:.2f}s)")


def test_criterion_7_property_suites_green(module_outcomes):
    """The module property suites (field axioms, valuation additivity,
    parse/print round trip, group-action laws, specialization consistency)
    pass under the standard test command.

    A module this session has run whole (conftest.py runs this test last)
    is judged by the outcomes the session recorded; any other is run in a
    pytest subprocess."""
    t0 = time.time()
    modules = [
        "tests/test_poly.py",
        "tests/test_parser.py",
        "tests/test_algebra.py",
        "tests/test_transport.py",
    ]
    rerun = []
    for module in modules:
        failed = module_outcomes.failures(ROOT / module)
        if failed is None:
            rerun.append(module)
        else:
            assert not failed, failed
    if rerun:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", *rerun],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
    print(f"\nPASS criterion 7: property suites green under pytest, "
          f"{len(modules) - len(rerun)} read from this session and {len(rerun)} run "
          f"in a subprocess ({time.time() - t0:.2f}s)")

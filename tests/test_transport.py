import hashlib
import importlib
import itertools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from levelone import (
    Algebra,
    CanonicalForm,
    ClassifierConfig,
    InexactEntry,
    NoLimit,
    ParamMatrix,
    SingularFamily,
    Tag,
    Witness,
    apply_basis_change,
    classify,
    construct,
    derived_subspace,
    invert,
    random_algebra,
    random_family,
    random_invertible_matrix,
    transport,
    transport_at,
    transport_limit,
    verify_degeneration,
)
from levelone.cli import main
from levelone.errors import DegreeOverflow, PoleAtPoint, SingularMatrix
from levelone.families import n3plus_to_lambda2, pplus_to_lambda2, scaling_family
from levelone.jsonio import (algebra_from_dict, algebra_to_dict, dumps, family_from_dict,
                             family_to_dict, load_path, save_path, witness_from_dict)
from levelone.linalg import bareiss, mat_det
from levelone.poly import FE_ZERO, MAX_DEGREE, FieldElement
from levelone.transport import _cleared, _row_monomial

import test_transport_oracle as oracle  # the sympy QQ(t) oracle
from conftest import algebras, constant_tensor, fe, nonzero_rationals, qt_limit

FE_ONE = FieldElement(1)

# ``levelone.transport`` is also the name of a function the package exports
algebra_module = importlib.import_module("levelone.algebra")
transport_module = importlib.import_module("levelone.transport")


def canon(tag, n, alpha=None):
    return construct(CanonicalForm(tag, n, alpha))


class TestInvert:
    def test_diagonal(self):
        g = ParamMatrix.diagonal_powers([-1, -2])
        assert ParamMatrix(2, invert(g)) == ParamMatrix.diagonal_powers([1, 2])

    def test_identity(self):
        g = ParamMatrix.identity(3)
        assert ParamMatrix(3, invert(g)) == g

    def test_family_inverse_first_column(self):
        # solve g(v) = e1 by elimination; multiplying back is the oracle
        g = pplus_to_lambda2(3)
        ginv = invert(g)
        first_col = [ginv[i][0] for i in range(3)]
        t = fe("t")
        assert first_col == [t, t, FE_ZERO]

    @given(st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_multiply_back_gives_identity(self, seed):
        # over sympy's QQ(t): a product of rows that are not Laurent is not
        # a family
        g = random_family(3, 2, seed)
        assert oracle.to_dm(g.entries) * oracle.to_dm(invert(g)) == oracle.to_dm(
            ParamMatrix.identity(3).entries)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_laurent_product_is_stored_canonically(self, n):
        # g = diag(t^e) * m has the Laurent inverse m^-1 * diag(t^-e), and
        # g @ g^-1 is cleared to the identity's stored form
        identity = family_to_dict(ParamMatrix.identity(n))
        rng = random.Random(n)
        for _ in range(10):
            g = (ParamMatrix.diagonal_powers([rng.randint(-2, 2) for _ in range(n)])
                 @ ParamMatrix.from_rational(random_invertible_matrix(n, rng)))
            product = g @ ParamMatrix(n, invert(g))
            assert product._form == ParamMatrix.identity(n)._form
            assert family_to_dict(product) == identity

    def test_singular_family_raises(self):
        t = fe("t")
        rows = ((t, t), (t, t))
        with pytest.raises(SingularFamily):
            invert(ParamMatrix(2, rows))


class TestTransport:
    def test_identity_family_embeds(self):
        a = random_algebra(3, 0.6, seed=2)
        assert transport(a, ParamMatrix.identity(3)) == constant_tensor(a)

    def test_pminus_is_fixed_by_tail_scaling(self):
        a = canon(Tag.P_MINUS, 3)
        moved = transport(a, scaling_family([0, 1, 1]))
        assert moved == constant_tensor(a)

    def test_n3plus_under_its_family_keeps_the_square(self):
        a = canon(Tag.N3_PLUS, 3)
        moved = transport(a, n3plus_to_lambda2(3))
        assert moved.constants[1][0][0] == FE_ONE

    @given(algebras(min_dim=2, max_dim=3), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_specialization_consistency(self, a, seed):
        """transport then evaluate = basis-change by the evaluated matrix."""
        g = random_family(a.dim, 1, seed)
        for t0 in (F(1), F(2), F(1, 3), F(-1)):
            try:
                gmat = g.eval_at(t0)
                moved = transport(a, g).eval_at(t0)
            except ArithmeticError:
                continue
            from levelone.linalg import mat_det

            if mat_det(gmat) == 0:
                continue
            assert moved == apply_basis_change(a, gmat)

    @given(algebras(min_dim=2, max_dim=3), st.integers(0, 10**6), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_eval_at_gives_the_entrywise_values(self, a, seed, pb):
        pa = transport(a, random_family(a.dim, pb, seed))
        for t0 in (F(0), F(1), F(-1), F(1, 2), F(-3, 2)):
            want = []
            for plane in pa.constants:
                for row in plane:
                    for e in row:
                        try:
                            want.append(e.eval_at(t0))
                        except PoleAtPoint:
                            want = PoleAtPoint
                            break
                    if want is PoleAtPoint:
                        break
                if want is PoleAtPoint:
                    break
            if want is PoleAtPoint:
                with pytest.raises(PoleAtPoint):
                    pa.eval_at(t0)
            else:
                got = pa.eval_at(t0).constants
                assert [x for plane in got for row in plane for x in row] == want

    @given(algebras(min_dim=2, max_dim=3), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_action_law_through_specialization(self, a, seed):
        rng = random.Random(seed)
        from levelone import random_invertible_matrix
        from levelone.linalg import mat_det

        g = random_family(a.dim, 1, seed)
        h = random_invertible_matrix(a.dim, rng)
        hg = ParamMatrix.from_rational(h) @ g
        for t0 in (F(1), F(3, 2)):
            try:
                gmat = g.eval_at(t0)
            except ArithmeticError:
                continue
            if mat_det(gmat) == 0:
                continue
            lhs = apply_basis_change(transport(a, g).eval_at(t0), h)
            rhs = transport(a, hg).eval_at(t0)
            assert lhs == rhs


AT_POINTS = (F(0), F(1), F(-1), F(1, 2), F(-3, 2))


def at_outcome(f):
    """f() or the PoleAtPoint it raises, as a comparable value."""
    try:
        return f()
    except PoleAtPoint:
        return PoleAtPoint


def with_det_root(g: ParamMatrix, r: F) -> ParamMatrix:
    """g times the block [[1, 1], [1, t + 1 - r]] (+) I, whose det is t - r."""
    n = g.dim
    m = [[FE_ONE if i == j else FE_ZERO for j in range(n)] for i in range(n)]
    m[0][1] = m[1][0] = FE_ONE
    m[1][1] = FieldElement({1: F(1), 0: 1 - r}) if r != 1 else fe("t")
    return g @ ParamMatrix(n, tuple(tuple(row) for row in m))


class TestInexactInput:
    """A float coefficient or point raises InexactEntry: its binary value is
    not the decimal it shows."""

    @pytest.mark.parametrize("value", [0.1, 2.0, -0.5])
    def test_from_laurent(self, value):
        with pytest.raises(InexactEntry, match="coefficient .* is a float"):
            ParamMatrix.from_laurent([[{-1: F(1)}, {}], [{0: value}, {1: 1}]])

    @pytest.mark.parametrize("value", [0.1, 2.0, -0.5])
    def test_from_rational(self, value):
        with pytest.raises(InexactEntry, match="coefficient .* is a float"):
            ParamMatrix.from_rational([[F(1), F(0)], [value, F(1)]])

    @pytest.mark.parametrize("value", [0.1, 2.0, -0.5])
    def test_field_element_rows(self, value):
        # FieldElement keeps a dict's coefficients as given; ParamMatrix clears them
        with pytest.raises(InexactEntry, match="coefficient .* is a float"):
            ParamMatrix(1, ((FieldElement({-1: value}),),))

    @pytest.mark.parametrize("value", [0.1, 2.0, -0.5])
    def test_points(self, value):
        a, g = canon(Tag.P_PLUS, 3), pplus_to_lambda2(3)
        for at in (lambda: transport_at(a, g, value), lambda: g.eval_at(value),
                   lambda: transport(a, g).eval_at(value)):
            with pytest.raises(InexactEntry, match="point .* is a float"):
                at()


class TestTransportAt:
    @given(algebras(min_dim=2, max_dim=3), st.integers(0, 10**6), st.integers(0, 2),
           st.sampled_from(AT_POINTS), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_equals_transport_then_evaluate(self, a, seed, pole_bound, t0, root):
        """Same value or the same PoleAtPoint, also at 0 and at a root of det g."""
        g = random_family(a.dim, pole_bound, seed)
        if root:
            g = with_det_root(g, t0)
        assert at_outcome(lambda: transport_at(a, g, t0)) == at_outcome(
            lambda: transport(a, g).eval_at(t0))

    def test_pole_of_the_family_falls_back(self):
        # g(0) does not exist, yet pminus is a fixed point of diag(1, t^-1)
        a = canon(Tag.P_MINUS, 2)
        g = ParamMatrix.diagonal_powers([0, -1])
        with pytest.raises(PoleAtPoint):
            g.eval_at(F(0))
        assert transport_at(a, g, F(0)) == transport(a, g).eval_at(F(0)) == a

    def test_singular_value_of_the_family_falls_back(self):
        # g(0) = 0, yet diag(t, t^2) fixes lambda2 (e1*e1 = e2)
        a = canon(Tag.LAMBDA2, 2)
        g = ParamMatrix.diagonal_powers([1, 2])
        assert mat_det(g.eval_at(F(0))) == 0
        assert transport_at(a, g, F(0)) == transport(a, g).eval_at(F(0)) == a

    def test_cli_at_a_regular_point_needs_no_q_t_degree_budget(self, capsys, tmp_path):
        # transport() over Q(t) would form t^12002 = det^2 and pass MAX_DEGREE;
        # g(1/2) is an ordinary rational basis change
        a = canon(Tag.LAMBDA2, 2)
        g = ParamMatrix.diagonal_powers([6000, 1])
        alg, fam = tmp_path / "a.json", tmp_path / "g.json"
        save_path(str(alg), algebra_to_dict(a))
        save_path(str(fam), family_to_dict(g))
        argv = ["transport", "--algebra", str(alg), "--family", str(fam)]
        code = main(argv + ["--at", "1/2"])
        out = capsys.readouterr().out
        assert code == 0
        assert algebra_from_dict(json.loads(out)) == apply_basis_change(a, g.eval_at(F(1, 2)))
        assert main(argv + ["--limit"]) == 1


def composed_at(a, g, t0):
    """transport_at as the rational composition: g(t0) entry by entry over Q,
    and the Q(t) tensor where g(t0) has a pole or is singular."""
    try:
        return apply_basis_change(a, g.eval_at(t0))
    except (PoleAtPoint, SingularMatrix):
        return transport(a, g).eval_at(t0)


def needs_the_tensor(g, t0) -> bool:
    """g(t0) has a pole or is singular."""
    try:
        return mat_det(g.eval_at(t0)) == 0
    except PoleAtPoint:
        return True


INTEGER_POINTS = (F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(-7, 5))


class TestIntegerEvaluation:
    """transport_at evaluates g = P / (L*t^s) at u/v over Z; the fallback to
    the Q(t) tensor runs exactly where g(t0) has a pole or is singular."""

    @staticmethod
    def agree(a, g, t0, monkeypatch):
        """The same stored form, or error type and message, as the rational
        composition, with the Q(t) tensor built exactly where it needs it."""
        calls = []
        real = transport_module.transport
        monkeypatch.setattr(transport_module, "transport",
                            lambda *args: calls.append(args) or real(*args))
        got = outcome(lambda: transport_at(a, g, t0))
        monkeypatch.setattr(transport_module, "transport", real)
        assert got == outcome(lambda: composed_at(a, g, t0))
        assert len(calls) == needs_the_tensor(g, t0)
        return got

    @pytest.mark.parametrize("pole_bound", range(4))
    @pytest.mark.parametrize("n", range(2, 6))
    def test_same_stored_form_or_error_as_the_rational_composition(self, n, pole_bound,
                                                                    monkeypatch):
        rng = random.Random(f"at:{n}:{pole_bound}")
        for _ in range(2):
            g = random_family(n, pole_bound, rng.randrange(10**6))
            for a in (canon(Tag.P_MINUS, n), canon(Tag.NU, n, F(2, 3)),
                      random_algebra(n, 0.5, rng.randrange(10**6), nonabelian=True)):
                for t0 in INTEGER_POINTS:
                    self.agree(a, g, t0, monkeypatch)

    def test_negative_point_and_odd_pole_order_keep_the_denominator_positive(self,
                                                                             monkeypatch):
        # L * u^s * v^(D - s) < 0 for u < 0 and s odd; the stored form, whose
        # denominator is positive, is the same
        odd = [g for g in (random_family(3, 3, seed) for seed in range(40))
               if _cleared(g)[0] % 2]
        cases = [(g, t0) for g in odd for t0 in (F(-1), F(-3, 2), F(-7, 5))
                 if not needs_the_tensor(g, t0)]
        assert len(cases) >= 20
        for g, t0 in cases:
            self.agree(random_algebra(3, 0.6, 7, nonabelian=True), g, t0, monkeypatch)

    def test_at_zero_without_and_with_a_pole(self, monkeypatch):
        a = random_algebra(3, 0.6, 11, nonabelian=True)
        t, one = fe("t"), FE_ONE
        unipotent = ParamMatrix(3, ((one, t, FE_ZERO), (FE_ZERO, one, fe("t^2")),
                                    (FE_ZERO, FE_ZERO, one)))
        t1 = ParamMatrix.diagonal_powers([1, 1, 1])
        polynomial = [g @ h for g in (random_family(3, 0, seed) for seed in range(6))
                      for h in (unipotent, t1)]
        assert all(_cleared(g)[0] == 0 for g in polynomial)
        assert any(needs_the_tensor(g, F(0)) for g in polynomial)
        assert not all(needs_the_tensor(g, F(0)) for g in polynomial)
        poles = [g for g in (random_family(3, 2, seed) for seed in range(12)) if _cleared(g)[0]]
        assert poles
        for g in polynomial + poles:
            self.agree(a, g, F(0), monkeypatch)

    def test_a_root_of_det_g_falls_back(self, monkeypatch):
        a = canon(Tag.NU, 3, F(2, 3))
        for seed, t0 in itertools.product(range(3), (F(1), F(-3, 2), F(-7, 5))):
            g = with_det_root(random_family(3, 1, seed), t0)
            assert needs_the_tensor(g, t0)
            self.agree(a, g, t0, monkeypatch)

    def test_an_inverse_family_keeps_the_composition(self, monkeypatch):
        # invert(g) is a family when det g is a monomial, as for
        # g = diag(t^e) * m, whose inverse m^-1 * diag(t^-e) is read by the
        # kernel, not as a row-monomial family
        rng = random.Random(3)
        families = [ParamMatrix.diagonal_powers([rng.randint(-2, 2) for _ in range(3)])
                    @ ParamMatrix.from_rational(random_invertible_matrix(3, rng))
                    for _ in range(6)]
        families += [ParamMatrix.diagonal_powers([2, 0, -1]), pplus_to_lambda2(3)]
        inverses = [ParamMatrix(3, invert(g)) for g in families]
        a = canon(Tag.P_MINUS, 3)
        for h in inverses:
            for t0 in INTEGER_POINTS:
                self.agree(a, h, t0, monkeypatch)

    @pytest.mark.parametrize("t0", [F(1), F(-1), F(1, 2), F(0)])
    def test_an_exponent_of_p_past_the_degree_bound_raises(self, t0):
        a = canon(Tag.P_MINUS, 2)
        for exps in ([10_001, 0], [-10_001, 0], [0, 2_000_000]):
            with pytest.raises(DegreeOverflow, match=r"^exponent beyond \+/-10000$"):
                transport_at(a, ParamMatrix.diagonal_powers(exps), t0)
        if t0:
            for exps in ([10_000, 0], [-10_000, 0]):
                g = ParamMatrix.diagonal_powers(exps)
                assert transport_at(a, g, t0) == composed_at(a, g, t0)
        # the bound is on P and on the common pole s alike, as evaluating a
        # pole of order 10^7 takes minutes: t^-10000 * I at t0 = 1 is the
        # algebra itself, and past the bound it raises
        assert transport_at(a, ParamMatrix.diagonal_powers([-10_000, -10_000]), F(1)) == a
        for k in (10_001, 20_000, 10_000_000):
            with pytest.raises(DegreeOverflow, match=r"^exponent beyond \+/-10000$"):
                transport_at(a, ParamMatrix.diagonal_powers([-k, -k]), t0)


class TestLimits:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_pplus_limit_is_lambda2(self, n):
        lim = transport_limit(canon(Tag.P_PLUS, n), pplus_to_lambda2(n))
        assert lim == canon(Tag.LAMBDA2, n)

    def test_abelian_limits_to_itself(self):
        a = canon(Tag.ABELIAN, 3)
        for seed in range(5):
            g = random_family(3, 2, seed)
            assert transport_limit(a, g) == a

    @given(algebras(min_dim=2, max_dim=3), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_fused_limit_agrees_with_two_step(self, a, seed):
        g = random_family(a.dim, 1, seed)
        try:
            fused = transport_limit(a, g)
        except NoLimit as exc:
            with pytest.raises(NoLimit) as err:
                qt_limit(a, g)
            assert err.value.entries == exc.entries
            return
        assert fused == qt_limit(a, g)


class TestVerify:
    def test_pplus_witness_passes(self):
        w = Witness(pplus_to_lambda2(4), CanonicalForm(Tag.LAMBDA2, 4))
        report = verify_degeneration(canon(Tag.P_PLUS, 4), w)
        assert report.passed
        assert report.limit == canon(Tag.LAMBDA2, 4)

    def test_wrong_target_fails_with_diagnostics(self):
        w = Witness(scaling_family([0, 1, 1]), CanonicalForm(Tag.ABELIAN, 3))
        report = verify_degeneration(canon(Tag.P_MINUS, 3), w)
        assert not report.passed
        assert report.limit == canon(Tag.P_MINUS, 3)
        assert report.diagnostics

    def test_diagnostics_stop_at_six(self):
        # 57 entries differ from the abelian target; the report lists six
        a = random_algebra(4, 0.9, 3, nonabelian=True)
        w = Witness(ParamMatrix.identity(4), CanonicalForm(Tag.ABELIAN, 4))
        report = verify_degeneration(a, w)
        assert not report.passed
        assert len(report.diagnostics) == 6
        assert report.diagnostics[0].startswith("entry (1,")

    def test_no_limit_is_a_failing_report(self):
        # scaling e2 down blows the square e1*e1 = e2 up: entry t^-1
        w = Witness(scaling_family([0, 1]), CanonicalForm(Tag.ABELIAN, 2))
        report = verify_degeneration(canon(Tag.LAMBDA2, 2), w)
        assert not report.passed
        assert report.limit is None
        assert "(2,1,1)" in report.diagnostics[0].replace(" ", "")

    def test_up_to_iso_accepts_an_isomorphic_limit(self):
        a = apply_basis_change(canon(Tag.LAMBDA2, 3), [[F(1), F(0), F(0)], [F(2), F(3), F(0)], [F(0), F(1), F(2)]])
        w = Witness(ParamMatrix.identity(3), CanonicalForm(Tag.LAMBDA2, 3))
        assert not verify_degeneration(a, w).passed
        assert verify_degeneration(a, w, up_to_iso=True).passed

    @pytest.mark.parametrize(
        "tag,alpha",
        [(Tag.ABELIAN, None), (Tag.P_MINUS, None), (Tag.P_PLUS, None),
         (Tag.N3_MINUS, None), (Tag.N3_PLUS, None), (Tag.LAMBDA2, None),
         (Tag.NU, F(2, 3))],
    )
    def test_identity_family_witness_fixes_canonicals(self, tag, alpha):
        n = 4
        form = CanonicalForm(tag, n, alpha)
        w = Witness(ParamMatrix.identity(n), form)
        assert verify_degeneration(construct(form), w).passed


class TestRandomFamily:
    def test_pole_bound_zero_gives_constant_isomorphic_limit(self):
        a = random_algebra(3, 0.5, seed=4, nonabelian=True)
        g = random_family(3, 0, seed=9)
        lim = transport_limit(a, g)
        assert lim == apply_basis_change(a, g.eval_at(F(0)))

    def test_seed_determinism(self):
        assert random_family(3, 2, seed=5) == random_family(3, 2, seed=5)

    def test_always_invertible(self):
        for seed in range(10):
            assert random_family(2, 1, seed).det()

    @given(st.integers(1, 8), st.integers(0, 3), st.integers(0, 2**32))
    @settings(max_examples=300)
    def test_draws_match_the_fraction_draws(self, n, pole_bound, seed):
        g = random_family(n, pole_bound, seed)
        want, rows = reference_random_family(n, pole_bound, seed)
        assert g._form == want._form
        assert [[list(p.items()) for p in row] for row in g._form[2]] == [
            [list(p.items()) for p in row] for row in want._form[2]]
        assert transport_module._clear(rows) == stored_form(rows)

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_a_dimension_that_is_not_an_int_is_refused(self, n):
        with pytest.raises(ValueError, match="dimension must be an int"):
            random_family(n, 1, 0)

    @pytest.mark.parametrize("pole_bound", [-1, True, False, 1.0, "1", None])
    def test_a_pole_bound_that_is_not_an_int_of_at_least_0_is_refused(self, pole_bound):
        # 1.0 once drew a family on 3.10 and 3.11 and raised TypeError on 3.12+
        with pytest.raises(ValueError, match=r"^pole_bound must be an int >= 0, got "):
            random_family(2, pole_bound, 0)


def reference_random_family(n, pole_bound, seed):
    """``random_family`` as it was written over Fraction, cleared term by
    term and decided by one Z[t] elimination: (the family, its Laurent
    rows)."""
    rng = random.Random(seed)
    while True:
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                lp = {}
                if rng.random() < 0.65:
                    for _ in range(rng.randint(1, 2)):
                        e = rng.randint(-pole_bound, pole_bound)
                        c = F(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 2))
                        if lp.get(e, 0) + c:
                            lp[e] = lp.get(e, 0) + c
                        else:
                            lp.pop(e, None)
                row.append(lp)
            rows.append(row)
        pm = ParamMatrix.from_cleared(*stored_form(rows))
        if bareiss([list(row) for row in pm._form[2]])[0]:
            return pm, rows


def counted_bareiss(monkeypatch):
    """The rows of every ``bareiss`` call ``transport`` makes, as passed."""
    calls = []

    def spy(rows):
        calls.append([list(row) for row in rows])
        return bareiss(rows)
    monkeypatch.setattr(transport_module, "bareiss", spy)
    return calls


def poly_grid(*rows):
    return tuple(tuple(dict(p) for p in row) for row in rows)


class TestDetCertificate:
    """``_det_nonzero``: det P(2) != 0 proves det P != 0 with one integer
    elimination; anything else goes to the Z[t] elimination, which raises
    DegreeOverflow exactly where ``bareiss`` does."""

    def test_a_nonzero_value_at_two_decides_alone(self, monkeypatch):
        calls = counted_bareiss(monkeypatch)
        assert transport_module._det_nonzero(poly_grid([{1: 1}, {0: 3}], [{}, {2: 1, 0: -1}]))
        assert len(calls) == 1 and all(set(p) <= {0} for row in calls[0] for p in row)

    def test_a_det_with_the_factor_t_minus_2_reaches_the_fallback(self, monkeypatch):
        # P = [[t, 1], [0, t - 2]]: det P = t (t - 2) != 0, but det P(2) = 0
        calls = counted_bareiss(monkeypatch)
        assert transport_module._det_nonzero(poly_grid([{1: 1}, {0: 1}], [{}, {0: -2, 1: 1}]))
        assert len(calls) == 2
        assert calls[0] == [[{0: 2}, {0: 1}], [{}, {}]]

    def test_a_singular_family_is_refused_by_the_fallback(self, monkeypatch):
        # P = [[1 + t, t], [2 + 2t, 2t]]: the rows are proportional
        calls = counted_bareiss(monkeypatch)
        P = poly_grid([{0: 1, 1: 1}, {1: 1}], [{0: 2, 1: 2}, {1: 2}])
        assert not transport_module._det_nonzero(P)
        assert len(calls) == 2

    @pytest.mark.parametrize("P, raises", [
        # D = 12000: t^12000 - 1 is a minor past MAX_DEGREE
        (poly_grid([{6000: 1}, {0: 1}], [{0: 1}, {6000: 1}]), True),
        # D = 12000, but det P = t^6000 and every minor stays within it
        (poly_grid([{6000: 1}, {6000: 1}], [{6000: 1}, {6000: 1, 0: 1}]), False),
    ])
    def test_past_max_degree_only_the_z_t_elimination_runs(self, monkeypatch, P, raises):
        want = outcome(lambda: bareiss([list(row) for row in P])[0] != 0)
        assert (want == (DegreeOverflow, f"exponent beyond +/-{MAX_DEGREE}")) == raises
        calls = counted_bareiss(monkeypatch)
        assert outcome(lambda: transport_module._det_nonzero(P)) == want
        assert len(calls) == 1 and calls[0] == [list(row) for row in P]


class TestClosedConditions:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_limits_preserve_closed_conditions(self, seed):
        """Commutativity, anticommutativity, nilpotency and dim A^2 bounds
        survive every existing limit."""
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        a = random_algebra(n, 0.5, seed=rng.randint(0, 10**6))
        flavor = rng.choice(("raw", "sym", "skew"))
        c = a.constants
        if flavor == "sym":
            a = Algebra(n, tuple(
                tuple(tuple((c[k][i][j] + c[k][j][i]) / 2 for j in range(n))
                      for i in range(n)) for k in range(n)))
        elif flavor == "skew":
            a = Algebra(n, tuple(
                tuple(tuple((c[k][i][j] - c[k][j][i]) / 2 for j in range(n))
                      for i in range(n)) for k in range(n)))
        g = random_family(n, 1, seed=rng.randint(0, 10**6))
        try:
            lim = transport_limit(a, g)
        except NoLimit:
            return
        if a.is_commutative():
            assert lim.is_commutative()
        if a.is_anticommutative():
            assert lim.is_anticommutative()
        if a.is_nilpotent():
            assert lim.is_nilpotent()
        assert derived_subspace(lim).dim <= derived_subspace(a).dim


@st.composite
def row_monomial_families(draw, max_dim=4):
    """diag(t^e) * m with e in [-3, 3]; m often has zero entries and rows,
    and is made singular half the time."""
    n = draw(st.integers(1, max_dim))
    exps = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    coeff = st.one_of(st.just(F(0)), nonzero_rationals)
    m = draw(st.lists(st.lists(coeff, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        m[i] = [2 * x for x in m[j]]
    return ParamMatrix(n, tuple(
        tuple(FieldElement.from_laurent({e: c}) if c else FE_ZERO for c in row)
        for e, row in zip(exps, m)))


def limit_outcome(f):
    """f() or the NoLimit entries or SingularFamily it raises."""
    try:
        return f()
    except NoLimit as exc:
        return NoLimit, exc.entries
    except SingularFamily:
        return SingularFamily


def leibniz_det(g: ParamMatrix):
    """det g by the Leibniz expansion, in sympy's QQ(t)."""
    total = oracle.K.zero
    for perm in itertools.permutations(range(g.dim)):
        inversions = sum(p > q for p, q in itertools.combinations(perm, 2))
        term = oracle.K(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= oracle.to_k(g.entries[i][j])
        total += term
    return total


class TestRowMonomial:
    @given(row_monomial_families(), st.integers(0, 10**6))
    @settings(max_examples=120, deadline=None)
    def test_read_off_equals_the_general_path(self, g, seed):
        assert _row_monomial(g) is not None
        a = random_algebra(g.dim, 0.5, seed)
        assert limit_outcome(lambda: transport_limit(a, g)) == limit_outcome(
            lambda: qt_limit(a, g))

    @given(row_monomial_families(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_read_off_builds_no_entry_dict_and_no_full_basis_change(self, g, seed):
        # the read-off contracts only the entries that survive t -> 0 and
        # builds the limit from their integers: no Algebra.entries(), no
        # apply_basis_change
        a = random_algebra(g.dim, 0.5, seed)
        want = limit_outcome(lambda: qt_limit(a, g))

        def refuse(*args, **kwargs):
            raise AssertionError("the read-off formed the full tensor")

        # transport.py does not import apply_basis_change, so only algebra's
        # binding could be reached
        assert not hasattr(transport_module, "apply_basis_change")
        with mock.patch.object(Algebra, "entries", refuse), \
                mock.patch.object(algebra_module, "apply_basis_change", refuse):
            got = limit_outcome(lambda: transport_limit(a, g))
        assert got == want

    def test_read_off_of_a_witness_without_the_full_tensor(self, monkeypatch):
        a = canon(Tag.P_PLUS, 3)
        monkeypatch.setattr(Algebra, "entries", None)
        monkeypatch.setattr(algebra_module, "apply_basis_change", None)
        assert not hasattr(transport_module, "apply_basis_change")
        assert transport_limit(a, pplus_to_lambda2(3)) == canon(Tag.LAMBDA2, 3)
        with pytest.raises(NoLimit) as exc:
            transport_limit(canon(Tag.LAMBDA2, 3), ParamMatrix.diagonal_powers([1, 0, 0]))
        assert exc.value.entries == [(2, 1, 1)]

    @given(row_monomial_families())
    @settings(max_examples=80, deadline=None)
    def test_det_equals_the_leibniz_expansion(self, g):
        assert oracle.to_k(g.det()) == leibniz_det(g)

    def test_families_outside_the_read_off(self):
        t = fe("t")
        mixed_row = ParamMatrix(2, ((t, FE_ONE), (FE_ZERO, FE_ONE)))
        binomial = ParamMatrix(2, ((fe("t + 1"), FE_ZERO), (FE_ZERO, FE_ONE)))
        assert _row_monomial(mixed_row) is None
        assert _row_monomial(binomial) is None
        # m = [[1, 0, 0], [-1/2, 1/2, 0], [0, 0, 1]] as the integer pair (2, 2m)
        assert _row_monomial(pplus_to_lambda2(3)) == ([-1, -2, -2], (2, [
            [2, 0, 0], [-1, 1, 0], [0, 0, 2]]))

    @pytest.mark.parametrize("exps", [[6000, 6000], [-1000, 5000, 5000]])
    def test_degree_budget_of_the_kernel_is_kept(self, exps):
        # the kernel would clear to P = t^s * g and form det P = t^12000
        g = ParamMatrix.diagonal_powers(exps)
        with pytest.raises(DegreeOverflow):
            g.det()
        with pytest.raises(DegreeOverflow):
            transport_limit(canon(Tag.LAMBDA2, len(exps)), g)

    def test_singular_family_with_large_exponents_is_singular(self):
        # the guard fires only for an invertible m; det = 0 has no degree
        g = ParamMatrix(2, ((FE_ZERO, fe("2*t^8680")), (FE_ZERO, fe("-t^-1831"))))
        assert g.det() == FE_ZERO
        with pytest.raises(SingularFamily):
            transport_limit(canon(Tag.LAMBDA2, 2), g)

    def test_bareiss_budget_is_checked_on_the_minors(self):
        # the elimination forms t^12000 * (1 + t) before dividing by t^4000;
        # every minor, the determinant among them, stays within MAX_DEGREE
        t4000 = fe("t^4000")
        g = ParamMatrix(3, ((t4000, FE_ZERO, FE_ZERO), (FE_ZERO, t4000, FE_ZERO),
                            (FE_ZERO, FE_ZERO, fe("1 + t"))))
        assert g.det() == fe("t^8000 + t^8001")
        # R = d * P^-1 and d share t^4000, so the read-off exponent is 8000,
        # not 16000; the answer is that of diag(t^4000, t^4000, 1)
        with pytest.raises(NoLimit) as exc:
            transport_limit(canon(Tag.LAMBDA2, 3), g)
        assert exc.value.entries == [(2, 1, 1)]

    def test_kernel_overflow_now_has_an_exact_answer(self, capsys, tmp_path):
        # Bareiss on P = diag(t^4000, t^4000, 1) forms a t^12000 product and
        # (L*D)^3 = t^12000, though det P = t^8000; the read-off needs neither
        a = canon(Tag.LAMBDA2, 3)
        g = ParamMatrix.diagonal_powers([0, 0, -4000])
        assert g.det() == fe("t^-4000")
        assert transport_limit(a, g) == a
        alg, fam = tmp_path / "a.json", tmp_path / "g.json"
        save_path(str(alg), algebra_to_dict(a))
        save_path(str(fam), family_to_dict(g))
        code = main(["transport", "--algebra", str(alg), "--family", str(fam), "--limit"])
        assert code == 0
        assert algebra_from_dict(json.loads(capsys.readouterr().out)) == a


def stored_form(grid):
    """(s, L, P) of a grid of Laurent dicts, term by term: t^s the largest
    entry denominator and L the lcm of the coefficient denominators."""
    terms = [(e, F(c)) for row in grid for p in row for e, c in p.items()]
    s = max([0] + [-e for e, _ in terms])
    L = math.lcm(*(c.denominator for _, c in terms))
    return s, L, tuple(tuple({e + s: int(F(c) * L) for e, c in p.items()} for p in row)
                       for row in grid)


@st.composite
def laurent_grids(draw):
    """A random n x n grid of Laurent dicts, n = 1..5, exponents within a
    pole bound of 0..3, one or two terms an entry; singular ones too."""
    n = draw(st.integers(1, 5))
    bound = draw(st.integers(0, 3))
    grid = []
    for _ in range(n):
        row = []
        for _ in range(n):
            p = {}
            if draw(st.booleans()):
                for e, c in draw(st.lists(st.tuples(st.integers(-bound, bound),
                                                    nonzero_rationals), min_size=1, max_size=2)):
                    p[e] = p.get(e, 0) + c
            row.append({e: c for e, c in p.items() if c})
        grid.append(row)
    return grid


class TestStoredForm:
    """Every family is stored as g = P / (L*t^s) over Z[t], and is the same
    family to every reader whether it was built from FieldElement rows or
    from that form."""

    POINTS = (F(0), F(1), F(-1), F(1, 2), F(-3, 2))

    @staticmethod
    def readings(g, a):
        """Everything a reader sees of g: the entries' num/den dicts, det,
        limit and values (stored forms or exception type and message), and
        the family's JSON bytes."""
        def stored(f):
            x = outcome(f)
            return x.integer_slices() if isinstance(x, Algebra) else x

        return (tuple(tuple((e.num, e.den) for e in row) for row in g.entries),
                outcome(g.det), stored(lambda: transport_limit(a, g)),
                [stored(lambda: transport_at(a, g, t0)) for t0 in TestStoredForm.POINTS],
                outcome(lambda: dumps(family_to_dict(g))))

    def check_routes(self, g, a) -> None:
        """g, built from FieldElement rows, against the family built from its
        integer form."""
        rows = g.entries
        grid = [[e.to_laurent() for e in row] for row in rows]
        h = ParamMatrix.from_cleared(*stored_form(grid))
        assert _cleared(g) == _cleared(h) == stored_form(grid)
        assert g == h and h == g
        assert [[(e.num, e.den) for e in row] for row in rows] == [
            [(f.num, f.den) for f in map(FieldElement.from_laurent, row)] for row in grid]
        assert self.readings(g, a) == self.readings(h, a)

    @given(laurent_grids(), st.booleans(), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_both_construction_routes_read_alike(self, grid, inverted, seed):
        n = len(grid)
        g = ParamMatrix(n, tuple(tuple(FieldElement.from_laurent(p) for p in row)
                                 for row in grid))
        if inverted and n <= 4 and g.det():
            try:
                g = ParamMatrix(n, invert(g))
            except ValueError:  # det g is not a monomial: g^-1 is no family
                pass
        self.check_routes(g, random_algebra(n, 0.5, seed, nonabelian=True))

    def test_inverse_families_of_both_kinds(self):
        # invert(g) is a family exactly when det g is a monomial; ParamMatrix
        # refuses the other rows
        families = [random_family(3, 1, seed) for seed in range(4)]
        families += [ParamMatrix.diagonal_powers([1, -2, 0]) @ families[0],
                     ParamMatrix.diagonal_powers([2, 0, -1]), pplus_to_lambda2(3)]
        kinds = []
        for g in families:
            det = g.det()
            kinds.append(len(det.num) == len(det.den) == 1)
            if kinds[-1]:
                self.check_routes(ParamMatrix(3, invert(g)), canon(Tag.NU, 3, F(2, 3)))
            else:
                with pytest.raises(ValueError, match="^not a Laurent polynomial: "):
                    ParamMatrix(3, invert(g))
        assert any(kinds) and not all(kinds)

    def test_entries_are_built_on_each_read(self):
        g = pplus_to_lambda2(3)
        assert g.entries == g.entries and g.entries is not g.entries
        assert not hasattr(g, "__dict__")

    def test_equality_is_structural(self):
        g = random_family(3, 2, 5)
        h = g @ ParamMatrix.identity(3)
        assert h == g and h._form == g._form
        assert g != g @ ParamMatrix.diagonal_powers([1, 0, 0])

    def test_matmul_builds_no_field_element(self, monkeypatch):
        pairs = [(random_family(n, 2, seed), random_family(n, 1, seed + 50))
                 for n in (2, 3, 4) for seed in range(6)]
        want = [(g @ h)._form for g, h in pairs]

        def refuse(*args, **kwargs):
            raise AssertionError("a FieldElement was built")

        monkeypatch.setattr(transport_module, "FieldElement", refuse)
        assert [(g @ h)._form for g, h in pairs] == want

    def test_rows_that_are_not_laurent_are_refused(self):
        # ParamMatrix(n, rows) takes Laurent rows only; invert gives any rows
        one_over = FieldElement({0: F(1)}, {1: F(1), 0: F(1)})  # 1 / (1 + t)
        with pytest.raises(ValueError, match="^not a Laurent polynomial: "):
            ParamMatrix(2, ((one_over, FE_ZERO), (FE_ZERO, FE_ONE)))
        rows = invert(ParamMatrix(2, ((fe("1 + t"), FE_ZERO), (FE_ZERO, FE_ONE))))
        assert rows == ((one_over, FE_ZERO), (FE_ZERO, FE_ONE))

    def test_det_eliminates_p_alone(self):
        # eliminating [P | I] forms the cofactor -t^10001, so invert raises;
        # det eliminates P alone, whose minors stay within MAX_DEGREE
        g = ParamMatrix(2, ((FE_ONE, fe("t^10001")), (FE_ZERO, FE_ONE)))
        assert _row_monomial(g) is None
        assert g.det() == FE_ONE
        with pytest.raises(DegreeOverflow):
            invert(g)
        # a determinant past MAX_DEGREE still raises
        with pytest.raises(DegreeOverflow):
            ParamMatrix(2, ((fe("t^6000"), FE_ONE), (FE_ZERO, fe("1 + t^6000")))).det()


# sha256 of the family_to_dict bytes of random_family(n, pole_bound, seed)
# for n = 2..8, pole bound 0..3 and seeds 0..19, recorded before ``det``
# (which decides each draw) eliminated P for every family
RANDOM_FAMILY_DIGEST = "ea3aa48ed00b0743ef1eba004b390b6596124a339855e50b90fd58fc3d8b0579"

# sha256 of the dumps bytes of random_algebra(n, density, seed, nonabelian)
# for n = 1..8, the densities of DRAW_DENSITIES, seeds 0..19 and both flags
# (the draws that raise ValueError left out), and of the entry strings of
# random_invertible_matrix(n, Random(seed), bound) for n = 1..8, bound 1..3
# and seeds 0..19; both recorded while the draws still went through Fraction
# and the stdlib's randint, choice and shuffle.  The three generators now draw
# from random() and getrandbits() alone, the same values: Python promises to
# keep random()'s sequence for a seed, and getrandbits() reads the same
# Mersenne Twister words raw.  CI checks these three digests on 3.10 to 3.13.
DRAW_DENSITIES = (0.05, 0.15, 0.4, 0.8, 1)
RANDOM_ALGEBRA_DIGEST = "3db8ef3b30fe2752719bfe1f5f6050db8d450c30432cb0002bcdca6a29902a6c"
RANDOM_MATRIX_DIGEST = "9c506812debe1447393f619ef486eac0fdb95dcf8466b602d683f8c5c952ecb7"

# sha256 over the (num, den) terms of every entry of invert(g), for g over
# random_family(n, pole_bound, seed) with n = 2..4, pole bound 0..2 and seeds
# 0..9, then diagonal_powers([-1, -2]) and pplus_to_lambda2(3); recorded
# while invert still returned a ParamMatrix (51 of those 92 inverses are not
# Laurent)
INVERT_DIGEST = "4b78a09a20282fac1fca394acb1220eada64e8ffd19d9f0b28e09df0a03b5817"

# det of every bundled family and classify witness, recorded before the same
# change
FIXTURE_DETS = {
    "fix_lambda2_n2": "t^-3", "fix_lambda2_n3": "t^-5", "fix_lambda2_n4": "t^-7",
    "fix_lambda2_n5": "t^-9", "fix_lambda2_n6": "t^-11", "fix_lambda2_n7": "t^-13",
    "fix_lambda2_n8": "t^-15", "fix_n3minus_n3": "t^-4", "fix_n3minus_n4": "t^-6",
    "fix_n3minus_n5": "t^-8", "fix_n3minus_n6": "t^-10", "fix_n3minus_n7": "t^-12",
    "fix_n3minus_n8": "t^-14", "fix_nu_n2": "t^-1", "fix_nu_n3": "t^-2",
    "fix_nu_n4": "t^-3", "fix_nu_n5": "t^-4", "fix_nu_n6": "t^-5", "fix_nu_n7": "t^-6",
    "fix_nu_n8": "t^-7", "fix_pminus_n2": "t^-1", "fix_pminus_n3": "t^-2",
    "fix_pminus_n4": "t^-3", "fix_pminus_n5": "t^-4", "fix_pminus_n6": "t^-5",
    "fix_pminus_n7": "t^-6", "fix_pminus_n8": "t^-7", "n3plus_to_lambda2_n3": "-1/2*t^-5",
    "n3plus_to_lambda2_n4": "-1/2*t^-5", "n3plus_to_lambda2_n5": "-1/2*t^-5",
    "n3plus_to_lambda2_n6": "-1/2*t^-5", "n3plus_to_lambda2_n7": "-1/2*t^-5",
    "n3plus_to_lambda2_n8": "-1/2*t^-5", "pplus_to_lambda2_n2": "1/2*t^-3",
    "pplus_to_lambda2_n3": "1/2*t^-5", "pplus_to_lambda2_n4": "1/2*t^-7",
    "pplus_to_lambda2_n5": "1/2*t^-9", "pplus_to_lambda2_n6": "1/2*t^-11",
    "pplus_to_lambda2_n7": "1/2*t^-13", "pplus_to_lambda2_n8": "1/2*t^-15",
}
WITNESS_DETS = {
    "grid_n2": "1/2*t^-3", "n3minus_n4": "t^-6", "nu_n1": "-1/2", "nu_n2_alpha_0": "-1/2*t^-1",
    "nu_n2_alpha_1": "-1/2*t^-1", "nu_n2_alpha_1_2": "-1/2*t^-1",
    "nu_n2_alpha_2_3": "-1/4*t^-1", "nu_n2_alpha_m3": "t^-1", "nu_n3_alpha_0": "-3/8*t^-2",
    "nu_n3_alpha_1": "6*t^-2", "nu_n3_alpha_1_2": "-5/16*t^-2", "nu_n3_alpha_2_3": "3/2*t^-2",
    "nu_n3_alpha_m3": "-t^-2", "nu_n4_alpha_2_3": "t^-3", "nu_n8_alpha_0": "1620*t^-7",
    "nu_n8_alpha_1": "-1367692506432*t^-7", "nu_n8_alpha_1_2": "t^-7",
    "nu_n8_alpha_2_3": "-8828663495670165/8192*t^-7", "nu_n8_alpha_m3": "-130560*t^-7",
    "pminus_n2": "-t^-1", "pminus_n3": "5*t^-2", "pminus_n4": "t^-3",
    "pminus_n8": "-61/2*t^-7", "pplus_n3": "1/2*t^-5", "random_n6_seed1": "3/5*t^-11",
    "random_n6_seed2": "2/9*t^-11", "random_n6_seed3": "-3/4*t^-11",
    "scalar_action_n4": "-3*t^-3", "lambda2_n3": "-1/9*t^-5",
    "lambda2_n8": "-1/122018*t^-15", "n3minus_n8": "2/969*t^-14",
    "n3minus_on_lines_n5": "1/6*t^-8", "square_doubled_n3": "1/2*t^-5",
    "square_doubled_n8": "1/2*t^-15", "square_sum_n3": "-1/2*t^-5",
    "square_sum_n8": "2/3*t^-15",
}


class TestPinnedDraws:
    def test_random_family_draws_are_unchanged(self):
        h = hashlib.sha256()
        for n, pole_bound, seed in itertools.product(range(2, 9), range(4), range(20)):
            h.update(dumps(family_to_dict(random_family(n, pole_bound, seed))).encode())
        assert h.hexdigest() == RANDOM_FAMILY_DIGEST

    def test_random_algebra_draws_are_unchanged(self):
        h = hashlib.sha256()
        for n, density, seed, flag in itertools.product(range(1, 9), DRAW_DENSITIES, range(20),
                                                         (False, True)):
            try:
                a = random_algebra(n, density, seed, flag)
            except ValueError:
                continue
            h.update(dumps(a).encode())
        assert h.hexdigest() == RANDOM_ALGEBRA_DIGEST

    def test_random_invertible_matrix_draws_are_unchanged(self):
        h = hashlib.sha256()
        for n, bound, seed in itertools.product(range(1, 9), range(1, 4), range(20)):
            m = random_invertible_matrix(n, random.Random(seed), bound)
            h.update(dumps([[str(x) for x in row] for row in m]).encode())
        assert h.hexdigest() == RANDOM_MATRIX_DIGEST

    def test_inverses_are_unchanged(self):
        families = [random_family(n, pole_bound, seed) for n, pole_bound, seed
                    in itertools.product(range(2, 5), range(3), range(10))]
        families += [ParamMatrix.diagonal_powers([-1, -2]), pplus_to_lambda2(3)]
        h = hashlib.sha256()
        for g in families:
            inv = invert(g)
            for row in getattr(inv, "entries", inv):  # rows, or a family's entries
                for x in row:
                    h.update(repr([sorted((e, c.as_integer_ratio()) for e, c in p.items())
                                   for p in (x.num, x.den)]).encode())
        assert h.hexdigest() == INVERT_DIGEST

    def test_det_of_the_bundled_families_and_witnesses_is_unchanged(self):
        root = Path(__file__).resolve().parent.parent / "fixtures"
        got = {f.name.removesuffix(".family.json"): family_from_dict(load_path(str(f))).det()
               for f in (root / "families").glob("*.family.json")}
        assert {k: repr(v) for k, v in got.items()} == {
            k: f"FieldElement({v!r})" for k, v in FIXTURE_DETS.items()}
        got = {f.name.removesuffix(".witness.json"):
               witness_from_dict(load_path(str(f))).family.det()
               for f in (root / "witnesses").glob("*.witness.json")}
        assert {k: repr(v) for k, v in got.items()} == {
            k: f"FieldElement({v!r})" for k, v in WITNESS_DETS.items()}


def outcome(f):
    """The limit f() returns, or (type, NoLimit entries or message) of what
    it raises."""
    try:
        return f()
    except NoLimit as exc:
        return NoLimit, exc.entries
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def diag(*entries):
    n = len(entries)
    return ParamMatrix(n, tuple(tuple(fe(x) if i == j else FE_ZERO for j in range(n))
                                for i, x in enumerate(entries)))


def scalar_action_inputs(n, rng):
    """pminus, nu(alpha) at several alpha, and x*y = A(x) y + B(y) x for
    random A and B, A = 0 and B = 0."""
    out = [canon(Tag.P_MINUS, n)]
    out += [canon(Tag.NU, n, F(alpha)) for alpha in ("0", "1", "1/2", "2/3", "-3")]
    for kind in range(3):
        A = [F(rng.randint(-3, 3), rng.randint(1, 3)) if kind != 1 else 0 for _ in range(n)]
        B = [F(rng.randint(-3, 3), rng.randint(1, 3)) if kind != 2 else 0 for _ in range(n)]
        entries = {}
        for i, j in itertools.product(range(n), repeat=2):
            entries[(j, i, j)] = entries.get((j, i, j), 0) + A[i]
            entries[(i, i, j)] = entries.get((i, i, j), 0) + B[j]
        out.append(Algebra.from_entries(n, {kij: v for kij, v in entries.items() if v}))
    return out


class TestScalarActionBranch:
    """transport_limit reads pminus, nu and every x*y = A(x) y + B(y) x off
    the transported forms A.g^-1 and B.g^-1 when the family is not
    row-monomial and twice its row degrees stay within MAX_DEGREE."""

    @pytest.fixture
    def branch_calls(self, monkeypatch):
        calls = []
        branch = transport_module._scalar_action_limit
        monkeypatch.setattr(transport_module, "_scalar_action_limit",
                            lambda *args: calls.append(args) or branch(*args))
        return calls

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_same_answer_as_the_fraction_free_kernel(self, n, monkeypatch):
        rng = random.Random(1800 + n)
        t, one = fe("t"), FE_ONE
        singular = ParamMatrix(n, tuple(tuple(t if i < 2 else one if i == j else FE_ZERO
                                              for j in range(n)) for i in range(n)))
        families = [random_family(n, rng.randint(1, 3), rng.randrange(10**6))
                    for _ in range(6)]
        families.append(singular)
        cases = [(a, g) for a in scalar_action_inputs(n, rng) for g in families]
        assert all(transport_module._scalar_action(a) is not None for a, _ in cases)
        fast = [outcome(lambda: transport_limit(a, g)) for a, g in cases]
        monkeypatch.setattr(transport_module, "_scalar_action", lambda a: None)
        assert fast == [outcome(lambda: transport_limit(a, g)) for a, g in cases]
        kinds = {o if isinstance(o, Algebra) else o[0] for o in fast}
        assert {NoLimit, SingularFamily} <= {k for k in kinds if isinstance(k, type)}
        assert ValueError not in kinds
        assert any(isinstance(o, Algebra) for o in fast)

    # outcomes pinned from the kernel, which answered every case before the
    # branch existed; "branch" says which side of the degree gate a case is
    POLES_PMINUS = [(2, 1, 2), (2, 2, 1), (3, 1, 3), (3, 3, 1)]
    POLES_NU = [(1, 1, 1)] + POLES_PMINUS

    @pytest.mark.parametrize("entries,branch", [
        (("t^4000", "t^4000", "1 + t"), False),  # sum of row degrees 8001
        (("t^2000", "t^2000", "1 + t"), True),   # 4001
    ])
    @pytest.mark.parametrize("tag,alpha,poles", [(Tag.P_MINUS, None, POLES_PMINUS),
                                                 (Tag.NU, F(2, 3), POLES_NU)])
    def test_bareiss_budget_shape(self, entries, branch, tag, alpha, poles, branch_calls):
        # the kernel's elimination forms t^12000 * (1 + t) before dividing by
        # t^4000 and reads at exponent 8000; the branch is gated off there
        with pytest.raises(NoLimit) as exc:
            transport_limit(canon(tag, 3, alpha), diag(*entries))
        assert exc.value.entries == poles
        assert bool(branch_calls) is branch

    @pytest.mark.parametrize("second,branch", [("t^2499 + t^2500", True),   # 5000
                                               ("t^2500 + t^2501", False)])  # 5001
    def test_gate_is_twice_the_row_degrees_against_max_degree(self, second, branch,
                                                              branch_calls):
        g = diag("t^2500", second)
        with pytest.raises(NoLimit) as exc:
            transport_limit(canon(Tag.P_MINUS, 2), g)
        assert exc.value.entries == [(2, 1, 2), (2, 2, 1)]
        with pytest.raises(NoLimit) as exc:
            transport_limit(canon(Tag.NU, 2, F(2, 3)), g)
        assert exc.value.entries == [(1, 1, 1), (2, 1, 2), (2, 2, 1)]
        assert len(branch_calls) == (2 if branch else 0)

    @pytest.mark.parametrize("tag,alpha", [(Tag.P_MINUS, None), (Tag.NU, F(2, 3))])
    def test_degree_budget_of_the_kernel_is_kept(self, tag, alpha, branch_calls):
        # P = diag(t^6000, 1 + t^6000) has the minor t^6000 * (1 + t^6000)
        with pytest.raises(DegreeOverflow):
            transport_limit(canon(tag, 2, alpha), diag("t^6000", "1 + t^6000"))
        assert branch_calls == []

    @pytest.mark.parametrize("entries,branch", [(("1 + t", "1", "t^-4000"), False),
                                                (("1 + t", "t^-2000", "t^-2000"), True)])
    @pytest.mark.parametrize("tag,alpha", [(Tag.P_MINUS, None), (Tag.NU, F(2, 3))])
    def test_kernel_overflow_shape_has_an_exact_answer(self, entries, branch, tag, alpha,
                                                       branch_calls, capsys, tmp_path):
        # P = t^4000 * g has row degrees 4001 + 4000 + 0: past the gate, the
        # kernel answers, as the branch does below it
        a, g = canon(tag, 3, alpha), diag(*entries)
        assert transport_limit(a, g) == a
        alg, fam = tmp_path / "a.json", tmp_path / "g.json"
        save_path(str(alg), algebra_to_dict(a))
        save_path(str(fam), family_to_dict(g))
        code = main(["transport", "--algebra", str(alg), "--family", str(fam), "--limit"])
        assert code == 0
        assert algebra_from_dict(json.loads(capsys.readouterr().out)) == a
        assert len(branch_calls) == (2 if branch else 0)

    def test_a_classify_witness_never_reaches_the_branch(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a witness family reached the scalar-action branch")

        monkeypatch.setattr(transport_module, "_scalar_action_limit", refuse)
        rng = random.Random(18)
        for n in (2, 3, 4, 5):
            inputs = [apply_basis_change(a, random_invertible_matrix(n, rng))
                      for a in scalar_action_inputs(n, rng)]
            inputs += [random_algebra(n, 0.4, rng.randrange(10**6), nonabelian=True)
                       for _ in range(4)]
            for a in inputs:
                if a.is_abelian():
                    continue
                w = classify(a, ClassifierConfig(seed=rng.randrange(10**6)))
                assert transport_limit(a, w.family) == construct(w.target)
                for b in inputs[:6]:  # pminus and nu under the same family
                    outcome(lambda: transport_limit(b, w.family))

import contextlib
import hashlib
import importlib
import io
import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from levelone import (
    CanonicalForm,
    Tag,
    construct,
    linalg,
    random_algebra,
    recognize,
    transport,
)
from levelone.cli import main
from levelone.jsonio import algebra_from_dict, algebra_to_dict, save_path
from levelone.poly import MAX_COEFF_DIGITS, MAX_DIM

from conftest import ROOT, subprocess_env

FIXTURES = ROOT / "fixtures"


def canonical_path(name: str) -> str:
    return str(FIXTURES / "canonical" / f"{name}.algebra.json")


def family_path(name: str) -> str:
    return str(FIXTURES / "families" / f"{name}.family.json")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


class TestCanonical:
    def test_n3minus_table(self, capsys):
        code, out = run(capsys, "canonical", "--name", "n3minus", "--dim", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 3
        assert {
            "left": 1, "right": 2, "result": 3, "coeff": "1"
        } in doc["products"]
        assert {
            "left": 2, "right": 1, "result": 3, "coeff": "-1"
        } in doc["products"]

    def test_nu_round_trips_through_recognize(self, capsys, tmp_path):
        target = tmp_path / "nu.json"
        code, _ = run(
            capsys, "canonical", "--name", "nu", "--dim", "2",
            "--alpha", "1/2", "--out", str(target),
        )
        assert code == 0
        code, out = run(capsys, "recognize", "--algebra", str(target), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["recognized"] is True
        assert doc["form"] == {"tag": "nu", "dim": 2, "alpha": "1/2"}

    def test_a_negative_alpha_reads_as_a_value(self, capsys):
        # argparse takes only -digits and -digits.digits as values unless told
        # otherwise; "--alpha -1/2" once exited 2 ("expected one argument")
        argv = ["canonical", "--name", "nu", "--dim", "2"]
        got = run(capsys, *argv, "--alpha", "-1/2")
        assert got == run(capsys, *argv, "--alpha=-1/2")
        assert got[0] == 0
        assert algebra_from_dict(json.loads(got[1])) == construct(
            CanonicalForm(Tag.NU, 2, F(-1, 2)))

    def test_bad_dimension_is_usage_error(self, capsys):
        code, _ = run(capsys, "canonical", "--name", "n3plus", "--dim", "2")
        assert code == 2

    def test_nu_matches_the_fixture_bytes(self, capsys, tmp_path):
        argv = ["canonical", "--name", "nu", "--dim", "4", "--alpha", "2/3"]
        want = Path(canonical_path("nu_n4_alpha_2_3")).read_text()
        assert run(capsys, *argv) == (0, want)
        out = tmp_path / "nu.json"
        assert run(capsys, *argv, "--out", str(out)) == (0, "")
        assert out.read_text() == want


class TestVerify:
    @pytest.mark.parametrize("n", [3, 5])
    def test_bundled_pplus_family_passes(self, capsys, n):
        code, out = run(
            capsys, "verify",
            "--algebra", canonical_path(f"pplus_n{n}"),
            "--family", family_path(f"pplus_to_lambda2_n{n}"),
            "--target-canonical", f"lambda2:{n}",
        )
        assert (code, out) == (0, "PASS\n")

    def test_wrong_claim_fails(self, capsys):
        code, out = run(
            capsys, "verify",
            "--algebra", canonical_path("pminus_n3"),
            "--family", family_path("fix_pminus_n3"),
            "--target-canonical", "abelian:3",
            "--json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        assert doc["limit"]["products"]  # the limit is pminus itself, not abelian

    def test_target_file_variant(self, capsys, tmp_path):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"tag": "lambda2", "dim": 4}))
        code, _ = run(
            capsys, "verify",
            "--algebra", canonical_path("pplus_n4"),
            "--family", family_path("pplus_to_lambda2_n4"),
            "--target", str(target),
        )
        assert code == 0

    def test_missing_file_is_usage_error(self, capsys):
        code, _ = run(
            capsys, "verify",
            "--algebra", "/nonexistent/a.json",
            "--family", family_path("fix_pminus_n3"),
            "--target-canonical", "abelian:3",
        )
        assert code == 2

    def test_empty_target_path_is_usage_error(self, capsys):
        # an empty --target is a path that does not exist, not a missing option
        code = main(["verify", "--algebra", canonical_path("pplus_n3"),
                     "--family", family_path("pplus_to_lambda2_n3"), "--target", ""])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_target_spec(self, capsys):
        code, _ = run(
            capsys, "verify",
            "--algebra", canonical_path("pminus_n3"),
            "--family", family_path("fix_pminus_n3"),
            "--target-canonical", "pminus",
        )
        assert code == 2

    @pytest.mark.parametrize("tag, shown", [
        ("x" * 5000, "'" + "x" * 59 + "... <5002 characters>"),
        ("lambda", "'lambda'"),
    ])
    def test_a_bad_target_tag_is_named_short(self, capsys, tag, shown):
        code = main(["verify", "--algebra", canonical_path("pminus_n3"),
                     "--family", family_path("fix_pminus_n3"),
                     "--target-canonical", f"{tag}:3"])
        assert code == 2
        assert capsys.readouterr().err == f"error: bad canonical tag {shown} in target spec\n"


# squares stay on their lines (x*x = x_1 x), but e1*e2 = e2/2 + e3 leaves the
# plane of e1 and e2: the classifier's mixed-product branch onto n3minus
MIXED_PRODUCT_N3 = {"dim": 3, "products": [
    {"left": 1, "right": 1, "result": 1, "coeff": "1"},
    {"left": 1, "right": 2, "result": 2, "coeff": "1/2"},
    {"left": 1, "right": 2, "result": 3, "coeff": "1"},
    {"left": 2, "right": 1, "result": 2, "coeff": "1/2"},
    {"left": 2, "right": 1, "result": 3, "coeff": "-1"},
    {"left": 1, "right": 3, "result": 3, "coeff": "1/2"},
    {"left": 3, "right": 1, "result": 3, "coeff": "1/2"},
]}

# one input per classify branch: (algebra fixture or table, trace head, target)
CLASSIFY_BRANCHES = {
    "anticommutative pair": ("n3minus_n4", ["Antisymmetric", "PairWitnessFound"], "n3minus"),
    "pminus": ("pminus_n4", ["Antisymmetric", "PairWitnessAbsent"], "pminus"),
    "square": ("pplus_n3", ["SquareWitnessFound"], "lambda2"),
    "mixed pair": (MIXED_PRODUCT_N3, ["SquareInSpan", "PairWitnessFound"], "n3minus"),
    "nu": ("nu_n3_alpha_2_3", ["SquareInSpan", "NuNormalization"], "nu"),
}


class TestVerifyWitnessFile:
    @pytest.mark.parametrize("branch", CLASSIFY_BRANCHES)
    def test_classify_out_verifies_from_the_file(self, capsys, tmp_path, branch):
        source, trace, tag = CLASSIFY_BRANCHES[branch]
        if isinstance(source, dict):
            algebra = str(tmp_path / "a.json")
            save_path(algebra, source)
        else:
            algebra = canonical_path(source)
        witness = tmp_path / "w.json"
        code, _ = run(capsys, "classify", "--algebra", algebra, "--out", str(witness))
        assert code == 0
        doc = json.loads(witness.read_text())
        assert [step.split(" ")[0] for step in doc["trace"]] == trace
        assert doc["target"]["tag"] == tag
        code, out = run(capsys, "verify", "--algebra", algebra, "--witness", str(witness))
        assert (code, out) == (0, "PASS\n")
        # the same report as the family and target given apart
        family, target = tmp_path / "g.json", tmp_path / "target.json"
        save_path(str(family), doc["family"])
        save_path(str(target), doc["target"])
        apart = run(capsys, "verify", "--algebra", algebra, "--family", str(family),
                    "--target", str(target), "--json")
        together = run(capsys, "verify", "--algebra", algebra, "--witness", str(witness),
                       "--json")
        assert together == apart and together[0] == 0
        # a witness whose target is edited no longer verifies
        doc["target"] = {"tag": "lambda2" if tag != "lambda2" else "pminus",
                         "dim": doc["target"]["dim"]}
        save_path(str(witness), doc)
        code, out = run(capsys, "verify", "--algebra", algebra, "--witness", str(witness))
        assert code == 1 and out.startswith("FAIL")

    @pytest.mark.parametrize("extra", [
        ["--family", family_path("pplus_to_lambda2_n3")],
        ["--target-canonical", "lambda2:3"],
        ["--target", "t.json"],
        ["--family", family_path("pplus_to_lambda2_n3"), "--target-canonical", "lambda2:3"],
    ])
    def test_witness_with_a_family_or_target_is_a_usage_error(self, capsys, tmp_path, extra):
        witness = tmp_path / "w.json"
        assert main(["classify", "--algebra", canonical_path("pplus_n3"),
                     "--out", str(witness)]) == 0
        code = main(["verify", "--algebra", canonical_path("pplus_n3"),
                     "--witness", str(witness), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert "argument --witness: not allowed with argument --" in err

    @pytest.mark.parametrize("args,message", [
        ([], "the following arguments are required: --family"),
        (["--target-canonical", "lambda2:3"], "the following arguments are required: --family"),
        (["--family", family_path("pplus_to_lambda2_n3")],
         "one of the arguments --target --target-canonical is required"),
    ])
    def test_without_a_witness_family_and_target_are_required(self, capsys, args, message):
        code = main(["verify", "--algebra", canonical_path("pplus_n3"), *args])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_a_witness_file_of_the_wrong_shape_is_a_usage_error(self, capsys):
        code = main(["verify", "--algebra", canonical_path("pplus_n3"),
                     "--witness", canonical_path("pplus_n3")])
        assert code == 2
        assert capsys.readouterr().err == "error: witness JSON missing field 'family'\n"


class TestClassify:
    def test_bundled_pplus_classifies_to_lambda2(self, capsys, tmp_path):
        out_file = tmp_path / "witness.json"
        code, _ = run(
            capsys, "classify",
            "--algebra", canonical_path("pplus_n4"),
            "--out", str(out_file),
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["target"]["tag"] == "lambda2"
        assert doc["trace"]

    def test_search_exhausted_is_a_failure_line(self, capsys, monkeypatch):
        import levelone.cli
        from levelone.errors import SearchExhausted

        def exhausted(a, cfg=None):
            raise SearchExhausted("round 0: no witness")

        monkeypatch.setattr(levelone.cli, "classify", exhausted)
        code = main(["classify", "--algebra", canonical_path("pplus_n4")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: round 0: no witness\n"

    def test_abelian_input_is_domain_error(self, capsys):
        code, _ = run(capsys, "classify", "--algebra", canonical_path("abelian_n4"))
        assert code == 3

    def test_witness_file_round_trips(self, capsys, tmp_path):
        from levelone import verify_degeneration
        from levelone.jsonio import witness_from_dict

        out_file = tmp_path / "witness.json"
        code, _ = run(
            capsys, "classify",
            "--algebra", canonical_path("n3minus_n4"),
            "--out", str(out_file),
        )
        assert code == 0
        w = witness_from_dict(json.loads(out_file.read_text()))
        a = algebra_from_dict(json.loads(Path(canonical_path("n3minus_n4")).read_text()))
        assert verify_degeneration(a, w).passed

    @pytest.mark.parametrize("source", ["random", "pplus_n3"])
    def test_reruns_are_byte_identical(self, capsys, tmp_path, source):
        # --seed is accepted for compatibility and has no effect
        algebra = tmp_path / "a.json"
        if source == "random":
            code, _ = run(
                capsys, "random", "--dim", "4", "--density", "0.4",
                "--seed", "11", "--non-abelian", "--out", str(algebra),
            )
            assert code == 0
        else:
            algebra = canonical_path(source)
        written = []
        for seed in ("5", "5", "0"):
            out_file = tmp_path / "w.json"
            code, _ = run(
                capsys, "classify", "--algebra", str(algebra),
                "--seed", seed, "--out", str(out_file),
            )
            assert code == 0
            written.append(out_file.read_bytes())
        assert written[0] == written[1] == written[2]

    @pytest.mark.parametrize(
        "name", sorted(p.name.removesuffix(".algebra.json")
                       for p in (FIXTURES / "witnesses").glob("*.algebra.json")))
    def test_witness_matches_the_recorded_bytes(self, capsys, tmp_path, name):
        # the pplus_n3, n3minus_n4, pminus_n4, nu_n4_alpha_2_3, grid_n2 and
        # random witnesses were written before families were stored as
        # P / (L*t^s), the moved pminus, nu and scalar_action ones before
        # their frame inverses were written down from the scalar-action read,
        # and the lambda2, square_* and n3minus_n8 / n3minus_on_lines ones
        # before the square search ran over Z and the lambda2 and n3minus
        # inverses were written down from the seeds' adjugate
        recorded = FIXTURES / "witnesses"
        algebra = recorded / f"{name}.algebra.json"
        if name.startswith("random_"):
            seed = name.rsplit("seed", 1)[1]
            got = run(capsys, "random", "--kind", "algebra", "--dim", "6", "--seed", seed,
                      "--non-abelian")
            assert got == (0, algebra.read_text())
        out_file = tmp_path / "witness.json"
        assert run(capsys, "classify", "--algebra", str(algebra), "--out", str(out_file))[0] == 0
        want = recorded / f"{name}.witness.json"
        assert out_file.read_bytes() == want.read_bytes()
        assert main(["verify", "--algebra", str(algebra), "--witness", str(want)]) == 0


class TestTransportCommand:
    def test_limit_prints_the_target(self, capsys):
        code, out = run(
            capsys, "transport",
            "--algebra", canonical_path("pplus_n3"),
            "--family", family_path("pplus_to_lambda2_n3"),
            "--limit",
        )
        assert code == 0
        got = algebra_from_dict(json.loads(out))
        assert got == construct(CanonicalForm(Tag.LAMBDA2, 3))

    def test_no_limit_lists_poles(self, capsys, tmp_path):
        family = tmp_path / "f.json"
        family.write_text(json.dumps({
            "dim": 2,
            "entries": [
                {"row": 1, "col": 1, "poly": "1"},
                {"row": 2, "col": 2, "poly": "t^-1"},
            ],
        }))
        code, out = run(
            capsys, "transport",
            "--algebra", canonical_path("lambda2_n2"),
            "--family", str(family), "--limit", "--json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["limit"] is None
        assert [2, 1, 1] in doc["poles"]

    @pytest.mark.parametrize("at", ["1", "1/2"])
    def test_specialize_at_point(self, capsys, at):
        # g(t0) is invertible, so the result is pplus in another basis
        code, out = run(
            capsys, "transport",
            "--algebra", canonical_path("pplus_n3"),
            "--family", family_path("pplus_to_lambda2_n3"),
            "--at", at,
        )
        assert code == 0
        got = algebra_from_dict(json.loads(out))
        assert recognize(got).form == CanonicalForm(Tag.P_PLUS, 3)

    # at t = 1 a root of det g: diag(1, t - 1) and diag(1, (t - 1)^2), and
    # the second with a t above the diagonal
    ROOT_OF_DET = {
        "lin": [{"row": 1, "col": 1, "poly": "1"}, {"row": 2, "col": 2, "poly": "t - 1"}],
        "sq": [{"row": 1, "col": 1, "poly": "1"}, {"row": 2, "col": 2, "poly": "t^2 - 2*t + 1"}],
    }
    ROOT_OF_DET["tri"] = ROOT_OF_DET["sq"] + [{"row": 1, "col": 2, "poly": "t"}]

    @pytest.mark.parametrize("algebra,family,want", [
        ("pminus_n2", "lin", "pminus_n2"), ("lambda2_n2", "lin", "abelian_n2"),
        ("pminus_n2", "sq", "pminus_n2"), ("pminus_n2", "tri", None)])
    def test_at_a_root_of_det(self, capsys, tmp_path, algebra, family, want):
        # at a root of det g the entries divide out their common (t - 1);
        # with the t above the diagonal an entry keeps a pole there
        fam = tmp_path / "g.family.json"
        fam.write_text(json.dumps({"dim": 2, "entries": self.ROOT_OF_DET[family]}))
        code = main(["transport", "--algebra", canonical_path(algebra), "--family", str(fam),
                     "--at", "1"])
        captured = capsys.readouterr()
        if want is None:
            assert (code, captured.out) == (3, "")
            assert captured.err == "error: denominator vanishes at t = 1\n"
        else:
            assert (code, captured.out) == (0, Path(canonical_path(want)).read_text())

    def test_at_of_nu_is_recognized_with_its_alpha(self, capsys, tmp_path):
        moved = tmp_path / "moved.json"
        moved.write_text(run(capsys, "transport", "--algebra", canonical_path("nu_n3_alpha_2_3"),
                             "--family", family_path("pplus_to_lambda2_n3"), "--at", "2")[1])
        code, out = run(capsys, "recognize", "--algebra", str(moved), "--json")
        assert code == 0
        assert json.loads(out)["form"] == {"tag": "nu", "dim": 3, "alpha": "2/3"}

    def test_pole_at_point_is_domain_error(self, capsys, tmp_path):
        # det = t - 1 vanishes at the evaluation point
        family = tmp_path / "f.json"
        family.write_text(json.dumps({
            "dim": 2,
            "entries": [
                {"row": 1, "col": 1, "poly": "1"},
                {"row": 1, "col": 2, "poly": "1"},
                {"row": 2, "col": 1, "poly": "1"},
                {"row": 2, "col": 2, "poly": "t"},
            ],
        }))
        code, _ = run(
            capsys, "transport",
            "--algebra", canonical_path("lambda2_n2"),
            "--family", str(family), "--at", "1",
        )
        assert code == 3


    def test_at_zero_on_a_fixed_point_family_returns_the_algebra(self, capsys):
        # g = diag(1, t^-1, ...) has a pole at 0, but each reduced entry of
        # the transported tensor is constant, so --at 0 evaluates cleanly
        code, out = run(
            capsys, "transport",
            "--algebra", canonical_path("pminus_n4"),
            "--family", family_path("fix_pminus_n4"),
            "--at", "0",
        )
        assert code == 0
        got = algebra_from_dict(json.loads(out))
        assert got == construct(CanonicalForm(Tag.P_MINUS, 4))


    @pytest.mark.parametrize("seed,code", [(1, 1), (6, 0)])
    @pytest.mark.parametrize("name", ["pminus_n4", "nu_n4_alpha_2_3"])
    def test_limit_of_a_random_family_matches_the_recorded_bytes(self, capsys, tmp_path,
                                                                 seed, code, name):
        # families that are not row-monomial take the scalar-action read-off
        # on pminus and nu; the bytes were recorded before it existed
        fam = tmp_path / "g.family.json"
        assert main(["random", "--kind", "family", "--dim", "4", "--pole-bound", "2",
                     "--seed", str(seed), "--out", str(fam)]) == 0
        got = run(capsys, "transport", "--algebra", canonical_path(name),
                  "--family", str(fam), "--limit", "--json")
        want = FIXTURES / "limits" / f"random_n4_pb2_seed{seed}.{name}.limit.json"
        assert got == (code, want.read_text())

    @pytest.mark.parametrize("dim,seed,algebra", [
        (8, 3, "lambda2_n8"), (8, 1, "random_n8_seed1"), (12, 4, "random_n12_seed4")])
    def test_kernel_limit_of_a_random_family_matches_the_recorded_bytes(
            self, capsys, tmp_path, dim, seed, algebra):
        # general algebras under general families take the fraction-free
        # kernel; the bytes were recorded before its elimination was packed
        # into integers
        fam, alg = tmp_path / "g.family.json", tmp_path / "a.algebra.json"
        assert main(["random", "--kind", "family", "--dim", str(dim), "--pole-bound", "2",
                     "--seed", str(seed), "--out", str(fam)]) == 0
        if algebra.startswith("random"):
            assert main(["random", "--kind", "algebra", "--dim", str(dim), "--seed", str(seed),
                         "--non-abelian", "--out", str(alg)]) == 0
        else:
            alg = canonical_path(algebra)
        got = run(capsys, "transport", "--algebra", str(alg), "--family", str(fam),
                  "--limit", "--json")
        want = FIXTURES / "limits" / f"random_n{dim}_pb2_seed{seed}.{algebra}.limit.json"
        assert got == (0, want.read_text())

    @pytest.mark.parametrize("name,code,out", [
        ("pminus_n8", 1, "no limit at t=0; entries with poles: (2, 1, 2), (2, 2, 1), (3, 1, 3),"
                         " (3, 3, 1), (4, 1, 4), (4, 4, 1), (5, 1, 5), (5, 5, 1), ...\n"),
        ("lambda2_n8", 0, '{\n  "dim": 8,\n  "products": []\n}\n')])
    def test_huge_coefficients_at_high_degree_are_not_packed(self, capsys, tmp_path,
                                                             monkeypatch, name, code, out):
        # diag(c*t^1200) + t*e_11 with a 4000-digit c: packed at t = 2^k, an
        # entry would take about 10^9 bits, so the elimination runs term by term
        def refuse(*args):
            raise AssertionError("packed an elimination past the bit budget")

        monkeypatch.setattr(linalg, "_bareiss_packed", refuse)
        c = 10**3999 + 7
        entries = [{"row": i, "col": i, "poly": f"{c}*t^1200"} for i in range(1, 9)]
        entries[0]["poly"] += " + t"
        fam = tmp_path / "g.family.json"
        fam.write_text(json.dumps({"dim": 8, "entries": entries}))
        got = run(capsys, "transport", "--algebra", canonical_path(name), "--family", str(fam),
                  "--limit")
        assert got == (code, out)

    def test_sparse_family_of_high_degree_is_not_packed(self, capsys, tmp_path, monkeypatch):
        # diag(t^1000, t^1000, 1 + t): inside the bit budget, but the kernel's
        # [P | I] has 2 001 powers of t over 7 terms, so it runs term by term
        def refuse(*args):
            raise AssertionError("packed sparse input of high degree")

        monkeypatch.setattr(linalg, "_bareiss_packed", refuse)
        fam = tmp_path / "g.family.json"
        fam.write_text(json.dumps({"dim": 3, "entries": [
            {"row": 1, "col": 1, "poly": "t^1000"}, {"row": 2, "col": 2, "poly": "t^1000"},
            {"row": 3, "col": 3, "poly": "1 + t"}]}))
        got = run(capsys, "transport", "--algebra", canonical_path("lambda2_n3"),
                  "--family", str(fam), "--limit", "--json")
        assert got == (1, '{\n  "limit": null,\n  "poles": [\n    [\n      2,\n      1,\n'
                          '      1\n    ]\n  ]\n}\n')

    @pytest.mark.parametrize("at,tag", [("1/2", "1_2"), ("-3/2", "m3_2")])
    @pytest.mark.parametrize("seed", [1, 6])
    @pytest.mark.parametrize("name", ["pminus_n4", "nu_n4_alpha_2_3"])
    def test_at_of_a_random_family_matches_the_recorded_bytes(self, capsys, tmp_path,
                                                              at, tag, seed, name):
        # g(t0) evaluated over Z; the bytes were recorded with the rational
        # evaluation it replaced.  Seed 1 has an odd pole order, so at -3/2
        # the common denominator of g(t0) changes sign
        fam = tmp_path / "g.family.json"
        assert main(["random", "--kind", "family", "--dim", "4", "--pole-bound", "2",
                     "--seed", str(seed), "--out", str(fam)]) == 0
        got = run(capsys, "transport", "--algebra", canonical_path(name),
                  "--family", str(fam), f"--at={at}")
        want = FIXTURES / "at" / f"random_n4_pb2_seed{seed}.{name}.at_{tag}.json"
        assert got == (0, want.read_text())

    def test_a_negative_point_reads_as_a_value(self, capsys):
        # "--at -3/2" once exited 2 ("expected one argument")
        argv = ["transport", "--algebra", canonical_path("pplus_n3"),
                "--family", family_path("pplus_to_lambda2_n3")]
        got = run(capsys, *argv, "--at", "-3/2")
        assert got == run(capsys, *argv, "--at=-3/2")
        assert got[0] == 0 and got[1]

    # sha256 over every fixture family x every fixture algebra document of its
    # dimension x AT_POINTS of "<family> <algebra> <t0> <exit code>\n",
    # stdout and stderr; recorded while Q(t) still had its field arithmetic
    AT_POINTS = ("0", "1", "-1", "1/2", "-3/2")
    AT_DIGEST = "c3cbfff602e400818c2a4e2387c1ffc8cb976c6739a8245df013733d59a86d21"

    def test_at_of_every_fixture_pair_matches_the_pinned_digest(self, capsys, monkeypatch):
        # t0 = 0 is a root of D for most fixture families, so this also covers
        # the Q(t) tensor that transport_at falls back to there
        module = importlib.import_module("levelone.transport")
        fallbacks = []
        monkeypatch.setattr(module, "transport",
                            lambda a, g: fallbacks.append(g) or transport(a, g))
        dims = {}
        for path in sorted(FIXTURES.rglob("*.json")):
            doc = json.loads(path.read_text())
            if isinstance(doc, dict) and ("products" in doc or path.parent.name == "families"):
                dims[path] = doc["dim"]
        families = [p for p in dims if p.parent.name == "families"]
        algebras = [p for p in dims if p.parent.name != "families"]
        h, codes = hashlib.sha256(), set()
        for fam in families:
            for alg in (p for p in algebras if dims[p] == dims[fam]):
                for at in self.AT_POINTS:
                    code = main(["transport", "--algebra", str(alg), "--family", str(fam),
                                 f"--at={at}"])
                    out, err = capsys.readouterr()
                    codes.add(code)
                    h.update(f"{fam.name} {alg.relative_to(FIXTURES)} {at} {code}\n".encode())
                    h.update(out.encode() + b"\0" + err.encode() + b"\0")
        assert codes == {0, 3} and fallbacks
        assert h.hexdigest() == self.AT_DIGEST

    def test_recognize_of_a_moved_algebra_matches_the_recorded_bytes(self, capsys):
        moved = FIXTURES / "at" / "random_n4_pb2_seed1.nu_n4_alpha_2_3.at_1_2.json"
        got = run(capsys, "recognize", "--algebra", str(moved), "--json")
        want = moved.with_name(moved.name.replace(".json", ".recognize.json"))
        assert got == (0, want.read_text())

    @pytest.mark.parametrize(
        "moved", sorted(p for p in (FIXTURES / "recognize").glob("*.json")
                        if not p.name.endswith(".recognize.json")),
        ids=lambda p: p.stem)
    def test_recognize_matches_the_golden_bytes(self, capsys, moved):
        # every recognized tag, moved, and the anisotropic n3plus (no iso);
        # the bytes were recorded before the isos were written down in ints
        got = run(capsys, "recognize", "--algebra", str(moved), "--json")
        assert got == (0, moved.with_suffix(".recognize.json").read_text())

    @pytest.mark.parametrize("at", ["1", "-1", "1/2"])
    def test_at_refuses_an_exponent_past_the_degree_bound(self, capsys, tmp_path, at):
        # the cleared numerator of diag(t^k, 1) has degree k, and t^-k * I is
        # I / t^k; past MAX_DEGREE --at exits 2 before evaluating, as --limit
        # does (a pole of order 10^7 would take minutes to evaluate)
        def transported(diagonal):
            fam = tmp_path / "family.json"
            fam.write_text(json.dumps({"dim": 2, "entries": [
                {"row": i, "col": i, "poly": p} for i, p in enumerate(diagonal, 1)]}))
            return main(["transport", "--algebra", canonical_path("pminus_n2"),
                         "--family", str(fam), f"--at={at}"])

        for shape in (lambda k: (f"t^{k}", "1"), lambda k: (f"t^-{k}", f"t^-{k}")):
            assert transported(shape(10_000)) == 0
            capsys.readouterr()
            assert transported(shape(10_001)) == 2
            assert capsys.readouterr().err == "error: exponent beyond +/-10000\n"
            assert transported(shape(10_000_000)) == 2


class TestRecognizeCommand:
    # an idempotent e1 whose left multiplication has eigenvalues 1, 1/2, 1/3:
    # no nu(alpha) has that spectrum
    SPECTRUM = {"dim": 3, "products": [
        {"left": 1, "right": 1, "result": 1, "coeff": "1"},
        {"left": 1, "right": 2, "result": 2, "coeff": "1/2"},
        {"left": 1, "right": 3, "result": 3, "coeff": "1/3"},
        {"left": 2, "right": 1, "result": 2, "coeff": "1/2"},
        {"left": 3, "right": 1, "result": 3, "coeff": "2/3"},
    ]}

    def test_wrong_spectrum_is_not_recognized(self, capsys, tmp_path):
        algebra = tmp_path / "a.json"
        algebra.write_text(json.dumps(self.SPECTRUM))
        code, out = run(capsys, "recognize", "--algebra", str(algebra), "--json")
        assert code == 1
        assert json.loads(out) == {
            "recognized": False,
            "reason": "left multiplication by the idempotent has the wrong spectrum"}


class TestRandomCommand:
    def test_seed_determinism(self, capsys):
        _, out1 = run(capsys, "random", "--dim", "3", "--seed", "4")
        _, out2 = run(capsys, "random", "--dim", "3", "--seed", "4")
        assert out1 == out2

    def test_non_abelian_at_density_zero_exits_2(self, capsys):
        code = main(["random", "--kind", "algebra", "--dim", "3", "--seed", "1",
                     "--density", "0", "--non-abelian"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: a non-abelian draw at n = 3 and density 0.0 has chance 0 < 0.001\n")

    def test_family_kind(self, capsys):
        code, out = run(
            capsys, "random", "--kind", "family", "--dim", "3",
            "--pole-bound", "1", "--seed", "2",
        )
        assert code == 0
        assert json.loads(out)["dim"] == 3


class TestInvariantsCommand:
    def test_lambda2_summary(self, capsys):
        code, out = run(
            capsys, "invariants", "--algebra", canonical_path("lambda2_n4"), "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["power_dims"][0] == 1
        assert doc["commutative"] is True
        assert doc["nilpotent"] is True
        assert doc["sym_rank"] == 1


class TestMalformedInputs:
    def test_duplicate_product_triple(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "dim": 2,
            "products": [
                {"left": 1, "right": 1, "result": 2, "coeff": "1"},
                {"left": 1, "right": 1, "result": 2, "coeff": "2"},
            ],
        }))
        code, _ = run(capsys, "recognize", "--algebra", str(bad))
        assert code == 2

    def test_bad_rational_literal(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "dim": 2,
            "products": [{"left": 1, "right": 1, "result": 2, "coeff": "1.5"}],
        }))
        code, _ = run(capsys, "recognize", "--algebra", str(bad))
        assert code == 2

    SINGULAR_FAMILY = {
        "dim": 2,
        "entries": [
            {"row": 1, "col": 1, "poly": "t"},
            {"row": 1, "col": 2, "poly": "t"},
            {"row": 2, "col": 1, "poly": "t"},
            {"row": 2, "col": 2, "poly": "t"},
        ],
    }
    SINGULAR = (2, "error: family matrix is singular over Q(t)\n")

    def run_singular_family(self, capsys, tmp_path, *command, algebra="lambda2_n2"):
        """(exit code, stderr) of a command on the singular family."""
        bad = tmp_path / "f.json"
        bad.write_text(json.dumps(self.SINGULAR_FAMILY))
        code = main([*command, "--algebra", canonical_path(algebra), "--family", str(bad)])
        return code, capsys.readouterr().err

    def test_singular_family_file(self, capsys, tmp_path):
        assert self.run_singular_family(capsys, tmp_path, "transport", "--limit") == self.SINGULAR

    @pytest.mark.parametrize("command", [
        ["verify", "--target-canonical", "lambda2:2"],
        ["transport", "--at", "1/2"],
    ])
    def test_singular_family_is_rejected_where_it_is_used(self, capsys, tmp_path, command):
        """Loading does not eliminate the family; its first use finds it
        singular."""
        assert self.run_singular_family(capsys, tmp_path, *command) == self.SINGULAR

    def test_singular_family_of_the_wrong_dimension(self, capsys, tmp_path):
        """The dimension check comes before the first use of the family."""
        got = self.run_singular_family(capsys, tmp_path, "transport", "--limit",
                                       algebra="lambda2_n3")
        assert got == (2, "error: algebra and family dimensions differ\n")

    def test_laurent_syntax_error_position(self, capsys, tmp_path):
        bad = tmp_path / "f.json"
        bad.write_text(json.dumps({
            "dim": 1,
            "entries": [{"row": 1, "col": 1, "poly": "t^^3"}],
        }))
        code, _ = run(
            capsys, "transport",
            "--algebra", canonical_path("abelian_n1"),
            "--family", str(bad), "--limit",
        )
        assert code == 2

    def test_boolean_algebra_dimension(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": True, "products": []}))
        code, _ = run(capsys, "recognize", "--algebra", str(bad))
        assert code == 2

    def test_boolean_family_dimension(self, capsys, tmp_path):
        bad = tmp_path / "f.json"
        bad.write_text(json.dumps({
            "dim": True,
            "entries": [{"row": 1, "col": 1, "poly": "t"}],
        }))
        code, _ = run(
            capsys, "transport",
            "--algebra", canonical_path("abelian_n1"),
            "--family", str(bad), "--limit",
        )
        assert code == 2

    def test_degree_overflow_is_usage_error(self, capsys, tmp_path):
        family = tmp_path / "f.json"
        family.write_text(json.dumps({
            "dim": 2,
            "entries": [
                {"row": 1, "col": 1, "poly": "t^6000"},
                {"row": 2, "col": 2, "poly": "t^6000"},
            ],
        }))
        code = main([
            "transport", "--algebra", canonical_path("lambda2_n2"),
            "--family", str(family), "--limit",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command, doc", [
        ("recognize", {"dim": 2, "products": 5}),
        ("recognize", {"dim": 2, "products": [{"left": 1, "right": 1, "result": 2}]}),
        ("verify --target", []),
        ("transport", {"dim": 2, "entries": [{"row": 1, "col": 1, "poly": 5}]}),
    ])
    def test_wrong_json_shape_is_usage_error(self, capsys, tmp_path, command, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = {
            "recognize": ["recognize", "--algebra", str(bad)],
            "verify --target": ["verify", "--algebra", canonical_path("pplus_n3"),
                                "--family", family_path("pplus_to_lambda2_n3"),
                                "--target", str(bad)],
            "transport": ["transport", "--algebra", canonical_path("lambda2_n2"),
                          "--family", str(bad), "--at", "1"],
        }[command]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path):
        # the JSON decoder recurses once per level and hits the stack limit
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["recognize", "--algebra", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_limit_past_the_false_degree_bound_has_poles(self, capsys, tmp_path):
        # diag(t^4000, t^4000, 1 + t) reads off at exponent 8000, not 16000
        family = tmp_path / "f.json"
        family.write_text(json.dumps({
            "dim": 3,
            "entries": [
                {"row": 1, "col": 1, "poly": "t^4000"},
                {"row": 2, "col": 2, "poly": "t^4000"},
                {"row": 3, "col": 3, "poly": "1 + t"},
            ],
        }))
        code = main([
            "transport", "--algebra", canonical_path("lambda2_n3"),
            "--family", str(family), "--limit", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out) == {"limit": None, "poles": [[2, 1, 1]]}

    @pytest.mark.parametrize("doc", [[], {
        "family": {"dim": 1, "entries": [{"row": 1, "col": 1, "poly": "t"}]},
        "target": {"tag": "nu", "dim": 1}, "trace": 5}])
    def test_witness_of_the_wrong_shape(self, doc):
        from levelone.jsonio import witness_from_dict

        with pytest.raises(ValueError):
            witness_from_dict(doc)

    @pytest.mark.parametrize("kind", ["algebra", "family"])
    def test_dimension_past_the_cap(self, capsys, tmp_path, kind):
        # no products or entries: nothing of size MAX_DIM + 1 is ever built
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps({"dim": MAX_DIM + 1}))
        if kind == "algebra":
            argv = ["recognize", "--algebra", str(bad)]
        else:
            argv = ["transport", "--algebra", canonical_path("abelian_n1"),
                    "--family", str(bad), "--limit"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: dimension {MAX_DIM + 1} exceeds the cap of {MAX_DIM}\n"

    @pytest.mark.parametrize("where", ["algebra", "family", "at", "alpha"])
    def test_coefficient_past_the_digit_bound(self, capsys, tmp_path, where):
        big = "7" * (MAX_COEFF_DIGITS + 700)
        algebra, family = canonical_path("lambda2_n2"), tmp_path / "g.json"
        family.write_text(json.dumps({"dim": 2, "entries": [
            {"row": 1, "col": 1, "poly": big + "*t" if where == "family" else "t"},
            {"row": 2, "col": 2, "poly": "1"}]}))
        argv = {
            "algebra": ["classify", "--algebra", str(tmp_path / "a.json")],
            "family": ["transport", "--algebra", algebra, "--family", str(family), "--limit"],
            "at": ["transport", "--algebra", algebra, "--family", str(family), "--at", big],
            "alpha": ["canonical", "--name", "nu", "--dim", "2", "--alpha", "1/" + big],
        }[where]
        save_path(str(tmp_path / "a.json"), {"dim": 2, "products": [
            {"left": 1, "right": 1, "result": 2, "coeff": "-" + big}]})
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: integer literal of {len(big)} digits exceeds the bound of "
                       f"{MAX_COEFF_DIGITS} digits\n")

    def test_a_witness_past_the_digit_bound_is_named_and_not_written(self, capsys, tmp_path):
        """Every input literal fits the bound, but the verified n3minus witness
        has family coefficients with denominators of 7999 digits."""
        num = 10**3999 + 7
        b, inv = f"{num}/3", f"3/{num}"
        table = [(1, 2, 2, b), (2, 1, 2, "-" + b), (1, 3, 3, b), (3, 1, 3, "-" + b),
                 (1, 4, 4, inv), (4, 1, 4, "-" + inv)]
        save_path(str(tmp_path / "a.json"), {"dim": 4, "products": [
            {"left": i, "right": j, "result": k, "coeff": c} for i, j, k, c in table]})
        out = tmp_path / "w.json"
        code = main(["classify", "--algebra", str(tmp_path / "a.json"), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("error: cannot write the witness family: integer of 7999 "
                                f"digits exceeds the bound of {MAX_COEFF_DIGITS} digits\n")
        assert captured.out == ""
        assert not out.exists()

    def test_an_algebra_past_the_digit_bound_is_named_and_not_written(self, capsys, tmp_path):
        """alpha = -(10^4300 - 1) fits the bound, but nu's 1 - alpha does not."""
        out = tmp_path / "nu.json"
        code = main(["canonical", "--name", "nu", "--dim", "2",
                     "--alpha=-" + "9" * MAX_COEFF_DIGITS, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error: cannot write the algebra: integer of "
                                f"{MAX_COEFF_DIGITS + 1} digits exceeds the bound of "
                                f"{MAX_COEFF_DIGITS} digits\n")
        assert captured.out == ""
        assert not out.exists()

    def test_coefficient_at_the_digit_bound_is_read(self, capsys, tmp_path):
        big = "7" * MAX_COEFF_DIGITS
        family = tmp_path / "g.json"
        family.write_text(json.dumps({"dim": 1, "entries": [
            {"row": 1, "col": 1, "poly": f"{big}/{big[:-1]}*t^0"}]}))
        argv = ["transport", "--algebra", canonical_path("abelian_n1"),
                "--family", str(family), "--at", "-" + big]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {"dim": 1, "products": []}

    @pytest.mark.parametrize("where", ["dim", "left", "row", "target dim", "target-canonical"])
    def test_integer_past_the_digit_bound(self, capsys, tmp_path, where):
        """JSON integers and the dimension of --target-canonical are refused
        by the same named bound as coefficients, before int() sees them."""
        big = "1" * (MAX_COEFF_DIGITS + 700)
        docs = {
            "dim": ('{"dim": %s, "products": []}' % big, None),
            "left": ('{"dim": 2, "products": [{"left": %s, "right": 1, "result": 1, '
                     '"coeff": "1"}]}' % big, None),
            "row": (None, '{"dim": 2, "entries": [{"row": %s, "col": 1, "poly": "t"}]}' % big),
            "target dim": (None, None),
            "target-canonical": (None, None),
        }
        algebra, family = docs[where]
        (tmp_path / "a.json").write_text(algebra or json.dumps(algebra_to_dict(
            construct(CanonicalForm(Tag.P_PLUS, 3)))))
        (tmp_path / "g.json").write_text(family or Path(family_path(
            "pplus_to_lambda2_n3")).read_text())
        (tmp_path / "t.json").write_text('{"tag": "lambda2", "dim": %s}' % big)
        verify = ["verify", "--algebra", str(tmp_path / "a.json"),
                  "--family", str(tmp_path / "g.json")]
        argv = {
            "dim": ["recognize", "--algebra", str(tmp_path / "a.json")],
            "left": ["classify", "--algebra", str(tmp_path / "a.json")],
            "row": ["transport", "--algebra", str(tmp_path / "a.json"),
                    "--family", str(tmp_path / "g.json"), "--limit"],
            "target dim": verify + ["--target", str(tmp_path / "t.json")],
            "target-canonical": verify + ["--target-canonical", "lambda2:" + big],
        }[where]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: integer literal of {len(big)} digits exceeds the bound of "
                       f"{MAX_COEFF_DIGITS} digits\n")

    def test_long_digit_runs_inside_strings_are_not_integers(self, capsys, tmp_path):
        """Only number tokens are integer literals: a long run of digits inside
        a JSON string is text, and the bound leaves it alone."""
        doc = {"dim": 3, "products": [], "note": "1" * (MAX_COEFF_DIGITS + 700)}
        (tmp_path / "a.json").write_text(json.dumps(doc))
        assert main(["recognize", "--algebra", str(tmp_path / "a.json")]) == 0
        assert capsys.readouterr().out == "recognized: abelian dim 3\n"

    @pytest.mark.parametrize("literal,shown", [
        ("1" * 4000, "dimension <integer of 4000 digits> exceeds the cap of 64"),
        ("-" + "1" * 4000, "bad dimension: <integer of 4000 digits>"),
        (str(MAX_DIM + 1), f"dimension {MAX_DIM + 1} exceeds the cap of {MAX_DIM}"),
    ])
    def test_a_long_dimension_is_not_echoed(self, capsys, tmp_path, literal, shown):
        (tmp_path / "a.json").write_text('{"dim": %s, "products": []}' % literal)
        assert main(["recognize", "--algebra", str(tmp_path / "a.json")]) == 2
        assert capsys.readouterr().err == f"error: {shown}\n"

    def test_a_long_index_is_not_echoed(self, capsys, tmp_path):
        (tmp_path / "a.json").write_text(
            '{"dim": 2, "products": [{"left": %s, "right": 1, "result": 1, "coeff": "1"}]}'
            % ("9" * 4000))
        assert main(["recognize", "--algebra", str(tmp_path / "a.json")]) == 2
        assert capsys.readouterr().err == "error: index <integer of 4000 digits> out of range 1..2\n"

    @pytest.mark.parametrize("coeff", ["\u0663", "\u0661/\u0662", "3\n", "1/2\n"])
    def test_a_rational_takes_ascii_digits_and_nothing_after(self, capsys, tmp_path, coeff):
        """Arabic-Indic 3 and 1/2, and a trailing newline, are not int[/uint]:
        str.isdigit and a $ anchor would let the 3 and the newline in."""
        (tmp_path / "a.json").write_text(json.dumps({"dim": 2, "products": [
            {"left": 1, "right": 1, "result": 2, "coeff": coeff}]}))
        assert main(["recognize", "--algebra", str(tmp_path / "a.json")]) == 2
        assert capsys.readouterr().err.startswith("error: bad rational literal: ")

    def test_a_laurent_string_takes_ascii_digits(self, capsys, tmp_path):
        family = tmp_path / "g.json"
        family.write_text(json.dumps({"dim": 1, "entries": [
            {"row": 1, "col": 1, "poly": "\u0663*t"}]}))
        code = main(["transport", "--algebra", canonical_path("abelian_n1"),
                     "--family", str(family), "--limit"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: unexpected character")

    @pytest.mark.parametrize("poly", ["t\x1c+ 2", "t +\u00a02"])
    def test_a_laurent_string_takes_ascii_blanks_only(self, capsys, tmp_path, poly):
        """str.isspace would skip the file separator and the no-break space."""
        family = tmp_path / "g.json"
        family.write_text(json.dumps({"dim": 1, "entries": [
            {"row": 1, "col": 1, "poly": poly}]}))
        code = main(["transport", "--algebra", canonical_path("abelian_n1"),
                     "--family", str(family), "--limit"])
        bad = next(ch for ch in poly if ch.isspace() and ch != " ")
        position = poly.index(bad)
        assert (code, capsys.readouterr().err) == (
            2, f"error: unexpected character at position {position} (near {bad!r})\n")

    @pytest.mark.parametrize("kind,literal", [
        ("algebra", "\u0660.\u0665"), ("algebra", "1e-1"), ("algebra", "inf"),
        ("algebra", "nan"), ("algebra", "1_0"), ("algebra", " 0.5"), ("algebra", "0.5\n"),
        ("algebra", "."), ("family", "\u0660.\u0665")])
    def test_the_density_flag_takes_ascii_decimals_only(self, capsys, kind, literal):
        """float() would read Arabic-Indic 0.5, 1e-1, inf, nan, 1_0 and the
        blanks around a literal."""
        code = main(["random", "--kind", kind, "--dim", "3", "--seed", "1",
                     "--density", literal])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"error: bad decimal literal: {literal!r} (expected [+-]digits[.digits])\n")

    @pytest.mark.parametrize("literal", ["0.5", ".5", "1.", "+0.25", "00.40"])
    def test_an_ascii_decimal_density_draws_as_its_float(self, capsys, literal):
        assert main(["random", "--dim", "3", "--seed", "1", "--density", literal]) == 0
        drawn = algebra_from_dict(json.loads(capsys.readouterr().out))
        assert drawn == random_algebra(3, float(literal), 1)

    @pytest.mark.parametrize("flag,literal", [
        ("--dim", "1_000"), ("--dim", " 7 "), ("--seed", "\uff13"), ("--seed", "7\n"),
        ("--pole-bound", "1.0")])
    def test_an_integer_flag_takes_ascii_digits_only(self, capsys, flag, literal):
        """int() would read 1_000, " 7 " and fullwidth 3."""
        argv = {"--dim": "3", "--seed": "1", "--pole-bound": "1", flag: literal}
        code = main(["random", "--kind", "family", *(x for kv in argv.items() for x in kv)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: bad integer literal: {literal!r} (expected [+-]digits)\n"

    def test_a_signed_integer_flag_is_read(self, capsys):
        assert main(["random", "--dim", "+3", "--seed", "-4"]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 3

    @pytest.mark.parametrize("command", ["canonical --name abelian", "random --seed 0"])
    def test_dimension_flag_past_the_cap(self, capsys, command):
        code = main(command.split() + ["--dim", str(MAX_DIM + 1)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: dimension")

    @pytest.mark.parametrize("argv", [
        ["random", "--seed", "0", "--dim", "{big}"],
        ["random", "--dim", "3", "--seed", "{big}"],
        ["random", "--kind", "family", "--dim", "3", "--seed", "2", "--pole-bound", "{big}"],
        ["canonical", "--name", "abelian", "--dim", "{big}"],
        ["classify", "--algebra", canonical_path("pplus_n3"), "--seed", "{big}"],
    ])
    def test_integer_flag_past_the_digit_bound(self, capsys, argv):
        """An integer flag is refused by the named bound in one line, not
        echoed back by argparse."""
        big = "1" * (MAX_COEFF_DIGITS + 700)
        code = main([big if arg == "{big}" else arg for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: integer literal of {len(big)} digits exceeds the "
                                f"bound of {MAX_COEFF_DIGITS} digits\n")


class TestParserReuse:
    COMMANDS = [
        ["canonical", "--name", "nu", "--dim", "3", "--alpha", "1/2"],
        ["recognize", "--algebra", canonical_path("n3minus_n4"), "--json"],
        ["transport", "--algebra", canonical_path("pplus_n3"),
         "--family", family_path("pplus_to_lambda2_n3"), "--at", "1/2"],
        ["transport", "--algebra", canonical_path("pplus_n3"),
         "--family", family_path("pplus_to_lambda2_n3"), "--limit", "--json"],
        ["verify", "--algebra", canonical_path("pminus_n3"),
         "--family", family_path("fix_pminus_n3"), "--target-canonical", "abelian:3"],
        ["invariants", "--algebra", canonical_path("lambda2_n4")],
        ["transport", "--limit"],  # usage error: the parse fails part-way
        ["random", "--kind", "family", "--dim", "3", "--seed", "2"],
    ]

    def test_one_parser_serves_every_command(self, capsys):
        import levelone.cli

        fresh = []  # each command on a newly built parser
        for argv in self.COMMANDS:
            levelone.cli.build_parser.cache_clear()
            fresh.append((main(argv), capsys.readouterr().out))
        parser = levelone.cli.build_parser()
        for _ in range(2):
            reused = [(main(argv), capsys.readouterr().out) for argv in self.COMMANDS]
            assert reused == fresh
        assert levelone.cli.build_parser() is parser
        assert [code for code, _ in fresh] == [0, 0, 0, 0, 1, 0, 2, 0]

    # argv that argparse refuses, answers with help, or reads in a spelling of
    # its own; each command's required options in turn
    ARGV_CASES = [
        ["verify", "--family", family_path("fix_pminus_n3"), "--target-canonical", "pminus:3"],
        ["classify"],
        ["classify", "--out", "x.json"],
        ["recognize", "--json"],
        ["invariants"],
        ["transport", "--algebra", canonical_path("pplus_n3"), "--limit"],
        ["transport", "--algebra", canonical_path("pplus_n3"),
         "--family", family_path("pplus_to_lambda2_n3")],
        ["random", "--seed", "1"],
        ["random", "--dim", "3"],
        ["canonical", "--dim", "3"],
        ["canonical", "--name", "nu"],
        # leftovers
        ["recognize", "--algebra", canonical_path("lambda2_n3"), "extra"],
        ["canonical", "--name", "nu", "--dim", "3", "--bogus", "-x", "y"],
        ["invariants", "--algebra", canonical_path("lambda2_n3"), "--", "z"],
        # spellings
        ["recognize", "--alg", canonical_path("n3minus_n4"), "--js"],
        ["recognize", f"--algebra={canonical_path('lambda2_n3')}"],
        ["transport", "--algebra", canonical_path("pplus_n3"),
         "--family", family_path("pplus_to_lambda2_n3"), "--at=-3/2"],
        ["transport", "--algebra", canonical_path("pplus_n3"),
         "--family", family_path("pplus_to_lambda2_n3"), "--at", "-3/2"],
        # help and no command
        *([command, "-h"] for command in
          ("verify", "classify", "recognize", "invariants", "transport", "random", "canonical")),
        ["transport", "--help", "--limit"],
        ["-h"],
        ["--help"],
        ["--he"],
        [],
        ["frobnicate"],
        ["frobnicate", "--algebra", "x"],
        ["--", "recognize", "--algebra", canonical_path("lambda2_n3")],
        ["--algebra", "x", "recognize"],
        # the verify source checks
        ["verify", "--algebra", canonical_path("pplus_n3"), "--witness", "w.json",
         "--family", family_path("pplus_to_lambda2_n3")],
        ["verify", "--algebra", canonical_path("pplus_n3"), "--target-canonical", "lambda2:3"],
        ["verify", "--algebra", canonical_path("pplus_n3"),
         "--family", family_path("pplus_to_lambda2_n3")],
    ]

    @pytest.mark.parametrize("argv", ARGV_CASES, ids=lambda argv: " ".join(
        Path(a).name if a.startswith(str(FIXTURES)) else a for a in argv) or "empty")
    def test_a_command_parser_answers_as_the_nested_parse(self, capsys, monkeypatch, argv):
        """main(argv) gives the exit code, stdout and stderr it gives when the
        whole argv goes through the top-level parser's nested parse."""
        import levelone.cli

        got = (main(argv), *capsys.readouterr())
        monkeypatch.setattr(levelone.cli, "_parse_argv",
                            lambda argv: levelone.cli.build_parser().parse_args(argv))
        want = (main(argv), *capsys.readouterr())
        assert got == want
        assert got[0] in (0, 2)

    def test_a_command_parser_reads_the_namespace_of_the_nested_parse(self):
        import levelone.cli

        argv = ["transport", "--alg", "a.json", "--family=f.json", "--at", "1/2", "--json"]
        parsed = levelone.cli._parse_argv(argv)
        assert vars(parsed) == vars(levelone.cli.build_parser().parse_args(argv))
        assert parsed.command == "transport" and parsed.algebra == "a.json"

    def test_a_handler_rebound_after_the_first_call_is_used(self, capsys, monkeypatch):
        import levelone.cli

        argv = ["recognize", "--algebra", canonical_path("lambda2_n3")]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(levelone.cli, "cmd_recognize", lambda args: seen.append(args) or 3)
        assert main(argv) == 3
        assert [args.algebra for args in seen] == [argv[2]]


# -- the console entry point ---------------------------------------------------
#
# Each case runs ``python -m levelone.cli``, which goes through ``entry()``,
# in a subprocess with a 20 s timeout: the cases that must stay fast, and one
# case per exit code.  The installed ``levelone`` script is the same
# ``entry()``; only its wiring in pyproject.toml is left to CI.


def _written(tmp_path: Path, name: str, argv: list) -> str:
    """The path of a file that ``main(argv + ["--out", path])`` wrote."""
    path = str(tmp_path / name)
    assert main([*argv, "--out", path]) == 0
    return path


def _family(tmp_path: Path, entries: list, dim: int) -> str:
    path = tmp_path / "g.family.json"
    path.write_text(json.dumps({"dim": dim, "entries": entries}))
    return str(path)


def _kernel_case(dim: int, seed: int, algebra: str):
    """A general family on a general algebra: the fraction-free kernel."""
    def case(tmp_path):
        fam = _written(tmp_path, "g.family.json", ["random", "--kind", "family", "--dim",
                                                   str(dim), "--pole-bound", "2", "--seed",
                                                   str(seed)])
        alg = canonical_path(algebra)
        if algebra.startswith("random"):
            alg = _written(tmp_path, "a.algebra.json", ["random", "--kind", "algebra", "--dim",
                                                        str(dim), "--seed", str(seed),
                                                        "--non-abelian"])
        want = FIXTURES / "limits" / f"random_n{dim}_pb2_seed{seed}.{algebra}.limit.json"
        return (["transport", "--algebra", alg, "--family", fam, "--limit", "--json"],
                (0, want.read_bytes(), b""))
    return case


def _at_past_the_bound(*diagonal: str):
    """An exponent of the cleared family past 10000 is refused before
    evaluating, and so is a common pole past 10000 (t^-10000000 ran for
    minutes)."""
    def case(tmp_path):
        fam = _family(tmp_path, [{"row": i, "col": i, "poly": p}
                                 for i, p in enumerate(diagonal, 1)], 2)
        return (["transport", "--algebra", canonical_path("pminus_n2"), "--family", fam,
                 "--at", "1/2"], (2, b"", b"error: exponent beyond +/-10000\n"))
    return case


def _huge_case(name: str, code: int, out: bytes):
    """diag(c*t^1200) + t*e_11 with a 4000-digit c is eliminated term by
    term: packed at t = 2^k an entry would take about 10^9 bits."""
    def case(tmp_path):
        c = 10**3999 + 7
        entries = [{"row": i, "col": i, "poly": f"{c}*t^1200"} for i in range(1, 9)]
        entries[0]["poly"] += " + t"
        return (["transport", "--algebra", canonical_path(name),
                 "--family", _family(tmp_path, entries, 8), "--limit"], (code, out, b""))
    return case


def _recognize_case(doc: dict, code: int, out: bytes, err: bytes):
    def case(tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(doc))
        return ["recognize", "--algebra", str(path)], (code, out, err)
    return case


ENTRY_CASES = {
    "kernel lambda2_n8": _kernel_case(8, 3, "lambda2_n8"),
    "kernel random_n8_seed1": _kernel_case(8, 1, "random_n8_seed1"),
    "kernel random_n12_seed4": _kernel_case(12, 4, "random_n12_seed4"),
    "random density 0": lambda tmp_path: (
        ["random", "--kind", "algebra", "--dim", "3", "--seed", "1", "--density", "0",
         "--non-abelian"],
        (2, b"", b"error: a non-abelian draw at n = 3 and density 0.0 has chance 0 < 0.001\n")),
    "at t^2000000": _at_past_the_bound("t^2000000", "1"),
    "at t^-10000000": _at_past_the_bound("t^-10000000", "t^-10000000"),
    "huge pminus_n8": _huge_case(
        "pminus_n8", 1, b"no limit at t=0; entries with poles: (2, 1, 2), (2, 2, 1), (3, 1, 3),"
                        b" (3, 3, 1), (4, 1, 4), (4, 4, 1), (5, 1, 5), (5, 5, 1), ...\n"),
    "huge lambda2_n8": _huge_case("lambda2_n8", 0, b'{\n  "dim": 8,\n  "products": []\n}\n'),
    "exit 0": lambda tmp_path: (
        ["canonical", "--name", "nu", "--dim", "4", "--alpha", "2/3"],
        (0, Path(canonical_path("nu_n4_alpha_2_3")).read_bytes(), b"")),
    "exit 1": _recognize_case(TestRecognizeCommand.SPECTRUM, 1, b"not canonical: left "
                              b"multiplication by the idempotent has the wrong spectrum\n", b""),
    "exit 2": _recognize_case({"dim": 2, "products": 5}, 2, b"",
                              b"error: 'products' must be a list of objects\n"),
    "exit 3": lambda tmp_path: (
        ["classify", "--algebra", canonical_path("abelian_n4")],
        (3, b"", b"error: every product is zero; nothing to classify\n")),
    "--out": lambda tmp_path: (
        ["classify", "--algebra", str(FIXTURES / "witnesses" / "pplus_n3.algebra.json"),
         "--out", str(tmp_path / "w.json")],
        (0, b"", b"classified onto lambda2 dim 3; witness verified\n")),
}


@pytest.mark.parametrize("case", ENTRY_CASES)
def test_the_console_entry_point(tmp_path, case):
    argv, want = ENTRY_CASES[case](tmp_path)
    proc = subprocess.run([sys.executable, "-m", "levelone.cli", *argv], capture_output=True,
                          timeout=20, env=subprocess_env(), cwd=tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == want
    if case == "--out":
        want = FIXTURES / "witnesses" / "pplus_n3.witness.json"
        assert (tmp_path / "w.json").read_bytes() == want.read_bytes()


# -- hostile JSON ---------------------------------------------------------------

junk_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.floats(-4, 4), st.text(max_size=5)
)
junk = st.recursive(
    junk_scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)
dims = st.integers(1, 4) | st.sampled_from([0, -1, 65, True, "2", 2.0, None])  # never past 4
indices = st.integers(1, 4) | st.sampled_from([0, 5, -1, True, False, "1", 1.0, None, [1]])
rationals = st.sampled_from(["1", "-2", "1/2", "-3/4", "0", "1/0", "1.5", "", "x"]) | junk
laurents = st.sampled_from(
    ["1", "t", "-t^-1", "2*t^2 - 1/3", "t + t^-2", "t^6000", "t^-6000", "t^^2", "", "1/0*t"]
) | junk


def documents(key: str, fields: dict):
    """{"dim", key: [entries]} with hostile values anywhere, or plain junk."""
    entry = st.fixed_dictionaries(fields) | st.fixed_dictionaries({}, optional=fields) | junk
    return st.fixed_dictionaries({"dim": dims, key: st.lists(entry, max_size=6) | junk}) | junk


algebra_docs = documents(
    "products", {"left": indices, "right": indices, "result": indices, "coeff": rationals})
family_docs = documents("entries", {"row": indices, "col": indices, "poly": laurents})
target_docs = st.fixed_dictionaries(
    {"tag": st.sampled_from([t.value for t in Tag]) | junk, "dim": dims},
    optional={"alpha": rationals},
) | junk
witness_docs = st.fixed_dictionaries(
    {"family": family_docs, "target": target_docs},
    optional={"trace": st.lists(st.text(max_size=5), max_size=2) | junk},
) | junk

# argv templates: "A", "G", "T" and "W" stand for files holding a hostile
# algebra, family, target and witness, "P" for an evaluation point
FUZZED = {
    "recognize": ["recognize", "--algebra", "A"],
    "classify": ["classify", "--algebra", "A"],
    "verify --target": ["verify", "--algebra", canonical_path("pplus_n3"),
                        "--family", family_path("pplus_to_lambda2_n3"), "--target", "T"],
    "verify --family": ["verify", "--algebra", canonical_path("pplus_n3"), "--family", "G",
                        "--target-canonical", "lambda2:3", "--json"],
    "verify --witness": ["verify", "--algebra", canonical_path("pplus_n3"), "--witness", "W"],
    "transport --limit": ["transport", "--algebra", "A", "--family", "G", "--limit"],
    "transport --at": ["transport", "--algebra", "A", "--family", "G", "--at", "P"],
}


@pytest.mark.parametrize("command", FUZZED)
def test_hostile_json_gets_an_exit_code_not_a_traceback(command, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")

    @given(st.fixed_dictionaries({"A": algebra_docs, "G": family_docs, "T": target_docs,
                                  "W": witness_docs}),
           st.sampled_from(["0", "1", "1/2", "-3/2", "x", "1/0"]))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    def check(docs, point):
        slots = {"P": point}
        for key in set(docs) & set(FUZZED[command]):
            slots[key] = str(root / f"{key}.json")
            Path(slots[key]).write_text(json.dumps(docs[key]), encoding="utf-8")
        argv = [slots.get(arg, arg) for arg in FUZZED[command]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()

    check()

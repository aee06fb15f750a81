"""The algebra reader and writers work in the integer stored form; these tests
hold them to the Fraction path they replaced, literal by literal and byte by
byte."""

import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from levelone import (
    Algebra,
    CanonicalForm,
    NoLimit,
    ParamMatrix,
    Tag,
    apply_basis_change,
    classify,
    construct,
    invariant_vector,
    parse_laurent,
    random_algebra,
    random_family,
    random_invertible_matrix,
    transport_limit,
    verify_degeneration,
)
from levelone.algebra import _SHARED, _SHARED_BOUND
from levelone.errors import CoefficientTooLarge
from levelone.jsonio import (
    algebra_from_dict,
    algebra_to_dict,
    check_dimension,
    dumps,
    family_from_dict,
    family_to_dict,
    format_rational,
    invariants_to_dict,
    load_path,
    parse_rational,
    recognition_to_dict,
    report_document,
    report_to_dict,
    shown,
    witness_to_dict,
)
from levelone.poly import MAX_COEFF_DIGITS
from levelone.recognize import RecognitionResult, recognize
from levelone.transport import Witness

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CANONICAL = sorted((Path(__file__).resolve().parent.parent / "fixtures" / "canonical")
                   .glob("*.algebra.json"))

# -- the Fraction path, as the reader was before it read integers -------------

# in ASCII digits to the end of the text: the Fraction path read "١٢" as 12
# and let "1\n" through
OLD_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?\Z")


def fraction_literal(text) -> F:
    if not isinstance(text, str) or not OLD_RATIONAL_RE.match(text):
        raise ValueError(f"bad rational literal: {shown(text)} (expected int[/uint])")
    digits = max(map(len, text.lstrip("-").split("/")))
    if digits > MAX_COEFF_DIGITS:
        raise CoefficientTooLarge(digits, MAX_COEFF_DIGITS)
    return F(text)


def fraction_reader(d) -> Algebra:
    if not isinstance(d, dict) or "dim" not in d:
        raise ValueError("algebra JSON needs a 'dim' field")
    n = check_dimension(d["dim"])
    items = d.get("products", [])
    if not isinstance(items, list) or not all(isinstance(it, dict) for it in items):
        raise ValueError("'products' must be a list of objects")
    entries, seen = {}, set()
    for item in items:
        try:
            i, j, k, text = item["left"], item["right"], item["result"], item["coeff"]
        except KeyError as exc:
            raise ValueError(f"product entry missing a field: {shown(item)}") from exc
        for idx in (i, j, k):
            if type(idx) is not int or not 1 <= idx <= n:
                raise ValueError(f"index {shown(idx)} out of range 1..{n}")
        if (i, j, k) in seen:
            raise ValueError(f"duplicate product triple (left={i}, right={j}, result={k})")
        seen.add((i, j, k))
        coeff = fraction_literal(text)
        if coeff:
            entries[(k - 1, i - 1, j - 1)] = coeff
    return Algebra.from_entries(n, entries)


def outcome(read, doc):
    """The stored form read from doc, or the type and message of the error."""
    try:
        a = read(doc)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return a.dim, a._cden, list(a._slices.items())


# -- documents -----------------------------------------------------------------


@st.composite
def literals(draw):
    """A valid "int[/uint]" literal: unreduced, signed, zero-valued or padded
    with leading zeros."""
    p = draw(st.integers(-50, 50) | st.integers(-10**30, 10**30) | st.just(0))
    m = draw(st.sampled_from([1, 1, 2, 6, 10]))
    q = draw(st.integers(1, 40)) * m
    num = ("-" if p < 0 or (p == 0 and draw(st.booleans())) else "") \
        + "0" * draw(st.integers(0, 2)) + str(abs(p) * m)
    if q == 1 and draw(st.booleans()):
        return num
    return f"{num}/{'0' * draw(st.integers(0, 2))}{q}"


@st.composite
def documents(draw):
    n = draw(st.integers(1, 8))
    triples = st.tuples(*[st.integers(1, n)] * 3)
    keys = draw(st.lists(triples, unique=True, max_size=3 * n * n))
    products = [{"left": i, "right": j, "result": k, "coeff": draw(literals())}
                for i, j, k in keys]
    return {"dim": n, "products": draw(st.permutations(products))}


bad_indices = st.sampled_from([0, 9, -1, True, False, 1.0, "1", None, [1]])
bad_literals = st.sampled_from(["1.5", "", "1/0", "1/00", "x", "+1", " 1", "1/-2", "--1",
                                "1/2/3", "1\n", "١٢", "1e3", 3, None, 1.5, ["1"]])


@st.composite
def hostile_documents(draw):
    """A valid document with hostile entries, duplicates and missing fields
    spliced in at random places."""
    doc = draw(documents())
    n = doc["dim"]
    products = list(doc["products"])
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["index", "literal", "duplicate", "missing", "zero dup"]))
        entry = {"left": draw(st.integers(1, n)), "right": draw(st.integers(1, n)),
                 "result": draw(st.integers(1, n)), "coeff": draw(literals())}
        if kind == "index":
            entry[draw(st.sampled_from(["left", "right", "result"]))] = draw(bad_indices)
        elif kind == "literal":
            entry["coeff"] = draw(bad_literals)
        elif kind == "missing":
            del entry[draw(st.sampled_from(sorted(entry)))]
        elif products:
            entry = dict(draw(st.sampled_from(products)))
            if kind == "zero dup":
                entry["coeff"] = "0"
        products.insert(draw(st.integers(0, len(products))), entry)
    dim = draw(st.sampled_from([n] * 6 + [0, 65, True, "2"]))
    return {"dim": dim, "products": products}


class TestReader:
    @given(documents())
    @settings(max_examples=300)
    def test_reads_the_stored_form_of_the_fraction_path(self, doc):
        assert outcome(algebra_from_dict, doc) == outcome(fraction_reader, doc)
        assert isinstance(outcome(algebra_from_dict, doc)[0], int)

    @given(hostile_documents())
    @settings(max_examples=300)
    def test_raises_the_first_error_of_the_fraction_path(self, doc):
        assert outcome(algebra_from_dict, doc) == outcome(fraction_reader, doc)

    @pytest.mark.parametrize("first, second", [("0", "1"), ("1", "0"), ("0", "0/3")])
    def test_a_zero_coefficient_counts_as_seen(self, first, second):
        doc = {"dim": 2, "products": [{"left": 1, "right": 2, "result": 2, "coeff": first},
                                      {"left": 1, "right": 2, "result": 2, "coeff": second}]}
        with pytest.raises(ValueError, match=r"^duplicate product triple \(left=1, right=2, "
                                             r"result=2\)$"):
            algebra_from_dict(doc)

    @given(literals() | bad_literals)
    def test_parse_rational_is_the_fraction_of_the_literal(self, text):
        try:
            want = fraction_literal(text)
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                parse_rational(text)
        else:
            assert parse_rational(text) == want

    def test_in_bound_entries_are_the_shared_tuples(self):
        """Each stored entry (k, c) with k and |c| inside the shared bound is
        the one tuple every algebra holds for it; the others stay private."""
        kb, cb = _SHARED_BOUND
        coeffs = {(1, 1, 1): "3/2", (1, 2, 64): f"-{cb}/2", (2, 1, 64): "1/2",
                  (3, 3, 3): f"-{cb + 2}/2", (64, 64, 3): "10000000000000", (64, 1, 1): "1"}
        doc = {"dim": 64, "products": [{"left": i, "right": j, "result": k, "coeff": c}
                                       for (i, j, k), c in coeffs.items()]}
        a = algebra_from_dict(doc)
        held = [x for hits in a._slices.values() for x in hits]
        assert sorted(held) == [(0, 2), (0, 3), (2, -cb - 2), (2, 20000000000000),
                                (63, -cb), (63, 1)]
        for x in held:
            if x[0] < kb and abs(x[1]) <= cb:
                assert _SHARED.get(x) is x
            else:
                assert x not in _SHARED
        # the slice keys (i, j), all with i < 64, are the table's tuples too
        assert sorted(a._slices) == [(0, 0), (0, 1), (1, 0), (2, 2), (63, 0), (63, 63)]
        assert all(_SHARED.get(ij) is ij for ij in a._slices)
        assert a == Algebra.from_entries(64, a.entries())

    def test_the_digit_bound_holds_in_numerator_and_denominator(self):
        at = "7" * MAX_COEFF_DIGITS
        assert parse_rational(f"-{at}/{at}") == -1
        for text in ("-" + at + "7", f"1/{at}7", f"{at}7/{at}"):
            with pytest.raises(CoefficientTooLarge,
                               match=f"^integer literal of {MAX_COEFF_DIGITS + 1} digits"):
                parse_rational(text)


# -- writers ---------------------------------------------------------------------


def fraction_recognition(res: RecognitionResult) -> dict:
    """recognition_to_dict as it was written with str(Fraction(v))."""
    out: dict = {"recognized": res.recognized}
    if res.form is not None:
        out["form"] = {"tag": res.form.tag.value, "dim": res.form.dim}
        if res.form.alpha is not None:
            out["form"]["alpha"] = out["alpha"] = str(F(res.form.alpha))
    if res.iso is not None:
        out["iso"] = [[str(F(v)) for v in row] for row in res.iso]
    if res.reason is not None:
        out["reason"] = res.reason
    return out


class TestWriters:
    @pytest.mark.parametrize("path", CANONICAL, ids=lambda p: p.name.split(".")[0])
    def test_canonical_fixtures_round_trip_byte_for_byte(self, path):
        doc = load_path(str(path))
        assert dumps(algebra_to_dict(algebra_from_dict(doc))) == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("path", CANONICAL, ids=lambda p: p.name.split(".")[0])
    def test_recognition_is_written_as_its_fractions(self, path):
        a = algebra_from_dict(load_path(str(path)))
        g = random_invertible_matrix(a.dim, random.Random(path.name), bound=3)
        for b in (a, apply_basis_change(a, g)):
            res = recognize(b)
            assert dumps(recognition_to_dict(res)) == dumps(fraction_recognition(res))

    def test_all_76_canonical_fixtures_are_checked(self):
        assert len(CANONICAL) == 76

    @given(st.fractions() | st.fractions(min_value=-10**40, max_value=10**40))
    def test_format_rational_is_str_of_the_fraction(self, q):
        assert format_rational(q) == str(q)

    def test_an_algebra_entry_past_the_digit_bound_names_the_algebra(self):
        cap = 10**MAX_COEFF_DIGITS
        fits = Algebra.from_entries(1, {(0, 0, 0): F(1 - cap, cap - 1)})
        assert algebra_to_dict(fits)["products"][0]["coeff"] == "-1"
        for value, digits in ((F(cap), MAX_COEFF_DIGITS + 1), (F(-7, cap * 10), MAX_COEFF_DIGITS + 2)):
            a = Algebra.from_entries(2, {(1, 0, 0): value})
            with pytest.raises(CoefficientTooLarge, match=f"^cannot write the algebra: integer "
                               f"of {digits} digits exceeds the bound of {MAX_COEFF_DIGITS} digits$"):
                algebra_to_dict(a)

    def test_an_iso_entry_past_the_digit_bound_names_the_iso(self):
        res = RecognitionResult(CanonicalForm(Tag.NU, 1), ((F(1, 10**5000),),))
        with pytest.raises(CoefficientTooLarge, match="^cannot write the iso: integer of 5001 "
                                                      "digits"):
            recognition_to_dict(res)


# -- the JSON writer -------------------------------------------------------------


def stdlib_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


json_strings = st.text() | st.sampled_from(
    ["", "caf\u00e9", "\u2028\u00ff\U0001f600", '"quoted"', "back\\slash", "\x00\x1f\x7f\n\t"])
json_ints = st.integers() | st.integers(1 - 10**MAX_COEFF_DIGITS, 10**MAX_COEFF_DIGITS - 1)
json_documents = st.recursive(
    st.none() | st.booleans() | json_ints | json_strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=24)


def cli_documents() -> dict:
    """One document of each kind the CLI writes."""
    pminus, lambda2 = (construct(CanonicalForm(tag, 3)) for tag in (Tag.P_MINUS, Tag.LAMBDA2))
    nu = construct(CanonicalForm(Tag.NU, 4, F(2, 3)))
    moved = apply_basis_change(nu, random_invertible_matrix(4, random.Random(3)))
    witness = classify(construct(CanonicalForm(Tag.P_PLUS, 3)))
    wrong = Witness(ParamMatrix.identity(3), CanonicalForm(Tag.LAMBDA2, 3))
    try:
        transport_limit(lambda2, ParamMatrix.diagonal_powers([0, -1, 0]))
    except NoLimit as exc:
        poles = {"limit": None, "poles": [list(e) for e in exc.entries]}
    return {
        "algebra": algebra_to_dict(moved),
        "family": family_to_dict(random_family(4, 2, 1)),
        "witness": witness_to_dict(witness),
        "report": report_to_dict(verify_degeneration(pminus, wrong)),
        "recognition": recognition_to_dict(RecognitionResult(
            CanonicalForm(Tag.NU, 2, F(-3)), ((F(1, 2), F(0)), (F(-7), F(1))),
            "recognized over Q")),
        "recognition of a moved algebra": recognition_to_dict(recognize(moved)),
        "invariants": invariants_to_dict(invariant_vector(lambda2)),
        "poles": poles,
    }


CLI_DOCUMENTS = cli_documents()


class TestDumps:
    @given(json_documents)
    @settings(max_examples=300)
    def test_writes_the_bytes_of_the_stdlib_encoder(self, doc):
        assert dumps(doc) == stdlib_dumps(doc)

    @pytest.mark.parametrize("kind", CLI_DOCUMENTS)
    def test_every_document_the_cli_writes(self, kind):
        doc = CLI_DOCUMENTS[kind]
        assert dumps(doc) == stdlib_dumps(doc)

    def test_the_documents_carry_what_they_are_named_for(self):
        docs = CLI_DOCUMENTS
        assert docs["report"]["diagnostics"] and docs["report"]["pass"] is False
        assert {"iso", "reason", "alpha"} <= docs["recognition"].keys()
        assert docs["recognition of a moved algebra"]["iso"]
        assert docs["poles"]["poles"] and docs["witness"]["trace"]

    @pytest.mark.parametrize("doc", [1.5, {"a": 0.0}, [F(1, 2)], {"a": (1, 2)}, {"a": {1}},
                                     {1: "x"}, {None: 1}, b"x"])
    def test_another_type_raises_type_error(self, doc):
        with pytest.raises(TypeError):
            dumps(doc)


class TestAlgebraValues:
    """``dumps`` writes an Algebra inside a document from its stored form, as
    the stdlib encoder writes its ``algebra_to_dict`` form."""

    @staticmethod
    def fixture_algebras() -> dict:
        """Every algebra document under fixtures/, read, by its path."""
        out = {}
        for path in sorted(FIXTURES.rglob("*.json")):
            doc = load_path(str(path))
            if isinstance(doc, dict) and "products" in doc:
                out[str(path.relative_to(FIXTURES))] = algebra_from_dict(doc)
        return out

    def test_every_fixture_algebra(self):
        algebras = self.fixture_algebras()
        assert len(algebras) == 146  # canonical, witnesses, at, limits and recognize
        for a in algebras.values():
            assert dumps(a) == stdlib_dumps(algebra_to_dict(a))

    @given(st.integers(1, 8), st.integers(0, 2**31), st.sampled_from([0.0, 0.2, 0.5, 1.0]),
           st.booleans())
    @settings(max_examples=200, derandomize=True)
    def test_random_algebras_top_level_and_nested(self, n, seed, density, moved):
        a = random_algebra(n, density, seed)
        if moved:  # denominators other than 1
            a = apply_basis_change(a, random_invertible_matrix(n, random.Random(seed), bound=3))
        plain = algebra_to_dict(a)
        assert dumps(a) == stdlib_dumps(plain)
        doc = {"limit": a, "list": [a, {"z": [a]}], "pass": True}
        assert dumps(doc) == stdlib_dumps({"limit": plain, "list": [plain, {"z": [plain]}],
                                           "pass": True})

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_the_zero_algebra(self, n):
        zero = Algebra.from_entries(n, {})
        assert dumps(zero) == stdlib_dumps({"dim": n, "products": []})
        assert dumps([zero]) == stdlib_dumps([{"dim": n, "products": []}])

    def test_the_verify_report(self):
        pminus, lambda2 = (construct(CanonicalForm(tag, 3)) for tag in (Tag.P_MINUS, Tag.LAMBDA2))
        reports = [
            verify_degeneration(pminus, Witness(ParamMatrix.identity(3),
                                                CanonicalForm(Tag.LAMBDA2, 3))),
            verify_degeneration(pminus, Witness(ParamMatrix.identity(3),
                                                CanonicalForm(Tag.P_MINUS, 3))),
            verify_degeneration(lambda2, Witness(ParamMatrix.diagonal_powers([0, -1, 0]),
                                                 CanonicalForm(Tag.LAMBDA2, 3))),
        ]
        assert [r.limit is None for r in reports] == [False, False, True]
        for r in reports:
            assert dumps(report_document(r)) == stdlib_dumps(report_to_dict(r))

    def test_an_output_past_the_digit_bound_names_the_algebra(self):
        a = Algebra.from_entries(2, {(1, 0, 0): F(-7, 10**MAX_COEFF_DIGITS * 10)})
        for doc in (a, {"limit": a}, [a]):
            with pytest.raises(CoefficientTooLarge, match=f"^cannot write the algebra: integer "
                               f"of {MAX_COEFF_DIGITS + 2} digits exceeds the bound"):
                dumps(doc)


# -- families --------------------------------------------------------------------


def laurent_route(d: dict) -> ParamMatrix:
    """The family of a valid document as it was read: each entry through
    parse_laurent's Fractions, then cleared by ParamMatrix.from_laurent."""
    n = d["dim"]
    grid = [[{} for _ in range(n)] for _ in range(n)]
    for item in d["entries"]:
        grid[item["row"] - 1][item["col"] - 1] = parse_laurent(item["poly"])
    return ParamMatrix.from_laurent(grid)


def stored(g: ParamMatrix):
    """The stored form with each entry's key order."""
    s, L, P = g._form
    return s, L, P, [[list(p) for p in row] for row in P]


@st.composite
def written_terms(draw):
    """One term p/q*t^e, unreduced, zero or padded."""
    p = draw(st.integers(0, 12) | st.integers(0, 10**25))
    q = draw(st.sampled_from([1, 1, 2, 3, 4, 6, 12, 10**18]))
    e = draw(st.integers(-4, 4))
    return f"{p}/{q}*t^{e}" if q != 1 or draw(st.booleans()) else f"{p}*t^{e}"


@st.composite
def family_documents(draw):
    """A family with entries whose exponents repeat and whose sums cancel."""
    n = draw(st.integers(1, 4))
    cells = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), unique=True,
                          max_size=n * n))
    entries = []
    for i, j in cells:
        terms = draw(st.lists(written_terms(), min_size=1, max_size=5))
        if draw(st.booleans()):  # a term and its negative
            terms.append(draw(st.sampled_from(terms)))
            text = " + ".join(terms[:-1]) + " - " + terms[-1]
        else:
            text = " ".join(draw(st.sampled_from(["+", "-"])) + " " + t for t in terms)
            text = text.removeprefix("+ ")
        entries.append({"row": i, "col": j, "poly": text})
    return {"dim": n, "entries": entries}


class TestFamilyReader:
    """family_from_dict clears the terms in ints straight into the stored form
    that the Fraction route (parse_laurent, then from_laurent) gives."""

    @given(family_documents())
    @settings(max_examples=300, derandomize=True)
    def test_written_terms_clear_as_their_fractions(self, doc):
        assert stored(family_from_dict(doc)) == stored(laurent_route(doc))

    def test_random_and_fixture_families(self):
        docs = [load_path(str(path)) for path in sorted(FIXTURES.glob("families/*.json"))]
        docs += [load_path(str(path))["family"]
                 for path in sorted(FIXTURES.glob("witnesses/*.witness.json"))]
        docs += [family_to_dict(random_family(n, pole_bound, seed))
                 for n in range(1, 7) for pole_bound in range(4) for seed in range(6)]
        assert len(docs) == 40 + 36 + 144
        for doc in docs:
            assert stored(family_from_dict(doc)) == stored(laurent_route(doc))

"""The four benchmark workloads: inputs from a seed, the timed call, the check.

Each workload is a list of ``Item``s built during set-up from ``--seed`` alone,
interleaved round-robin across its strata so that any prefix of the timed
loop sees the same mix.  The lists are long enough that a run seldom reaches
the end and repeats an input.

Where an input costs more to generate than to build as an algebra, most
inputs are copies of fewer generated ones in a basis changed by a random
signed permutation: isomorphic, of the same cost, but equal to no other
input, so a cache of earlier results gains nothing.  Within a stratum all
generated inputs come first, then the first copy of each, and so on.  Copies
replicate their input's cost, so the tail of a run's latencies rests on the
generated inputs alone: ``classify`` and the classify commands of ``cli``
have no copies, and ``limit`` has one copy of each family.

``op`` is the only code timed; ``canon`` turns its output into JSON for the
results digest; ``check`` is the benchmark's own judgement of that output.
Outcomes the library documents (``NoLimit``, CLI exit 1 and 3) come back from
``op`` as values; any other exception is a failed operation.  Set-up calls
``tick()`` every few inputs, so that the speed gauge can be read while the
inputs are built.

The library is reached through module attributes at call time (``M.transport
.transport_limit``) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

MODULES = (
    "poly", "parser", "linalg", "algebra", "canonical", "transport",
    "classify", "recognize", "jsonio", "cli", "errors",
)


def load_modules() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"levelone.{m}") for m in MODULES})


@dataclass(frozen=True)
class Item:
    label: str  # stratum, e.g. "n4.pb2.nu"; part of the digest
    args: tuple


def interleave(groups: list) -> list:
    """Round-robin merge of lists of unequal length."""
    out = []
    for k in range(max(len(g) for g in groups)):
        out += [g[k] for g in groups if k < len(g)]
    return out


def signed_permutation(rng: random.Random, n: int) -> tuple:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(n)]


def table_entries(a) -> list:
    """The nonzero entries of ``a`` as ((k, i, j), value), in index order."""
    return [((k, i, j), v) for k, plane in enumerate(a.constants)
            for i, row in enumerate(plane) for j, v in enumerate(row) if v]


def permuted_entries(entries: list, perm, signs) -> list:
    """``table_entries`` of the algebra in the basis e'_i = signs[i] * e_perm[i]."""
    inv = {p: q for q, p in enumerate(perm)}
    moved = []
    for (k, i, j), v in entries:
        k2, i2, j2 = inv[k], inv[i], inv[j]
        moved.append(((k2, i2, j2), v if signs[i2] * signs[j2] * signs[k2] > 0 else -v))
    moved.sort(key=lambda e: e[0])
    return moved


def entries_key(entries: list) -> tuple:
    """The entries as integers: cheaper to hash than an ``Algebra``."""
    return tuple((kij, v.numerator, v.denominator) for kij, v in entries)


def algebra_of(M, n: int, entries: list):
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (k, i, j), v in entries:
        table[k][i][j] = v
    return M.algebra.Algebra(n, tuple(tuple(tuple(row) for row in plane) for plane in table))


def permute_family(M, g, perm, signs):
    """``g`` times a signed permutation matrix: column j becomes
    signs[j] times column perm[j]; still invertible over Q(t)."""
    n = g.dim
    rows = tuple(tuple(row[perm[j]] if signs[j] > 0 else -row[perm[j]] for j in range(n))
                 for row in g.entries)
    return M.transport.ParamMatrix(n, rows)


def algebra_copies(M, rng: random.Random, bases: list, copies: int, tick) -> list:
    """(index in ``bases``, algebra) pairs: first each distinct base, then in
    each of ``copies - 1`` rounds a signed-permuted copy of each of them that
    equals no algebra so far (a base with too many automorphisms to find one,
    such as the abelian algebra, is left out of that round)."""
    seen = set()
    kept = []
    for i, a in enumerate(bases):
        entries = table_entries(a)
        key = (a.dim, entries_key(entries))
        if key not in seen:
            seen.add(key)
            kept.append((i, a, entries))
    pairs = [(i, a) for i, a, _ in kept]
    for _ in range(copies - 1):
        for i, a, entries in kept:
            tick()
            for _attempt in range(8):
                moved = permuted_entries(entries, *signed_permutation(rng, a.dim))
                key = (a.dim, entries_key(moved))
                if key not in seen:
                    seen.add(key)
                    pairs.append((i, algebra_of(M, a.dim, moved)))
                    break
    return pairs


def family_copies(M, rng: random.Random, g, copies: int) -> list:
    """``g`` and ``copies - 1`` distinct right signed-permutation multiples of it."""
    out, used = [g], {(tuple(range(g.dim)), (1,) * g.dim)}
    while len(out) < copies:
        perm, signs = signed_permutation(rng, g.dim)
        if (tuple(perm), tuple(signs)) not in used:
            used.add((tuple(perm), tuple(signs)))
            out.append(permute_family(M, g, perm, signs))
    return out


# -- canonical JSON of outputs (independent of levelone.jsonio) -------------


def canon_rational(q) -> str:
    return str(Fraction(q))


def canon_algebra(a) -> list:
    n = a.dim
    c = a.constants
    return [n, [[k, i, j, canon_rational(c[k][i][j])]
                for k in range(n) for i in range(n) for j in range(n) if c[k][i][j]]]


def canon_poly(p: dict) -> list:
    return [[e, canon_rational(p[e])] for e in sorted(p)]


def canon_family(g) -> list:
    return [[[canon_poly(e.num), canon_poly(e.den)] for e in row] for row in g.entries]


def canon_form(form) -> list | None:
    if form is None:
        return None
    alpha = canon_rational(form.alpha) if form.alpha is not None else None
    return [form.tag.value, form.dim, alpha]


def canon_matrix(m) -> list | None:
    return None if m is None else [[canon_rational(v) for v in row] for row in m]


def canon_recognition(res) -> dict:
    return {"form": canon_form(res.form), "iso": canon_matrix(res.iso), "reason": res.reason}


def iso_problem(M, a, res) -> str | None:
    """A returned iso must carry ``a`` onto the recognized canonical table."""
    if res.iso is None:
        return None
    moved = M.algebra.apply_basis_change(a, [list(r) for r in res.iso])
    if moved != M.canonical.construct(res.form):
        return f"iso does not carry the input onto {res.form.describe()}"
    return None


# -- classify ----------------------------------------------------------------


class ClassifyWorkload:
    """classify(a) on random non-abelian algebras, n = 2..8, three densities."""

    DIMS = range(2, 9)
    DENSITIES = (0.15, 0.4, 0.8)
    PER_STRATUM = 96
    DIGEST_ITEMS = 84

    def __init__(self, M, seed: int, root: Path, tick):
        self.M = M
        rng = random.Random(f"classify:{seed}")
        groups = []
        for n in self.DIMS:
            for d in self.DENSITIES:
                group = []
                for _ in range(self.PER_STRATUM):
                    tick()
                    s = rng.randrange(2**31)
                    a = M.algebra.random_algebra(n, d, s, nonabelian=True)
                    group.append(Item(f"n{n}.d{d}", (a, s)))
                groups.append(group)
        self.items = interleave(groups)

    def op(self, item):
        a, s = item.args
        return self.M.classify.classify(a, self.M.classify.ClassifierConfig(seed=s))

    def canon(self, item, w):
        return {"family": canon_family(w.family), "target": canon_form(w.target),
                "trace": list(w.branch_trace)}

    def check(self, item, w):
        M = self.M
        a, _ = item.args
        Tag = M.canonical.Tag
        allowed = {Tag.P_MINUS, Tag.LAMBDA2, Tag.NU}
        if a.dim >= 3:
            allowed.add(Tag.N3_MINUS)
        if w.target.dim != a.dim or w.target.tag not in allowed:
            return f"target {w.target.describe()} not allowed for n = {a.dim}"
        if M.transport.transport_limit(a, w.family) != M.canonical.construct(w.target):
            return "witness family does not carry the input onto its target"
        return None


# -- limit -------------------------------------------------------------------


def monomials(g) -> int:
    """Number of Laurent monomials in a family; its cost grows with it."""
    return sum(len(e.num) for row in g.entries for e in row if e)


def sized_families(M, rng: random.Random, n: int, pole_bound: int, count: int, oversample: int,
                   tick) -> list:
    """``count`` families from ``random_family`` with the same mix of sizes
    for every seed: ``count * oversample`` are drawn, sorted by monomial count,
    every ``oversample``-th is kept, and the kept ones are shuffled."""
    drawn = []
    for _ in range(count * oversample):
        tick()
        drawn.append(M.transport.random_family(n, pole_bound, rng.randrange(2**31)))
    drawn.sort(key=monomials)
    kept = drawn[oversample // 2::oversample]
    rng.shuffle(kept)
    return kept


class LimitWorkload:
    """transport_limit of pminus_n / nu_n(2/3) by random Laurent families,
    then recognize of the limit (acceptance criterion 4)."""

    DIMS = (3, 4)
    POLE_BOUNDS = (0, 1, 2)
    PER_STRATUM = 150
    OVERSAMPLE = 2
    COPIES = 2
    DIGEST_ITEMS = 300
    ALPHA = Fraction(2, 3)

    def __init__(self, M, seed: int, root: Path, tick):
        self.M = M
        C = M.canonical
        self.inputs = {}
        for n in self.DIMS:
            self.inputs[("pminus", n)] = (C.construct(C.CanonicalForm(C.Tag.P_MINUS, n)), C.Tag.P_MINUS)
            self.inputs[("nu", n)] = (C.construct(C.CanonicalForm(C.Tag.NU, n, self.ALPHA)), C.Tag.NU)
        rng = random.Random(f"limit:{seed}")
        groups = []
        for n in self.DIMS:
            for pb in self.POLE_BOUNDS:
                bases = sized_families(M, rng, n, pb, self.PER_STRATUM, self.OVERSAMPLE, tick)
                copies = [family_copies(M, rng, g, self.COPIES) for g in bases]
                group = []
                for c in range(self.COPIES):
                    for j, gs in enumerate(copies):
                        target = ("pminus", "nu")[j % 2]
                        group.append(Item(f"n{n}.pb{pb}.{target}", ((target, n), gs[c])))
                groups.append(group)
        self.items = interleave(groups)

    def op(self, item):
        key, g = item.args
        a, _ = self.inputs[key]
        try:
            lim = self.M.transport.transport_limit(a, g)
        except self.M.errors.NoLimit as exc:
            return ("nolimit", exc.entries)
        return ("limit", lim, self.M.recognize.recognize(lim))

    def canon(self, item, out):
        if out[0] == "nolimit":
            return {"poles": [list(e) for e in out[1]]}
        _, lim, res = out
        return {"limit": canon_algebra(lim), **canon_recognition(res)}

    def check(self, item, out):
        if out[0] == "nolimit":
            return None if out[1] else "NoLimit without pole entries"
        _, lim, res = out
        key, _ = item.args
        _, tag = self.inputs[key]
        Tag = self.M.canonical.Tag
        if res.form is None:
            return f"limit not recognized: {res.reason}"
        if res.form.dim != key[1] or res.form.tag not in (tag, Tag.ABELIAN):
            return f"limit recognized as {res.form.describe()}, outside the orbit closure"
        if res.form.tag is Tag.NU and res.form.alpha != self.ALPHA:
            return f"nu limit lost its scalar: {res.form.alpha}"
        return iso_problem(self.M, lim, res)


# -- recognize ---------------------------------------------------------------


def canonical_forms(C, dims, alphas) -> list:
    """Every canonical form of criterion 6 in the given dimensions."""
    forms = []
    for n in dims:
        for tag in (C.Tag.ABELIAN, C.Tag.P_MINUS, C.Tag.P_PLUS, C.Tag.LAMBDA2):
            forms.append(C.CanonicalForm(tag, n))
        if n >= 3:
            forms.append(C.CanonicalForm(C.Tag.N3_MINUS, n))
            forms.append(C.CanonicalForm(C.Tag.N3_PLUS, n))
        forms += [C.CanonicalForm(C.Tag.NU, n, alpha) for alpha in alphas]
    return forms


NU_ALPHAS = tuple(Fraction(x) for x in ("0", "1", "1/2", "2/3", "-3", "7"))


class RecognizeWorkload:
    """recognize(a) on every canonical form, n = 2..8, moved by a random
    rational basis change (acceptance criterion 6)."""

    DIMS = range(2, 9)
    PER_FORM = 4
    COPIES = 5
    DIGEST_ITEMS = 164

    def __init__(self, M, seed: int, root: Path, tick):
        self.M = M
        rng = random.Random(f"recognize:{seed}")
        groups = []
        for form in canonical_forms(M.canonical, self.DIMS, NU_ALPHAS):
            tick()
            base = M.canonical.construct(form)
            moved = [M.algebra.apply_basis_change(
                         base, M.algebra.random_invertible_matrix(form.dim, rng, bound=2))
                     for _ in range(self.PER_FORM)]
            groups.append([Item(f"{form.tag.value}.n{form.dim}", (a, form))
                           for _, a in algebra_copies(M, rng, moved, self.COPIES, tick)])
        self.items = interleave(groups)

    def op(self, item):
        a, _ = item.args
        return self.M.recognize.recognize(a)

    def canon(self, item, res):
        return canon_recognition(res)

    def check(self, item, res):
        a, form = item.args
        if res.form != form:
            got = res.form.describe() if res.form else res.reason
            return f"recognized {got}, generated {form.describe()}"
        return iso_problem(self.M, a, res)


# -- cli ---------------------------------------------------------------------


class CliWorkload:
    """In-process ``levelone.cli.main(argv)`` over five commands."""

    CLASSIFY_DIMS = range(2, 8)
    TRANSPORT_CASES = ((3, 1), (3, 2), (4, 1))  # (n, pole bound) of random families
    RECOGNIZE_DIMS = range(3, 9)
    RECOGNIZE_TAGS = ("pminus", "lambda2", "n3minus", "nu")
    PER_KIND = 72  # a multiple of 6 dimensions x 4 recognize tags and of 3 transport cases
    COPIES = 5
    OVERSAMPLE = 4
    DIGEST_ITEMS = 418
    AT = "1/2"

    def __init__(self, M, seed: int, root: Path, tick):
        self.M = M
        self.tick = tick
        self.fixtures = root / "fixtures"
        if not self.fixtures.is_dir():
            raise FileNotFoundError(f"bundled fixtures not found under {root}")
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=Path(__file__).resolve().parent))
        try:
            self.items = self._build(random.Random(f"cli:{seed}"))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _write(self, name: str, doc: dict) -> str:
        self.tick()
        path = self.tmp / name
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
        return str(path)

    def _canonical(self, name: str) -> str:
        return str(self.fixtures / "canonical" / f"{name}.algebra.json")

    def _family(self, name: str) -> str:
        return str(self.fixtures / "families" / f"{name}.family.json")

    def _build(self, rng: random.Random) -> list:
        M, C = self.M, self.M.canonical
        j = M.jsonio
        classify_items = []
        for k in range(self.PER_KIND * self.COPIES):
            n = self.CLASSIFY_DIMS[k % len(self.CLASSIFY_DIMS)]
            s = rng.randrange(2**31)
            a = M.algebra.random_algebra(n, 0.4, s, nonabelian=True)
            src = self._write(f"classify{k}.algebra.json", j.algebra_to_dict(a))
            out = str(self.tmp / f"classify{k}.witness.json")
            argv = ["classify", "--algebra", src, "--seed", str(s), "--out", out]
            classify_items.append(Item(f"classify.n{n}", (argv, {"out": out, "algebra": src})))

        verify_items = []
        for n in range(2, 9):
            cases = [("pplus_to_lambda2", f"pplus_n{n}", f"lambda2:{n}"),
                     ("fix_pminus", f"pminus_n{n}", f"pminus:{n}"),
                     ("fix_nu", f"nu_n{n}_alpha_2_3", f"nu:{n}:2/3"),
                     ("fix_lambda2", f"lambda2_n{n}", f"lambda2:{n}")]
            if n >= 3:
                cases.append(("fix_n3minus", f"n3minus_n{n}", f"n3minus:{n}"))
            for fam, alg, spec in cases:
                argv = ["verify", "--algebra", self._canonical(alg),
                        "--family", self._family(f"{fam}_n{n}"),
                        "--target-canonical", spec, "--json"]
                verify_items.append(Item(f"verify.{fam}.n{n}", (argv, {"spec": spec})))

        # --limit and --at get different copies of each family
        limit_items, at_items = [], []
        cases = self.TRANSPORT_CASES
        per_case = self.PER_KIND // len(cases)
        families = {case: [family_copies(M, rng, g, 2 * self.COPIES)
                           for g in sized_families(M, rng, *case, per_case, self.OVERSAMPLE, self.tick)]
                    for case in cases}
        for c in range(self.COPIES):
            for k in range(self.PER_KIND):
                n, pb = cases[k % len(cases)]
                alg = self._canonical((f"pminus_n{n}", f"nu_n{n}_alpha_2_3")[k // len(cases) % 2])
                copies = families[(n, pb)][k // len(cases)]
                for items, flags, g in ((limit_items, ["--limit", "--json"], copies[c]),
                                        (at_items, ["--at", self.AT], copies[self.COPIES + c])):
                    fam = self._write(f"transport{len(items)}{flags[0]}.family.json", j.family_to_dict(g))
                    argv = ["transport", "--algebra", alg, "--family", fam] + flags
                    items.append(Item(f"{flags[0][2:]}.n{n}.pb{pb}", (argv, {"algebra": alg, "family": fam})))

        forms, moved = [], []
        for k in range(self.PER_KIND):
            n = self.RECOGNIZE_DIMS[k % len(self.RECOGNIZE_DIMS)]
            tag = C.Tag(self.RECOGNIZE_TAGS[(k // len(self.RECOGNIZE_DIMS)) % len(self.RECOGNIZE_TAGS)])
            forms.append(C.CanonicalForm(tag, n, Fraction(2, 3) if tag is C.Tag.NU else None))
            g = M.algebra.random_invertible_matrix(n, rng, bound=2)
            moved.append(M.algebra.apply_basis_change(C.construct(forms[-1]), g))
        recognize_items = []
        for k, (i, a) in enumerate(algebra_copies(M, rng, moved, self.COPIES, self.tick)):
            src = self._write(f"recognize{k}.algebra.json", j.algebra_to_dict(a))
            argv = ["recognize", "--algebra", src, "--json"]
            recognize_items.append(Item(f"recognize.{forms[i].tag.value}.n{forms[i].dim}",
                                        (argv, {"form": forms[i]})))

        return interleave([classify_items, verify_items, limit_items, at_items, recognize_items])

    def op(self, item):
        argv, info = item.args
        out = info.get("out")
        if out:
            Path(out).unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.M.cli.main(argv)
        written = Path(out).read_text(encoding="utf-8") if out and Path(out).exists() else None
        return {"code": code, "stdout": stdout.getvalue(), "out": written}

    def canon(self, item, result):
        return result

    def check(self, item, result):
        M = self.M
        j = M.jsonio
        command = item.args[0][0]
        _, info = item.args
        code = result["code"]
        try:
            if command == "classify":
                if code != 0 or result["out"] is None:
                    return f"classify exited {code}"
                a = j.algebra_from_dict(j.load_path(info["algebra"]))
                w = j.witness_from_dict(json.loads(result["out"]))
                if M.transport.transport_limit(a, w.family) != M.canonical.construct(w.target):
                    return "written witness does not verify"
                return None
            doc = json.loads(result["stdout"]) if result["stdout"] else None
            if command == "verify":
                target = M.canonical.construct(M.cli.parse_canonical_spec(info["spec"]))
                if code != 0 or not doc["pass"] or doc["limit"] != j.algebra_to_dict(target):
                    return f"verify exited {code}: {result['stdout'][:200]}"
                return None
            if command == "recognize":
                want = j.canonical_form_to_dict(info["form"])
                if code != 0 or doc.get("form") != want:
                    return f"recognize exited {code}: {result['stdout'][:200]}"
                return None
            a = j.algebra_from_dict(j.load_path(info["algebra"]))
            g = j.family_from_dict(j.load_path(info["family"]))
            if "--limit" in item.args[0]:
                try:
                    lim = M.transport.transport_limit(a, g)
                except M.errors.NoLimit as exc:
                    want = (1, {"limit": None, "poles": [list(e) for e in exc.entries]})
                else:
                    want = (0, j.algebra_to_dict(lim))
            else:
                try:
                    spec = M.transport.transport(a, g).eval_at(Fraction(self.AT))
                except M.errors.PoleAtPoint:
                    want = (3, None)
                else:
                    want = (0, j.algebra_to_dict(spec))
            if (code, doc) != want:
                return f"{command} exited {code}, expected {want[0]}"
            return None
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"{command} output did not parse: {exc!r}"


WORKLOADS = {
    "classify": ClassifyWorkload,
    "limit": LimitWorkload,
    "recognize": RecognizeWorkload,
    "cli": CliWorkload,
}

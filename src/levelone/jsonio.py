"""JSON interchange formats (all indices 1-based, rationals as "int[/uint]").

Algebra:   {"dim": n, "products": [{"left": i, "right": j, "result": k,
            "coeff": "<rational>"}, ...]}       omitted triples are zero
Family:    {"dim": n, "entries": [{"row": i, "col": j,
            "poly": "<laurent string>"}, ...]}  omitted entries are zero,
            column j holds the image of basis vector j
Witness:   {"family": <family>, "target": {"tag": ..., "dim": ...,
            "alpha"?: ...}, "trace": [...]}
Report:    {"pass": bool, "limit": <algebra> | null, "diagnostics": [...]}

Serialization is deterministic (sorted keys and entries), so identical
values produce byte-identical files.  ``dumps`` writes the bytes
``json.dumps(obj, indent=2, sort_keys=True)`` would, plus a newline,
without the pure-Python encoder that ``indent`` keeps ``json`` on: one
recursive writer, with strings escaped by ``json``'s own C escaper.

Algebras are read and written in the integer stored form (cden, slices) of
``Algebra``: each "p[/q]" literal is read as two ints, and each coefficient
is written as C/cden reduced by one gcd, with no Fraction in between.  A
document handed to ``dumps`` may hold an Algebra itself, which is written
from that form with no dict in between.  An integer of an output that has
more than MAX_COEFF_DIGITS digits raises CoefficientTooLarge naming the
output, as one of the input does.  A family is read straight into the
cleared integer form (s, L, P) of ``ParamMatrix``: each entry is read by
``parser.laurent_pairs`` as its terms summed in reduced int pairs.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .algebra import Algebra, InvariantVector, _stored
from .canonical import CanonicalForm, Tag
from .errors import CoefficientTooLarge
from .parser import laurent_pairs, print_terms, rational_text
from .poly import MAX_COEFF_DIGITS, MAX_DIM
from .recognize import RecognitionResult
from .transport import ParamMatrix, Report, Witness, _clear_pairs, _cleared

# ASCII digits only, to the end of the text: str.isdigit and int() also take
# other Unicode digits, and $ a trailing newline
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?\Z")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
_DECIMAL_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)\Z")
# a JSON string, or a run of digits outside every string
_STRING_OR_DIGITS = re.compile(r'"(?:[^"\\]|\\.)*"|[0-9]+')


def _rational_pair(text: str) -> tuple[int, int]:
    """(p, q) in lowest terms with q > 0 for an "int[/uint]" literal."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"bad rational literal: {shown(text)} (expected int[/uint])")
    num, _, den = text.partition("/")
    if len(text) > MAX_COEFF_DIGITS:  # int() may refuse it
        digits = max(len(num.lstrip("-")), len(den))
        if digits > MAX_COEFF_DIGITS:
            raise CoefficientTooLarge(digits, MAX_COEFF_DIGITS)
    if not den:
        return int(num), 1
    p, q = int(num), int(den)
    g = math.gcd(p, q)
    return p // g, q // g


def parse_rational(text: str) -> Fraction:
    return Fraction(*_rational_pair(text))


def parse_integer(text: str) -> int:
    """The integer of a "[+-]digits" literal, with a literal of more than
    MAX_COEFF_DIGITS digits refused as CoefficientTooLarge before int()
    sees it."""
    if not _INTEGER_RE.match(text):
        raise ValueError(f"bad integer literal: {shown(text)} (expected [+-]digits)")
    digits = len(text.lstrip("+-"))
    if digits > MAX_COEFF_DIGITS:
        raise CoefficientTooLarge(digits, MAX_COEFF_DIGITS)
    return int(text)


def parse_decimal(text: str) -> float:
    """The float of a "[+-]digits[.digits]" literal (".5" and "5." too);
    float() would also take other Unicode digits, exponents, "inf", "nan",
    underscores and surrounding blanks."""
    if not _DECIMAL_RE.match(text):
        raise ValueError(f"bad decimal literal: {shown(text)} (expected [+-]digits[.digits])")
    return float(text)


def shown(value) -> str:
    """repr(value) for an error message, cut short past 80 characters so
    that a huge input literal is not echoed back whole."""
    text = repr(value)
    if len(text) <= 80:
        return text
    if type(value) is int:
        return f"<integer of {len(text.lstrip('-'))} digits>"
    return f"{text[:60]}... <{len(text)} characters>"


def format_rational(q: Fraction, output: str = "rational") -> str:
    """str(q); an integer past MAX_COEFF_DIGITS digits raises
    CoefficientTooLarge naming ``output``."""
    return rational_text(q.numerator, q.denominator, output)


def check_dimension(n) -> int:
    """n itself when it is an int in 1..MAX_DIM; ValueError otherwise."""
    if type(n) is not int or n < 1:  # bool is not a dimension
        raise ValueError(f"bad dimension: {shown(n)}")
    if n > MAX_DIM:
        raise ValueError(f"dimension {shown(n)} exceeds the cap of {MAX_DIM}")
    return n


def _require_object(d, what: str) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(d).__name__}")


def _entry_list(d: dict, key: str) -> list:
    """d[key] (default []) when it is a list of objects; ValueError otherwise."""
    items = d.get(key, [])
    if not isinstance(items, list) or not all(isinstance(it, dict) for it in items):
        raise ValueError(f"'{key}' must be a list of objects")
    return items


# -- algebra ---------------------------------------------------------------


def algebra_to_dict(a: Algebra) -> dict:
    return {"dim": a.dim, "products": [{"left": i, "right": j, "result": k, "coeff": coeff}
                                       for i, j, k, coeff in _products(a)]}


def _products(a: Algebra):
    """(left, right, result, coeff literal) of each nonzero product, 1-based
    and in sorted (left, right) order: C/cden reduced by one gcd."""
    cden, slices = a.integer_slices()
    for (i, j), hits in sorted(slices.items()):
        for k, c in hits:
            g = math.gcd(c, cden)
            yield i + 1, j + 1, k + 1, rational_text(c // g, cden // g, "algebra")


def algebra_from_dict(d: dict) -> Algebra:
    if not isinstance(d, dict) or "dim" not in d:
        raise ValueError("algebra JSON needs a 'dim' field")
    n = check_dimension(d["dim"])
    pairs: dict = {}  # every triple read, zero coefficients too
    for item in _entry_list(d, "products"):
        try:
            i, j, k, text = item["left"], item["right"], item["result"], item["coeff"]
        except KeyError as exc:
            raise ValueError(f"product entry missing a field: {shown(item)}") from exc
        if not (type(i) is int and type(j) is int and type(k) is int
                and 0 < i <= n and 0 < j <= n and 0 < k <= n):
            idx = next(x for x in (i, j, k) if type(x) is not int or not 1 <= x <= n)
            raise ValueError(f"index {shown(idx)} out of range 1..{n}")
        if (i, j, k) in pairs:
            raise ValueError(f"duplicate product triple (left={i}, right={j}, result={k})")
        pairs[(i, j, k)] = _rational_pair(text)
    nonzero = sorted(item for item in pairs.items() if item[1][0])
    cden = math.lcm(*(q for _, (_, q) in nonzero))
    slices: dict = {}
    for (i, j, k), (p, q) in nonzero:
        slices.setdefault((i - 1, j - 1), []).append((k - 1, p * (cden // q)))
    return _stored(object.__new__(Algebra), n, cden,
                   {ij: tuple(hits) for ij, hits in slices.items()})


# -- families and witnesses -------------------------------------------------


def family_to_dict(pm: ParamMatrix, output: str = "family") -> dict:
    """Each nonzero entry P[i][j] / (L*t^s) of the stored form, written with
    its coefficients c / L reduced by one gcd."""
    s, L, P = _cleared(pm)
    entries = []
    for i, row in enumerate(P):
        for j, p in enumerate(row):
            if p:
                terms = []
                for e in sorted(p, reverse=True):
                    g = math.gcd(p[e], L)
                    terms.append((e - s, p[e] // g, L // g))
                entries.append({"row": i + 1, "col": j + 1, "poly": print_terms(terms, output)})
    return {"dim": pm.dim, "entries": entries}


def family_from_dict(d: dict) -> ParamMatrix:
    """The family of a document, read straight into the canonical (s, L, P)
    of ``ParamMatrix.from_laurent``: each entry's terms summed as reduced
    int pairs, with no Fraction in between, and cleared by
    ``transport._clear_pairs``, as ``random_family`` clears its draws."""
    if not isinstance(d, dict) or "dim" not in d:
        raise ValueError("family JSON needs a 'dim' field")
    n = check_dimension(d["dim"])
    grid = [[None] * n for _ in range(n)]
    for item in _entry_list(d, "entries"):
        try:
            i, j, text = item["row"], item["col"], item["poly"]
        except KeyError as exc:
            raise ValueError(f"family entry missing a field: {shown(item)}") from exc
        if not isinstance(text, str):
            raise ValueError(f"family entry poly must be a string: {shown(text)}")
        for idx in (i, j):
            if type(idx) is not int or not 1 <= idx <= n:
                raise ValueError(f"index {shown(idx)} out of range 1..{n}")
        if grid[i - 1][j - 1] is not None:
            raise ValueError(f"duplicate family entry (row={i}, col={j})")
        grid[i - 1][j - 1] = laurent_pairs(text)
    return ParamMatrix.from_cleared(*_clear_pairs(grid))


def canonical_form_to_dict(form: CanonicalForm, output: str = "canonical form") -> dict:
    out = {"tag": form.tag.value, "dim": form.dim}
    if form.alpha is not None:
        out["alpha"] = format_rational(form.alpha, output)
    return out


def canonical_form_from_dict(d: dict) -> CanonicalForm:
    _require_object(d, "canonical form")
    try:
        tag = Tag(d["tag"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad canonical tag in {shown(d)}") from exc
    dim = d.get("dim")
    if type(dim) is not int:
        raise ValueError("canonical form needs an integer 'dim'")
    alpha = parse_rational(d["alpha"]) if "alpha" in d else None
    return CanonicalForm(tag, dim, alpha)


def witness_to_dict(w: Witness) -> dict:
    return {
        "family": family_to_dict(w.family, "witness family"),
        "target": canonical_form_to_dict(w.target, "witness target"),
        "trace": list(w.branch_trace),
    }


def witness_from_dict(d: dict) -> Witness:
    _require_object(d, "witness")
    try:
        family = family_from_dict(d["family"])
        target = canonical_form_from_dict(d["target"])
    except KeyError as exc:
        raise ValueError(f"witness JSON missing field {exc}") from exc
    trace = d.get("trace", [])
    if not isinstance(trace, list):
        raise ValueError("witness trace must be a list")
    return Witness(family, target, tuple(trace))


def report_document(r: Report) -> dict:
    """The report as a document for ``dumps``, its limit the Algebra itself."""
    return {"pass": r.passed, "limit": r.limit, "diagnostics": list(r.diagnostics)}


def report_to_dict(r: Report) -> dict:
    doc = report_document(r)
    if r.limit is not None:
        doc["limit"] = algebra_to_dict(r.limit)
    return doc


def recognition_to_dict(res: RecognitionResult) -> dict:
    out: dict = {"recognized": res.recognized}
    if res.form is not None:
        out["form"] = canonical_form_to_dict(res.form, "recognized form")
        if res.form.alpha is not None:
            out["alpha"] = out["form"]["alpha"]
    if res.iso is not None:
        out["iso"] = [[format_rational(v, "iso") for v in row] for row in res.iso]
    if res.reason is not None:
        out["reason"] = res.reason
    return out


def invariants_to_dict(iv: InvariantVector) -> dict:
    out = {
        "dim": iv.dim,
        "power_dims": list(iv.power_dims),
        "commutative": iv.commutative,
        "anticommutative": iv.anticommutative,
        "nilpotent": iv.nilpotent,
    }
    if iv.sym_rank is not None:
        out["sym_rank"] = iv.sym_rank
        out["skew_rank"] = iv.skew_rank
    return out


# -- files -------------------------------------------------------------------


def dumps(obj) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) + "\n", byte for byte, for
    a document of dicts with str keys, lists, str, int, bool, None and
    Algebra values, doc being the document with each Algebra a replaced by
    algebra_to_dict(a); any other type raises TypeError."""
    return _text(obj, "\n") + "\n"


#: the JSON text of a str, int, bool or None, by exact type
_SCALARS = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get,
            type(None): lambda _: "null"}


def _text(x, nl: str) -> str:
    """x as indented JSON; nl is the line break and indent of x's own line."""
    scalar = _SCALARS.get(type(x))
    if scalar:
        return scalar(x)
    inner = nl + "  "
    if type(x) is dict:
        if not x:
            return "{}"
        items = []
        for key in sorted(x):  # scalar values inline: they are most of a document
            v = x[key]
            scalar = _SCALARS.get(type(v))
            items.append(_quote(key) + ": " + (scalar(v) if scalar else _text(v, inner)))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if type(x) is list:
        if not x:
            return "[]"
        items = []
        for v in x:  # scalars inline here too: an iso is rows of them
            scalar = _SCALARS.get(type(v))
            items.append(scalar(v) if scalar else _text(v, inner))
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if type(x) is Algebra:
        return _algebra_text(x, nl)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _algebra_text(a: Algebra, nl: str) -> str:
    """_text(algebra_to_dict(a), nl), written from the stored form: the
    keys in sorted order, coeff, left, result, right in each product."""
    i1 = nl + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    products = [f'{{{i3}"coeff": "{coeff}",{i3}"left": {i},{i3}"result": {k},'
                f'{i3}"right": {j}{i2}}}' for i, j, k, coeff in _products(a)]
    body = "[" + i2 + ("," + i2).join(products) + i1 + "]" if products else "[]"
    return f'{{{i1}"dim": {a.dim},{i1}"products": {body}{nl}}}'


def load_path(path: str) -> dict:
    """The JSON document in the file; an integer literal of more than
    MAX_COEFF_DIGITS digits raises CoefficientTooLarge."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # the decoder's int() refused a literal past CPython's digit limit,
        # which is MAX_COEFF_DIGITS; find its length only now, off the hot path
        digits = max((len(t) for t in _STRING_OR_DIGITS.findall(text) if t[0] != '"'),
                     default=0)
        if digits <= MAX_COEFF_DIGITS:
            raise
        raise CoefficientTooLarge(digits, MAX_COEFF_DIGITS) from None


def save_path(path: str, obj) -> None:
    """Write ``dumps(obj)`` to the file; an output that cannot be written
    (an integer past the digit bound) raises before the file is opened."""
    text = dumps(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

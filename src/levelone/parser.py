"""Parser and printer for the ASCII Laurent-polynomial grammar.

    poly   := ['-'] term (('+'|'-') term)*
    term   := coeff ['*'] [tpart] | tpart
    tpart  := 't' ['^' int]
    coeff  := int ['/' uint]

The ASCII blanks (space, tab, CR, LF) are insignificant; any other
character outside the grammar, another whitespace character included, is a
``ParseError`` at its position.  A bare ``t`` means t^1 and an omitted
coefficient means 1.  ``laurent_terms`` reads a text in one pass into its
terms as ints, ``laurent_pairs`` sums them as reduced int pairs, and
``parse_laurent`` is that sum as a dict of Fractions.
``print_laurent`` emits terms in decreasing exponent order in the same
grammar, so ``parse_laurent(print_laurent(p)) == p``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CoefficientTooLarge, ParseError
from .poly import MAX_COEFF_DIGITS

_BLANKS = frozenset(" \t\r\n")  # str.isspace would also take \x1c and other Unicode spaces
_OPERATORS = frozenset("+-*/^")


def laurent_terms(text: str) -> list:
    """The terms of ``text`` in the order written, each (exponent, p, q) in
    ints for the term p/q * t^exponent: p carries the term's sign, and p and
    q > 0 are the literals as written, so p/q may be unreduced or zero.

    A character outside the grammar, or a digit run of more than
    MAX_COEFF_DIGITS digits, anywhere in the text is reported ahead of any
    grammar error: a grammar error is raised only once the rest of the text
    has been checked for both."""
    n = len(text)
    i = 0
    while i < n and text[i] in _BLANKS:
        i += 1
    if i == n:
        raise ParseError("empty input", 0)
    terms = []
    sign = 1
    if text[i] == "-":
        sign = -1
        i += 1
        while i < n and text[i] in _BLANKS:
            i += 1
    while True:
        ch = text[i] if i < n else ""
        p = q = 1
        if "0" <= ch <= "9":
            j = _digits_end(text, i, n)
            p = int(text[i:j])
            while j < n and text[j] in _BLANKS:
                j += 1
            if j < n and text[j] == "/":
                i = j + 1
                while i < n and text[i] in _BLANKS:
                    i += 1
                j = _digits_end(text, i, n)
                if j == i:
                    _refuse(text, i, "expected an unsigned denominator")
                q = int(text[i:j])
                if not q:
                    _refuse(text, i, "zero denominator")
                while j < n and text[j] in _BLANKS:
                    j += 1
            i = j
            ch = text[i] if i < n else ""
            if ch == "*":
                i += 1
                while i < n and text[i] in _BLANKS:
                    i += 1
                ch = text[i] if i < n else ""
                if ch != "t":
                    _refuse(text, i, "expected 't' after '*'")
        elif ch != "t":
            _refuse(text, i, "expected a coefficient or 't'")
        e = 0
        if ch == "t":
            e = 1
            i += 1
            while i < n and text[i] in _BLANKS:
                i += 1
            if i < n and text[i] == "^":
                i += 1
                while i < n and text[i] in _BLANKS:
                    i += 1
                ch = text[i] if i < n else ""
                if ch == "-" or ch == "+":
                    if ch == "-":
                        e = -1
                    i += 1
                    while i < n and text[i] in _BLANKS:
                        i += 1
                j = _digits_end(text, i, n)
                if j == i:
                    _refuse(text, i, "expected an integer exponent")
                e *= int(text[i:j])
                i = j
                while i < n and text[i] in _BLANKS:
                    i += 1
        terms.append((e, sign * p, q))
        if i == n:
            return terms
        ch = text[i]
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            _refuse(text, i, "expected '+', '-' or end of input")
        i += 1
        while i < n and text[i] in _BLANKS:
            i += 1


def _digits_end(text: str, i: int, n: int) -> int:
    """The end of the run of ASCII digits at i, i itself when there is
    none; CoefficientTooLarge for a run that int() would refuse."""
    j = i
    while j < n and "0" <= text[j] <= "9":
        j += 1
    if j - i > MAX_COEFF_DIGITS:
        raise CoefficientTooLarge(j - i, MAX_COEFF_DIGITS)
    return j


def _refuse(text: str, i: int, message: str):
    """Raise the grammar error ``message`` at the token that starts at i,
    unless a character outside the grammar or an over-long digit run comes
    at or after i: then that error, the first of them."""
    n = len(text)
    token = ""
    if i < n:
        ch = text[i]
        if "0" <= ch <= "9":
            token = text[i:_digits_end(text, i, n)]
        elif ch == "t" or ch in _OPERATORS:
            token = ch
        else:
            raise ParseError("unexpected character", i, ch)
    j = i + len(token)
    while j < n:
        ch = text[j]
        if "0" <= ch <= "9":
            j = _digits_end(text, j, n)
        elif ch == "t" or ch in _OPERATORS or ch in _BLANKS:
            j += 1
        else:
            raise ParseError("unexpected character", j, ch)
    raise ParseError(message, i, token)


def laurent_pairs(text: str) -> dict:
    """The Laurent dict of ``text`` in ints, {exponent: (p, q)} with p/q in
    lowest terms and q > 0: the terms of ``laurent_terms`` summed in the
    order written, a zero sum dropped."""
    out: dict = {}
    for e, p, q in laurent_terms(text):
        if e in out:
            p0, q0 = out[e]
            p, q = p * q0 + p0 * q, q * q0
        if p:
            if q != 1:
                g = math.gcd(p, q)
                p, q = p // g, q // g
            out[e] = (p, q)
        else:
            out.pop(e, None)
    return out


def parse_laurent(text: str) -> dict:
    """Parse ``text`` into a Laurent dict {exponent: Fraction}, zeros
    dropped: the Fraction view of ``laurent_pairs``."""
    return {e: Fraction(p, q) for e, (p, q) in laurent_pairs(text).items()}


def print_laurent(lp: dict, output: str = "Laurent polynomial") -> str:
    """Render a Laurent dict in decreasing exponent order; a coefficient
    with an integer past MAX_COEFF_DIGITS digits raises CoefficientTooLarge
    naming ``output``."""
    return print_terms([(e, lp[e].numerator, lp[e].denominator)
                        for e in sorted(lp, reverse=True)], output)


def print_terms(terms, output: str = "Laurent polynomial") -> str:
    """``print_laurent`` of the terms (exponent, p, q), each p/q * t^exponent
    with p/q in lowest terms and q > 0, given in decreasing exponent order."""
    if not terms:
        return "0"
    parts: list[str] = []
    for e, p, q in terms:
        body = _term_body(rational_text(abs(p), q, output), e)
        if not parts:
            parts.append(f"-{body}" if p < 0 else body)
        else:
            parts.append(f"- {body}" if p < 0 else f"+ {body}")
    return " ".join(parts)


def _term_body(coeff: str, e: int) -> str:
    if e == 0:
        return coeff
    tpart = "t" if e == 1 else f"t^{e}"
    if coeff == "1":
        return tpart
    return f"{coeff}*{tpart}"


_DIGIT_CAP = 10**MAX_COEFF_DIGITS


def rational_text(p: int, q: int, output: str) -> str:
    """The literal "p", or "p/q", of p/q in lowest terms with q > 0.  An
    integer of more than MAX_COEFF_DIGITS digits, which str() would refuse,
    raises CoefficientTooLarge naming ``output`` instead."""
    if -_DIGIT_CAP < p < _DIGIT_CAP and q < _DIGIT_CAP:
        return str(p) if q == 1 else f"{p}/{q}"
    big = max(abs(p), q)
    digits = int((big.bit_length() - 1) * math.log10(2))  # 10**digits <= big
    while big >= 10**digits:
        digits += 1
    raise CoefficientTooLarge(digits, MAX_COEFF_DIGITS, output)

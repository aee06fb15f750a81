"""Parser and printer for the ASCII Laurent-polynomial grammar.

    poly   := ['-'] term (('+'|'-') term)*
    term   := coeff ['*'] [tpart] | tpart
    tpart  := 't' ['^' int]
    coeff  := int ['/' uint]

Whitespace is insignificant, a bare ``t`` means t^1 and an omitted
coefficient means 1.  ``print_laurent`` emits terms in decreasing exponent
order in the same grammar, so ``parse_laurent(print_laurent(p)) == p``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CoefficientTooLarge, ParseError
from .poly import MAX_COEFF_DIGITS

_DIGITS = set("0123456789")


class _Tokens:
    """Single-pass tokenizer; integers are unsigned, signs are operators."""

    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []  # (kind, text, position)
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _DIGITS:
                j = i
                while j < n and text[j] in _DIGITS:
                    j += 1
                if j - i > MAX_COEFF_DIGITS:  # int() would refuse it
                    raise CoefficientTooLarge(j - i, MAX_COEFF_DIGITS)
                self.items.append(("int", text[i:j], i))
                i = j
            elif ch == "t":
                self.items.append(("t", "t", i))
                i += 1
            elif ch in "+-*/^":
                self.items.append((ch, ch, i))
                i += 1
            else:
                raise ParseError("unexpected character", i, ch)
        self.items.append(("end", "", n))
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.items[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.items[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}", tok[2], tok[1])
        self.pos += 1
        return tok


def parse_laurent(text: str) -> dict:
    """Parse ``text`` into a Laurent dict {exponent: Fraction}, zeros dropped."""
    toks = _Tokens(text)
    if toks.peek()[0] == "end":
        raise ParseError("empty input", 0)
    out: dict[int, Fraction] = {}
    sign = 1
    if toks.peek()[0] == "-":
        toks.take("-")
        sign = -1
    _accumulate(out, toks, sign)
    while toks.peek()[0] != "end":
        kind, tok_text, pos = toks.peek()
        if kind == "+":
            toks.take("+")
            _accumulate(out, toks, 1)
        elif kind == "-":
            toks.take("-")
            _accumulate(out, toks, -1)
        else:
            raise ParseError("expected '+', '-' or end of input", pos, tok_text)
    return out


def _accumulate(out: dict, toks: _Tokens, sign: int) -> None:
    """Add the next term, sign * num/den * t^exp, to out; a Fraction is
    added only when the exponent repeats, and a zero sum is dropped."""
    num, den, exp = _term(toks)
    coeff = Fraction(sign * num, den)
    if exp in out:
        coeff += out[exp]
    if coeff:
        out[exp] = coeff
    else:
        out.pop(exp, None)


def _term(toks: _Tokens) -> tuple[int, int, int]:
    """(num, den, exp) of the next term, num/den its unsigned coefficient."""
    kind, text, pos = toks.peek()
    if kind == "t":
        return 1, 1, _tpart(toks)
    if kind != "int":
        raise ParseError("expected a coefficient or 't'", pos, text)
    num = int(toks.take("int")[1])
    den = 1
    if toks.peek()[0] == "/":
        toks.take("/")
        dk, dt, dp = toks.peek()
        if dk != "int":
            raise ParseError("expected an unsigned denominator", dp, dt)
        den = int(toks.take("int")[1])
        if den == 0:
            raise ParseError("zero denominator", dp, dt)
    if toks.peek()[0] == "*":
        toks.take("*")
        k, t, p = toks.peek()
        if k != "t":
            raise ParseError("expected 't' after '*'", p, t)
        return num, den, _tpart(toks)
    if toks.peek()[0] == "t":
        return num, den, _tpart(toks)
    return num, den, 0


def _tpart(toks: _Tokens) -> int:
    toks.take("t")
    if toks.peek()[0] != "^":
        return 1
    toks.take("^")
    sign = 1
    if toks.peek()[0] == "-":
        toks.take("-")
        sign = -1
    elif toks.peek()[0] == "+":
        toks.take("+")
    kind, text, pos = toks.peek()
    if kind != "int":
        raise ParseError("expected an integer exponent", pos, text)
    return sign * int(toks.take("int")[1])


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

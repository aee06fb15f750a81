"""Exception types shared across the package."""


class PoleAtZero(ArithmeticError):
    """Evaluation at t = 0 of a field element with negative valuation."""


class PoleAtPoint(ArithmeticError):
    """Evaluation at a point where the denominator vanishes."""


class DegreeOverflow(ArithmeticError):
    """A polynomial exceeded the global degree safety bound."""


class ParseError(ValueError):
    """Syntax error in the Laurent-polynomial grammar.

    Carries the 0-based character ``position`` and the offending ``token``.
    """

    def __init__(self, message: str, position: int, token: str = ""):
        detail = f"{message} at position {position}"
        if token:
            detail += f" (near {token!r})"
        super().__init__(detail)
        self.position = position
        self.token = token


class CoefficientTooLarge(ValueError):
    """An integer literal in the input, or an integer of an output named by
    ``output``, has more digits than MAX_COEFF_DIGITS."""

    def __init__(self, digits: int, bound: int, output: str | None = None):
        what = "integer literal" if output is None else f"cannot write the {output}: integer"
        super().__init__(f"{what} of {digits} digits exceeds the bound of {bound} digits")


class DimensionMismatch(ValueError):
    """Operands live in spaces of different dimensions."""


class BadDimension(ValueError):
    """A canonical form was requested in a dimension where it does not exist."""


class SingularMatrix(ValueError):
    """A rational matrix expected to be invertible is singular."""


class SingularFamily(ValueError):
    """A parametric matrix is singular over the rational-function field."""


class NoLimit(Exception):
    """The entrywise t -> 0 limit does not exist.

    ``entries`` lists the offending tensor positions as 1-based
    (result, left, right) triples.
    """

    def __init__(self, entries):
        self.entries = sorted(entries)
        shown = ", ".join(str(e) for e in self.entries[:8])
        if len(self.entries) > 8:
            shown += ", ..."
        super().__init__(f"no limit at t=0; entries with poles: {shown}")


class AbelianInput(ValueError):
    """The classifier was handed an algebra with all products zero."""


class SearchExhausted(RuntimeError):
    """The classifier's witness failed exact verification.

    The candidate grids are complete and each branch's premise follows from
    the scalar-action identities, so this signals a defect, not bad luck;
    the message carries the verifier's diagnostics."""


class NotNu(ValueError):
    """The algebra does not carry the idempotent scalar-action structure."""

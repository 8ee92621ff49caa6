"""Text and JSON forms of the polynomial types.

Canonical text emission writes every term with explicit exponents, for
example "(-3/8+0i)*z^1*zbar^0", joined by " + ", in graded-lex term order;
real-variable polynomials use x, y in dimension 2 and x1..xn otherwise,
and a zero real polynomial is written as a zero constant term
("(0+0i)*x1^0*x2^0*x3^0"), so its text keeps the dimension.
Parsing accepts that form plus free-style expressions ("zbar", "x^2 - y^2",
"(1/2+3/4i)*z^2", "(z+zbar)^2") with +, -, *, ^ and parenthesized grouping.
Rationals appear as "p" or "p/q"; an imaginary literal is "i", "3i" or
"3/4i".  Round-trips through either representation are bit exact.

The ring is chosen from the variable names in the text before any
arithmetic, so a variable counts even where its exponent or coefficient
is zero: z/zbar gives PolyZZbar, x/y gives PolyRealN in 2 variables, and
x1..xn gives PolyRealN in n variables, n the largest index named.  The
families cannot be mixed in one expression, and text with no variable is
a PolyZZbar constant.  The parser then builds term dicts of that ring
with the ring's own +, * and ** (polynomials._add_terms, _mul_terms,
_pow_terms).  Parentheses nest at most MAX_NESTING deep.

Parse errors carry the 1-based column of the offending token.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rational import GaussianRational, ONE, ZERO, rational_from_json
from .polynomials import (
    MAX_EXPONENT, PolyRealN, PolyZZbar, _add_terms, _mul_terms, _pow_terms,
    xy_to_zzbar, zzbar_to_xy,
)


class ParseError(ValueError):
    """Raised for malformed polynomial text; carries the source column."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"parse error at column {pos + 1}: {message}")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<imag>(?:\d+(?:/\d+)?)?i\b)"
    r"|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<name>[a-hj-zA-Z][a-zA-Z0-9]*)"
    r"|(?P<op>[-+*^()])"
    r"|(?P<bad>\S)"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, start) per token, ending with an ("end", "", len(text)) token."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def _parse_fraction(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


_REAL_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


def _pick_ring(tokens: list[tuple[str, str, int]]):
    """The ring of the variable names in the tokens, whatever their exponents.

    Returns the zero polynomial of that ring and the exponent key of each
    variable name.  Text without variables is read as z/zbar constants.
    """
    names: dict[str, int] = {}
    for kind, value, pos in tokens:
        if kind == "name":
            names.setdefault(value, pos)
    numbered = {n: int(m.group(1)) - 1 for n in names if (m := _REAL_VAR_RE.match(n))}
    unknown = names.keys() - {"z", "zbar", "x", "y"} - numbered.keys()
    if unknown:
        bad = min(unknown)
        raise ParseError(f"unknown variable {bad!r}", names[bad])
    planar = names.keys() & {"x", "y"}
    if names.keys() & {"z", "zbar"} and (planar or numbered):
        raise ParseError("cannot mix z/zbar with real variables", 0)
    if planar and numbered:
        raise ParseError("cannot mix x/y with numbered variables", 0)
    if numbered:
        zero, axes = PolyRealN.zero(max(numbered.values()) + 1), numbered
    elif planar:
        zero, axes = PolyRealN.zero(2), {"x": 0, "y": 1}
    else:
        zero, axes = PolyZZbar.zero(), {"z": 0, "zbar": 1}
    dim = zero._dim
    return zero, {n: tuple(int(k == axis) for k in range(dim)) for n, axis in axes.items()}


# Bound on nested parentheses; deeper text is rejected instead of running
# the recursive descent out of stack.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the tokens, building term dicts of one ring.

    Only op tokens have the text "+", "-", "*", "^", "(" or ")", so the
    grammar tests the current token's text alone.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.tok = self.tokens[0]
        self.depth = 0
        self.zero, self.keys = _pick_ring(self.tokens)
        self.dim = self.zero._dim

    def advance(self):
        self.index += 1
        self.tok = self.tokens[self.index]

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.tok[2])

    def parse(self):
        if self.tok[0] == "end":
            raise ParseError("empty polynomial", 0)
        try:
            terms = self.expr()
        except OverflowError as exc:  # a product of powers past the 32-bit bound
            raise ParseError(str(exc), 0) from None
        if self.tok[0] != "end":
            raise self.error(f"unexpected token {self.tok[1]!r}")
        return self.zero._new(terms)

    def expr(self) -> dict:
        value = self.term()
        while self.tok[1] in ("+", "-"):
            negate = self.tok[1] == "-"
            self.advance()
            rhs = self.term()
            if negate:
                rhs = {k: -c for k, c in rhs.items()}
            value = _add_terms(value, rhs)
        return value

    def term(self) -> dict:
        value = self.factor()
        while self.tok[1] == "*":
            self.advance()
            value = _mul_terms(value, self.factor())
        return value

    def factor(self) -> dict:
        # Leading signs are read in a loop, so any number of them is fine.
        negate = False
        while self.tok[1] in ("+", "-"):
            negate ^= self.tok[1] == "-"
            self.advance()
        value = self.primary()
        if self.tok[1] == "^":
            self.advance()
            kind, text, _ = self.tok
            if kind != "number" or "/" in text:
                raise self.error("expected a nonnegative integer exponent after '^'")
            n = int(text)
            if n > MAX_EXPONENT:
                raise self.error(f"exponent {n} exceeds the 32-bit bound")
            self.advance()
            value = _pow_terms(value, n, self.dim)
        if negate:
            value = {k: -c for k, c in value.items()}
        return value

    def primary(self) -> dict:
        kind, text, _ = self.tok
        if kind == "end":
            raise self.error("unexpected end of input")
        if kind in ("number", "imag"):
            digits = text[:-1] if kind == "imag" else text
            try:
                mag = _parse_fraction(digits) if digits else Fraction(1)
            except ZeroDivisionError:
                raise self.error(f"zero denominator in {text!r}") from None
            self.advance()
            c = GaussianRational(0, mag) if kind == "imag" else GaussianRational(mag)
            return {(0,) * self.dim: c} if c else {}
        if kind == "name":
            self.advance()
            return {self.keys[text]: ONE}
        if text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.advance()
            value = self.expr()
            if self.tok[1] != ")":
                raise self.error("expected ')'")
            self.advance()
            self.depth -= 1
            return value
        raise self.error(f"unexpected token {text!r}")


def parse_polynomial(text: str):
    """Parse text into a PolyZZbar or PolyRealN depending on its variables.

    The ring is chosen from the variable names the text contains, whatever
    their exponents and coefficients.  Pure constants come back as PolyZZbar.
    """
    return _Parser(text).parse()


def parse_poly_zzbar(text: str) -> PolyZZbar:
    """Parse text as a z/zbar polynomial; x/y input is converted exactly."""
    value = parse_polynomial(text)
    if isinstance(value, PolyRealN):
        if value.dim != 2:
            raise ParseError(
                f"cannot interpret a {value.dim}-variable polynomial in z, zbar", 0
            )
        return xy_to_zzbar(value)
    return value


def parse_poly_real(text: str, dim: int | None = None) -> PolyRealN:
    """Parse text as a real-variable polynomial; z/zbar input is converted."""
    value = parse_polynomial(text)
    if isinstance(value, PolyZZbar):
        if value.degree() <= 0:
            # pure constants belong to every dimension
            return PolyRealN.constant(dim if dim is not None else 2,
                                      value.coefficient(0, 0))
        if dim is not None and dim != 2:
            raise ParseError(
                f"z/zbar input is two-dimensional, but dim={dim} was requested", 0
            )
        value = zzbar_to_xy(value)
    if dim is not None and value.dim != dim:
        if value.dim < dim:
            value = PolyRealN(
                dim,
                {key + (0,) * (dim - value.dim): c for key, c in value.terms()},
            )
        else:
            raise ParseError(
                f"polynomial uses {value.dim} variables, but dim={dim} was requested",
                0,
            )
    return value


# -- canonical emission ------------------------------------------------------


def format_coefficient(c: GaussianRational) -> str:
    return f"({c})"


def format_poly_zzbar(p: PolyZZbar) -> str:
    if p.is_zero():
        return "0"
    parts = [
        f"{format_coefficient(c)}*z^{a}*zbar^{b}" for (a, b), c in p.terms()
    ]
    return " + ".join(parts)


def _real_var_names(dim: int) -> list[str]:
    if dim == 2:
        return ["x", "y"]
    return [f"x{i + 1}" for i in range(dim)]


def format_poly_real(p: PolyRealN) -> str:
    # A zero is written as a zero constant term, which still names every
    # variable and so keeps the dimension.
    names = _real_var_names(p.dim)
    parts = []
    for alpha, c in list(p.terms()) or [((0,) * p.dim, ZERO)]:
        vars_part = "*".join(f"{n}^{e}" for n, e in zip(names, alpha))
        parts.append(f"{format_coefficient(c)}*{vars_part}")
    return " + ".join(parts)


# -- JSON forms ---------------------------------------------------------------


def _coefficient_json(c: GaussianRational) -> dict:
    re, im = c.text_parts()
    return {"re": re, "im": im}


def poly_zzbar_to_json(p: PolyZZbar) -> list[dict]:
    return [{"a": a, "b": b, **_coefficient_json(c)} for (a, b), c in p.terms()]


def _coefficient_from_json(item: dict) -> GaussianRational:
    return GaussianRational(
        rational_from_json(item["re"], "re"), rational_from_json(item["im"], "im")
    )


def poly_zzbar_from_json(items: list[dict]) -> PolyZZbar:
    terms = {}
    for item in items:
        # Exponents and dim pass unconverted: the constructors reject any
        # that is not an int, where int() would read 1.9 or true as 1.
        key = (item["a"], item["b"])
        if key in terms:
            raise ValueError(f"duplicate exponent pair {key} in JSON polynomial")
        terms[key] = _coefficient_from_json(item)
    try:
        return PolyZZbar(terms)
    except OverflowError as exc:  # an exponent past the 32-bit bound is bad input
        raise ValueError(str(exc)) from None


def poly_real_to_json(p: PolyRealN) -> dict:
    return {
        "dim": p.dim,
        "terms": [
            {"alpha": list(alpha), **_coefficient_json(c)} for alpha, c in p.terms()
        ],
    }


def poly_real_from_json(obj: dict) -> PolyRealN:
    terms = {}
    for item in obj["terms"]:
        key = tuple(item["alpha"])
        if key in terms:
            raise ValueError(f"duplicate multi-index {key} in JSON polynomial")
        terms[key] = _coefficient_from_json(item)
    try:
        return PolyRealN(obj["dim"], terms)
    except OverflowError as exc:  # an exponent past the 32-bit bound is bad input
        raise ValueError(str(exc)) from None

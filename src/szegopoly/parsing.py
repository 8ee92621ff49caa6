"""Text and JSON forms of the polynomial types.

Canonical text emission writes every term with explicit exponents, for
example "(-3/8+0i)*z^1*zbar^0", joined by " + ", in graded-lex term order;
real-variable polynomials use x, y in dimension 2 and x1..xn otherwise.
Parsing accepts that form plus free-style expressions ("zbar", "x^2 - y^2",
"(1/2+3/4i)*z^2", "(z+zbar)^2") with +, -, *, ^ and parenthesized grouping.
Rationals appear as "p" or "p/q"; an imaginary literal is "i", "3i" or
"3/4i".  The z/zbar and x/y variable families cannot be mixed in one
expression.  Round-trips through either representation are bit exact.

Parse errors carry the 1-based column of the offending token.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rational import GaussianRational, ONE
from .polynomials import (
    MAX_EXPONENT, PolyRealN, PolyZZbar, _add_terms, xy_to_zzbar, zzbar_to_xy,
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
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_pos)
        for kind in ("imag", "number", "name", "op"):
            value = m.group(kind)
            if value is not None:
                tokens.append((kind, value, m.start(kind)))
                break
        pos = m.end()
    return tokens


def _parse_fraction(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


# Raw polynomials: dict from sorted ((var, exp), ...) tuples to coefficients.
# The parser works in this representation and converts at the end, once the
# variable family (z/zbar versus x/y/xk) is known.


def _raw_const(c: GaussianRational) -> dict:
    return {(): c} if c else {}


def _unit_monomial(a: dict) -> tuple | None:
    """The key of a single-term polynomial with coefficient 1, else None."""
    if len(a) == 1:
        ((key, c),) = a.items()
        if c == ONE:
            return key
    return None


def _raw_shift(a: dict, key: tuple) -> dict:
    """a times the unit monomial key: exponent addition only, no coefficients."""
    out: dict = {}
    for ka, ca in a.items():
        exps = dict(ka)
        for var, e in key:
            exps[var] = exps.get(var, 0) + e
        out[tuple(sorted(exps.items()))] = ca
    return out


def _raw_mul(a: dict, b: dict) -> dict:
    key = _unit_monomial(b)
    if key is not None:
        return _raw_shift(a, key)
    key = _unit_monomial(a)
    if key is not None:
        return _raw_shift(b, key)
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            exps = dict(ka)
            for var, e in kb:
                exps[var] = exps.get(var, 0) + e
            k = tuple(sorted(exps.items()))
            c = ca * cb
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _raw_pow(a: dict, n: int) -> dict:
    key = _unit_monomial(a)
    if key is not None and n:
        return {tuple((var, e * n) for var, e in key): ONE}
    result = _raw_const(ONE)
    base = a
    while n:
        if n & 1:
            result = _raw_mul(result, base)
        n >>= 1
        if n:
            base = _raw_mul(base, base)
    return result


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def advance(self):
        tok = self.peek()
        self.index += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        pos = tok[2] if tok else len(self.text)
        return ParseError(message, pos)

    def parse(self) -> dict:
        if not self.tokens:
            raise ParseError("empty polynomial", 0)
        value = self.expr()
        if self.peek() is not None:
            raise self.error(f"unexpected token {self.peek()[1]!r}")
        return value

    def expr(self) -> dict:
        value = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.advance()
                rhs = self.term()
                if tok[1] == "-":
                    rhs = {k: -c for k, c in rhs.items()}
                value = _add_terms(value, rhs)
            else:
                return value

    def term(self) -> dict:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.advance()
                value = _raw_mul(value, self.factor())
            else:
                return value

    def factor(self) -> dict:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.advance()
            value = self.factor()
            if tok[1] == "-":
                value = {k: -c for k, c in value.items()}
            return value
        value = self.primary()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok is None or exp_tok[0] != "number" or "/" in exp_tok[1]:
                raise self.error("expected a nonnegative integer exponent after '^'")
            n = int(exp_tok[1])
            if n > MAX_EXPONENT:
                raise self.error(f"exponent {n} exceeds the 32-bit bound")
            self.advance()
            value = _raw_pow(value, n)
        return value

    def primary(self) -> dict:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        kind, text, _ = tok
        if kind in ("number", "imag"):
            digits = text[:-1] if kind == "imag" else text
            try:
                mag = _parse_fraction(digits) if digits else Fraction(1)
            except ZeroDivisionError:
                raise self.error(f"zero denominator in {text!r}") from None
            self.advance()
            if kind == "imag":
                return _raw_const(GaussianRational(0, mag))
            return _raw_const(GaussianRational(mag))
        if kind == "name":
            self.advance()
            return {((text, 1),): GaussianRational(1)}
        if kind == "op" and text == "(":
            self.advance()
            value = self.expr()
            tok = self.peek()
            if tok is None or tok[1] != ")":
                raise self.error("expected ')'")
            self.advance()
            return value
        raise self.error(f"unexpected token {text!r}")


_REAL_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


def _classify_vars(raw: dict, text: str):
    names = sorted({var for key in raw for var, _ in key})
    zset = {n for n in names if n in ("z", "zbar")}
    xyset = {n for n in names if n in ("x", "y")}
    xnset = {n for n in names if _REAL_VAR_RE.match(n)}
    unknown = set(names) - zset - xyset - xnset
    if unknown:
        bad = sorted(unknown)[0]
        raise ParseError(f"unknown variable {bad!r}", text.find(bad))
    if zset and (xyset or xnset):
        raise ParseError("cannot mix z/zbar with real variables", 0)
    if xyset and xnset:
        raise ParseError("cannot mix x/y with numbered variables", 0)
    if zset:
        return "zzbar", None
    if xnset:
        dim = max(int(_REAL_VAR_RE.match(n).group(1)) for n in xnset)
        return "real", dim
    if xyset:
        return "real", 2
    return "constant", None


def _raw_to_zzbar(raw: dict) -> PolyZZbar:
    terms = {}
    for key, c in raw.items():
        exps = dict(key)
        terms[(exps.get("z", 0), exps.get("zbar", 0))] = c
    return PolyZZbar(terms)


def _raw_to_real(raw: dict, dim: int) -> PolyRealN:
    terms = {}
    for key, c in raw.items():
        alpha = [0] * dim
        for var, e in key:
            if var == "x":
                alpha[0] = e
            elif var == "y":
                alpha[1] = e
            else:
                alpha[int(_REAL_VAR_RE.match(var).group(1)) - 1] = e
        terms[tuple(alpha)] = c
    return PolyRealN(dim, terms)


def parse_polynomial(text: str):
    """Parse text into a PolyZZbar or PolyRealN depending on its variables.

    Pure constants come back as PolyZZbar.
    """
    raw = _Parser(text).parse()
    kind, dim = _classify_vars(raw, text)
    try:
        if kind == "real":
            return _raw_to_real(raw, dim)
        return _raw_to_zzbar(raw)
    except OverflowError as exc:  # a product of powers past the 32-bit bound
        raise ParseError(str(exc), 0) from None


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
    if p.is_zero():
        return "0"
    names = _real_var_names(p.dim)
    parts = []
    for alpha, c in p.terms():
        vars_part = "*".join(f"{n}^{e}" for n, e in zip(names, alpha))
        parts.append(f"{format_coefficient(c)}*{vars_part}")
    return " + ".join(parts)


# -- JSON forms ---------------------------------------------------------------


def _coefficient_json(c: GaussianRational) -> dict:
    re, im = c.text_parts()
    return {"re": re, "im": im}


def poly_zzbar_to_json(p: PolyZZbar) -> list[dict]:
    return [{"a": a, "b": b, **_coefficient_json(c)} for (a, b), c in p.terms()]


def poly_zzbar_from_json(items: list[dict]) -> PolyZZbar:
    terms = {}
    for item in items:
        key = (int(item["a"]), int(item["b"]))
        coef = GaussianRational(Fraction(item["re"]), Fraction(item["im"]))
        if key in terms:
            raise ValueError(f"duplicate exponent pair {key} in JSON polynomial")
        terms[key] = coef
    return PolyZZbar(terms)


def poly_real_to_json(p: PolyRealN) -> dict:
    return {
        "dim": p.dim,
        "terms": [
            {"alpha": list(alpha), **_coefficient_json(c)} for alpha, c in p.terms()
        ],
    }


def poly_real_from_json(obj: dict) -> PolyRealN:
    dim = int(obj["dim"])
    terms = {}
    for item in obj["terms"]:
        key = tuple(int(e) for e in item["alpha"])
        if key in terms:
            raise ValueError(f"duplicate multi-index {key} in JSON polynomial")
        terms[key] = GaussianRational(Fraction(item["re"]), Fraction(item["im"]))
    return PolyRealN(dim, terms)

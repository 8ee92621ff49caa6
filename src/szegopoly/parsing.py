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
a PolyZZbar constant.

Text is read a term at a time.  The complex literal "(p/q+r/si)" that
format_coefficient writes is one token, valued with one reduction; the
same text with a space inside, or with a zero denominator, is read as a
parenthesised sum of general tokens.  A term folds its numbers, literals
and variables, with their ^n, into one coefficient and one exponent
tuple, and multiplies term dicts (polynomials._mul_terms, _pow_terms)
only for parenthesised sums; a sum adds its terms into one dict.  The
result is the ring's left-to-right +, -, *, ** on the same text, with the
same terms in the same dict order.  Parentheses nest at most MAX_NESTING
deep, and numbered variables run up to x100 (MAX_VARIABLES).  Numbers may
be of any length.

Parse errors carry the 1-based column of the offending token; an exponent
that overflows the 32-bit bound is reported at the '^' or '*' whose power
or product overflows.  The text has no division, and a '/' outside a
number ("x/4", or the exponent "2/4" of "x^2/4") is reported as such.
"""

from __future__ import annotations

import re
from operator import add

from .rational import (
    GaussianRational, ONE, ZERO, _int_from_text, _int_text, _reduce, rational_from_json,
)
from .polynomials import (
    MAX_EXPONENT, PolyRealN, PolyZZbar, _add_into, _mul_terms, _pow_terms, xy_to_zzbar,
    zzbar_to_xy,
)


class ParseError(ValueError):
    """Raised for malformed polynomial text; carries the source column."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"parse error at column {pos + 1}: {message}")
        self.pos = pos


# A complex literal "(p[/q]+r[/s]i)" as format_coefficient writes it is one
# token; with a space inside, or a zero denominator, it falls through to the
# general tokens.  The operators other than "(", the most frequent tokens,
# are tried first: no other token starts with one of them.
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<op>[-+*^)])"
    r"|(?P<literal>\((?P<re>-?\d+)(?:/(?P<red>0*[1-9]\d*))?"
    r"(?P<im>[-+]\d+)(?:/(?P<imd>0*[1-9]\d*))?i\))"
    r"|(?P<open>\()"
    r"|(?P<imag>(?:\d+(?:/\d+)?)?i\b)"
    r"|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<name>[a-hj-zA-Z][a-zA-Z0-9]*)"
    r"|(?P<bad>\S)"
    r")"
)


# The hint of a parse error at a '/' that no number token takes, as in
# "x/4" or the exponent "2/4" of "x^2/4": the grammar has no division.
_NO_DIVISION = " (polynomial text has no division: write 1/4*x^2, not x^2/4)"


def _tokenize(text: str) -> list[tuple]:
    """(kind, text, start, value) per token, then ("end", "", len(text), None).

    Only a literal has a value, its GaussianRational.  Its text is "(", the
    token that the general grammar would see first.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "literal":
            re_num, re_den, im_num, im_den = m.group("re", "red", "im", "imd")
            q = _int_from_text(re_den) if re_den else 1
            s = _int_from_text(im_den) if im_den else 1
            a, b = _int_from_text(re_num) * s, _int_from_text(im_num) * q
            tokens.append((kind, "(", m.start(kind), _reduce(a, b, q * s)))
            continue
        if kind == "bad":
            bad = m.group(kind)
            hint = _NO_DIVISION if bad == "/" else ""
            raise ParseError(f"unexpected character {bad!r}{hint}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind), None))
    tokens.append(("end", "", len(text), None))
    return tokens


_REAL_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")

# Bound on the dimension x1..xn names: every exponent key of the ring has
# one entry per variable, so a larger index is refused before the ring is
# built.
MAX_VARIABLES = 100


def _pick_ring(tokens: list[tuple]):
    """The ring of the variable names in the tokens, whatever their exponents.

    Returns the zero polynomial of that ring and the axis (exponent
    position) of each variable name.  Text without variables is read as
    z/zbar constants.
    """
    names: dict[str, int] = {}
    for kind, value, pos, _ in tokens:
        if kind == "name":
            names.setdefault(value, pos)
    numbered = {n: _int_from_text(m.group(1)) - 1 for n in names if (m := _REAL_VAR_RE.match(n))}
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
        top = max(numbered, key=numbered.get)
        if numbered[top] >= MAX_VARIABLES:
            raise ParseError(f"{top!r} is past the bound of {MAX_VARIABLES} variables", names[top])
        return PolyRealN.zero(numbered[top] + 1), numbered
    if planar:
        return PolyRealN.zero(2), {"x": 0, "y": 1}
    return PolyZZbar.zero(), {"z": 0, "zbar": 1}


# Bound on nested parentheses; deeper text is rejected instead of running
# the recursive descent out of stack.  A literal counts as one level.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the tokens, building term dicts of one ring.

    Only op tokens have the text "+", "-", "*", "^" or ")", so the grammar
    tests a token's text alone; a "(" is told from a literal by its kind.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0
        self.zero, self.axes = _pick_ring(self.tokens)
        self.dim = self.zero._dim

    def parse(self):
        if self.tokens[0][0] == "end":
            raise ParseError("empty polynomial", 0)
        terms = self.expr()
        kind, text, pos, _ = self.tokens[self.index]
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", pos)
        return self.zero._new(terms)

    def expr(self) -> dict:
        """A sum of terms, added into the first term's dict in place."""
        out = self.term(False)
        tokens = self.tokens
        while (op := tokens[self.index][1]) in ("+", "-"):
            self.index += 1
            _add_into(out, self.term(op == "-"))
        return out

    def term(self, negate: bool) -> dict:
        """A product of factors, negated when negate is set.

        Numbers, literals and variables, each with its ^n, fold into one
        coefficient and one exponent list.  Only parenthesised sums are
        multiplied as term dicts; the folded monomial scales their product
        at the end, which moves no key of it, so the key order is that of
        the left-to-right product.  Each '*' checks the 32-bit exponent
        bound as that product would: unless a factor so far is zero, the
        top exponent of each variable in it is the sum of the factors' tops.
        """
        tokens, axes = self.tokens, self.axes
        i = self.index
        coef = ONE
        exps = [0] * self.dim  # exponents of the folded variables
        tops = [0] * self.dim  # top exponent of each variable in the product
        sums = None  # product of the parenthesised sums
        zero = False
        star = 0  # column of the '*' before the factor
        while True:
            kind, text, pos, value = tokens[i]
            while text in ("+", "-"):
                negate ^= text == "-"
                i += 1
                kind, text, pos, value = tokens[i]
            i += 1
            if (kind == "open" or kind == "literal") and self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            if kind == "open":
                self.depth += 1
                self.index = i
                value = self.expr()
                i = self.index
                if tokens[i][1] != ")":
                    raise ParseError("expected ')'", tokens[i][2])
                self.depth -= 1
                i += 1
            elif kind == "number" or kind == "imag":
                value = _number(text, kind, pos)
            elif kind != "literal" and kind != "name":
                if kind == "end":
                    raise ParseError("unexpected end of input", pos)
                raise ParseError(f"unexpected token {text!r}", pos)
            n = 1
            if tokens[i][1] == "^":
                caret = tokens[i][2]
                n, i = self.exponent(i + 1)
            if kind == "name":
                if not zero:
                    axis = axes[text]
                    exps[axis] += n
                    tops[axis] += n
                    if tops[axis] > MAX_EXPONENT:
                        raise _overflow(tops[axis], star)
            elif kind == "open":
                if n != 1:
                    try:
                        value = _pow_terms(value, n, self.dim)
                    except OverflowError as exc:
                        raise ParseError(str(exc), caret) from None
                if not value:
                    zero = True
                elif not zero:
                    tops = list(map(add, tops, map(max, zip(*value))))
                    if max(tops) > MAX_EXPONENT:
                        raise _overflow(max(tops), star)
                    sums = value if sums is None else _mul_terms(sums, value)
            else:
                if n != 1:
                    value = value**n
                if not value:
                    zero = True
                elif not zero:
                    coef = value if coef is ONE else coef * value
            if tokens[i][1] != "*":
                break
            star = tokens[i][2]
            i += 1
        self.index = i
        if zero:
            return {}
        if negate:
            coef = -coef
        if sums is None:
            return {tuple(exps): coef}
        if coef is ONE and not any(exps):
            return sums
        return _mul_terms(sums, {tuple(exps): coef})

    def exponent(self, i: int) -> tuple[int, int]:
        """The exponent at token i, after a '^', and the index past it."""
        kind, text, pos, _ = self.tokens[i]
        if kind != "number" or "/" in text:
            hint = _NO_DIVISION if "/" in text else ""
            raise ParseError(f"expected a nonnegative integer exponent after '^'{hint}", pos)
        n = _int_from_text(text)
        if n > MAX_EXPONENT:
            raise _overflow(n, pos)
        return n, i + 1


def _overflow(top: int, pos: int) -> ParseError:
    return ParseError(f"exponent {_int_text(top)} exceeds the 32-bit bound", pos)


def _number(text: str, kind: str, pos: int) -> GaussianRational:
    """The value of a number token "p", "p/q", or an imag token "i", "pi", "p/qi"."""
    digits = text[:-1] if kind == "imag" else text
    num, _, den = digits.partition("/")
    q = _int_from_text(den) if den else 1
    if not q:
        raise ParseError(f"zero denominator in {text!r}", pos)
    p = _int_from_text(num) if num else 1
    return _reduce(0, p, q) if kind == "imag" else _reduce(p, 0, q)


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
    if dim is not None and dim > MAX_VARIABLES:
        raise ParseError(f"dim={dim} is past the bound of {MAX_VARIABLES} variables", 0)
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

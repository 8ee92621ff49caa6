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

Canonical text, as format_poly_zzbar and format_poly_real write it, is
read with one compiled pattern match per term.  A term is its ring's
template (_term_template, which the writers fill in): a coefficient
"(p[/q]+r[/s]i)" or "(p[/q]-r[/s]i)", then "*" and every variable of the
ring in order with its exponent; terms are joined by " + ".  Every
denominator is nonzero, and every exponent has at most 9 digits, so it
is within the 32-bit bound.  The first term names the ring: z/zbar if it
has "zbar", else the real ring with one variable per '^'.  Each
coefficient is valued with one reduction and each term added with
polynomials._add_into, so the ring, terms and dict order are those the
grammar gives.  The reader takes the text with its surrounding
whitespace stripped; any other text (a space elsewhere, a variable
skipped or swapped, a longer exponent, the z/zbar zero "0") is read, as
given, by the grammar alone, which gives every result and error for it.

The grammar is the ring's term-dict arithmetic, left to right: each
number, variable or parenthesised sum is a term dict, each '^' one
polynomials._pow_terms, each '*' one _mul_terms and each '+' or '-' one
_add_into, so the result has the terms and dict order of the ring's
+, -, *, ** on the same text.  Parentheses nest at most MAX_NESTING deep,
and numbered variables run up to x100 (MAX_VARIABLES).  Numbers may be of
any length.

Parse errors carry the 1-based column of the offending token; an exponent
that overflows the 32-bit bound is reported at the '^' or '*' whose power
or product overflows, and a power whose coefficients would pass
MAX_POWER_BITS is refused at its '^' before it is computed.  The text has
no division, and a '/' outside a number ("x/4", or the exponent "2/4" of
"x^2/4") is reported as such.
"""

from __future__ import annotations

import re
from functools import cache
from math import log2

from .rational import (
    GaussianRational, ONE, ZERO, _gaussian_text, _int_from_text, _int_text, _reduce,
    rational_from_json,
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


# The operators other than "(", the most frequent tokens, are tried first:
# no other token starts with one of them.
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<op>[-+*^)])"
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
    """(kind, text, start) per token, then ("end", "", len(text))."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            bad = m.group(kind)
            hint = _NO_DIVISION if bad == "/" else ""
            raise ParseError(f"unexpected character {bad!r}{hint}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
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
    for kind, value, pos in tokens:
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
# the recursive descent out of stack.
MAX_NESTING = 100

# Bound on the coefficient size, in bits, that one '^' may make; a larger
# power is refused before it is computed (_refuse_large_power).
MAX_POWER_BITS = 2**18


class _Parser:
    """Recursive descent over the tokens, building term dicts of one ring.

    Only op tokens have the text "+", "-", "*", "^" or ")", so the grammar
    tests a token's text alone.
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
        kind, text, pos = self.tokens[self.index]
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", pos)
        return self.zero._new(terms)

    def expr(self) -> dict:
        """A sum of terms, added into the first term's dict in place.

        The '+' or '-' between two terms is read as a sign of the second.
        """
        out = self.term()
        tokens = self.tokens
        while tokens[self.index][1] in ("+", "-"):
            _add_into(out, self.term())
        return out

    def term(self) -> dict:
        """A product of factors, multiplied left to right."""
        out = self.factor()
        tokens = self.tokens
        while (token := tokens[self.index])[1] == "*":
            self.index += 1
            value = self.factor()
            try:
                out = _mul_terms(out, value)
            except OverflowError as exc:
                raise ParseError(str(exc), token[2]) from None
        return out

    def factor(self) -> dict:
        """Signs, then a number, a variable or a parenthesised sum, with its ^n.

        A sign binds looser than '^': "-z^2" is -(z^2).
        """
        tokens = self.tokens
        i = self.index
        negate = False
        kind, text, pos = tokens[i]
        while text in ("+", "-"):
            negate ^= text == "-"
            i += 1
            kind, text, pos = tokens[i]
        self.index = i + 1
        if kind == "open":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            value = self.expr()
            kind, text, pos = tokens[self.index]
            if text != ")":
                raise ParseError("expected ')'", pos)
            self.depth -= 1
            self.index += 1
        elif kind == "name":
            key = [0] * self.dim
            key[self.axes[text]] = 1
            value = {tuple(key): ONE}
        elif kind == "number" or kind == "imag":
            c = _number(text, kind, pos)
            value = {(0,) * self.dim: c} if c else {}
        elif kind == "end":
            raise ParseError("unexpected end of input", pos)
        else:
            raise ParseError(f"unexpected token {text!r}", pos)
        kind, text, pos = tokens[self.index]
        if text == "^":
            n, self.index = self.exponent(self.index + 1)
            _refuse_large_power(value, n, pos)
            try:
                value = _pow_terms(value, n, self.dim)
            except OverflowError as exc:
                raise ParseError(str(exc), pos) from None
        if negate:
            value = {k: -c for k, c in value.items()}
        return value

    def exponent(self, i: int) -> tuple[int, int]:
        """The exponent at token i, after a '^', and the index past it."""
        kind, text, pos = self.tokens[i]
        if kind != "number" or "/" in text:
            hint = _NO_DIVISION if "/" in text else ""
            raise ParseError(f"expected a nonnegative integer exponent after '^'{hint}", pos)
        n = _int_from_text(text)
        if n > MAX_EXPONENT:
            raise ParseError(f"exponent {_int_text(n)} exceeds the 32-bit bound", pos)
        return n, i + 1


def _refuse_large_power(terms: dict, n: int, pos: int) -> None:
    """ParseError at pos if the n-th power of terms passes MAX_POWER_BITS.

    The size of a coefficient (a + b*i)/d to the n is taken as
    n*log2((|a| + |b|)*d), which bounds the bits of the power's numerator
    parts and of its denominator together; a power of +-1 or +-i, so of a
    monomial with such a coefficient, has size 0.  A one-term power whose
    exponents overflow is left to _pow_terms, which reports the overflow
    before any arithmetic.
    """
    if len(terms) == 1 and max(next(iter(terms))) * n > MAX_EXPONENT:
        return
    bits = n * max((log2((abs(c._a) + abs(c._b)) * c._d) for c in terms.values()), default=0)
    if bits > MAX_POWER_BITS:
        raise ParseError(
            f"power makes a coefficient of about {int(bits)} bits, past the bound of"
            f" {MAX_POWER_BITS}",
            pos,
        )


def _number(text: str, kind: str, pos: int) -> GaussianRational:
    """The value of a number token "p", "p/q", or an imag token "i", "pi", "p/qi"."""
    digits = text[:-1] if kind == "imag" else text
    num, _, den = digits.partition("/")
    q = _int_from_text(den) if den else 1
    if not q:
        raise ParseError(f"zero denominator in {text!r}", pos)
    p = _int_from_text(num) if num else 1
    return _reduce(0, p, q) if kind == "imag" else _reduce(p, 0, q)


# A coefficient as str(GaussianRational) writes it, "p[/q]+r[/s]i" or with
# "-r", every denominator nonzero.
_CANONICAL_COEFFICIENT = r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?([-+][0-9]+)(?:/(0*[1-9][0-9]*))?i"


@cache
def _canonical_term(dim: int):
    """The zero polynomial of a ring and the pattern of one canonical term.

    dim 0 is the z/zbar ring, and dim is at most MAX_VARIABLES, so the
    cache holds at most 101 entries.  A term ends the text or is followed
    by " + " and another term, so a trailing separator is not canonical.
    """
    if dim:
        zero, names = PolyRealN.zero(dim), _real_var_names(dim)
    else:
        zero, names = PolyZZbar.zero(), _ZZBAR_NAMES
    term = re.escape(_term_template(names))
    term = term.replace("%s", _CANONICAL_COEFFICIENT, 1).replace("%s", "([0-9]{1,9})")
    return zero, re.compile(term + r"(?: \+ (?=\()|\Z)")


def _read_canonical(text: str):
    """The polynomial of canonical text, or None for any other text.

    The first term names the ring: z/zbar if it has "zbar", else the real
    ring with one variable per '^'.  Every term must match that ring's
    pattern.
    """
    end = text.find(" + ")
    if end < 0:
        end = len(text)
    if "zbar" in text[:end]:
        dim = 0
    elif not 0 < (dim := text.count("^", 0, end)) <= MAX_VARIABLES:
        return None
    zero, term = _canonical_term(dim)
    match, pos, n = term.match, 0, len(text)
    out = {}
    while pos < n:
        m = match(text, pos)
        if m is None:
            return None
        re_num, re_den, im_num, im_den, *exps = m.groups()
        q = _int_from_text(re_den) if re_den else 1
        s = _int_from_text(im_den) if im_den else 1
        c = _reduce(_int_from_text(re_num) * s, _int_from_text(im_num) * q, q * s)
        if c:
            _add_into(out, {tuple(map(int, exps)): c})
        pos = m.end()
    return zero._new(out)


def parse_polynomial(text: str):
    """Parse text into a PolyZZbar or PolyRealN depending on its variables.

    The ring is chosen from the variable names the text contains, whatever
    their exponents and coefficients.  Pure constants come back as PolyZZbar.
    Canonical text may have whitespace around it; the grammar reads any
    other text as given, so its error columns are those of text.
    """
    p = _read_canonical(text.strip())
    return p if p is not None else _Parser(text).parse()


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


_ZZBAR_NAMES = ("z", "zbar")


def _real_var_names(dim: int) -> list[str]:
    if dim == 2:
        return ["x", "y"]
    return [f"x{i + 1}" for i in range(dim)]


def _term_template(names) -> str:
    """The canonical term in the variables names, with "%s" for each part.

    The first "%s" takes the coefficient and the others the exponents.  The
    writers fill it in; _canonical_term reads it back.
    """
    return "(%s)*" + "*".join(f"{n}^%s" for n in names)


_ZZBAR_TERM = _term_template(_ZZBAR_NAMES)


def format_poly_zzbar(p: PolyZZbar) -> str:
    if p.is_zero():
        return "0"
    return " + ".join([_ZZBAR_TERM % (c, a, b) for (a, b), c in p.terms()])


def format_poly_real(p: PolyRealN) -> str:
    # A zero is written as a zero constant term, which still names every
    # variable and so keeps the dimension.
    term = _term_template(_real_var_names(p.dim))
    terms = list(p.terms()) or [((0,) * p.dim, ZERO)]
    return " + ".join([term % (c, *alpha) for alpha, c in terms])


# -- JSON forms ---------------------------------------------------------------


def _coefficient_json(c: GaussianRational) -> dict:
    re, im = c.text_parts()
    return {"re": re, "im": im}


def poly_zzbar_to_json(p: PolyZZbar) -> list[dict]:
    return [{"a": a, "b": b, **_coefficient_json(c)} for (a, b), c in p.terms()]


def _zzbar_text_and_json(p: PolyZZbar) -> tuple[str, list[dict]]:
    """(format_poly_zzbar(p), poly_zzbar_to_json(p)), one text_parts() per term."""
    texts, items = [], []
    for (a, b), c in p.terms():
        re, im = c.text_parts()
        texts.append(_ZZBAR_TERM % (_gaussian_text(re, im), a, b))
        items.append({"a": a, "b": b, "re": re, "im": im})
    return " + ".join(texts) or "0", items


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

"""Polynomial text/JSON round trips and parse errors."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from szegopoly.cli import main
from szegopoly.domains import Ellipse
from szegopoly.parsing import (
    MAX_NESTING,
    MAX_VARIABLES,
    ParseError,
    format_poly_real,
    format_poly_zzbar,
    parse_polynomial,
    parse_poly_real,
    parse_poly_zzbar,
    poly_real_from_json,
    poly_real_to_json,
    poly_zzbar_from_json,
    poly_zzbar_to_json,
)
from szegopoly.polynomials import PolyRealN, PolyZZbar, monomials_real, xy_to_zzbar
from szegopoly.rational import GaussianRational, rational_from_json

Z = PolyZZbar.var_z()
ZB = PolyZZbar.var_zbar()


def test_canonical_form_example():
    p = PolyZZbar({(1, 0): Fraction(-3, 8)})
    assert format_poly_zzbar(p) == "(-3/8+0i)*z^1*zbar^0"
    assert parse_poly_zzbar("(-3/8+0i)*z^1*zbar^0") == p
    q = PolyRealN.monomial((1, 0, 2), Fraction(1, 2))
    assert format_poly_real(q) == "(1/2+0i)*x1^1*x2^0*x3^2"


def test_simple_expressions():
    assert parse_poly_zzbar("zbar") == ZB
    assert parse_poly_zzbar("z^3 - 2*z") == Z**3 - Z * 2
    assert parse_poly_zzbar("(z+zbar)^2") == (Z + ZB) ** 2
    assert parse_poly_zzbar("1/2*z") == Z * Fraction(1, 2)
    assert parse_poly_zzbar("3i") == PolyZZbar.constant(GaussianRational(0, 3))
    assert parse_poly_zzbar("i*z - i*zbar") == Z * GaussianRational(0, 1) - ZB * GaussianRational(0, 1)
    assert parse_poly_zzbar("-z") == -Z
    assert parse_poly_zzbar("2") == PolyZZbar.constant(2)


def test_complex_coefficient_literals():
    p = parse_poly_zzbar("(1/2+3/4i)*z^2*zbar^1")
    assert p == PolyZZbar({(2, 1): GaussianRational(Fraction(1, 2), Fraction(3, 4))})
    q = parse_poly_zzbar("(0-1i)*z")
    assert q == PolyZZbar({(1, 0): GaussianRational(0, -1)})
    # A literal with a space inside is read as a parenthesised sum.
    half = PolyZZbar.constant(GaussianRational(Fraction(1, 2), Fraction(-1, 2)))
    for text in ("(3/6-4/8i)", "( 3/6-4/8i)", "(3/6 - 4/8i)", "(1/2+0i) - 1/2i"):
        assert parse_poly_zzbar(text) == half


def test_xy_syntax_converts():
    assert parse_poly_zzbar("x^2 + y^2") == Z * ZB
    p = parse_poly_real("x^2 - y^2")
    assert p.dim == 2
    assert xy_to_zzbar(p) == parse_poly_zzbar("x^2 - y^2")


def test_numbered_variables():
    p = parse_poly_real("x1^2 + x2^2 + x3^2")
    assert p.dim == 3
    assert p.degree() == 2


def test_real_dim_padding():
    p = parse_poly_real("x1^2", dim=3)
    assert p.dim == 3


def test_zzbar_to_real_conversion():
    p = parse_poly_real("z*zbar")
    x, y = PolyRealN.variable(2, 0), PolyRealN.variable(2, 1)
    assert p == x * x + y * y


def test_mixed_variables_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("z + x")
    with pytest.raises(ParseError):
        parse_polynomial("x + x1")


def test_unknown_variable_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("z + w")


def test_error_carries_column():
    with pytest.raises(ParseError, match="column 7"):
        parse_polynomial("z + + ^")
    with pytest.raises(ParseError, match="column"):
        parse_polynomial("z^")
    with pytest.raises(ParseError, match="column"):
        parse_polynomial("(z + zbar")
    with pytest.raises(ParseError):
        parse_polynomial("")
    with pytest.raises(ParseError, match="column"):
        parse_polynomial("z^1/2")


@pytest.mark.parametrize(
    "text, column",
    [("x^2/4", 3), ("x/4", 2), ("(z+zbar)/2", 9), ("z^1/2", 3), ("1/2/3*z", 4)],
)
def test_division_is_named_in_the_parse_error(text, column):
    # A '/' that no number token takes: polynomial text has no division,
    # and the message shows the coefficient form instead.
    message = rf"column {column}: .*no division: write 1/4\*x\^2, not x\^2/4\)$"
    with pytest.raises(ParseError, match=message):
        parse_polynomial(text)


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("z^(1/2)")


def test_zero_round_trip():
    assert format_poly_zzbar(PolyZZbar.zero()) == "0"
    assert parse_poly_zzbar("0") == PolyZZbar.zero()
    assert format_poly_real(PolyRealN.zero(3)) == "(0+0i)*x1^0*x2^0*x3^0"
    for dim in (1, 2, 3, 4):
        zero = PolyRealN.zero(dim)
        assert parse_poly_real(format_poly_real(zero)) == zero


def test_json_rejects_duplicates():
    items = [
        {"a": 1, "b": 0, "re": "1", "im": "0"},
        {"a": 1, "b": 0, "re": "2", "im": "0"},
    ]
    with pytest.raises(ValueError, match=r"^duplicate exponent pair \(1, 0\) in JSON polynomial$"):
        poly_zzbar_from_json(items)
    obj = {
        "dim": 2,
        "terms": [
            {"alpha": [0, 2], "re": "1", "im": "0"},
            {"alpha": [0, 2], "re": "2", "im": "0"},
        ],
    }
    with pytest.raises(ValueError, match=r"^duplicate multi-index \(0, 2\) in JSON polynomial$"):
        poly_real_from_json(obj)


@pytest.mark.parametrize(
    "item",
    [
        {"a": 1.9, "b": 0, "re": "1", "im": "0"},
        {"a": True, "b": 0, "re": "1", "im": "0"},
        {"a": 1, "b": "2", "re": "1", "im": "0"},
        {"a": 1, "b": 0, "re": 0.1, "im": "0"},
        {"a": 1, "b": 0, "re": "1", "im": 0.5},
        {"a": 1, "b": 0, "re": True, "im": "0"},
        {"a": 1, "b": 0, "re": "1/0", "im": "0"},
    ],
)
def test_json_rejects_inexact_values(item):
    with pytest.raises(ValueError):
        poly_zzbar_from_json([item])
    term = {"alpha": [item["a"], item["b"]], "re": item["re"], "im": item["im"]}
    with pytest.raises(ValueError):
        poly_real_from_json({"dim": 2, "terms": [term]})


@pytest.mark.parametrize("dim, alpha", [(2.5, [1, 0]), ("2", [1, 0]), (True, [1])])
def test_json_rejects_a_dimension_that_is_not_an_int(dim, alpha):
    with pytest.raises(ValueError):
        poly_real_from_json({"dim": dim, "terms": [{"alpha": alpha, "re": "1", "im": "0"}]})


@pytest.mark.parametrize("exponent", [2**31, 2**40])
def test_json_rejects_an_exponent_past_the_32_bit_bound(exponent):
    with pytest.raises(ValueError, match="32-bit bound"):
        poly_zzbar_from_json([{"a": exponent, "b": 0, "re": "1", "im": "0"}])
    term = {"alpha": [0, exponent], "re": "1", "im": "0"}
    with pytest.raises(ValueError, match="32-bit bound"):
        poly_real_from_json({"dim": 2, "terms": [term]})


def test_json_reads_ints_and_rational_strings():
    p = poly_real_from_json(
        {"dim": 2, "terms": [{"alpha": [1, 0], "re": 3, "im": "-1/2"}]}
    )
    assert p == PolyRealN.monomial((1, 0), GaussianRational(3, Fraction(-1, 2)))


def test_term_order_is_graded_lex():
    p = Z**2 + ZB + Z * ZB + PolyZZbar.constant(5)
    text = format_poly_zzbar(p)
    assert text.index("z^0*zbar^0") < text.index("z^0*zbar^1")
    assert text.index("z^0*zbar^1") < text.index("z^1*zbar^1")
    assert text.index("z^1*zbar^1") < text.index("z^2*zbar^0")


# -- the ring comes from the variable names, not from the surviving terms ------


@pytest.mark.parametrize("text", ["w^0", "0*w", "z + w - w"])
def test_unknown_variable_rejected_whatever_its_exponent(text):
    with pytest.raises(ParseError, match="unknown variable 'w'"):
        parse_polynomial(text)


def test_unknown_variable_reported_at_its_token():
    # "b" also occurs inside "zbar", at column 2
    with pytest.raises(ParseError, match="column 8: unknown variable 'b'"):
        parse_polynomial("zbar + b")


@pytest.mark.parametrize("text", ["x - x + z", "z^0 + x", "0*zbar + x1"])
def test_families_cannot_mix_even_when_terms_cancel(text):
    with pytest.raises(ParseError, match="cannot mix"):
        parse_polynomial(text)


def test_dimension_counts_variables_with_zero_exponent():
    p = parse_polynomial("x3^0 + x1")
    assert p == PolyRealN(3, {(0, 0, 0): 1, (1, 0, 0): 1})
    assert parse_polynomial("0*x") == PolyRealN.zero(2)
    assert parse_polynomial("2*i - i") == PolyZZbar.constant(GaussianRational(0, 1))


def test_overflow_inside_the_parse_is_a_parse_error():
    # The column is that of the '^' or '*' whose power or product overflows.
    cases = [
        ("(z^2000000000)^2", 15, 4000000000),
        ("(x1^2000000000 + x2)^2", 21, 4000000000),
        ("z + (z^2000000000)^2", 19, 4000000000),
        ("z^2000000000*z^2000000000", 13, 4000000000),
        ("3*z^2000000000 * 2 * zbar * z^2000000000", 27, 4000000000),
        ("z^1500000000*(z^1000000000+1)", 13, 2500000000),
        ("(z+1)*(zbar+z^2147483647)", 6, 2147483648),
    ]
    for text, column, top in cases:
        message = f"column {column}: exponent {top} exceeds the 32-bit bound"
        with pytest.raises(ParseError, match=message):
            parse_polynomial(text)


def test_a_zero_factor_ends_the_overflow_checks_of_its_term():
    # As in ring arithmetic: a product with zero is zero, whatever follows.
    assert parse_polynomial("0*z^2000000000*z^2000000000") == PolyZZbar.zero()
    assert parse_polynomial("z^2000000000*(z-z)*z^2000000000") == PolyZZbar.zero()


def test_a_literal_with_a_zero_denominator_is_read_by_the_general_grammar():
    with pytest.raises(ParseError, match="column 2: zero denominator in '1/0'"):
        parse_polynomial("(1/0+2i)")
    with pytest.raises(ParseError, match="column 4: zero denominator in '2/00i'"):
        parse_polynomial("(1+2/00i)*z")


# -- numbers past the interpreter's int/str digit limit -------------------------


def test_numbers_of_any_length_parse():
    big = (10**5000 - 1) // 9  # 5,000 ones
    assert parse_polynomial("1" * 5000 + "*z") == Z * big
    assert parse_polynomial("(" + "1" * 5000 + "-1/" + "1" * 5000 + "i)") == PolyZZbar.constant(
        GaussianRational(big, Fraction(-1, big))
    )
    with pytest.raises(ParseError, match="column 3: exponent 9{5000} exceeds the 32-bit bound"):
        parse_polynomial("z^" + "9" * 5000)


def test_json_rationals_and_ellipse_text_of_any_length():
    digits = "1" + "0" * 4999 + "1"  # 10**5000 + 1
    assert rational_from_json("-" + digits + "/3", "re") == Fraction(-(10**5000 + 1), 3)
    e = Ellipse.from_string(digits + ",1")
    assert e.a == 10**5000 + 1
    assert e.to_json_dict()["a"] == digits


def test_text_and_json_round_trip_a_coefficient_of_over_6000_digits():
    c = GaussianRational(Fraction(3**13000, 7**7000 + 1), -(2**21000))
    assert len(c.text_parts()[0]) > 6000
    p = Z * c + ZB * 2
    assert parse_poly_zzbar(format_poly_zzbar(p)) == p
    assert poly_zzbar_from_json(poly_zzbar_to_json(p)) == p
    q = PolyRealN.monomial((2, 0, 1), c)
    assert parse_poly_real(format_poly_real(q)) == q
    assert poly_real_from_json(poly_real_to_json(q)) == q


# -- nesting bound ----------------------------------------------------------------


def test_nesting_up_to_the_bound_parses():
    text = "(" * MAX_NESTING + "z" + ")" * MAX_NESTING
    assert parse_poly_zzbar(text) == Z


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 400, 5000])
def test_nesting_past_the_bound_is_a_parse_error(depth):
    text = "(" * depth + "z" + ")" * depth
    with pytest.raises(ParseError, match=f"column {MAX_NESTING + 1}: parentheses nested"):
        parse_polynomial(text)


def test_a_literal_counts_as_one_nesting_level():
    inner = "(" * (MAX_NESTING - 1) + "(1+2i)" + ")" * (MAX_NESTING - 1)
    assert parse_poly_zzbar(inner) == PolyZZbar.constant(GaussianRational(1, 2))
    with pytest.raises(ParseError, match=f"column {MAX_NESTING + 1}: parentheses nested"):
        parse_polynomial("(" + inner + ")")


# -- dimension bound --------------------------------------------------------------


def test_numbered_variables_up_to_the_bound_parse():
    p = parse_polynomial(f"x{MAX_VARIABLES} + x1")
    assert p.dim == MAX_VARIABLES


@pytest.mark.parametrize(
    "text, column",
    [
        (f"x{MAX_VARIABLES + 1}", 1),
        ("1 + x100000", 5),
        ("x2*x1000000000^2 + x1000000000", 4),
        ("x" + "9" * 5000, 1),  # an index past the int/str digit limit
    ],
    ids=["next", "1e5", "1e9", "5000-digit"],
)
def test_numbered_variable_past_the_bound_is_a_parse_error(text, column):
    with pytest.raises(
        ParseError, match=rf"column {column}: 'x\d+' is past the bound of {MAX_VARIABLES} variables"
    ):
        parse_polynomial(text)


def test_requested_dimension_past_the_bound_is_a_parse_error():
    assert parse_poly_real("x1", dim=MAX_VARIABLES).dim == MAX_VARIABLES
    with pytest.raises(ParseError, match=f"dim={MAX_VARIABLES + 1} is past the bound"):
        parse_poly_real("x1", dim=MAX_VARIABLES + 1)


def test_many_unary_signs_parse():
    assert parse_poly_zzbar("-" * 3000 + "z") == Z
    assert parse_poly_zzbar("-" * 3001 + "z^2") == -(Z**2)
    assert parse_poly_zzbar("+-" * 2000 + "zbar") == ZB


def test_cli_reports_deep_nesting_in_one_line(capsys):
    text = "(" * 400 + "z" + ")" * 400
    code = main(["szego", "--ellipse", "2,1", "--poly", text])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        f"error: parse error at column {MAX_NESTING + 1}: "
        f"parentheses nested deeper than {MAX_NESTING}"
    ]


# -- properties -------------------------------------------------------------------

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
coefficients = st.builds(GaussianRational, small_rationals, small_rationals)


@st.composite
def real_polys(draw):
    dim = draw(st.integers(1, 4))
    keys = st.sampled_from(monomials_real(dim, 4))
    return PolyRealN(dim, draw(st.dictionaries(keys, coefficients, max_size=8)))


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from(monomials_real(2, 6)), coefficients, max_size=14),
    real_polys(),
)
def test_json_round_trip_random(terms, q):
    p = PolyZZbar(terms)
    assert poly_zzbar_from_json(poly_zzbar_to_json(p)) == p
    assert poly_real_from_json(poly_real_to_json(q)) == q


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(monomials_real(2, 6)), coefficients, max_size=10))
def test_text_round_trip_zzbar(terms):
    p = PolyZZbar(terms)
    assert parse_poly_zzbar(format_poly_zzbar(p)) == p


@settings(max_examples=150, deadline=None)
@given(real_polys())
def test_text_round_trip_real(p):
    text = format_poly_real(p)
    assert parse_poly_real(text, dim=p.dim) == p
    assert parse_poly_real(text) == p


# Tokens joined by spaces, so digits never merge into an exponent above 9.
FUZZ_TOKENS = [
    "z", "zbar", "x", "y", "x1", "x2", "x3", "w", "i", "3i", "1/2i", "0",
    "1", "2", "9", "1/2", "1/0", "+", "-", "*", "^", "(", ")", "/", "#",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=12))
def test_parser_returns_a_polynomial_or_raises_parse_error(tokens):
    try:
        value = parse_polynomial(" ".join(tokens))
    except ParseError:
        return
    assert isinstance(value, (PolyZZbar, PolyRealN))


# -- the parser against ring arithmetic ------------------------------------------

FAMILIES = {"zzbar": ["z", "zbar"], "xy": ["x", "y"], "numbered": ["x1", "x2", "x3"]}
SPACES = st.sampled_from(["", "", "", " ", "  "])
# Variables take exponents near the 32-bit bound, so that products and powers
# overflow; numbers and sums take small ones, which keep the arithmetic cheap.
VARIABLE_EXPONENTS = st.sampled_from([0, 1, 2, 3, 1_000_000_000, 1_500_000_000, 2**31 - 1])


def _ring(names):
    """constant(c) and the variables of the ring that parse_polynomial picks."""
    if names and names <= {"x1", "x2", "x3"}:
        dim = max(int(n[1:]) for n in names)
        return (lambda c: PolyRealN.constant(dim, c)), {
            f"x{k + 1}": PolyRealN.variable(dim, k) for k in range(dim)
        }
    if names & {"x", "y"}:
        return (lambda c: PolyRealN.constant(2, c)), {
            "x": PolyRealN.variable(2, 0), "y": PolyRealN.variable(2, 1)
        }
    return PolyZZbar.constant, {"z": Z, "zbar": ZB}


@st.composite
def _ratio(draw, signed=False):
    """The text "p" or "p/q" (not reduced, zero included) and its value."""
    p = draw(st.integers(-7 if signed else 0, 7))
    q = draw(st.integers(1, 6))
    return (f"{p}/{q}", Fraction(p, q)) if draw(st.booleans()) else (str(p), Fraction(p))


@st.composite
def _number(draw):
    """A number atom as (text, value): a literal, a rational or an imaginary."""
    kind = draw(st.sampled_from(["literal", "rational", "imag"]))
    if kind == "literal":
        (re_text, re), (im_text, im) = draw(_ratio(signed=True)), draw(_ratio())
        sign = draw(st.sampled_from("+-"))
        # With spaces inside, the literal is read as a parenthesised sum.
        pieces = ["(", re_text, sign, im_text + "i", ")"]
        text = "".join(piece + draw(SPACES) for piece in pieces[:-1]) + ")"
        return text, GaussianRational(re, im if sign == "+" else -im)
    if kind == "rational":
        text, value = draw(_ratio())
        return text, GaussianRational(value)
    if draw(st.booleans()):
        return "i", GaussianRational(0, 1)
    text, value = draw(_ratio())
    return text + "i", GaussianRational(0, value)


@st.composite
def _factor(draw, names, depth):
    """(text, evaluate, variables named) of sign* primary [^n]."""
    signs = draw(st.text("+-", max_size=2))
    kind = draw(st.sampled_from(["number", "variable", "sum"] if depth < 2 else ["number", "variable"]))
    if kind == "number":
        text, value = draw(_number())
        primary, used = (lambda const, var: const(value)), set()
        exponent = st.integers(0, 3)
    elif kind == "variable":
        name = draw(st.sampled_from(names))
        text, primary, used = name, (lambda const, var: var[name]), {name}
        exponent = VARIABLE_EXPONENTS
    else:
        inner, primary, used = draw(_sum(names, depth + 1))
        text = "(" + draw(SPACES) + inner + draw(SPACES) + ")"
        exponent = st.integers(0, 2)
    n = draw(st.none() | exponent)
    if n is not None:
        text += draw(SPACES) + "^" + draw(SPACES) + str(n)

    def evaluate(const, var):
        value = primary(const, var)
        if n is not None:
            value = value**n
        return -value if signs.count("-") % 2 else value

    return " ".join(signs) + draw(SPACES) + text, evaluate, used


@st.composite
def _term(draw, names, depth):
    factors = draw(st.lists(_factor(names, depth), min_size=1, max_size=3))

    def evaluate(const, var):
        value = factors[0][1](const, var)
        for _, f, _ in factors[1:]:
            value = value * f(const, var)
        return value

    text = (draw(SPACES) + "*" + draw(SPACES)).join(t for t, _, _ in factors)
    return text, evaluate, set().union(*(u for _, _, u in factors))


@st.composite
def _sum(draw, names, depth=0):
    terms = draw(st.lists(_term(names, depth), min_size=1, max_size=3))
    ops = [draw(st.sampled_from("+-")) for _ in terms[1:]]

    def evaluate(const, var):
        value = terms[0][1](const, var)
        for op, (_, t, _) in zip(ops, terms[1:]):
            value = value + t(const, var) if op == "+" else value - t(const, var)
        return value

    text = terms[0][0] + "".join(
        draw(SPACES) + op + draw(SPACES) + t for op, (t, _, _) in zip(ops, terms[1:])
    )
    return text, evaluate, set().union(*(u for _, _, u in terms))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)).flatmap(lambda family: _sum(FAMILIES[family])))
def test_parser_agrees_with_ring_arithmetic(expression):
    # Left-to-right ring arithmetic on the expression's tree gives the same
    # terms in the same dict order, and overflows exactly where parsing fails.
    text, evaluate, names = expression
    try:
        expected = evaluate(*_ring(names))
    except OverflowError as exc:
        with pytest.raises(ParseError, match=f"{exc}$"):
            parse_polynomial(text)
        return
    value = parse_polynomial(text)
    assert type(value) is type(expected) and value._dim == expected._dim
    assert list(value._terms.items()) == list(expected._terms.items())


def test_exact_text_round_trips_at_the_smallest_digit_limit():
    # CPython accepts int <-> str digit limits down to 640; every exact text
    # and JSON form must work under it for numbers of any length.
    n = 3**12600  # 6,012 digits
    c = GaussianRational(Fraction(n, n + 2), Fraction(-n - 1, 7))
    p = PolyZZbar({(0, 0): 1, (2, 1): c})
    q = PolyRealN(3, {(1, 0, 2): c, (0, 0, 0): -c})
    axis = Fraction(10**701 + 1, 3)  # a 702-digit numerator

    def texts():
        return (
            format_poly_zzbar(p),
            format_poly_real(q),
            json.dumps(poly_zzbar_to_json(p)),
            json.dumps(poly_real_to_json(q)),
            repr(c),
        )

    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # no limit: the reference texts
        expected = texts()
        axis_text = f"{axis.numerator}/{axis.denominator}"
        sys.set_int_max_str_digits(640)
        assert texts() == expected
        zzbar_text, real_text, zzbar_json, real_json, _ = expected
        assert parse_poly_zzbar(zzbar_text) == p
        assert parse_poly_real(real_text) == q
        assert poly_zzbar_from_json(json.loads(zzbar_json)) == p
        assert poly_real_from_json(json.loads(real_json)) == q
        e = Ellipse.from_string(f"{axis_text},1")
        assert e.a == axis
        assert e.to_json_dict()["a"] == axis_text
    finally:
        sys.set_int_max_str_digits(limit)

"""Exact arithmetic in the field of Gaussian rationals.

A Gaussian rational is a complex number whose real and imaginary parts are
both rational.  Together they form a field, so addition, multiplication,
conjugation and division by a nonzero element are all exact; no rounding
ever occurs.  Instances are immutable and hashable, which lets them serve
as dictionary values in sparse polynomials and as matrix entries in exact
linear solves.

Representation.  A value is stored as one integer triple (a, b, d) meaning
(a + b*i)/d, with the invariants

  * d > 0,
  * gcd(a, b, d) = 1,
  * zero is (0, 0, 1).

The form is canonical, so equality is triple equality.  Each field
operation works on Python ints and normalises its result once, with one
math.gcd over the numerator parts and the denominator; storing re and im
as two Fractions instead costs one gcd per part per intermediate
Fraction, which made number construction the dominant cost of the exact
solver.  Two cheaper routes keep the result reduced without a full gcd:
a sum over coprime denominators is already reduced (and otherwise only the
gcd of the denominators can survive), and scaling by a rational r = n/m
cross-cancels like Fraction multiplication does.  re and im are read-only
Fraction views built on demand.  As with fractions.Fraction, the three
ints live in private slots and no public operation ever changes them.

Sums of many products, as in a polynomial product, need not reduce every
partial result: _cleared writes a collection of values over the lcm of
their denominators, so the caller can add integer numerators and reduce
each total once with _reduce.  _minus_dot (base minus a sum of products)
and _int_dot (a sum of integer multiples) likewise add numerators over a
growing common denominator and reduce the total once.  _images_mod maps a
matrix into Z/p, where a determinant is cheap to decide.

Exact text has no size limit.  CPython refuses an int <-> str conversion
of more than sys.get_int_max_str_digits() digits (4,300 by default), so
_int_text and _int_from_text convert a longer number in halves, each
piece short enough for any limit the interpreter accepts; the common
case costs one length check, or none where str() is tried first.  The
process-wide limit is left as it is.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union[int, Fraction]


# Below CPython's smallest nonzero limit on int <-> str conversions (640
# digits); 2,000 bits is at most 603 digits.
_SAFE_DIGITS = 640
_SAFE_BITS = 2000


def _int_text(n: int) -> str:
    """str(n) for an int of any size."""
    if n.bit_length() <= _SAFE_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    k = n.bit_length() * 3 // 20  # about half of its digits; log10(2) > 0.3
    hi, lo = divmod(n, 10**k)
    return _int_text(hi) + _int_text(lo).zfill(k)


def _int_from_text(text: str) -> int:
    """int(text) for an optionally signed string of decimal digits of any length."""
    if len(text) <= _SAFE_DIGITS:
        return int(text)
    if text[0] in "+-":
        n = _int_from_text(text[1:])
        return -n if text[0] == "-" else n
    k = len(text) // 2
    return _int_from_text(text[:-k]) * 10**k + _int_from_text(text[-k:])


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # past the interpreter's int/str digit limit
        return _int_text(n) if d == 1 else f"{_int_text(n)}/{_int_text(d)}"


def _fraction_repr(n: int, d: int) -> str:
    """repr(Fraction(n, d)) for d > 0, also past the int/str digit limit."""
    g = gcd(n, d)
    return f"Fraction({_int_text(n // g)}, {_int_text(d // g)})"


def fraction_text(value: Fraction) -> str:
    """str(value) for a Fraction of any size."""
    return _ratio_text(value.numerator, value.denominator)


_RATIO_RE = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*")


def rational_from_text(text: str) -> Fraction:
    """Fraction(text), also for a "p" or "p/q" string of any length.

    Raises ValueError or ZeroDivisionError, as Fraction does.
    """
    if len(text) > _SAFE_DIGITS and (m := _RATIO_RE.fullmatch(text)):
        num, den = m.groups()
        return Fraction(_int_from_text(num), _int_from_text(den) if den else 1)
    return Fraction(text)


def _ratio_bits(n: int, d: int) -> int:
    """Bit lengths of the numerator and denominator of n/d in lowest terms."""
    g = gcd(n, d)
    return (n // g).bit_length() + (d // g).bit_length()


def rational_from_json(value, name: str) -> Fraction:
    """An exact rational read from JSON: an int or a rational string.

    A float holds a binary fraction, not the decimal it was written as, and
    JSON's true and false arrive as ints; all of them raise ValueError, as
    does a malformed string or a zero denominator.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{name} must be an integer or a rational string, got {value!r}")
    try:
        return Fraction(value) if isinstance(value, int) else rational_from_text(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad {name} {value!r}: {exc}") from exc


class GaussianRational:
    """A complex number (a + b*i)/d held as a reduced integer triple."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        if not isinstance(re, (int, Fraction)) or not isinstance(im, (int, Fraction)):
            raise TypeError(
                f"cannot interpret ({re!r}, {im!r}) as a Gaussian rational"
            )
        # Both parts are in lowest terms, so over the lcm of their
        # denominators no prime divides a, b and d together.
        rd, jd = re.denominator, im.denominator
        d = rd // gcd(rd, jd) * jd
        self = object.__new__(cls)
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // jd)
        self._d = d
        return self

    @staticmethod
    def coerce(value) -> "GaussianRational":
        """Accept ints, Fractions and GaussianRationals interchangeably."""
        g = _operand(value)
        if g is None:
            raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
        return g

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return _sum(self._a, self._b, self._d, other._a, other._b, other._d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return _sum(self._a, self._b, self._d, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        if not b2:
            return _scale(a1, b1, d1, a2, d2)
        if not b1:
            return _scale(a2, b2, d2, a1, d1)
        return _reduce(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        a2, b2, d2 = other._a, other._b, other._d
        if not b2:
            if not a2:
                raise ZeroDivisionError("division by zero Gaussian rational")
            if a2 < 0:
                return _scale(self._a, self._b, self._d, -d2, -a2)
            return _scale(self._a, self._b, self._d, d2, a2)
        # x / y = x * conj(y) * d2 / (a2^2 + b2^2)
        a1, b1 = self._a, self._b
        return _reduce(
            (a1 * a2 + b1 * b2) * d2,
            (b1 * a2 - a1 * b2) * d2,
            self._d * (a2 * a2 + b2 * b2),
        )

    def __rtruediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other / self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return ONE / self ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """Squared modulus re**2 + im**2, an exact rational."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    # -- predicates and conversions ---------------------------------------

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def is_real(self) -> bool:
        return not self._b

    def __eq__(self, other) -> bool:
        if type(other) is GaussianRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                not self._b
                and self._d == other.denominator
                and self._a == other.numerator
            )
        return NotImplemented

    def __hash__(self):
        # Equal values hash equally: a real value compares equal to its
        # Fraction/int, so it must hash like one.
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __complex__(self) -> complex:
        # int / int is correctly rounded, so this equals float(re), float(im).
        return complex(self._a / self._d, self._b / self._d)

    def bit_size(self) -> int:
        """Symbolic magnitude: total bit length of numerators and denominators.

        The bit lengths are those of re and im in lowest terms.  Used for
        pivot selection in exact elimination, where keeping pivots small
        limits coefficient blow-up.
        """
        a, b, d = self._a, self._b, self._d
        if d == 1:
            return a.bit_length() + b.bit_length() + 2
        return _ratio_bits(a, d) + _ratio_bits(b, d)

    def text_parts(self) -> tuple[str, str]:
        """(str(self.re), str(self.im)), formatted from the triple."""
        return _ratio_text(self._a, self._d), _ratio_text(self._b, self._d)

    def __repr__(self):
        re, im = _fraction_repr(self._a, self._d), _fraction_repr(self._b, self._d)
        return f"GaussianRational({re}, {im})"

    def __str__(self):
        re, im = self.text_parts()
        if im[0] == "-":
            return f"{re}-{im[1:]}i"
        return f"{re}+{im}i"


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple that already satisfies the invariants."""
    g = _new(GaussianRational)
    g._a = a
    g._b = b
    g._d = d
    return g


def _operand(value) -> GaussianRational | None:
    """value as a GaussianRational, or None for a type the field does not take.

    The operators return NotImplemented on None, so Python can try the
    other operand's reflected method.
    """
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return None


def _reduce(a: int, b: int, d: int) -> GaussianRational:
    """Normalise (a + b*i)/d, d > 0, with one gcd."""
    g = gcd(d, a, b)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


def _sum(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> GaussianRational:
    """(a1 + b1*i)/d1 + (a2 + b2*i)/d2 for two reduced triples.

    A prime dividing only d1/g (g = gcd(d1, d2)) would have to divide a1
    and b1 too, so only a factor of g can be common to the result; with
    coprime denominators the result is already reduced.
    """
    g = gcd(d1, d2)
    if g == 1:
        return _make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    s, t = d1 // g, d2 // g
    a, b = a1 * t + a2 * s, b1 * t + b2 * s
    h = gcd(g, a, b)
    if h == 1:
        return _make(a, b, s * d2)
    return _make(a // h, b // h, s * (d2 // h))


def _scale(a: int, b: int, d: int, n: int, m: int) -> GaussianRational:
    """(a + b*i)/d times the rational n/m, both reduced and m > 0.

    Cross-cancelling like Fraction multiplication leaves nothing to reduce:
    gcd(n, d) takes the factors of d that n can cancel, and the common
    factor of a and b takes those of m.  A zero factor cancels the other's
    denominator entirely, so zero comes out as (0, 0, 1).
    """
    g1 = gcd(n, d)
    if g1 != 1:
        n //= g1
        d //= g1
    g2 = gcd(m, a, b)
    if g2 != 1:
        a //= g2
        b //= g2
        m //= g2
    return _make(a * n, b * n, d * m)


def _cleared(values) -> tuple[int, list[tuple[int, int]]]:
    """A nonempty collection of GaussianRationals over one denominator.

    Returns (d, [(a, b), ...]) with each value equal to (a + b*i)/d, in
    iteration order, where d is the lcm of the denominators.
    """
    d = 1
    for g in values:
        x = g._d
        if d % x:
            d = d // gcd(d, x) * x
    return d, [(g._a * (m := d // g._d), g._b * m) for g in values]


def _minus_dot(base: GaussianRational, pairs: list) -> GaussianRational:
    """base - sum(u * v for u, v in pairs), reduced once.

    Each Gaussian-integer product a_u*a_v over d_u*d_v is added into one
    numerator over the lcm of base's denominator and those products', so
    only the total takes a full gcd.  No pairs return base; one pair takes
    the field operations, whose real-factor routes are cheaper still.
    """
    if len(pairs) < 2:
        if not pairs:
            return base
        ((u, v),) = pairs
        return base - u * v
    a, b, d = base._a, base._b, base._d
    for u, v in pairs:
        a1, b1, a2, b2 = u._a, u._b, v._a, v._b
        e = u._d * v._d
        g = gcd(d, e)
        if g == e:
            m = d // e
            a -= (a1 * a2 - b1 * b2) * m
            b -= (a1 * b2 + b1 * a2) * m
        else:
            s, t = d // g, e // g
            a = a * t - (a1 * a2 - b1 * b2) * s
            b = b * t - (a1 * b2 + b1 * a2) * s
            d *= t
    return _reduce(a, b, d)


def _int_dot(pairs: list) -> GaussianRational:
    """sum(n * g for n, g in pairs) for int weights n, reduced once.

    The weighted numerators are added over the lcm of the denominators, so
    only the total takes a full gcd; one pair is scaled by n/1 with _scale,
    which needs no full gcd at all.
    """
    if len(pairs) == 1:
        ((n, g),) = pairs
        return _scale(g._a, g._b, g._d, n, 1)
    a = b = 0
    d = 1
    for n, g in pairs:
        e = g._d
        h = gcd(d, e)
        if h == e:
            m = n * (d // e)
            a += g._a * m
            b += g._b * m
        else:
            s, t = d // h, e // h
            a = a * t + g._a * n * s
            b = b * t + g._b * n * s
            d *= t
    return _reduce(a, b, d)


def _images_mod(matrix, p: int, root: int) -> list[list[int]] | None:
    """The image of a matrix of GaussianRationals in Z/p, for a prime p and
    a root of root**2 = -1 mod p: (a + b*i)/d maps to (a + b*root)/d mod p.

    This is a ring map wherever it is defined, so it carries a determinant
    to the determinant of the image.  None when p divides a denominator,
    which has no image.
    """
    inverses = {1: 1}
    image = []
    for row in matrix:
        out = []
        for g in row:
            a, b, d = g._a, g._b, g._d
            if not (a or b):
                out.append(0)
                continue
            t = inverses.get(d)
            if t is None:
                if d % p == 0:
                    return None
                t = inverses[d] = pow(d, -1, p)
            out.append((a + b * root) * t % p)
        image.append(out)
    return image


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
I = _make(0, 1, 1)

"""Exact arithmetic in the field of Gaussian rationals.

A Gaussian rational is a complex number whose real and imaginary parts are
both rational.  Together they form a field, so addition, multiplication,
conjugation and division by a nonzero element are all exact; no rounding
ever occurs.  Instances are immutable and hashable, which lets them serve
as dictionary values in sparse polynomials and as matrix entries in exact
linear solves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class GaussianRational:
    """A complex number re + im*i with exact rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        # Fraction keeps itself in lowest terms with a positive denominator,
        # so canonical form is automatic.
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(value) -> "GaussianRational":
        """Accept ints, Fractions and GaussianRationals interchangeably."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero Gaussian rational")
        if not other.im:
            return GaussianRational(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

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
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """Squared modulus re**2 + im**2, an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates and conversions ---------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = GaussianRational.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # Equal values hash equally: a real value compares equal to its
        # Fraction/int, so it must hash like one.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def bit_size(self) -> int:
        """Symbolic magnitude: total bit length of numerators and denominators.

        Used for pivot selection in exact elimination, where keeping pivots
        small limits coefficient blow-up.
        """
        return (
            self.re.numerator.bit_length()
            + self.re.denominator.bit_length()
            + self.im.numerator.bit_length()
            + self.im.denominator.bit_length()
        )

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

"""Ellipse and ellipsoid domain descriptors.

An Ellipsoid in R^n is the sublevel set {x : (x-c)^T Q (x-c) < 1} of a
symmetric positive definite rational matrix Q; its defining polynomial
r(x) = (x-c)^T Q (x-c) - 1 has degree exactly 2, is negative at the center
and zero on the boundary.  Positive definiteness is certified exactly via
leading principal minors.

An Ellipse is the planar axis-aligned special case with semi-axes a, b and
center (h, k), kept as its own type because the Szego machinery wants the
defining polynomial in z/zbar form and its Wirtinger derivatives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import det_exact
from .parsing import MAX_VARIABLES
from .polynomials import PolyRealN, PolyZZbar
from .rational import (
    GaussianRational, fraction_text, rational_from_json, rational_from_text,
)


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            "domain parameters must be exact rationals (int, Fraction or string)"
        )
    return Fraction(value)


def _json_list(value, name: str) -> list[Fraction]:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return [rational_from_json(v, f"{name} entry") for v in value]


@dataclass(frozen=True)
class Ellipsoid:
    """Positive definite quadric domain in R^n."""

    dim: int
    Q: tuple[tuple[Fraction, ...], ...]
    center: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise ValueError("dimension must be positive")
        if n > MAX_VARIABLES:
            raise ValueError(f"dimension {n} is past the bound of {MAX_VARIABLES}")
        Q = tuple(tuple(_frac(v) for v in row) for row in self.Q)
        center = tuple(_frac(v) for v in self.center)
        if len(Q) != n or any(len(row) != n for row in Q):
            raise ValueError(f"Q must be a {n}x{n} matrix")
        if len(center) != n:
            raise ValueError(f"center must have {n} coordinates")
        for i in range(n):
            for j in range(i):
                if Q[i][j] != Q[j][i]:
                    raise ValueError("Q must be symmetric")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "center", center)
        for k in range(1, n + 1):
            minor = [
                [GaussianRational(Q[i][j]) for j in range(k)] for i in range(k)
            ]
            d = det_exact(minor)
            if d.re <= 0:
                raise ValueError(
                    f"Q is not positive definite (leading {k}x{k} minor = {d.re})"
                )

    def defining_poly(self) -> PolyRealN:
        """r(x) = (x - center)^T Q (x - center) - 1, of degree exactly 2."""
        return self._r

    @cached_property
    def _r(self) -> PolyRealN:
        n = self.dim
        shifted = [
            PolyRealN.variable(n, i) - PolyRealN.constant(n, self.center[i])
            for i in range(n)
        ]
        r = PolyRealN.constant(n, -1)
        for i in range(n):
            for j in range(n):
                if self.Q[i][j]:
                    r = r + shifted[i] * shifted[j] * self.Q[i][j]
        return r

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "Q": [fraction_text(v) for row in self.Q for v in row],
            "center": [fraction_text(v) for v in self.center],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "Ellipsoid":
        """Read the to_json_dict form, or the planar {"a", "b"[, "h", "k"]} form.

        dim must be an int, and every other number an int or a rational
        string: like the constructors, this rejects floats.  Any malformed
        value raises ValueError.
        """
        if not isinstance(obj, dict):
            raise ValueError("ellipsoid JSON must be an object")
        if {"a", "b"} <= obj.keys():
            a, b, h, k = (rational_from_json(obj.get(name, 0), name) for name in "abhk")
            return Ellipse(a, b, h, k).to_ellipsoid()
        for name in ("dim", "Q", "center"):
            if name not in obj:
                raise ValueError(f"ellipsoid JSON has no {name!r} field")
        dim = obj["dim"]
        flat, center = _json_list(obj["Q"], "Q"), _json_list(obj["center"], "center")
        if type(dim) is not int:
            raise ValueError(f"dim must be an integer, got {dim!r}")
        if len(flat) != dim * dim:
            raise ValueError(
                f"Q has {len(flat)} entries, expected {dim * dim} (row-major)"
            )
        Q = tuple(tuple(flat[i * dim + j] for j in range(dim)) for i in range(dim))
        return Ellipsoid(dim=dim, Q=Q, center=center)

    @staticmethod
    def from_json(text: str) -> "Ellipsoid":
        return Ellipsoid.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class Ellipse:
    """Axis-aligned planar ellipse with rational semi-axes and center."""

    a: Fraction
    b: Fraction
    h: Fraction = Fraction(0)
    k: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("a", "b", "h", "k"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        if self.a <= 0 or self.b <= 0:
            raise ValueError("semi-axes must be positive")

    # An Ellipse is part of the key of every cache lookup, and hashing or
    # comparing four Fractions costs microseconds.  Both go through the
    # fields' integer numerators and denominators, read once per instance;
    # Fractions are reduced, so equal ellipses have equal integers.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._ints == other._ints

    def __hash__(self):
        return self._hash

    @cached_property
    def _ints(self) -> tuple[int, ...]:
        return tuple(
            n for v in (self.a, self.b, self.h, self.k)
            for n in (v.numerator, v.denominator)
        )

    @cached_property
    def _hash(self) -> int:
        return hash(self._ints)

    @staticmethod
    def from_string(text: str) -> "Ellipse":
        """Parse 'a,b[,h,k]' with rational entries, e.g. '2,1,0,0' or '3/2,1'."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) not in (2, 4):
            raise ValueError(
                f"expected 'a,b' or 'a,b,h,k', got {len(parts)} fields"
            )
        try:
            values = [rational_from_text(p) for p in parts]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad ellipse parameter in {text!r}: {exc}") from exc
        if len(parts) == 2:
            values += [Fraction(0), Fraction(0)]
        return Ellipse(*values)

    def is_disc(self) -> bool:
        return self.a == self.b

    def to_ellipsoid(self) -> Ellipsoid:
        return Ellipsoid(
            dim=2,
            Q=(
                (Fraction(1) / (self.a * self.a), Fraction(0)),
                (Fraction(0), Fraction(1) / (self.b * self.b)),
            ),
            center=(self.h, self.k),
        )

    def defining_poly_xy(self) -> PolyRealN:
        """(x-h)^2/a^2 + (y-k)^2/b^2 - 1 as a real polynomial."""
        return self.to_ellipsoid().defining_poly()

    def defining_poly_zzbar(self) -> PolyZZbar:
        """The defining polynomial written exactly in z, zbar."""
        return self._r_zzbar

    @cached_property
    def _r_zzbar(self) -> PolyZZbar:
        # Substitute x = (z + zbar)/2, y = (z - zbar)/(2i) into
        # (x-h)^2/a^2 + (y-k)^2/b^2 - 1; built once per instance.
        ia2 = 1 / (self.a * self.a)
        ib2 = 1 / (self.b * self.b)
        linear = GaussianRational(-self.h * ia2, self.k * ib2)
        quadratic = (ia2 - ib2) / 4
        return PolyZZbar({
            (2, 0): quadratic,
            (1, 1): (ia2 + ib2) / 2,
            (0, 2): quadratic,
            (1, 0): linear,
            (0, 1): linear.conjugate(),
            (0, 0): self.h * self.h * ia2 + self.k * self.k * ib2 - 1,
        })

    def d_r(self) -> PolyZZbar:
        """Holomorphic derivative of the defining polynomial (degree 1)."""
        return self._r_zzbar.d_dz()

    def dbar_r(self) -> PolyZZbar:
        """Antiholomorphic derivative of the defining polynomial (degree 1)."""
        return self._r_zzbar.d_dzbar()

    def to_json_dict(self) -> dict:
        return {
            "a": fraction_text(self.a),
            "b": fraction_text(self.b),
            "h": fraction_text(self.h),
            "k": fraction_text(self.k),
        }

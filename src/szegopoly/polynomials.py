"""Sparse polynomials with exact Gaussian-rational coefficients.

One sparse ring is written once, in the private base class _SparsePoly: a
polynomial in n variables is a dict from length-n exponent tuples to
nonzero GaussianRational coefficients, and the base defines +, -, *, **,
terms, degree, equality, hashing, immutability, the first partial
derivative in one variable and evaluation at a point for every n.  Two
public types interpret the variables:

  PolyZZbar -- polynomials in the conjugate pair z, zbar; exponent keys are
               pairs (a, b) meaning z**a * zbar**b.
  PolyRealN -- polynomials in n real variables; exponent keys are length-n
               multi-indices.

The two types never mix: a ring operation between them returns
NotImplemented, so Python raises TypeError, and PolyRealN operands of
different dimensions raise ValueError.  Only the public constructors
validate, checking every exponent and coercing every coefficient.  Ring
operations, derivatives, conjugation and exact division build clean term
dicts and wrap them with the private same-type constructor _new; a product
checks for exponent overflow once, from the per-variable maximum exponents
of its two operands.  The term-dict functions _add_into, _mul_terms and
_pow_terms are the ring arithmetic itself; the text parser uses them for
every sum, product and power.  _mul_terms is the ring's product: a
one-term operand shifts the other's keys and scales its coefficients, and
any other product is the one-item case of _sum_of_products, the one
cleared-denominator product loop, which writes each operand over one
common denominator (rational._cleared), sums the Gaussian-integer
numerators of all its weighted products and term dicts per output monomial
and reduces each output coefficient once.  Exact division keeps the
remainder's monomials in a heap, so finding each leading term does not
scan the remainder, and pulls each remainder coefficient as one
rational._minus_dot when its key leads; the n-variable Laplacian likewise
sums each output coefficient with one rational._int_dot.  Both reduce each
coefficient once instead of once per contribution.  Evaluation computes each power of each
variable once, when a term first needs it, and reuses it for the later
terms.

Both types carry the Wirtinger / Laplace differential operators.  The
Laplacian of a z-zbar polynomial is 4 * d/dz d/dzbar, which agrees with
the sum of second partials of the corresponding real-variable polynomial;
the two pictures are connected by the exact changes of variables
xy_to_zzbar and zzbar_to_xy (2x = z + zbar, 2iy = z - zbar).

Conventions:
  * no stored coefficient is zero; the zero polynomial has an empty dict
  * degree of the zero polynomial is -1
  * term order is graded lexicographic: by total degree, then by exponent
    tuple, ascending.  Serialization and linear-system columns use it.
  * exponents must fit in 32 bits; violating arithmetic raises OverflowError
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, neg
from typing import Iterator, Mapping, Sequence, Union

from .rational import GaussianRational, ONE, ZERO, _cleared, _int_dot, _minus_dot, _reduce

MAX_EXPONENT = 2**31 - 1

CoefLike = Union[int, Fraction, GaussianRational]


def _check_key(key, dim: int) -> tuple:
    """The exponent tuple of a key from outside, checked."""
    key = tuple(key)
    if len(key) != dim:
        raise ValueError(f"multi-index {key} has length {len(key)}, expected {dim}")
    for e in key:
        if type(e) is not int or e < 0:
            raise ValueError(f"exponents must be nonnegative integers, got {e!r}")
        if e > MAX_EXPONENT:
            raise OverflowError(f"exponent {e} exceeds the 32-bit bound")
    return key


def _grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


def _add_into(out: dict, b: dict) -> dict:
    """Add the clean term dict b into out, in place; a sum that cancels is deleted."""
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = c
        elif s := s + c:
            out[k] = s
        else:
            del out[k]
    return out


def _mul_terms(a: dict, b: dict) -> dict:
    """The terms of the product of two term dicts.

    A one-term operand c*m shifts the other operand's keys by m and scales
    its coefficients by c, which it skips when c is ONE: distinct keys stay
    distinct and no coefficient cancels.  Otherwise the product is the one
    item of _sum_of_products, with the keys, values and order of the sum of
    term products taken pair by pair in iteration order.
    """
    if not a or not b:
        return {}
    if len(a) > 1 and len(b) > 1:
        return _sum_of_products([(a, b, 1)])
    _check_product(a, b)
    ((key, c),), terms = (a.items(), b) if len(a) == 1 else (b.items(), a)
    if c == ONE:
        return {tuple(map(add, k, key)): v for k, v in terms.items()}
    return {tuple(map(add, k, key)): v * c for k, v in terms.items()}


def _check_product(a: dict, b: dict) -> None:
    """OverflowError if a product of a term of a and one of b has an
    exponent past the 32-bit bound.

    The largest exponent of each variable in the product comes from the
    two terms holding the largest exponents in a and b, so checking those
    sums covers every pair of terms.
    """
    top = max(map(add, map(max, zip(*a)), map(max, zip(*b))))
    if top > MAX_EXPONENT:
        raise OverflowError(f"exponent {top} exceeds the 32-bit bound")


def _sum_of_products(items) -> dict:
    """The terms of sum(s * a * b) over items (a, b, s), or s * a over (a, s).

    a and b are clean term dicts of one ring and s a nonzero int; every
    product is checked for exponent overflow (_check_product) before its
    terms are multiplied.  _cleared writes each operand over one
    denominator, an item's Gaussian-integer numerators (of a alone, or the
    products of a's and b's) are scaled by s times the factor that lifts
    the item's denominator to the lcm d of all items' denominators, and
    summed per output monomial in plain ints; each output coefficient is
    reduced once, over d.  A sum that cancels is dropped on the spot and
    a later contribution to its key enters it again at the end, so one
    product item gives the keys, values and order of the sum of term
    products taken pair by pair in iteration order.
    """
    cleared, d = [], 1
    for *factors, s in items:
        if not all(factors):
            continue
        a, b = factors if len(factors) == 2 else (factors[0], None)
        e, na = _cleared(a.values())
        nb = None
        if b is not None:
            _check_product(a, b)
            db, nb = (e, na) if b is a else _cleared(b.values())
            e *= db
        cleared.append((a, na, b, nb, s, e))
        if d % e:
            d = d // gcd(d, e) * e
    acc: dict = {}
    for a, na, b, nb, s, e in cleared:
        m = s * (d // e)
        if m != 1:
            na = [(x * m, y * m) for x, y in na]
        if b is None:
            for k, (x, y) in zip(a, na):
                t = acc.get(k)
                if t is None:
                    acc[k] = [x, y]
                else:
                    t[0] += x
                    t[1] += y
                    if not (t[0] or t[1]):
                        del acc[k]
            continue
        for ka, (a1, b1) in zip(a, na):
            for kb, (a2, b2) in zip(b, nb):
                k = tuple(map(add, ka, kb))
                t = acc.get(k)
                if t is None:
                    acc[k] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
                else:
                    t[0] += a1 * a2 - b1 * b2
                    t[1] += a1 * b2 + b1 * a2
                    if not (t[0] or t[1]):
                        del acc[k]
    return {k: _reduce(x, y, d) for k, (x, y) in acc.items()}


def _pow_terms(terms: dict, n: int, dim: int) -> dict:
    """The terms of p**n for p in dim variables, by repeated squaring.

    A single term is powered directly: its exponents times n, and its
    coefficient to the n-th power.
    """
    if len(terms) == 1 and n:
        ((key, c),) = terms.items()
        top = max(key) * n
        if top > MAX_EXPONENT:
            raise OverflowError(f"exponent {top} exceeds the 32-bit bound")
        return {tuple(e * n for e in key): c**n}
    result = {(0,) * dim: ONE}
    while n:
        if n & 1:
            result = _mul_terms(result, terms)
        n >>= 1
        if n:
            terms = _mul_terms(terms, terms)
    return result


def _long_division(p: dict, r: dict) -> dict | None:
    """Exact quotient of p by r (single-divisor graded-lex division).

    Returns the term dict of q with p = r*q, or None when no such
    polynomial exists.  If the leading term of the running remainder is
    not divisible by the leading term of r, neither is the remainder:
    any exact quotient would put its own leading product term right there.

    The remainder is pulled, not pushed: each key keeps the list of
    (quotient coefficient, r coefficient) pairs that land on it, and its
    value p[key] - sum(c * ck) is formed with one rational._minus_dot, so
    reduced once, when the key becomes the leading term.  A key whose
    value is zero then is skipped.  The keys wait in a heap, greatest in
    graded-lex order first, each pushed once, when it first appears.  A
    quotient term's product with the leading term of r lands on the key
    just popped and cancels it by construction, so only its products with
    the other terms of r are recorded; they fall below the popped key, so
    no key comes back after it is done.
    """
    lead_r = max(r, key=_grlex_key)
    cr = r[lead_r]
    rest = [(k, ck) for k, ck in r.items() if k != lead_r]
    pending: dict = {k: [] for k in p}
    heap = [_heap_entry(k) for k in pending]
    heapify(heap)
    quot: dict = {}
    while heap:
        lead = heappop(heap)[2]
        value = _minus_dot(p.get(lead, ZERO), pending.pop(lead))
        if not value:
            continue
        exps = tuple(x - y for x, y in zip(lead, lead_r))
        if any(e < 0 for e in exps):
            return None
        c = value / cr
        quot[exps] = c
        for k, ck in rest:
            kk = tuple(map(add, exps, k))
            pairs = pending.get(kk)
            if pairs is None:
                pending[kk] = [(c, ck)]
                heappush(heap, _heap_entry(kk))
            else:
                pairs.append((c, ck))
    return quot


def _heap_entry(key: tuple) -> tuple:
    """A heapq entry that pops keys in descending graded-lex order."""
    return (-sum(key), tuple(map(neg, key)), key)


class _SparsePoly:
    """The sparse polynomial ring in _dim variables over the Gaussian rationals.

    Subclasses fix what the variables mean; operands of different
    subclasses never combine.
    """

    __slots__ = ("_dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[tuple, CoefLike] | None):
        clean: dict[tuple, GaussianRational] = {}
        if terms:
            for key, c in terms.items():
                key = _check_key(key, dim)
                coef = GaussianRational.coerce(c)
                if coef:
                    clean[key] = coef
        object.__setattr__(self, "_dim", dim)
        object.__setattr__(self, "_terms", clean)

    def _new(self, terms: dict):
        """Same-type polynomial on a term dict that is already clean.

        The keys must be tuples of _dim valid exponents and the values
        nonzero GaussianRationals; nothing is checked.
        """
        p = object.__new__(type(self))
        object.__setattr__(p, "_dim", self._dim)
        object.__setattr__(p, "_terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _same_ring(self, other) -> bool:
        if type(other) is not type(self):
            return False
        if other._dim != self._dim:
            raise ValueError(f"dimension mismatch: {self._dim} versus {other._dim}")
        return True

    # -- inspection ----------------------------------------------------------

    def terms(self) -> Iterator[tuple[tuple, GaussianRational]]:
        """Terms in graded-lex order (total degree, then exponents, ascending)."""
        for key in sorted(self._terms, key=_grlex_key):
            yield key, self._terms[key]

    def degree(self) -> int:
        if not self._terms:
            return -1
        return max(sum(k) for k in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._dim == other._dim and self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash((self._dim, frozenset(self._terms.items())))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        return self._new(_add_into(dict(self._terms), other._terms))

    def __sub__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        return self._new(
            _add_into(dict(self._terms), {k: -c for k, c in other._terms.items()})
        )

    def __neg__(self):
        return self._new({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if self._same_ring(other):
            return self._new(_mul_terms(self._terms, other._terms))
        if isinstance(other, _SparsePoly):
            return NotImplemented
        c = GaussianRational.coerce(other)
        if not c:
            return self._new({})
        return self._new({k: ck * c for k, ck in self._terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        return self._new(_pow_terms(self._terms, n, self._dim))

    # -- calculus and evaluation, for every n --------------------------------

    def _partial(self, axis: int):
        """The derivative in variable number axis, term by term."""
        out = {}
        for key, c in self._terms.items():
            e = key[axis]
            if e:
                out[key[:axis] + (e - 1,) + key[axis + 1 :]] = c * e
        return self._new(out)

    def _evaluate(self, coords: Sequence, powers: Sequence | None = None):
        """The value at coords, one per variable: all GaussianRational for
        an exact GaussianRational value, or all complex (scalars, or numpy
        arrays evaluated elementwise) for a complex one.  Terms are summed
        in graded-lex order, so float values do not depend on dict order.

        Each power v**e is computed once, by the first term that needs it,
        and kept in a per-variable dict from e to v**e for the later terms.
        powers, when given, is that list of dicts, one per coordinate; it
        is read and filled in place, so a caller that evaluates many
        polynomials at the same coords computes each power once in all.
        Every product and sum is the one a term-by-term loop makes (the
        sum accumulates in place where the type allows), so the value is
        bit for bit the same."""
        exact = isinstance(coords[0], GaussianRational)
        total = ZERO if exact else 0j
        if powers is None:
            powers = [{} for _ in coords]
        for key, c in self.terms():
            term = c if exact else complex(c)
            for v, e, known in zip(coords, key, powers):
                if e:
                    power = known.get(e)
                    if power is None:
                        power = known[e] = v**e
                    term = term * power
            total += term
        return total


class PolyZZbar(_SparsePoly):
    """Sparse polynomial in z and zbar over the Gaussian rationals."""

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple[int, int], CoefLike] | None = None):
        super().__init__(2, terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "PolyZZbar":
        return PolyZZbar()

    @staticmethod
    def constant(c: CoefLike) -> "PolyZZbar":
        return PolyZZbar({(0, 0): c})

    @staticmethod
    def monomial(a: int, b: int, c: CoefLike = 1) -> "PolyZZbar":
        return PolyZZbar({(a, b): c})

    @staticmethod
    def var_z() -> "PolyZZbar":
        return PolyZZbar({(1, 0): 1})

    @staticmethod
    def var_zbar() -> "PolyZZbar":
        return PolyZZbar({(0, 1): 1})

    # -- inspection ----------------------------------------------------------

    def coefficient(self, a: int, b: int) -> GaussianRational:
        return self._terms.get((a, b), ZERO)

    def is_holomorphic(self) -> bool:
        return all(b == 0 for _, b in self._terms)

    def conjugate(self) -> "PolyZZbar":
        """Complex conjugation: swaps z**a zbar**b -> z**b zbar**a."""
        return self._new({(b, a): c.conjugate() for (a, b), c in self._terms.items()})

    # -- differential operators ----------------------------------------------

    def d_dz(self) -> "PolyZZbar":
        return self._partial(0)

    def d_dzbar(self) -> "PolyZZbar":
        return self._partial(1)

    def laplacian(self) -> "PolyZZbar":
        """4 d/dz d/dzbar: c z^a zbar^b -> 4ab c z^(a-1) zbar^(b-1)."""
        return self._new({
            (a - 1, b - 1): c * (4 * a * b)
            for (a, b), c in self._terms.items()
            if a and b
        })

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, z):
        """Evaluate at a point, with zbar taken as the conjugate of z.

        A GaussianRational argument gives an exact GaussianRational value;
        anything accepted by complex() gives a float complex value.
        """
        if not isinstance(z, GaussianRational):
            z = complex(z)
        return self._evaluate((z, z.conjugate()))

    def __repr__(self):
        from .parsing import format_poly_zzbar

        return f"PolyZZbar({format_poly_zzbar(self)!r})"


class PolyRealN(_SparsePoly):
    """Sparse polynomial in n real variables over the Gaussian rationals."""

    __slots__ = ()

    def __init__(self, dim: int, terms: Mapping[tuple, CoefLike] | None = None):
        if type(dim) is not int or dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {dim!r}")
        super().__init__(dim, terms)

    @property
    def dim(self) -> int:
        return self._dim

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "PolyRealN":
        return PolyRealN(dim)

    @staticmethod
    def constant(dim: int, c: CoefLike) -> "PolyRealN":
        return PolyRealN(dim, {(0,) * dim: c})

    @staticmethod
    def variable(dim: int, axis: int) -> "PolyRealN":
        if not 0 <= axis < dim:
            raise ValueError(f"axis {axis} out of range for dimension {dim}")
        key = [0] * dim
        key[axis] = 1
        return PolyRealN(dim, {tuple(key): 1})

    @staticmethod
    def monomial(alpha: Sequence[int], c: CoefLike = 1) -> "PolyRealN":
        alpha = tuple(alpha)
        return PolyRealN(len(alpha), {alpha: c})

    # -- inspection ----------------------------------------------------------

    def coefficient(self, alpha: Sequence[int]) -> GaussianRational:
        return self._terms.get(tuple(alpha), ZERO)

    def conjugate(self) -> "PolyRealN":
        """Conjugate the coefficients (the variables are real)."""
        return self._new({k: c.conjugate() for k, c in self._terms.items()})

    # -- differential operators ----------------------------------------------

    def partial(self, axis: int) -> "PolyRealN":
        if not 0 <= axis < self._dim:
            raise ValueError(f"axis {axis} out of range for dimension {self._dim}")
        return self._partial(axis)

    def laplacian(self) -> "PolyRealN":
        """Sum of the second partials, in one pass over terms and axes.

        Each output key collects the (e*(e-1), c) pairs of the terms c*x^key
        that land on it, and its coefficient is summed with one
        rational._int_dot, so reduced once; keys whose sum is zero are
        dropped.
        """
        acc: dict = {}
        for key, c in self._terms.items():
            for axis, e in enumerate(key):
                if e > 1:
                    k = key[:axis] + (e - 2,) + key[axis + 1 :]
                    pairs = acc.get(k)
                    if pairs is None:
                        acc[k] = [(e * (e - 1), c)]
                    else:
                        pairs.append((e * (e - 1), c))
        return self._new({k: c for k, pairs in acc.items() if (c := _int_dot(pairs))})

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point: Sequence):
        """Evaluate at a point given as a sequence of coordinates.

        Exact (GaussianRational) for int/Fraction/GaussianRational
        coordinates, float complex otherwise.
        """
        if len(point) != self._dim:
            raise ValueError(
                f"point has {len(point)} coordinates, expected {self._dim}"
            )
        if all(isinstance(v, (int, Fraction, GaussianRational)) for v in point):
            return self._evaluate([GaussianRational.coerce(v) for v in point])
        return self._evaluate([complex(v) for v in point])

    def __repr__(self):
        from .parsing import format_poly_real

        return f"PolyRealN(dim={self._dim}, {format_poly_real(self)!r})"


# -- changes of variables -------------------------------------------------

_HALF = Fraction(1, 2)


def xy_to_zzbar(p: PolyRealN) -> PolyZZbar:
    """Rewrite a polynomial in (x, y) as a polynomial in (z, zbar).

    Substitutes x = (z + zbar)/2 and y = (z - zbar)/(2i); the rewrite is
    exact and degree preserving.
    """
    if p.dim != 2:
        raise ValueError(f"xy_to_zzbar requires dimension 2, got {p.dim}")
    x = PolyZZbar({(1, 0): _HALF, (0, 1): _HALF})
    y = PolyZZbar(
        {(1, 0): GaussianRational(0, -_HALF), (0, 1): GaussianRational(0, _HALF)}
    )
    result = PolyZZbar.zero()
    for (ax, ay), c in p.terms():
        result = result + x**ax * y**ay * c
    return result


def zzbar_to_xy(p: PolyZZbar) -> PolyRealN:
    """Rewrite a polynomial in (z, zbar) as a polynomial in (x, y).

    Substitutes z = x + iy and zbar = x - iy; exact inverse of xy_to_zzbar.
    """
    x_plus_iy = PolyRealN(2, {(1, 0): 1, (0, 1): GaussianRational(0, 1)})
    x_minus_iy = PolyRealN(2, {(1, 0): 1, (0, 1): GaussianRational(0, -1)})
    result = PolyRealN.zero(2)
    for (a, b), c in p.terms():
        result = result + x_plus_iy**a * x_minus_iy**b * c
    return result


# -- exact division ----------------------------------------------------------


def divide_exact(p, r):
    """Exact polynomial quotient: q with p = r * q, or None if not divisible.

    None is a normal outcome (membership test for the ideal generated by r),
    not an error.  Both arguments must be of the same polynomial type.
    """
    if not isinstance(p, _SparsePoly) or not p._same_ring(r):
        raise TypeError("divide_exact requires two polynomials of the same type")
    if r.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return p
    quot = _long_division(p._terms, r._terms)
    return None if quot is None else p._new(quot)


# -- monomial bases -----------------------------------------------------------


def monomials_zzbar(max_degree: int) -> list[tuple[int, int]]:
    """Exponent pairs (a, b) with a + b <= max_degree, graded-lex order."""
    return monomials_real(2, max_degree)


def monomials_real(dim: int, max_degree: int) -> list[tuple]:
    """Multi-indices of length dim with |alpha| <= max_degree, graded-lex order."""
    # by_degree[d] lists the multi-indices of total degree d in the last k
    # variables, ascending; each pass prepends one more variable.
    by_degree = [[(d,)] for d in range(max_degree + 1)]
    for _ in range(dim - 1):
        by_degree = [
            [(e,) + rest for e in range(d + 1) for rest in by_degree[d - e]]
            for d in range(max_degree + 1)
        ]
    return [alpha for layer in by_degree for alpha in layer]

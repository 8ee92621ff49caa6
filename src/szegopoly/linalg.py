"""Exact linear algebra over the Gaussian rationals: factor once, solve many.

Dense Gaussian elimination with every entry kept as an exact
GaussianRational.  Pivots are chosen by symbolic magnitude (total bit size
of numerators and denominators), which keeps intermediate coefficients from
blowing up; ties break on row order, so elimination is deterministic.  The
row chosen cannot change a result: the pivot columns are the columns
independent of those before them, which no row order changes, and the
solution with its free variables zero is the only one on those columns.

factor_exact runs the elimination once, on the matrix alone, and records
each step, the row swap and the reduced pivot row, and the multipliers as
the rows of L.  The pivot choice reads only matrix entries, so replaying
those steps on a right-hand side does exactly the arithmetic a one-shot
solve would, and a system used for many right-hand sides is eliminated
only once.  solve_exact and det_exact are one-shot uses of the same
factorisation.

Every entry is reduced once.  The factor is left-looking (Crout): an
entry of the pivot column or of a pivot row is formed only when the
elimination reaches it, as one rational._minus_dot, base - sum(l*u) over
one common denominator, of its nonzero multipliers and U entries; the
pivots, and so the recorded steps, are those of the right-looking loop
that updates every entry after every step.  The replay pulls in the same
way: forward substitution runs on the rows of L at their final
positions, and back substitution takes one _minus_dot per unknown.

A GradedSystem is a square matrix that is block upper triangular in a
graded monomial basis, such as the Fischer and Szego systems: it keeps
its dense diagonal degree blocks and, per row, the few entries in columns
of higher degree.  Its determinant is the product of the block
determinants, and a solve is graded back-substitution from the top
degree down: each block's right-hand side is pulled from the unknowns
already solved, then one solve_exact call solves the block.

graded_system certifies every diagonal block invertible without exact
elimination.  Z[i] -> Z/PRIME, i -> SQRT_MINUS_ONE, is a ring map, so it
carries a block's determinant to the determinant of the block's image,
and a nonzero image determinant proves the exact one nonzero (the
small-prime certificate).  Eliminating the image costs machine-size ints
only, and it shares no code with the exact solve.  Only when the check is
inconclusive, because PRIME divides a denominator or the image is
singular, is the block decided by det_exact, so the certificate is never
weaker than the exact determinant.  The exact determinant itself is
computed only when GradedSystem.determinant is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Mapping, NamedTuple, Sequence

from .rational import GaussianRational, ZERO, ONE, _images_mod, _minus_dot

# The certificate's prime: PRIME = 1 (mod 4), so -1 has the square root
# SQRT_MINUS_ONE modulo PRIME, which is the image of i.
PRIME = 2147483629
SQRT_MINUS_ONE = 629208553


class InternalCheckError(RuntimeError):
    """A condition that the underlying theory guarantees cannot happen."""


Matrix = Sequence[Sequence[GaussianRational]]


def _pick_pivot(rows, col, start):
    """The row at or below start whose entry in col has the smallest bit
    size, the first such row on a tie; None if every entry is zero."""
    candidates = [i for i in range(start, len(rows)) if rows[i][col]]
    if len(candidates) < 2:
        return candidates[0] if candidates else None
    return min((rows[i][col].bit_size(), i) for i in candidates)[1]


class _Step(NamedTuple):
    """One pivot step r: swap rows r and `swap`, then eliminate below row r."""

    swap: int
    col: int
    pivot: GaussianRational
    tail: tuple[tuple[int, GaussianRational], ...]  # nonzero (j, U[r][j]), j > col


class ExactFactorization:
    """The recorded elimination of one matrix, replayable on any right-hand side."""

    __slots__ = ("rows", "cols", "steps", "_swaps", "_lower")

    def __init__(
        self, rows: int, cols: int, steps: list[_Step], lower: list[dict[int, GaussianRational]]
    ):
        self.rows = rows
        self.cols = cols
        self.steps = tuple(steps)
        self._swaps = sum(1 for r, step in enumerate(steps) if step.swap != r)
        self._lower = lower  # lower[k] = {r: L[k][r]} for the row at final position k

    @property
    def rank(self) -> int:
        return len(self.steps)

    def solve(self, rhs: Sequence[GaussianRational]) -> list[GaussianRational] | None:
        """One solution of matrix @ x = rhs (free variables zero), or None
        when the system is inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError(f"{self.rows} rows but {len(rhs)} right-hand sides")
        b = list(rhs)
        for r, step in enumerate(self.steps):
            b[r], b[step.swap] = b[step.swap], b[r]
        for k, row_l in enumerate(self._lower):
            if row_l:
                b[k] = _minus_dot(b[k], [(f, b[r]) for r, f in row_l.items() if b[r]])
        for k in range(self.rank, self.rows):
            if b[k]:
                return None  # 0 = nonzero: inconsistent

        x: list[GaussianRational] = [ZERO] * self.cols
        for r in reversed(range(self.rank)):
            _, col, pivot, tail = self.steps[r]
            x[col] = _minus_dot(b[r], [(v, x[j]) for j, v in tail if x[j]]) / pivot
        return x

    @property
    def determinant(self) -> GaussianRational:
        """Exact determinant of a square matrix: +-(product of the pivots)."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        if self.rank < self.cols:
            return ZERO
        det = -ONE if self._swaps % 2 else ONE
        for step in self.steps:
            det = det * step.pivot
        return det


def factor_exact(matrix: Matrix) -> ExactFactorization:
    """Eliminate matrix once and record the steps; it may be rectangular.

    Left-looking: column c is reduced by the steps so far only when the
    elimination reaches it, and the pivot row's tail only once its pivot
    is chosen, each entry as one _minus_dot over its row of L and its
    column of U.  Both are kept sparse: lower[k] holds the nonzero
    multipliers of the row at position k by step, and moves with it on a
    swap; upper[j] holds the nonzero entries of column j in the pivot rows.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    work = [list(row) for row in matrix]
    if any(len(row) != n for row in work):
        raise ValueError("ragged matrix")

    lower: list[dict[int, GaussianRational]] = [{} for _ in range(m)]
    upper: list[list[tuple[int, GaussianRational]]] = [[] for _ in range(n)]
    steps: list[_Step] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        if upper[c]:
            for k in range(r, m):
                row_l = lower[k]
                if row_l:
                    pairs = [(row_l[s], u) for s, u in upper[c] if s in row_l]
                    if pairs:
                        work[k][c] = _minus_dot(work[k][c], pairs)
        i = _pick_pivot(work, c, r)
        if i is None:
            continue
        work[r], work[i] = work[i], work[r]
        lower[r], lower[i] = lower[i], lower[r]
        piv_row, piv_l = work[r], lower[r]
        piv = piv_row[c]
        for k in range(r + 1, m):
            f = work[k][c]
            if f:
                lower[k][r] = f / piv
        tail = []
        for j in range(c + 1, n):
            v = piv_row[j]
            if piv_l and upper[j]:
                pairs = [(piv_l[s], u) for s, u in upper[j] if s in piv_l]
                if pairs:
                    v = _minus_dot(v, pairs)
            if v:
                tail.append((j, v))
                upper[j].append((r, v))
        steps.append(_Step(i, c, piv, tuple(tail)))
        r += 1
    return ExactFactorization(m, n, steps, lower)


def solve_exact(
    matrix: Matrix, rhs: Sequence[GaussianRational]
) -> list[GaussianRational] | None:
    """Solve matrix @ x = rhs exactly.

    Returns one solution (free variables set to zero) or None when the
    system is inconsistent.  The matrix may be rectangular; rows and rhs
    must have matching lengths.
    """
    return factor_exact(matrix).solve(rhs)


def det_exact(matrix: Matrix) -> GaussianRational:
    """Exact determinant of a square matrix of GaussianRationals."""
    return factor_exact(matrix).determinant


def _nonsingular_mod_prime(matrix: Matrix) -> bool:
    """True when the image of a square matrix modulo PRIME is nonsingular,
    which proves det(matrix) != 0; False when that is inconclusive: PRIME
    divides a denominator, or the image is singular.

    Elimination on the image runs in place and visits only the nonzero
    entries of each pivot row.
    """
    rows = _images_mod(matrix, PRIME, SQRT_MINUS_ONE)
    if rows is None:
        return False
    n = len(rows)
    for c in range(n):
        i = next((i for i in range(c, n) if rows[i][c]), None)
        if i is None:
            return False
        rows[c], rows[i] = rows[i], rows[c]
        pivot_row = rows[c]
        inverse = pow(pivot_row[c], -1, PRIME)
        tail = [(j, v * inverse % PRIME) for j in range(c + 1, n) if (v := pivot_row[j])]
        for row in rows[c + 1:]:
            f = row[c]
            if f:
                for j, v in tail:
                    row[j] = (row[j] - f * v) % PRIME
    return True


@dataclass(frozen=True)
class GradedSystem:
    """A square matrix M, block upper triangular on graded index ranges.

    basis_order lists the row keys (exponent tuples) by total degree, and
    blocks[d] is the [start, stop) range of the keys of degree d; unknown j
    has the degree of row j, and its column reaches no row of higher
    degree.  M is kept in two parts: diagonal[d] is the dense degree-d
    block, diagonal[d][i - start][j - start] = M[i][j], and rows[i] holds
    only the entries of row i in columns of higher degree, as {j: M[i][j]}.
    Every diagonal block is certified invertible when the system is built
    (graded_system).
    """

    basis_order: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, int], ...]
    diagonal: tuple[tuple[tuple[GaussianRational, ...], ...], ...]
    rows: tuple[dict[int, GaussianRational], ...]

    @property
    def size(self) -> int:
        return len(self.basis_order)

    @property
    def determinant(self) -> GaussianRational:
        """The exact determinant of M, the product of the diagonal blocks'
        det_exact, computed on each read."""
        return prod(map(det_exact, self.diagonal), start=ONE)

    def solve(self, rhs: Sequence[GaussianRational]) -> list[GaussianRational]:
        """The unique x with M @ x = rhs, by graded back-substitution.

        From the top degree down: pull each right-hand side entry of the
        diagonal block, rhs[i] minus row i's entries times the unknowns of
        higher degree, as one _minus_dot, then solve the block (one
        solve_exact call).  A block whose right-hand side is zero has zero
        unknowns.
        """
        x = [ZERO] * self.size
        for (start, stop), block in zip(reversed(self.blocks), reversed(self.diagonal)):
            part = [
                _minus_dot(rhs[i], [(a, x[j]) for j, a in self.rows[i].items() if x[j]])
                for i in range(start, stop)
            ]
            if not any(part):
                continue
            solution = solve_exact(block, part)
            if solution is None:
                raise InternalCheckError("certified-invertible diagonal block failed to solve")
            x[start:stop] = solution
        return x


def graded_system(
    basis: Sequence[tuple[int, ...]], images: Iterable[Mapping[tuple, GaussianRational]]
) -> GradedSystem:
    """Build and certify the GradedSystem whose column j is images[j].

    basis is graded (ascending total degree), and images[j] maps row keys
    to the nonzero entries of column j.  InternalCheckError if a column
    reaches a row of higher degree than its own or a diagonal block is
    singular.  A block is certified by its image modulo PRIME, and by
    det_exact only when that image is inconclusive.
    """
    size = len(basis)
    degrees = [sum(key) for key in basis]
    starts = [i for i in range(size) if i == 0 or degrees[i] != degrees[i - 1]]
    blocks = tuple(zip(starts, starts[1:] + [size]))
    index = {key: i for i, key in enumerate(basis)}
    images = iter(images)
    diagonal, rows = [], [{} for _ in range(size)]
    for start, stop in blocks:
        block = [[ZERO] * (stop - start) for _ in range(start, stop)]
        for j in range(start, stop):
            for key, c in next(images).items():
                i = index.get(key, size)
                if i >= stop:
                    raise InternalCheckError(
                        f"column {j} reaches a row of higher degree than its own"
                    )
                if i >= start:
                    block[i - start][j - start] = c
                else:
                    rows[i][j] = c
        diagonal.append(tuple(map(tuple, block)))
        if not (_nonsingular_mod_prime(block) or det_exact(diagonal[-1])):
            raise InternalCheckError(f"singular diagonal block of degree {degrees[start]}")
    return GradedSystem(
        basis_order=tuple(basis),
        blocks=blocks,
        diagonal=tuple(diagonal),
        rows=tuple(rows),
    )

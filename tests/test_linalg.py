"""Exact solver: correctness, consistency detection, determinants."""

import random
from fractions import Fraction
from math import isqrt, prod

import pytest
import sympy
from hypothesis import given, reject, settings, strategies as st

import szegopoly
from szegopoly import dirichlet, linalg, szego
from szegopoly.domains import Ellipse
from szegopoly.linalg import (
    PRIME,
    SQRT_MINUS_ONE,
    InternalCheckError,
    det_exact,
    factor_exact,
    graded_system,
    solve_exact,
)
from szegopoly.rational import GaussianRational, ZERO
from szegopoly.sampling import random_ellipsoid


def gr(re, im=0):
    return GaussianRational(re, im)


def matvec(A, x):
    return [sum((a * v for a, v in zip(row, x)), start=ZERO) for row in A]


def test_unique_solution():
    A = [[gr(2), gr(1)], [gr(1), gr(3)]]
    b = [gr(5), gr(10)]
    x = solve_exact(A, b)
    assert matvec(A, x) == b
    assert x == [gr(1), gr(3)]


def test_complex_entries():
    A = [[gr(0, 1), gr(1)], [gr(1), gr(0, 1)]]  # det = -2
    b = [gr(1, 1), gr(0)]
    x = solve_exact(A, b)
    assert matvec(A, x) == b


def test_underdetermined_particular_solution():
    A = [[gr(1), gr(1), gr(1)]]
    b = [gr(6)]
    x = solve_exact(A, b)
    assert matvec(A, x) == b


def test_inconsistent_returns_none():
    A = [[gr(1), gr(2)], [gr(2), gr(4)]]
    b = [gr(1), gr(3)]
    assert solve_exact(A, b) is None


def test_overdetermined_consistent():
    A = [[gr(1), gr(0)], [gr(0), gr(1)], [gr(1), gr(1)]]
    b = [gr(2), gr(3), gr(5)]
    x = solve_exact(A, b)
    assert x == [gr(2), gr(3)]


def test_zero_rows_ignored():
    A = [[ZERO, ZERO], [gr(1), gr(1)]]
    assert solve_exact(A, [ZERO, gr(2)]) is not None
    assert solve_exact(A, [gr(1), gr(2)]) is None


def test_det_examples():
    assert det_exact([[gr(2)]]) == gr(2)
    assert det_exact([[gr(1), gr(2)], [gr(3), gr(4)]]) == gr(-2)
    assert det_exact([[gr(1), gr(2)], [gr(2), gr(4)]]) == ZERO
    assert det_exact([]) == gr(1)


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        solve_exact([[gr(1), gr(2)], [gr(1)]], [gr(1), gr(1)])
    with pytest.raises(ValueError):
        solve_exact([[gr(1)]], [gr(1), gr(2)])


# -- factor once, solve many ---------------------------------------------------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
entries = st.builds(GaussianRational, small_fractions, small_fractions)


def matmul(A, B):
    return [
        [sum((A[i][k] * B[k][j] for k in range(len(B))), start=ZERO) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def augmented_solve(A, b):
    """Reference: eliminate [A | b] in one pass, with the same pivot rule.

    The factorised solver must pick the same solution, free variables zero.
    """
    from szegopoly.linalg import _pick_pivot

    m, n = len(A), len(A[0])
    work = [list(row) + [v] for row, v in zip(A, b)]
    pivots, r = [], 0
    for c in range(n):
        i = _pick_pivot(work, c, r) if r < m else None
        if i is None:
            continue
        work[r], work[i] = work[i], work[r]
        for k in range(r + 1, m):
            f = work[k][c] / work[r][c]
            work[k] = [u - f * v for u, v in zip(work[k], work[r])]
        pivots.append((r, c))
        r += 1
    if any(work[k][n] for k in range(r, m)):
        return None
    x = [ZERO] * n
    for row_i, col_i in reversed(pivots):
        row = work[row_i]
        acc = row[n] - sum((row[j] * x[j] for j in range(col_i + 1, n)), start=ZERO)
        x[col_i] = acc / row[col_i]
    return x


def right_looking_steps(A):
    """Reference: the right-looking elimination, which updates every row
    below the pivot row after each step, with the same pivot rule.

    Returns its steps as (swap, col, pivot, tail) tuples, the fields
    factor_exact records.
    """
    from szegopoly.linalg import _pick_pivot

    m, n = len(A), len(A[0])
    work = [list(row) for row in A]
    steps, r = [], 0
    for c in range(n):
        i = _pick_pivot(work, c, r) if r < m else None
        if i is None:
            continue
        work[r], work[i] = work[i], work[r]
        piv = work[r][c]
        tail = tuple((j, v) for j, v in enumerate(work[r]) if j > c and v)
        for k in range(r + 1, m):
            if work[k][c]:
                f = work[k][c] / piv
                work[k] = [u - f * v for u, v in zip(work[k], work[r])]
        steps.append((i, c, piv, tail))
        r += 1
    return steps


def sympy_rank(A):
    """Rank computed by sympy, independent of the solver under test."""
    return sympy.Matrix(
        [[sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for c in row] for row in A]
    ).rank()


dims = st.integers(1, 5)


@st.composite
def low_rank_matrices(draw, m, n):
    """An m x n matrix B*C of rank <= k, with k drawn up to min(m, n)."""
    k = draw(st.integers(0, min(m, n)))
    if k == 0:
        return [[ZERO] * n for _ in range(m)]
    B = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
    C = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    return matmul(B, C)


def draw_rhs(draw, A):
    """Either A times a random x (consistent) or an arbitrary right-hand side."""
    if draw(st.booleans()):
        return matvec(A, draw(st.lists(entries, min_size=len(A[0]), max_size=len(A[0]))))
    return draw(st.lists(entries, min_size=len(A), max_size=len(A)))


@st.composite
def sparse_matrices(draw, m, n):
    """An m x n matrix whose entries are mostly zero."""
    entry = st.one_of(st.just(ZERO), st.just(ZERO), entries)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_left_looking_steps_equal_the_right_looking_elimination(data):
    m, n = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    A = data.draw(st.one_of(low_rank_matrices(m, n), sparse_matrices(m, n)))
    assert [tuple(step) for step in factor_exact(A).steps] == right_looking_steps(A)


@st.composite
def systems_with_rhs(draw):
    A = draw(low_rank_matrices(draw(dims), draw(dims)))
    return A, draw_rhs(draw, A)


@settings(max_examples=60, deadline=None)
@given(systems_with_rhs())
def test_factored_solve_is_exact_and_none_only_when_inconsistent(system):
    A, b = system
    x = factor_exact(A).solve(b)
    consistent = sympy_rank(A) == sympy_rank([row + [v] for row, v in zip(A, b)])
    assert (x is not None) == consistent
    if x is not None:
        assert matvec(A, x) == b
    # Row order cannot change the result, which is why one pivot rule is
    # enough: the same system with its rows reversed has the same solution.
    assert factor_exact(A[::-1]).solve(b[::-1]) == x


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_factorization_replays_every_one_shot_solve(data):
    A = data.draw(low_rank_matrices(data.draw(dims), data.draw(dims)))
    factorization = factor_exact(A)
    for _ in range(3):
        b = draw_rhs(data.draw, A)
        x = factorization.solve(b)
        assert x == solve_exact(A, b) == augmented_solve(A, b)


@st.composite
def square_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(low_rank_matrices(n, n)), draw(low_rank_matrices(n, n))


@settings(max_examples=40, deadline=None)
@given(square_pairs())
def test_factored_determinant_is_multiplicative(pair):
    A, B = pair
    assert det_exact(matmul(A, B)) == det_exact(A) * det_exact(B)
    assert (det_exact(A) == ZERO) == (sympy_rank(A) < len(A))


def test_determinant_of_rectangular_factorization_rejected():
    with pytest.raises(ValueError):
        det_exact([[gr(1), gr(2)]])


def test_graded_system_solves_and_rejects_a_singular_block_or_a_raised_degree():
    basis = [(0, 0), (0, 1), (1, 0)]
    one = gr(1)
    system = graded_system(basis, [{(0, 0): one}, {(0, 1): one, (0, 0): one}, {(1, 0): one}])
    assert system.blocks == ((0, 1), (1, 3))
    assert system.rows == ({1: one}, {}, {})
    assert system.solve([one, one, one]) == [ZERO, one, one]
    with pytest.raises(InternalCheckError, match="singular"):
        graded_system(basis, [{(0, 0): one}, {(0, 1): one}, {(0, 1): one}])
    with pytest.raises(InternalCheckError, match="higher degree"):
        graded_system(basis, [{(1, 0): one}, {(0, 1): one}, {(1, 0): one}])


# -- the block certificate modulo PRIME --------------------------------------------


def test_certificate_prime_has_a_square_root_of_minus_one():
    assert all(PRIME % q for q in range(2, isqrt(PRIME) + 1))
    assert PRIME % 4 == 1
    assert SQRT_MINUS_ONE**2 % PRIME == PRIME - 1


def one_block(M):
    """The basis and column images of a one-block graded system with block M."""
    basis = [(k, len(M) - 1 - k) for k in range(len(M))]
    images = [
        {basis[i]: row[j] for i, row in enumerate(M) if row[j]} for j in range(len(M))
    ]
    return basis, images


@st.composite
def gaussian_blocks(draw):
    """A square block with small, shared and unrelated large denominators;
    some are made singular by a repeated row or a combination of rows."""
    n = draw(st.integers(1, 6))
    shared = draw(st.integers(2, 10**30))
    denominators = st.one_of(st.integers(1, 6), st.just(shared), st.integers(1, 10**40))
    numerators = st.one_of(st.integers(-5, 5), st.integers(-(10**40), 10**40))
    entry = st.one_of(
        st.just(ZERO),
        st.builds(
            lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
            numerators, numerators, denominators,
        ),
    )
    M = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("any", "repeat", "combination")))
    if n > 1 and kind != "any":
        k = draw(st.integers(0, n - 1))
        others = [i for i in range(n) if i != k]
        if kind == "repeat":
            M[k] = list(M[draw(st.sampled_from(others))])
        else:
            weights = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
            M[k] = [
                sum((w * M[i][j] for w, i in zip(weights, others)), start=ZERO)
                for j in range(n)
            ]
    return M


@settings(max_examples=200, deadline=None)
@given(gaussian_blocks())
def test_a_block_is_certified_exactly_when_its_determinant_is_nonzero(M):
    basis, images = one_block(M)
    if det_exact(M):
        system = graded_system(basis, images)
        assert [list(row) for row in system.diagonal[0]] == M
        assert prod(map(det_exact, system.diagonal)) == det_exact(M)
    else:
        with pytest.raises(InternalCheckError, match="singular"):
            graded_system(basis, images)


@pytest.fixture
def det_exact_calls(monkeypatch):
    """The matrices passed to linalg.det_exact while the test runs."""
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return det_exact(matrix)

    monkeypatch.setattr(linalg, "det_exact", counting)
    return calls


def test_inconclusive_images_fall_back_to_the_exact_determinant(det_exact_calls):
    # Degree 1 has an entry 1/PRIME, which has no image; degree 2 is
    # diag(PRIME, 1, 1), nonsingular with an image of determinant 0.
    one, p = gr(1), gr(PRIME)
    basis = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    images = [
        {(0, 0): one},
        {(0, 1): gr(Fraction(1, PRIME))},
        {(1, 0): one, (0, 0): one},
        {(0, 2): p},
        {(1, 1): one},
        {(2, 0): one},
    ]
    system = graded_system(basis, images)
    assert det_exact_calls == [system.diagonal[1], system.diagonal[2]]
    assert prod(map(det_exact, system.diagonal)) == gr(Fraction(1, PRIME)) * p


def test_szego_and_fischer_systems_are_certified_without_exact_elimination(det_exact_calls):
    szego._square_system.__wrapped__(Ellipse(Fraction(3), Fraction(2), Fraction(1, 3)), 10)
    dirichlet.fischer_system(random_ellipsoid(random.Random(6), 3), 6)
    assert det_exact_calls == []


# -- kept block factorisations -------------------------------------------------------


@st.composite
def graded_systems_with_rhs(draw):
    """A graded system on the monomials of degree <= 3 in two variables,
    its dense matrix, and 4 to 6 right-hand sides, some zero on whole
    blocks so that those blocks are skipped."""
    top = draw(st.integers(0, 3))
    basis = [(a, d - a) for d in range(top + 1) for a in range(d + 1)]
    n = len(basis)
    sparse = st.one_of(st.just(ZERO), entries)
    dense = [[ZERO] * n for _ in range(n)]
    for j, col in enumerate(basis):
        for i, row in enumerate(basis):
            if sum(row) < sum(col):
                dense[i][j] = draw(sparse)
            elif sum(row) == sum(col):
                dense[i][j] = draw(entries)
    images = [{basis[i]: dense[i][j] for i in range(n) if dense[i][j]} for j in range(n)]
    try:
        system = graded_system(basis, images)
    except InternalCheckError:
        reject()
    rhs = draw(st.lists(st.lists(sparse, min_size=n, max_size=n), min_size=4, max_size=6))
    return basis, images, system, dense, rhs


@settings(max_examples=40, deadline=None)
@given(graded_systems_with_rhs())
def test_kept_factorisations_solve_as_a_fresh_system_and_the_dense_matrix(case):
    basis, images, system, dense, rhs = case
    for b in rhs:
        x = system.solve(b)
        assert x == solve_exact(dense, b) == graded_system(basis, images).solve(b)


@pytest.fixture
def elimination_calls(monkeypatch):
    """The blocks passed to linalg.solve_exact and linalg.factor_exact while
    the test runs, by name; solve_exact's own factorisation is not counted."""
    calls = {"solve_exact": [], "factor_exact": []}

    def counting_solve(matrix, rhs):
        calls["solve_exact"].append(matrix)
        return factor_exact(matrix).solve(rhs)

    def counting_factor(matrix):
        calls["factor_exact"].append(matrix)
        return factor_exact(matrix)

    monkeypatch.setattr(linalg, "solve_exact", counting_solve)
    monkeypatch.setattr(linalg, "factor_exact", counting_factor)
    return calls


def test_a_block_is_solved_once_then_factored_once_then_replayed(elimination_calls):
    e = Ellipse(Fraction(3), Fraction(2), Fraction(1, 3), Fraction(-2, 3))
    system = szego._square_system.__wrapped__(e, 4)
    # zbar^3 + z has no degree-4 term, so the degree-4 block is not reached.
    low = [gr(1) if key in ((0, 3), (1, 0)) else ZERO for key in system.basis_order]
    x = system.solve(low)
    reached = [
        block for (start, stop), block in zip(system.blocks, system.diagonal)
        if any(x[start:stop])
    ][::-1]
    assert reached and len(reached) < len(system.blocks)
    assert elimination_calls == {"solve_exact": reached, "factor_exact": []}
    assert system.solve(low) == x
    assert elimination_calls == {"solve_exact": reached, "factor_exact": reached}
    assert system.solve(low) == x
    assert elimination_calls == {"solve_exact": reached, "factor_exact": reached}
    # The unreached block starts its own count: its first solve is one-shot.
    top = [gr(1) if key == (0, 4) else ZERO for key in system.basis_order]
    system.solve(top)
    assert elimination_calls["solve_exact"] == [*reached, system.diagonal[-1]]
    assert elimination_calls["factor_exact"] == reached


def test_a_solved_system_equals_an_unsolved_one():
    e = Ellipse(Fraction(2), Fraction(1))
    solved, unsolved = (szego._square_system.__wrapped__(e, 3) for _ in range(2))
    rhs = [gr(1)] * solved.size
    for _ in range(3):
        solved.solve(rhs)
    assert solved == unsolved
    assert repr(solved) == repr(unsolved)


def test_cleared_caches_solve_the_szego_system_afresh(elimination_calls):
    e = Ellipse(Fraction(5, 2), Fraction(1), Fraction(1, 2), Fraction(1, 3))
    szegopoly.clear_caches()
    system = szego._square_system(e, 10)
    rhs = [gr(k + 1, -k) for k in range(system.size)]
    solutions = [system.solve(rhs) for _ in range(3)]
    assert solutions[0] == solutions[1] == solutions[2]
    once = len(elimination_calls["solve_exact"])
    assert once == len(system.blocks) == len(elimination_calls["factor_exact"])
    szegopoly.clear_caches()
    fresh = szego._square_system(e, 10)
    assert fresh is not system
    assert fresh.solve(rhs) == solutions[0]
    assert len(elimination_calls["solve_exact"]) == 2 * once
    assert len(elimination_calls["factor_exact"]) == once

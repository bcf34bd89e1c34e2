"""Exact point linear algebra and the preconditioning kernel against a
test-local Gauss-Jordan referee.

The referee is the integer Gauss-Jordan elimination: every pivot goes
through ``bareiss_pivot`` and updates every other row, so the tableau ends
in reduced row echelon form over one positive denominator.  ``det``,
``rank``, ``inverse``, ``solve`` and ``leading_minors_all_positive`` must
give what it gives, or the same error; ``_reduce``'s (d, sign, rank) and
``_positive_pivots``'s last pivot must equal its own on the same integer
rows; and ``regularity._preconditioned``'s (p, x_c, q, u) must equal the
kernel built on it, with the same error on a singular midpoint.
"""

import copy
import math
import operator
import random
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import intervals, preconditioned_fractions, rationals
from intlinalg import Interval, IntervalMatrix, IntervalVector, RealMatrix
from intlinalg.errors import (
    DimensionMismatch,
    NotSquare,
    PreconditionNotVerifiable,
    SingularMatrix,
)
from intlinalg.generate import (
    gen_interval_matrix,
    gen_regular_matrix,
    gen_rhs,
    well_conditioned_system,
)
from intlinalg.matrices import _positive_pivots, _reduce, bareiss_pivot, integer_rows


def _gj_reduce(rows, ncols):
    """Integer Gauss-Jordan on the first ncols columns, in place; (d, sign,
    rank) with d the last pivot's absolute value and sign the parity of the
    swaps and negative pivots."""
    d, sign, rank = 1, 1, 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            sign = -sign
        if rows[rank][col] < 0:
            sign = -sign
        d = bareiss_pivot(rows, rank, col, d)
        rank += 1
    return d, sign, rank


def _gj_positive_pivots(rows, n):
    """Gauss-Jordan on the first n diagonal entries while each is positive;
    the last pivot, or 0 at the first that is not."""
    d = 1
    for k in range(n):
        if rows[k][k] <= 0:
            return 0
        d = bareiss_pivot(rows, k, k, d)
    return d


def _gj_solve_right(matrix, right):
    n = matrix.n
    rows, _ = integer_rows(row + tuple(extra) for row, extra in zip(matrix.rows, right))
    d, _, rank = _gj_reduce(rows, n)
    if rank < n:
        raise SingularMatrix("matrix is singular")
    return [[F(v, d) for v in row[n:]] for row in rows]


def _referee_det(matrix):
    if not matrix.is_square():
        raise NotSquare("determinant of a non-square matrix")
    rows, scales = integer_rows(matrix.rows)
    d, sign, rank = _gj_reduce(rows, matrix.n)
    return F(0) if rank < matrix.n else F(sign * d, math.prod(scales))


def _referee_inverse(matrix):
    if not matrix.is_square():
        raise NotSquare("inverse of a non-square matrix")
    return RealMatrix(_gj_solve_right(matrix, RealMatrix.identity(matrix.n).rows))


def _referee_solve(matrix, b):
    if not matrix.is_square():
        raise NotSquare("solve requires a square matrix")
    if len(b) != matrix.m:
        raise DimensionMismatch("rhs length does not match matrix")
    return tuple(row[0] for row in _gj_solve_right(matrix, [(v,) for v in b]))


def _referee_minors(matrix):
    if not matrix.is_square():
        raise NotSquare("leading minors of a non-square matrix")
    return _gj_positive_pivots(integer_rows(matrix.rows)[0], matrix.n) > 0


def _outcome(call):
    try:
        return call()
    except (NotSquare, SingularMatrix, DimensionMismatch) as exc:
        return type(exc).__name__, str(exc)


def _rhs(matrix):
    """A right-hand side of the matrix's row count with mixed denominators."""
    return tuple(F(3 * i - 4, i % 3 + 1) for i in range(matrix.m))


def _assert_equals_referee(matrix):
    """Every public result and both kernels' returns equal the referee's."""
    b = _rhs(matrix)
    assert _outcome(matrix.det) == _outcome(lambda: _referee_det(matrix))
    assert matrix.rank() == _gj_reduce(integer_rows(matrix.rows)[0], matrix.n)[2]
    assert _outcome(matrix.inverse) == _outcome(lambda: _referee_inverse(matrix))
    assert _outcome(lambda: matrix.solve(b)) == _outcome(lambda: _referee_solve(matrix, b))
    assert _outcome(lambda: matrix.solve(b + (F(1),))) == _outcome(
        lambda: _referee_solve(matrix, b + (F(1),))
    )
    assert _outcome(matrix.leading_minors_all_positive) == _outcome(
        lambda: _referee_minors(matrix)
    )
    # with a right-hand block and with fewer eliminated columns than rows
    rows, _ = integer_rows(row + b[i : i + 1] + (F(i),) for i, row in enumerate(matrix.rows))
    for ncols in range(1, len(rows[0]) + 1):
        assert _reduce(copy.deepcopy(rows), ncols) == _gj_reduce(copy.deepcopy(rows), ncols)
    for n in range(1, min(len(rows), len(rows[0])) + 1):
        assert _positive_pivots(copy.deepcopy(rows), n) == _gj_positive_pivots(
            copy.deepcopy(rows), n
        )


def _product(left, right, n):
    """left (m x r) times right (r x n), of rank at most r."""
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*right)]
            if right else [F(0)] * n for row in left]


def _corpus():
    """Seeded square and rectangular matrices, integer and Fraction,
    full-rank and rank-deficient, some with zero leading entries so that the
    first pivot swaps rows, and with both determinant signs."""
    rng = random.Random(2501)
    for seed in range(240):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if seed % 2:
            n = m
        if seed % 3:
            def entry():
                return F(rng.randint(-9, 9))
        else:
            def entry():
                return F(rng.randint(-9, 9), rng.randint(1, 7))
        if seed % 5 == 0:
            r = rng.randint(0, min(m, n) - 1)
            rows = _product([[entry() for _ in range(r)] for _ in range(m)],
                            [[entry() for _ in range(n)] for _ in range(r)], n)
        else:
            rows = [[entry() for _ in range(n)] for _ in range(m)]
        for i in range(min(seed % 4, m - 1)):
            rows[i][0] = F(0)
        yield RealMatrix(rows)


class TestGaussJordanReferee:
    def test_corpus_equals_referee(self):
        seen = set()
        for matrix in _corpus():
            _assert_equals_referee(matrix)
            if not matrix.is_square():
                seen.add("rectangular")
            elif matrix.det() < 0:
                seen.add("negative determinant")
            if matrix.rank() < min(matrix.shape):
                seen.add("rank-deficient")
            if matrix.rows[0][0] == 0 and any(row[0] for row in matrix.rows):
                seen.add("first pivot swaps")
            if all(v.denominator == 1 for row in matrix.rows for v in row):
                seen.add("integer")
            else:
                seen.add("fraction")
        assert seen == {
            "rectangular", "negative determinant", "rank-deficient",
            "first pivot swaps", "integer", "fraction",
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_leading_minors_fail_at_each_position(self, n):
        """L D U, L unit lower and U unit upper triangular, has leading
        minors d_0 ... d_k; a d_k of 0 or below fails at position k."""
        rng = random.Random(n)
        for k in [None, *range(n)]:
            for bad in (F(0), F(-1), F(-2, 3)):
                diag = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
                if k is not None:
                    diag[k] = bad
                lower = [[F(rng.randint(-4, 4), rng.randint(1, 3)) if j < i else F(i == j)
                          for j in range(n)] for i in range(n)]
                upper = [[F(rng.randint(-4, 4)) if j > i else F(i == j)
                          for j in range(n)] for i in range(n)]
                matrix = RealMatrix(lower) @ RealMatrix.diag(diag) @ RealMatrix(upper)
                assert _referee_minors(matrix) is (k is None)
                _assert_equals_referee(matrix)


ENTRY = st.one_of(st.just(F(0)), st.integers(-9, 9).map(F), rationals(9, 6))


@st.composite
def _matrices(draw):
    """Square or rectangular matrices up to 5 x 5 with entries often zero;
    a low-rank product half the time, and leading zeros in column 0."""
    m = draw(st.integers(1, 5))
    n = m if draw(st.booleans()) else draw(st.integers(1, 5))
    if draw(st.booleans()):
        r = draw(st.integers(0, min(m, n)))
        left = draw(st.lists(st.lists(ENTRY, min_size=r, max_size=r), min_size=m, max_size=m))
        right = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=r, max_size=r))
        rows = _product(left, right, n)
    else:
        rows = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in range(draw(st.integers(0, m - 1))):
        rows[i][0] = F(0)
    return RealMatrix(rows)


@settings(max_examples=400, deadline=None)
@given(matrix=_matrices())
def test_matrices_equal_referee(matrix):
    _assert_equals_referee(matrix)


def _gj_preconditioned(matrix, rhs):
    """(p, x_c, q, u) by Gauss-Jordan on [D C | I] and on
    [k (I - p) | k (|x_c| + q)], as Fractions."""
    n = matrix.n
    ends, _ = integer_rows(
        [v for e in row + (b,) for v in (e.lo, e.hi)]
        for row, b in zip(matrix.entries, rhs.entries)
    )
    mid = [[lo + hi for lo, hi in zip(row[::2], row[1::2])] for row in ends]
    rad = [[hi - lo for lo, hi in zip(row[::2], row[1::2])] for row in ends]
    b_mid = [row.pop() for row in mid]
    b_rad = [row.pop() for row in rad]
    tableau = [row + [int(i == j) for j in range(n)] for i, row in enumerate(mid)]
    k, _, rank = _gj_reduce(tableau, n)
    if rank < n:
        raise PreconditionNotVerifiable("midpoint matrix is not invertible")
    inv = [row[n:] for row in tableau]
    mag = [[abs(v) for v in row] for row in inv]
    p = [[sum(map(operator.mul, r, c)) for c in zip(*rad)] for r in mag]
    xc = [sum(map(operator.mul, r, b_mid)) for r in inv]
    q = [sum(map(operator.mul, r, b_rad)) for r in mag]
    bound = [
        [k * (i == j) - v for j, v in enumerate(row)] + [abs(x) + y]
        for i, (row, x, y) in enumerate(zip(p, xc, q))
    ]
    d = _gj_positive_pivots(bound, n)
    return (
        RealMatrix([[F(v, k) for v in row] for row in p]),
        tuple(F(v, k) for v in xc),
        tuple(F(v, k) for v in q),
        tuple(F(row[n], d) for row in bound) if d else None,
    )


def _kernel_outcome(kernel, matrix, rhs):
    try:
        return kernel(matrix, rhs)
    except PreconditionNotVerifiable as exc:
        return type(exc).__name__, str(exc)


def _systems():
    """Generated systems: well-conditioned up to n = 8, regular, general
    radius-1/2 and radius-1 (which fail Beeck), and a singular midpoint."""
    for n in range(1, 9):
        for seed in range(3):
            yield well_conditioned_system(n, seed)
    for n in range(1, 6):
        for seed in range(4):
            rhs = gen_rhs(n, seed, F(1, 2))
            yield gen_regular_matrix(n, seed), rhs
            yield gen_interval_matrix(n, n, seed, F(1, 2)), rhs
            yield gen_interval_matrix(n, n, seed, 1), rhs
    yield (
        IntervalMatrix([[Interval(1, 3), Interval(0, 0)], [Interval(2, 6), Interval(0, 0)]]),
        IntervalVector([Interval(0, 0), Interval(-1, 2)]),
    )


class TestPreconditionedReferee:
    def test_generated_systems_equal_referee(self):
        seen = set()
        for matrix, rhs in _systems():
            want = _kernel_outcome(_gj_preconditioned, matrix, rhs)
            assert _kernel_outcome(preconditioned_fractions, matrix, rhs) == want
            if isinstance(want[0], str):
                seen.add("singular midpoint")
                continue
            seen.add("beeck holds" if want[3] is not None else "beeck fails")
            if matrix.midpoint_radius()[0].det() < 0:
                seen.add("negative determinant")
        assert seen == {"singular midpoint", "beeck holds", "beeck fails", "negative determinant"}


@st.composite
def _square_systems(draw):
    """Square systems with n <= 5 whose endpoints mix denominators up to 12,
    with zero, negative and degenerate entries drawn often."""
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(
        st.just(Interval.point(0)),
        rationals(6, 12).map(Interval.point),
        intervals(6, 12),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    rhs = draw(st.lists(entry, min_size=n, max_size=n))
    return IntervalMatrix(rows), IntervalVector(rhs)


@settings(max_examples=300, deadline=None)
@given(system=_square_systems())
def test_preconditioned_equals_referee(system):
    matrix, rhs = system
    assert _kernel_outcome(preconditioned_fractions, matrix, rhs) == _kernel_outcome(
        _gj_preconditioned, matrix, rhs
    )

"""Interval Gaussian elimination against a test-local referee.

The referee is the plain Fraction elimination: each entry a pair (lo, hi)
of Fractions, a product the min and max of the four endpoint products, a
quotient the product with [1/hi, 1/lo].  Pivot choice and the skip of
point-zero rows follow the definition in ``systems``.  The library's
``enclosure(A, b, "int-ge")``, ``det_range(A, "enclosure")`` and
``inverse_enclosure(A, "int-ge")`` must give the referee's boxes exactly,
or the same error type and message.
"""

import random
from collections import Counter
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import event, given, settings

from intlinalg import (
    Interval,
    IntervalMatrix,
    IntervalVector,
    det_range,
    enclosure,
    inverse_enclosure,
)
from intlinalg import generate
from intlinalg.errors import IntervalAlgebraError, PivotContainsZero

ZERO = (F(0), F(0))


def _sub(x, y):
    return (x[0] - y[1], x[1] - y[0])


def _mul(x, y):
    products = [a * b for a in x for b in y]
    return (min(products), max(products))


def _div(x, y):
    return _mul(x, (1 / y[1], 1 / y[0]))


def _mig(x):
    return F(0) if x[0] <= 0 <= x[1] else min(abs(x[0]), abs(x[1]))


def _referee_eliminate(rows, seen):
    """Reduced rows and the parity of the swaps; adds to ``seen`` the cases
    met: tied mignitudes, negative pivots and skipped point-zero rows."""
    work = [[(e.lo, e.hi) for e in row] for row in rows]
    n = len(work)
    sign = 1
    for k in range(n):
        migs = [_mig(work[r][k]) for r in range(k, n)]
        best = max(migs)
        if best == 0:
            raise PivotContainsZero(f"all candidate pivots in column {k} contain zero")
        if migs.count(best) > 1:
            seen.add("tied mignitudes")
        p = k + migs.index(best)
        if p != k:
            work[k], work[p] = work[p], work[k]
            sign = -sign
        if work[k][k][1] < 0:
            seen.add("negative pivot")
        for r in range(k + 1, n):
            if work[r][k] == ZERO:
                seen.add("point-zero row skipped")
                continue
            factor = _div(work[r][k], work[k][k])
            for c in range(k + 1, len(work[r])):
                work[r][c] = _sub(work[r][c], _mul(factor, work[k][c]))
            work[r][k] = ZERO
    return work, sign


def _referee_solve(matrix, rhs, seen):
    n = matrix.n
    aug, _ = _referee_eliminate(
        [list(matrix.row(i)) + [rhs[i]] for i in range(n)], seen
    )
    xs = [None] * n
    for k in range(n - 1, -1, -1):
        acc = aug[k][n]
        for c in range(k + 1, n):
            acc = _sub(acc, _mul(aug[k][c], xs[c]))
        xs[k] = _div(acc, aug[k][k])
    return IntervalVector([Interval(*x) for x in xs])


def _referee_det(matrix, seen):
    work, sign = _referee_eliminate(matrix.entries, seen)
    lo, hi = F(1), F(1)
    for k in range(matrix.n):
        lo, hi = _mul((lo, hi), work[k][k])
    return Interval(lo, hi) if sign > 0 else Interval(-hi, -lo)


def _referee_inverse(matrix, seen):
    """Column j solves A x = e_j, one elimination per column."""
    n = matrix.n
    columns = [
        _referee_solve(matrix, IntervalVector.degenerate([int(i == j) for i in range(n)]), seen)
        for j in range(n)
    ]
    return IntervalMatrix([[column[i] for column in columns] for i in range(n)])


def _outcome(call):
    try:
        return call()
    except IntervalAlgebraError as err:
        return type(err).__name__, str(err)


def _check(matrix, rhs):
    """Compare the three library calls with the referee; returns the cases
    met, with "PivotContainsZero" when the elimination failed."""
    seen = set()
    pairs = [
        (lambda: enclosure(matrix, rhs, "int-ge").box, lambda: _referee_solve(matrix, rhs, seen)),
        (lambda: det_range(matrix, "enclosure"), lambda: _referee_det(matrix, seen)),
        (lambda: inverse_enclosure(matrix, "int-ge").matrix, lambda: _referee_inverse(matrix, seen)),
    ]
    for library, referee in pairs:
        expected = _outcome(referee)
        assert _outcome(library) == expected
        if isinstance(expected, tuple):
            seen.add(expected[0])
    return seen


RADII = (F(0), F(1, 16), F(1, 4), F(1), F(4))
CASES = ("PivotContainsZero", "point-zero row skipped", "tied mignitudes", "negative pivot")


def _random_system(rng, n):
    """An n x n system with midpoints on a coarse grid, so that mignitudes
    tie, a fifth of the entries the point zero, and one radius scale per
    system from 0 (point systems) to wide."""
    radius = rng.choice(RADII)

    def entry():
        if rng.random() < 0.2:
            return Interval.point(0)
        mid = F(rng.randint(-4, 4), rng.choice((1, 2)))
        rad = radius * F(rng.randint(0, 2), 2)
        return Interval(mid - rad, mid + rad)

    matrix = IntervalMatrix([[entry() for _ in range(n)] for _ in range(n)])
    return matrix, IntervalVector([entry() for _ in range(n)])


@given(n=st.integers(1, 5), rng=st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_random_systems(n, rng):
    for case in _check(*_random_system(rng, n)):
        event(case)


def test_random_systems_meet_every_case():
    """Each case occurs in a fixed sample of the systems above; the shares
    are printed (run with -s)."""
    rng = random.Random(23)
    count = 300
    seen = Counter()
    for _ in range(count):
        seen.update(_check(*_random_system(rng, rng.randint(1, 5))))
    shares = {case: seen[case] / count for case in CASES}
    print("int-ge referee case shares:", shares)
    assert all(share >= 0.05 for share in shares.values()), shares


def _corpus():
    for n in range(2, 9):
        side = generate.gen_rhs(n, 0, F(1, 4))
        for seed in range(2):
            yield f"system-{n}-{seed}", generate.well_conditioned_system(n, seed)
        yield f"mmatrix-{n}", generate.mmatrix_system(n, 0)
        yield f"bidiagonal-{n}", generate.bidiagonal_system(n, 0)
        yield f"regular-{n}", (generate.gen_regular_matrix(n, 0), side)
        yield f"singular-{n}", (generate.gen_boundary_singular_matrix(n, 0), side)


CORPUS = list(_corpus())


@pytest.mark.parametrize("name,system", CORPUS, ids=[k for k, _ in CORPUS])
def test_generated(name, system):
    _check(*system)

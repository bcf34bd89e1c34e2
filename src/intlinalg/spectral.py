"""Rational enclosures of spectral quantities of point matrices.

Everything here is exact rational arithmetic.  Definiteness is decided
exactly by the signs of integer pivots (``matrices.bareiss_pivot``).
Eigenvalue bounds for symmetric matrices bisect on the same pivots: by
Sylvester's law of inertia, lambda_min(M) <= t exactly when M - tI is not
positive definite, and lambda_max(M) <= t exactly when tI - M is positive
semidefinite.  Spectral radii of nonnegative matrices combine
Collatz-Wielandt bounds from a positive power iterate with an exact
threshold test.
Consumers map "threshold inside an enclosure" to Unknown, so a Proven
verdict is never wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .core import Interval, Verdict, rational
from .errors import (
    NoConvergence,
    NotSquare,
    NotSymmetric,
    UnsupportedMatrixClass,
)
from .matrices import RealMatrix, Vector, bareiss_pivot, integer_rows

DEFAULT_TOL = Fraction(1, 10**12)
POWER_STEPS = 200


@dataclass(frozen=True)
class SpectralEnclosure:
    """Rational interval certified to contain a real spectral quantity."""

    value: Interval
    tol: Fraction
    iterate: Optional[Vector] = None


def _positive_tol(tol) -> Fraction:
    tol = rational(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return tol


# ---------------------------------------------------------------------------
# symmetric eigenvalues


def _gershgorin_bounds(matrix: RealMatrix) -> Tuple[Fraction, Fraction]:
    lo = None
    hi = None
    for i in range(matrix.m):
        center = matrix.rows[i][i]
        spread = sum(
            (abs(v) for j, v in enumerate(matrix.rows[i]) if j != i), Fraction(0)
        )
        lo = center - spread if lo is None else min(lo, center - spread)
        hi = center + spread if hi is None else max(hi, center + spread)
    return lo, hi


def sym_eigen_range(
    matrix: RealMatrix, tol: Fraction = DEFAULT_TOL
) -> Tuple[SpectralEnclosure, SpectralEnclosure]:
    """Enclosures of the extremal eigenvalues of a symmetric rational matrix."""
    if not matrix.is_symmetric():
        raise NotSymmetric("eigenvalue range requires a symmetric matrix")
    tol = _positive_tol(tol)
    g_lo, g_hi = _gershgorin_bounds(matrix)

    def shifted(t: Fraction) -> RealMatrix:
        """M - tI."""
        return RealMatrix(
            [
                [v - t if i == j else v for j, v in enumerate(row)]
                for i, row in enumerate(matrix.rows)
            ]
        )

    def bisect(at_or_below) -> Interval:
        """Bisect on ``at_or_below(t)``: is the eigenvalue <= t?"""
        lo, hi = g_lo - 1, g_hi + 1
        for _ in range(100000):
            if hi - lo <= 2 * tol:
                return Interval(lo, hi)
            mid = (lo + hi) / 2
            if at_or_below(mid):
                hi = mid
            else:
                lo = mid
        raise NoConvergence("eigenvalue bisection did not reach tolerance")

    lam_min = bisect(lambda t: not shifted(t).leading_minors_all_positive())
    lam_max = bisect(lambda t: is_positive_semidefinite_real(-shifted(t)))
    return SpectralEnclosure(lam_min, tol), SpectralEnclosure(lam_max, tol)


# ---------------------------------------------------------------------------
# spectral radius


def rho_less_than(matrix: RealMatrix, threshold) -> bool:
    """Exact test rho(M) < t for a nonnegative square matrix M."""
    t = rational(threshold)
    if not matrix.is_square():
        raise NotSquare("spectral radius of a non-square matrix")
    if not matrix.is_nonnegative():
        raise UnsupportedMatrixClass("exact threshold test needs a nonnegative matrix")
    if t <= 0:
        return False
    shifted = RealMatrix.identity(matrix.n).scale(t) - matrix
    return shifted.leading_minors_all_positive()


def _collatz_wielandt(matrix: RealMatrix, x: Vector) -> Tuple[Fraction, Fraction]:
    """Bounds min_i (Mx)_i/x_i <= rho(M) <= max_i (Mx)_i/x_i for positive x."""
    y = matrix.matvec(x)
    ratios = [yi / xi for yi, xi in zip(y, x)]
    return min(ratios), max(ratios)


def spectral_radius(
    matrix: RealMatrix, tol: Fraction = DEFAULT_TOL
) -> SpectralEnclosure:
    """Enclosure of rho(M) for M nonnegative or symmetric, width <= 2*tol."""
    if not matrix.is_square():
        raise NotSquare("spectral radius of a non-square matrix")
    tol = _positive_tol(tol)
    if matrix.is_nonnegative():
        n = matrix.n
        # power iteration on M + I keeps the iterate strictly positive
        x: Vector = tuple([Fraction(1)] * n)
        lo, hi = _collatz_wielandt(matrix, x)
        lo = max(lo, Fraction(0))
        for _ in range(POWER_STEPS):
            if hi - lo <= 2 * tol:
                break
            y = matrix.matvec(x)
            x = tuple(yi + xi for yi, xi in zip(y, x))
            top = max(x)
            x = tuple(xi / top for xi in x)
            cw_lo, cw_hi = _collatz_wielandt(matrix, x)
            lo = max(lo, cw_lo, Fraction(0))
            hi = min(hi, cw_hi)
        steps = 0
        while hi - lo > 2 * tol:
            mid = (lo + hi) / 2
            if rho_less_than(matrix, mid):
                hi = mid
            else:
                lo = mid
            steps += 1
            if steps > 100000:
                raise NoConvergence("spectral radius bisection stalled")
        return SpectralEnclosure(Interval(lo, hi), tol, iterate=x)
    if matrix.is_symmetric():
        enc_min, enc_max = sym_eigen_range(matrix, tol)
        a = enc_min.value.abs()
        b = enc_max.value.abs()
        return SpectralEnclosure(
            Interval(max(a.lo, b.lo), max(a.hi, b.hi)), tol
        )
    raise UnsupportedMatrixClass(
        "spectral radius supported for nonnegative or symmetric matrices only"
    )


# ---------------------------------------------------------------------------
# singular values


def _grid_sqrt(q: Fraction, grid: Fraction) -> Tuple[int, int, bool]:
    """(root, den, exact): root = floor(sqrt(q) * den) on a grid of step
    1/den finer than ``grid``, and whether root / den is sqrt(q) itself."""
    grid = _positive_tol(grid)
    q = rational(q)
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    if q == 0:
        return 0, 1, True
    scale = max(1, math.isqrt(int(1 / (grid * grid))) + 1)
    p, d = q.numerator, q.denominator
    radicand = p * d * scale * scale
    root = math.isqrt(radicand)
    return root, d * scale, root * root == radicand


def sqrt_down(q: Fraction, grid: Fraction) -> Fraction:
    """Largest grid rational r with r <= sqrt(q); q >= 0."""
    root, den, _ = _grid_sqrt(q, grid)
    return Fraction(root, den)


def sqrt_up(q: Fraction, grid: Fraction) -> Fraction:
    """Smallest grid rational r with r >= sqrt(q); q >= 0."""
    root, den, exact = _grid_sqrt(q, grid)
    return Fraction(root if exact else root + 1, den)


def extremal_singular_values(
    matrix: RealMatrix, tol: Fraction = DEFAULT_TOL
) -> Tuple[SpectralEnclosure, SpectralEnclosure]:
    """Enclosures of the smallest and largest singular values of M."""
    tol = _positive_tol(tol)
    gram = matrix.transpose() @ matrix
    inner_tol = tol * tol / 4
    enc_min, enc_max = sym_eigen_range(gram, inner_tol)
    grid = tol / 4

    def sqrt_interval(box: Interval) -> Interval:
        lo = max(box.lo, Fraction(0))
        hi = max(box.hi, Fraction(0))
        return Interval(sqrt_down(lo, grid), sqrt_up(hi, grid))

    return (
        SpectralEnclosure(sqrt_interval(enc_min.value), tol),
        SpectralEnclosure(sqrt_interval(enc_max.value), tol),
    )


# ---------------------------------------------------------------------------
# definiteness


def is_positive_definite_real(matrix: RealMatrix) -> Verdict:
    """Exact PD decision via pivot signs; never returns Unknown."""
    if not matrix.is_symmetric():
        raise NotSymmetric("positive definiteness requires a symmetric matrix")
    if matrix.leading_minors_all_positive():
        return Verdict.proven("all pivots positive")
    return Verdict.refuted("a leading principal minor is not positive")


def is_positive_semidefinite_real(matrix: RealMatrix) -> bool:
    """Exact PSD decision (symmetric input)."""
    if not matrix.is_symmetric():
        raise NotSymmetric("semidefiniteness requires a symmetric matrix")
    # rows stay positive multiples of the Schur complement of the pivots
    # taken, so the sign and zero tests below read it directly
    work, _ = integer_rows(matrix.rows)
    d = 1
    active = list(range(matrix.n))
    while active:
        # a negative diagonal kills PSD; a zero diagonal forces a zero row
        for i in active:
            if work[i][i] < 0 or (work[i][i] == 0 and any(work[i][j] for j in active)):
                return False
        active = [i for i in active if work[i][i] > 0]
        if active:
            d = bareiss_pivot([work[i] for i in active], 0, active[0], d)
        active = active[1:]
    return True

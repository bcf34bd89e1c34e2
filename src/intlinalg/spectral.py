"""Rational enclosures of spectral quantities of point matrices.

Everything here is exact rational arithmetic.  Eigenvalue bounds for
symmetric matrices come from Sturm-chain root counting of the
characteristic polynomial, bisected to a requested tolerance; spectral
radii of nonnegative matrices combine Collatz-Wielandt bounds from a
positive power iterate with an exact threshold test; definiteness is
decided exactly by the signs of integer pivots (``matrices.bareiss_pivot``).
Consumers map "threshold inside an enclosure" to Unknown, so a Proven
verdict is never wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import Interval, Verdict, rational
from .errors import (
    NoConvergence,
    NotSquare,
    NotSymmetric,
    UnsupportedMatrixClass,
)
from .matrices import RealMatrix, Vector, bareiss_pivot, integer_rows

DEFAULT_TOL = Fraction(1, 10**12)


@dataclass(frozen=True)
class SpectralEnclosure:
    """Rational interval certified to contain a real spectral quantity."""

    value: Interval
    tol: Fraction
    iterate: Optional[Vector] = None


# ---------------------------------------------------------------------------
# characteristic polynomial and Sturm machinery


def char_poly(matrix: RealMatrix) -> List[Fraction]:
    """Monic characteristic polynomial, coefficients from constant to leading."""
    if not matrix.is_square():
        raise NotSquare("characteristic polynomial of a non-square matrix")
    n = matrix.n
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    work = RealMatrix.identity(n)
    for k in range(1, n + 1):
        work = matrix @ work
        ck = -work.trace() / k
        coeffs[n - k] = ck
        if k < n:
            work = work + RealMatrix.identity(n).scale(ck)
    return coeffs


def _poly_deriv(p: Sequence[Fraction]) -> List[Fraction]:
    return [p[k] * k for k in range(1, len(p))]


def _poly_trim(p: Sequence[Fraction]) -> List[Fraction]:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    a = list(a)
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(_poly_trim(r)) >= len(b):
        r = _poly_trim(r)
        k = len(r) - len(b)
        factor = r[-1] / b[-1]
        q[k] = factor
        for i, coeff in enumerate(b):
            r[i + k] -= factor * coeff
        r = r[:-1]
    return q, _poly_trim(r)


def _poly_normalize(p: Sequence[Fraction]) -> List[Fraction]:
    """Divide by the positive content to keep coefficients small; signs kept."""
    p = _poly_trim(p)
    if not p:
        return []
    num_gcd = 0
    den_lcm = 1
    for c in p:
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    scale = Fraction(den_lcm, num_gcd if num_gcd else 1)
    return [c * scale for c in p]


def square_free_part(p: Sequence[Fraction]) -> List[Fraction]:
    p = _poly_trim(p)
    if len(p) <= 1:
        return list(p)
    g = _poly_gcd(p, _poly_deriv(p))
    if len(g) <= 1:
        return list(p)
    q, r = _poly_divmod(p, g)
    if r:
        raise AssertionError("p leaves a remainder on gcd(p, p')")
    return _poly_normalize(q)


def _poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    a = _poly_normalize(a)
    b = _poly_normalize(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, _poly_normalize(r)
    return a


def sturm_chain(p: Sequence[Fraction]) -> List[List[Fraction]]:
    chain = [_poly_normalize(p)]
    d = _poly_normalize(_poly_deriv(p))
    if d:
        chain.append(d)
    while len(chain[-1]) > 1:
        _, r = _poly_divmod(chain[-2], chain[-1])
        r = _poly_normalize([-c for c in r])
        if not r:
            break
        chain.append(r)
    return chain


def _poly_eval(p: Sequence[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _variations(signs: Sequence[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def _variations_at(chain: Sequence[Sequence[Fraction]], t: Fraction) -> int:
    return _variations([_sign(_poly_eval(p, t)) for p in chain])


def _variations_at_minus_inf(chain: Sequence[Sequence[Fraction]]) -> int:
    signs = []
    for p in chain:
        lead = _sign(p[-1])
        deg = len(p) - 1
        signs.append(lead if deg % 2 == 0 else -lead)
    return _variations(signs)


def count_roots_leq(chain: Sequence[Sequence[Fraction]], t: Fraction) -> int:
    """Distinct real roots of the (square-free) chain head that are <= t."""
    return _variations_at_minus_inf(chain) - _variations_at(chain, t)


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
    tol = rational(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    chain = sturm_chain(square_free_part(char_poly(matrix)))
    g_lo, g_hi = _gershgorin_bounds(matrix)
    lo0 = g_lo - 1
    hi0 = g_hi + 1
    total = count_roots_leq(chain, hi0)

    def bisect(target_all: bool) -> Interval:
        lo, hi = lo0, hi0
        for _ in range(100000):
            if hi - lo <= 2 * tol:
                return Interval(lo, hi)
            mid = (lo + hi) / 2
            count = count_roots_leq(chain, mid)
            if (count == total) if target_all else (count >= 1):
                hi = mid
            else:
                lo = mid
        raise NoConvergence("eigenvalue bisection did not reach tolerance")

    lam_min = bisect(target_all=False)
    lam_max = bisect(target_all=True)
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
    matrix: RealMatrix, tol: Fraction = DEFAULT_TOL, max_power_steps: int = 200
) -> SpectralEnclosure:
    """Enclosure of rho(M) for M nonnegative or symmetric, width <= 2*tol."""
    if not matrix.is_square():
        raise NotSquare("spectral radius of a non-square matrix")
    tol = rational(tol)
    if matrix.is_nonnegative():
        n = matrix.n
        # power iteration on M + I keeps the iterate strictly positive
        x: Vector = tuple([Fraction(1)] * n)
        lo, hi = _collatz_wielandt(matrix, x)
        lo = max(lo, Fraction(0))
        for _ in range(max_power_steps):
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


def sqrt_down(q: Fraction, grid: Fraction) -> Fraction:
    """Largest grid rational r with r <= sqrt(q); q >= 0."""
    q = rational(q)
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    if q == 0:
        return Fraction(0)
    scale = max(1, math.isqrt(int(1 / (grid * grid))) + 1)
    p, d = q.numerator, q.denominator
    root = math.isqrt(p * d * scale * scale)
    return Fraction(root, d * scale)


def sqrt_up(q: Fraction, grid: Fraction) -> Fraction:
    """Smallest grid rational r with r >= sqrt(q); q >= 0."""
    q = rational(q)
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    if q == 0:
        return Fraction(0)
    scale = max(1, math.isqrt(int(1 / (grid * grid))) + 1)
    p, d = q.numerator, q.denominator
    root = math.isqrt(p * d * scale * scale)
    if Fraction(root * root, d * d * scale * scale) == q:
        return Fraction(root, d * scale)
    return Fraction(root + 1, d * scale)


def extremal_singular_values(
    matrix: RealMatrix, tol: Fraction = DEFAULT_TOL
) -> Tuple[SpectralEnclosure, SpectralEnclosure]:
    """Enclosures of the smallest and largest singular values of M."""
    tol = rational(tol)
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

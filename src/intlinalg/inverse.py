"""Interval matrix inverse and determinant range.

The exact inverse of a regular matrix is taken column by column: column j
is the hull of the solution set of A x = e_j (Rohn 1993), from the orthant
sweep behind ``systems.hull_exact``, so it costs n sweeps of 2^n orthants
rather than the 4^n vertex inverses A_yz^-1 that ``oracles.vertex_inverse``
enumerates.  Two closed forms (unit midpoint, inverse-nonnegative) cover the
known polynomial classes; a per-column system enclosure gives a general
superset.  The exact determinant range enumerates entry-endpoint matrices at
desk scale, with an interval-elimination superset as the scalable fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .core import Certificate, Decision, Interval, mul_bounds
from .errors import (
    NotSquare,
    SingularIntervalMatrix,
    SingularMatrix,
    SizeGuardExceeded,
    SpectralRadiusNotProven,
)
from .matrices import IntervalMatrix, IntervalVector, RealMatrix
from .regularity import is_regular_exact
from .spectral import rho_less_than
from .systems import SolveOptions, _back_substitution, _forward_elimination
from .systems import _orthant_hull, enclosure

EXACT_INVERSE_GUARD = 6
EXACT_DET_GUARD = 3


@dataclass(frozen=True)
class IntervalInverse:
    matrix: IntervalMatrix
    exact: bool
    method: str


def _columnwise(columns: Iterable[Optional[IntervalVector]]) -> IntervalMatrix:
    """Matrix of the boxes for A x = e_j; a None column means no inverse."""
    taken = []
    for box in columns:
        if box is None:
            raise SingularIntervalMatrix("column enclosure became empty; matrix has no inverse")
        taken.append(box)
    return IntervalMatrix(zip(*taken))


def inverse_exact(matrix: IntervalMatrix) -> IntervalInverse:
    """Inverse hull of a regular matrix; column j is the hull of A x = e_j."""
    if not matrix.is_square():
        raise NotSquare("inverse of a non-square interval matrix")
    if matrix.n > EXACT_INVERSE_GUARD:
        raise SizeGuardExceeded(
            f"exact inverse guarded to n <= {EXACT_INVERSE_GUARD}"
        )
    if not is_regular_exact(matrix).answer:
        raise SingularIntervalMatrix("interval matrix contains a singular member")
    units = IntervalMatrix.identity(matrix.n).entries
    box = _columnwise(_orthant_hull(matrix, IntervalVector(e)) for e in units)
    return IntervalInverse(box, exact=True, method="hull")


def inverse_unit_midpoint(radius: RealMatrix) -> IntervalInverse:
    """Exact inverse of [I - R, I + R] from M = (I - R)^(-1).

    Bounds: lower = -M + diag(k), upper = M with k_j = 2 m_jj^2 / (2 m_jj - 1).
    """
    if not radius.is_square():
        raise NotSquare("radius matrix must be square")
    if not radius.is_nonnegative():
        raise SpectralRadiusNotProven("radius matrix must be nonnegative")
    if not rho_less_than(radius, 1):
        raise SpectralRadiusNotProven("rho(R) < 1 is not provable")
    n = radius.n
    m = (RealMatrix.identity(n) - radius).inverse()
    k = [2 * m.rows[j][j] ** 2 / (2 * m.rows[j][j] - 1) for j in range(n)]
    lower = -m + RealMatrix.diag(k)
    upper = m
    return IntervalInverse(
        IntervalMatrix.from_bounds(lower, upper), exact=True, method="unit-midpoint"
    )


def inverse_nonneg(matrix: IntervalMatrix) -> Decision:
    """Decide inverse nonnegativity; on success carry the exact inverse.

    Both endpoint matrices regular with nonnegative inverses certifies that
    every member is, and the inverse equals [upper^-1, lower^-1].
    """
    if not matrix.is_square():
        raise NotSquare("inverse nonnegativity needs a square matrix")
    try:
        inv_lo = matrix.lower().inverse()
        inv_hi = matrix.upper().inverse()
    except SingularMatrix:
        return Decision(False, Certificate(note="an endpoint matrix is singular"))
    if not (inv_lo.is_nonnegative() and inv_hi.is_nonnegative()):
        return Decision(
            False, Certificate(note="an endpoint inverse has a negative entry")
        )
    box = IntervalInverse(
        IntervalMatrix.from_bounds(inv_hi, inv_lo), exact=True, method="inverse-nonneg"
    )
    return Decision(True, Certificate(member=box, note="endpoint inverses nonnegative"))


def inverse_enclosure(
    matrix: IntervalMatrix,
    method: str = "krawczyk",
    opts: SolveOptions = SolveOptions(),
) -> IntervalInverse:
    """Columnwise enclosure: column j solves A x = e_j.  Interval
    elimination reduces [A | I] once, as its pivots read only A."""
    if not matrix.is_square():
        raise NotSquare("inverse of a non-square interval matrix")
    units = IntervalMatrix.identity(matrix.n).entries
    if method == "int-ge":
        work = _forward_elimination([a + e for a, e in zip(matrix.entries, units)])[0]
        box = _columnwise(_back_substitution(work, matrix.n + j) for j in range(matrix.n))
    else:
        box = _columnwise(enclosure(matrix, IntervalVector(e), method, opts).box for e in units)
    return IntervalInverse(box, exact=False, method=method)


def det_range(matrix: IntervalMatrix, method: str = "exact") -> Interval:
    """Determinant range: exact endpoint enumeration or elimination superset."""
    if not matrix.is_square():
        raise NotSquare("determinant of a non-square interval matrix")
    if method == "exact":
        if matrix.n > EXACT_DET_GUARD:
            raise SizeGuardExceeded(
                f"exact determinant range guarded to n <= {EXACT_DET_GUARD}"
            )
        from .oracles import endpoint_matrices

        values = [member.det() for member in endpoint_matrices(matrix)]
        return Interval(min(values), max(values))
    if method == "enclosure":
        return _det_enclosure(matrix)
    raise ValueError(f"unknown determinant method {method!r}")


def _det_enclosure(matrix: IntervalMatrix) -> Interval:
    """Product of interval elimination pivots (a superset of the range)."""
    work, scales, sign = _forward_elimination(matrix.entries)
    lo, hi = sign, sign
    for k, row in enumerate(work):
        lo, hi = mul_bounds(lo, hi, row[2 * k], row[2 * k + 1])
    return Interval(lo, hi).scale(Fraction(1, math.prod(scales)))

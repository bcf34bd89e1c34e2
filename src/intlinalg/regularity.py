"""Exact and sufficient-condition deciders for regularity, singularity,
and full column rank of interval matrices.

The exact deciders sweep orthants (one small exact LP per sign vector) and
return machine-checkable certificates: an orthant sign vector, a nonzero
kernel witness, and a concrete singular member matrix.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import Certificate, Decision, Verdict
from .errors import (
    NotSquare,
    PreconditionNotVerifiable,
    PreconditionViolated,
    ShapeError,
    SingularMatrix,
)
from .lp import (
    GEQ,
    Constraint,
    endpoint_rows,
    feasible_orthants,
    oettli_prager_member,
)
from .matrices import (
    IntervalMatrix,
    IntervalVector,
    RealMatrix,
    SignVector,
    Vector,
    _back_substitute,
    _positive_pivots,
    _reduce,
    integer_rows,
)
from .spectral import (
    DEFAULT_TOL,
    _positive_tol,
    extremal_singular_values,
    is_positive_definite_real,
    is_positive_semidefinite_real,
    rho_less_than,
    sqrt_up,
    sym_eigen_range,
)


def _preconditioned(
    matrix: IntervalMatrix, rhs: IntervalVector
) -> Tuple[List[List[int]], List[int], List[int], int, Optional[Vector]]:
    """(P, X, Q, k, u) for the midpoint C of a square system: P / k, X / k and
    Q / k are p = |C^-1| R, x_c = C^-1 b_c and q = |C^-1| d, and u =
    (I - p)^-1 (|x_c| + q) bounds |x| on the solution set of C^-1 A x =
    C^-1 b = [I - p, I + p] x = [x_c - q, x_c + q], or is None when Beeck's
    rho(p) < 1 is not provable.

    Row i of [A | b] times 2 L_i, L_i the lcm of its endpoint denominators,
    gives M = D C, N = D R, D b_c and D d.  Forward elimination and back
    substitution on [M | I] give K = k M^-1 for k = |det M|, so C^-1 =
    K D / k.  As p >= 0, rho(p) < 1 exactly when every leading minor of
    k I - |K| N = k (I - p) is positive, and then u takes one more back
    substitution.
    """
    n = matrix.n
    ends, _ = integer_rows(
        [v for e in row + (b,) for v in (e.lo, e.hi)]
        for row, b in zip(matrix.entries, rhs.entries)
    )
    # L_i (lo + hi) and L_i (hi - lo) are 2 L_i times midpoint and radius
    mid = [[lo + hi for lo, hi in zip(row[::2], row[1::2])] for row in ends]
    rad = [[hi - lo for lo, hi in zip(row[::2], row[1::2])] for row in ends]
    b_mid = [row.pop() for row in mid]
    b_rad = [row.pop() for row in rad]
    tableau = [row + [int(i == j) for j in range(n)] for i, row in enumerate(mid)]
    k, _, rank = _reduce(tableau, n)
    if rank < n:
        raise PreconditionNotVerifiable("midpoint matrix is not invertible")
    inv = list(zip(*(_back_substitute(tableau, n, n + j, k) for j in range(n))))
    mag = [[abs(v) for v in row] for row in inv]
    p = [[sum(map(operator.mul, r, c)) for c in zip(*rad)] for r in mag]
    xc = [sum(map(operator.mul, r, b_mid)) for r in inv]
    q = [sum(map(operator.mul, r, b_rad)) for r in mag]
    # [k (I - p) | k (|x_c| + q)]
    bound = [
        [k * (i == j) - v for j, v in enumerate(row)] + [abs(x) + y]
        for i, (row, x, y) in enumerate(zip(p, xc, q))
    ]
    d = _positive_pivots(bound, n)
    u = tuple(Fraction(v, d) for v in _back_substitute(bound, n, n, d)) if d else None
    return p, xc, q, k, u


def _kernel_decision(matrix: IntervalMatrix) -> Decision:
    """No nonzero x with M x = 0 for any member M?  False carries the first
    orthant (lexicographic) with such an x, the witness and a singular member.

    Per orthant: -R D_s x <= C x <= R D_s x and e^T D_s x >= 1, which in
    the split variables of ``endpoint_rows`` is e^T (x+ + x-) >= 1.
    """
    scale, rows = endpoint_rows(matrix)
    nonzero = Constraint((scale,) * (2 * matrix.n), GEQ, scale)
    hit = next(feasible_orthants(SignVector.all(matrix.n), rows + [nonzero]), None)
    if hit is None:
        return Decision(True)
    s, _, x = hit
    member, _ = oettli_prager_member(matrix, x, s)
    return Decision(
        False,
        Certificate(sign_vector=s.entries, witness=x, member=member),
    )


def is_regular_exact(matrix: IntervalMatrix) -> Decision:
    """Every member nonsingular?  False comes with a singular member."""
    if not matrix.is_square():
        raise NotSquare("regularity is defined for square interval matrices")
    return _kernel_decision(matrix)


def has_full_column_rank_exact(matrix: IntervalMatrix) -> Decision:
    """Every member of full column rank?  Requires m >= n."""
    m, n = matrix.shape
    if m < n:
        raise ShapeError(f"full column rank needs m >= n, got {matrix.shape}")
    return _kernel_decision(matrix)


def regularity_sufficient(
    matrix: IntervalMatrix, cond: int, tol: Fraction = DEFAULT_TOL
) -> Verdict:
    """One of three polynomial sufficient conditions; Proven or Unknown."""
    tol = _positive_tol(tol)
    if not matrix.is_square():
        raise NotSquare("regularity is defined for square interval matrices")
    if cond == 1:
        # Beeck's rho(|C^-1| R) < 1, from the kernel with b = 0
        zero = IntervalVector.degenerate((0,) * matrix.n)
        try:
            u = _preconditioned(matrix, zero)[4]
        except PreconditionNotVerifiable:
            return Verdict.unknown("midpoint matrix is singular")
        if u is not None:
            return Verdict.proven("spectral radius of |C^-1| R below one")
        return Verdict.unknown("spectral radius condition fails")
    center, radius = matrix.midpoint_radius()
    if cond == 2:
        return _sigma_gap_verdict(center, radius, tol)
    if cond == 3:
        return _norm_gap_verdict(center, radius, tol)
    raise ValueError(f"unknown condition {cond}")


def _sigma_gap_verdict(
    center: RealMatrix, radius: RealMatrix, tol: Fraction
) -> Verdict:
    """sigma_max(R) < sigma_min(C) via enclosure comparison."""
    _, smax_r = extremal_singular_values(radius, tol)
    smin_c, _ = extremal_singular_values(center, tol)
    if smax_r.value.hi < smin_c.value.lo:
        return Verdict.proven("singular value gap certified")
    if smax_r.value.lo >= smin_c.value.hi:
        return Verdict.unknown("singular value condition fails")
    return Verdict.unknown("singular value enclosures straddle the threshold")


def _norm_gap_verdict(
    center: RealMatrix, radius: RealMatrix, tol: Fraction
) -> Verdict:
    """C^T C - ||R^T R|| I positive definite, for the Frobenius and spectral
    norms; the better verdict wins."""
    gram_c = center.transpose() @ center
    gram_r = radius.transpose() @ radius
    n = gram_c.n
    # Frobenius norm of R^T R is sqrt of an exact rational
    fro_sq = sum(
        (v * v for row in gram_r.rows for v in row), Fraction(0)
    )
    fro_up = sqrt_up(fro_sq, tol)
    shifted = gram_c - RealMatrix.identity(n).scale(fro_up)
    if is_positive_definite_real(shifted).is_proven:
        return Verdict.proven("norm gap certified (Frobenius)")
    # spectral norm of R^T R = lambda_max(R^T R) since it is symmetric PSD
    _, lam_max = sym_eigen_range(gram_r, tol)
    shifted = gram_c - RealMatrix.identity(n).scale(lam_max.value.hi)
    if is_positive_definite_real(shifted).is_proven:
        return Verdict.proven("norm gap certified (spectral)")
    return Verdict.unknown("norm condition not certified")


def singularity_sufficient(
    matrix: IntervalMatrix, cond: int
) -> Verdict:
    """One of three polynomial sufficient conditions; Proven or Unknown."""
    if not matrix.is_square():
        raise NotSquare("singularity is defined for square interval matrices")
    center, radius = matrix.midpoint_radius()
    if cond == 1:
        try:
            inv = center.inverse()
        except SingularMatrix:
            return Verdict.proven("midpoint matrix itself is singular")
        product = inv.abs() @ radius
        if max(product.rows[j][j] for j in range(product.n)) >= 1:
            return Verdict.proven("diagonal of |C^-1| R reaches one")
        return Verdict.unknown("diagonal condition fails")
    if cond == 2:
        try:
            inv = (radius - center.abs()).inverse()
        except SingularMatrix:
            return Verdict.unknown("R - |C| is singular")
        if inv.is_nonnegative():
            return Verdict.proven("(R - |C|)^-1 is nonnegative")
        return Verdict.unknown("inverse has a negative entry")
    if cond == 3:
        gram_gap = radius.transpose() @ radius - center.transpose() @ center
        if is_positive_semidefinite_real(gram_gap):
            return Verdict.proven("R^T R - C^T C is positive semidefinite")
        return Verdict.unknown("semidefiniteness condition fails")
    raise ValueError(f"unknown condition {cond}")


def singular_candidate_search(matrix: IntervalMatrix) -> Optional[RealMatrix]:
    """Search rank-one corrections C - z z^T / (z^T C^-1 z) over sign vectors.

    Requires unit radius (R = all-ones) and an invertible midpoint; returns
    the first candidate that is singular and contained in the matrix.
    """
    if not matrix.is_square():
        raise NotSquare("candidate search is defined for square matrices")
    center, radius = matrix.midpoint_radius()
    if radius != RealMatrix.ones(*radius.shape):
        raise PreconditionViolated("candidate search needs unit radius")
    try:
        inv = center.inverse()
    except SingularMatrix:
        raise PreconditionViolated("candidate search needs an invertible midpoint")
    n = matrix.n
    # z and -z give the same candidate, so scan half the sign vectors
    for z in SignVector.half(n):
        zv = tuple(Fraction(e) for e in z)
        denom = sum(
            (zv[i] * inv.rows[i][j] * zv[j] for i in range(n) for j in range(n)),
            Fraction(0),
        )
        if denom == 0:
            continue
        candidate = RealMatrix(
            [
                [center.rows[i][j] - zv[i] * zv[j] / denom for j in range(n)]
                for i in range(n)
            ]
        )
        if matrix.contains(candidate) and candidate.det() == 0:
            return candidate
    return None


def pseudo_inverse_full_column_rank(matrix: RealMatrix) -> RealMatrix:
    """Moore-Penrose inverse of a full-column-rank matrix: (A^T A)^-1 A^T."""
    gram = matrix.transpose() @ matrix
    return gram.inverse() @ matrix.transpose()


def fcr_sufficient(
    matrix: IntervalMatrix, cond: int, tol: Fraction = DEFAULT_TOL
) -> Verdict:
    """Sufficient conditions for full column rank; Proven or Unknown."""
    tol = _positive_tol(tol)
    center, radius = matrix.midpoint_radius()
    if cond == 1:
        if center.rank() < center.n:
            return Verdict.unknown("midpoint lacks full column rank")
        pinv = pseudo_inverse_full_column_rank(center)
        if rho_less_than(pinv.abs() @ radius, 1):
            return Verdict.proven("spectral radius of |C^+| R below one")
        return Verdict.unknown("spectral radius condition fails")
    if cond == 2:
        return _sigma_gap_verdict(center, radius, tol)
    raise ValueError(f"unknown condition {cond}")

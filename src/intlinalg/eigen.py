"""Eigenvalue membership, symmetric eigenvalue ranges, spectral radius
ranges, positive (semi)definiteness, and Hurwitz/Schur stability.

Exact deciders reduce to regularity (eigenvalue membership) or to pivot
signs over endpoint-pattern vertices (definiteness, symmetric Hurwitz);
enclosure comparisons that straddle a threshold map to Unknown, never to
a boolean.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import Certificate, Decision, Interval, Verdict, as_vector, rational
from .errors import (
    DimensionMismatch,
    NotIrreducible,
    NotNonnegative,
    NotPositiveVector,
    NotSquare,
    NotSymmetric,
    SizeGuardExceeded,
    UnsupportedClass,
    ZeroVector,
)
from .lp import oettli_prager_member
from .matrices import IntervalMatrix, IntervalVector, RealMatrix, SignVector, Vector
from .regularity import is_regular_exact, regularity_sufficient
from .spectral import (
    DEFAULT_TOL,
    _positive_tol,
    is_positive_definite_real,
    is_positive_semidefinite_real,
    spectral_radius,
    sym_eigen_range as point_eigen_range,
)

VERTEX_PD_GUARD = 12
VERTEX_SCAN_GUARD = 8


@dataclass(frozen=True)
class SymmetricIntervalMatrix:
    """Interval matrix restricted to its symmetric members."""

    base: IntervalMatrix

    def __post_init__(self):
        if not self.base.is_square():
            raise NotSquare("symmetric interval matrix must be square")
        if not self.base.symmetric_views():
            raise NotSymmetric("midpoint and radius must both be symmetric")

    @property
    def n(self) -> int:
        return self.base.n

    def midpoint_radius(self) -> Tuple[RealMatrix, RealMatrix]:
        return self.base.midpoint_radius()

    def __neg__(self) -> "SymmetricIntervalMatrix":
        return SymmetricIntervalMatrix(-self.base)

    def vertices(self) -> List[Tuple[SignVector, RealMatrix]]:
        """Symmetric endpoint members C - D_z R D_z (z and -z coincide)."""
        out = []
        for z in SignVector.half(self.n):
            out.append((z, self.base.vertex_matrix(z, z)))
        return out


@dataclass(frozen=True)
class EigenRangeReport:
    lambda_min: Interval
    lambda_max: Interval
    exact_min: bool
    exact_max: bool
    subclass: Optional[str]
    attained_min: Optional[Interval] = None
    attained_max: Optional[Interval] = None


# ---------------------------------------------------------------------------
# membership tests


def is_eigenvalue(matrix: IntervalMatrix, lam) -> Decision:
    """Is lam an eigenvalue of some member?  Reduction to singularity."""
    if not matrix.is_square():
        raise NotSquare("eigenvalue membership needs a square matrix")
    lam = rational(lam)
    shifted = matrix.shift_diagonal(lam)
    verdict = is_regular_exact(shifted)
    if verdict.answer:
        return Decision(False)
    cert = verdict.certificate
    member = cert.member + RealMatrix.identity(matrix.n).scale(lam)
    if not matrix.contains(member):
        raise AssertionError("shifted singular member lies outside the matrix")
    return Decision(
        True,
        Certificate(
            sign_vector=cert.sign_vector,
            witness=cert.witness,
            member=member,
            value=lam,
        ),
    )


def _eigenvector_lambda_range(
    matrix: IntervalMatrix, x: Vector
) -> Optional[Interval]:
    """Intersection over rows of admissible eigenvalue intervals for x."""
    box = matrix.matvec_point(x)
    lam: Optional[Interval] = None
    for i in range(matrix.m):
        row_range = box[i]
        if x[i] == 0:
            if not row_range.contains_zero():
                return None
            continue
        candidate = row_range.scale(Fraction(1) / x[i])
        lam = candidate if lam is None else lam.intersect(candidate)
        if lam is None:
            return None
    # an all-zero x never reaches here (callers reject zero vectors),
    # so lam is None only via an empty intersection above
    return lam


def is_eigenvector(matrix: IntervalMatrix, x) -> Decision:
    """Is x an eigenvector of some member (for some real eigenvalue)?"""
    if not matrix.is_square():
        raise NotSquare("eigenvector membership needs a square matrix")
    xs = as_vector(x)
    if len(xs) != matrix.n:
        raise DimensionMismatch(f"vector length {len(xs)} does not match {matrix.n}")
    if all(v == 0 for v in xs):
        raise ZeroVector("eigenvector candidate must be nonzero")
    lam_range = _eigenvector_lambda_range(matrix, xs)
    if lam_range is None:
        return Decision(False)
    lam = lam_range.midpoint
    s = SignVector.of([-1 if v < 0 else 1 for v in xs])
    target = IntervalVector.degenerate([lam * v for v in xs])
    member, _ = oettli_prager_member(matrix, xs, s, target)
    return Decision(True, Certificate(witness=xs, member=member, value=lam))


def _pattern_irreducible(matrix: RealMatrix) -> bool:
    """Strong connectivity of the nonzero-pattern digraph."""
    n = matrix.n
    adj = [
        [j for j in range(n) if j != i and matrix.rows[i][j] != 0]
        for i in range(n)
    ]
    radj = [[] for _ in range(n)]
    for i in range(n):
        for j in adj[i]:
            radj[j].append(i)

    def reaches_all(start: int, graph) -> bool:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in graph[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    return reaches_all(0, adj) and reaches_all(0, radj)


def is_perron_vector(matrix: IntervalMatrix, x) -> Decision:
    """Is x > 0 a Perron eigenvector of some member of a nonnegative
    irreducible interval matrix?"""
    if not matrix.is_square():
        raise NotSquare("Perron membership needs a square matrix")
    xs = as_vector(x)
    if len(xs) != matrix.n:
        raise DimensionMismatch(f"vector length {len(xs)} does not match {matrix.n}")
    if not matrix.lower().is_nonnegative():
        raise NotNonnegative("lower bound matrix must be nonnegative")
    if not _pattern_irreducible(matrix.upper()):
        raise NotIrreducible("upper bound pattern is not strongly connected")
    if any(v <= 0 for v in xs):
        raise NotPositiveVector("Perron candidate must be strictly positive")
    lam_range = _eigenvector_lambda_range(matrix, xs)
    if lam_range is None or lam_range.hi <= 0:
        return Decision(False)
    lam = lam_range.hi
    target = IntervalVector.degenerate([lam * v for v in xs])
    member, _ = oettli_prager_member(matrix, xs, SignVector.ones(matrix.n), target)
    return Decision(True, Certificate(witness=xs, member=member, value=lam))


# ---------------------------------------------------------------------------
# symmetric eigenvalue range


def _is_essentially_nonnegative(matrix: RealMatrix) -> bool:
    n = matrix.n
    return all(
        matrix.rows[i][j] >= 0 for i in range(n) for j in range(n) if i != j
    )


def _is_diagonal(matrix: RealMatrix) -> bool:
    n = matrix.n
    return all(
        matrix.rows[i][j] == 0 for i in range(n) for j in range(n) if i != j
    )


def sym_eigen_range(
    sym: SymmetricIntervalMatrix, tol: Fraction = DEFAULT_TOL
) -> EigenRangeReport:
    """Extremal eigenvalues over symmetric members.

    Recognized subclasses get exact endpoints; otherwise outer bounds from
    midpoint spectra plus radius spectral radius, tightened by the attained
    range of a symmetric vertex scan.
    """
    tol = _positive_tol(tol)
    center, radius = sym.midpoint_radius()
    diag_radius = _is_diagonal(radius)
    ess_nonneg = _is_essentially_nonnegative(center)

    def point_range(matrix: RealMatrix) -> Tuple[Interval, Interval]:
        lo, hi = point_eigen_range(matrix, tol)
        return lo.value, hi.value

    if diag_radius:
        lo_box, _ = point_range(sym.base.lower())
        _, hi_box = point_range(sym.base.upper())
        return EigenRangeReport(
            lo_box, hi_box, True, True, "diagonal-radius",
            attained_min=lo_box, attained_max=hi_box,
        )

    rho_rad = spectral_radius(radius, tol).value
    lo_c, hi_c = point_range(center)
    outer_min_lo = lo_c.lo - rho_rad.hi
    outer_max_hi = hi_c.hi + rho_rad.hi

    attained_min: Optional[Interval] = None
    attained_max: Optional[Interval] = None
    if sym.n <= VERTEX_SCAN_GUARD:
        for _, vertex in sym.vertices():
            v_lo, v_hi = point_range(vertex)
            attained_min = v_lo if attained_min is None else Interval(
                min(attained_min.lo, v_lo.lo), min(attained_min.hi, v_lo.hi)
            )
            attained_max = v_hi if attained_max is None else Interval(
                max(attained_max.lo, v_hi.lo), max(attained_max.hi, v_hi.hi)
            )

    if ess_nonneg:
        _, hi_box = point_range(sym.base.upper())
        lam_max = hi_box
        exact_max = True
        subclass = "essentially-nonnegative"
    else:
        # the midpoint is a member, so its top eigenvalue bounds from below
        top = hi_c.lo
        if attained_max is not None:
            top = max(top, attained_max.lo)
        lam_max = Interval(min(top, outer_max_hi), outer_max_hi)
        exact_max = False
        subclass = None
    bottom = lo_c.hi
    if attained_min is not None:
        bottom = min(bottom, attained_min.hi)
    lam_min = Interval(outer_min_lo, bottom)
    return EigenRangeReport(
        lam_min,
        lam_max,
        False,
        exact_max,
        subclass,
        attained_min=attained_min,
        attained_max=attained_max,
    )


def spectral_radius_range(
    matrix: IntervalMatrix, tol: Fraction = DEFAULT_TOL
) -> Interval:
    """Range of spectral radii over members: nonnegative or diagonal classes."""
    tol = _positive_tol(tol)
    if not matrix.is_square():
        raise NotSquare("spectral radius range needs a square matrix")
    n = matrix.n
    off_diag_zero = all(
        matrix[i, j].is_degenerate() and matrix[i, j].lo == 0
        for i in range(n)
        for j in range(n)
        if i != j
    )
    if off_diag_zero:
        lo = max(matrix[i, i].mig for i in range(n))
        hi = max(matrix[i, i].mag for i in range(n))
        return Interval(lo, hi)
    if matrix.lower().is_nonnegative():
        lo = spectral_radius(matrix.lower(), tol).value.lo
        hi = spectral_radius(matrix.upper(), tol).value.hi
        return Interval(lo, hi)
    raise UnsupportedClass(
        "spectral radius range needs a nonnegative or diagonal matrix"
    )


# ---------------------------------------------------------------------------
# definiteness


def strong_pd(
    sym: SymmetricIntervalMatrix,
    mode: str = "vertex-exact",
    semidefinite: bool = False,
    tol: Fraction = DEFAULT_TOL,
):
    """Strong positive (semi)definiteness.

    Sufficient modes return a Verdict; vertex-exact returns a Decision by
    testing every symmetric endpoint vertex with exact pivot signs.
    """
    tol = _positive_tol(tol)
    center, radius = sym.midpoint_radius()
    if mode == "sufficient-1":
        lam_min, _ = point_eigen_range(center, tol)
        rho_rad = spectral_radius(radius, tol).value
        gap_ok = (
            lam_min.value.lo >= rho_rad.hi
            if semidefinite
            else lam_min.value.lo > rho_rad.hi
        )
        if gap_ok:
            return Verdict.proven("midpoint eigenvalue gap beats radius radius")
        return Verdict.unknown("eigenvalue gap not certified")
    if mode == "sufficient-2":
        if not is_positive_definite_real(center).is_proven:
            return Verdict.unknown("midpoint is not positive definite")
        # a positive definite midpoint is invertible
        if regularity_sufficient(sym.base, 1).is_proven:
            return Verdict.proven("midpoint PD and contraction certified")
        return Verdict.unknown("contraction condition fails")
    if mode == "vertex-exact":
        if sym.n > VERTEX_PD_GUARD:
            raise SizeGuardExceeded(
                f"vertex scan guarded to n <= {VERTEX_PD_GUARD}"
            )
        for z, vertex in sym.vertices():
            if semidefinite:
                ok = is_positive_semidefinite_real(vertex)
            else:
                ok = is_positive_definite_real(vertex).is_proven
            if not ok:
                return Decision(
                    False,
                    Certificate(sign_vector=z.entries, member=vertex),
                )
        return Decision(True)
    raise ValueError(f"unknown strong-definiteness mode {mode!r}")


def weak_pd(
    sym: SymmetricIntervalMatrix, tol: Fraction = DEFAULT_TOL
) -> Verdict:
    """Some symmetric member positive definite?  One-sided answers only."""
    tol = _positive_tol(tol)
    center, _ = sym.midpoint_radius()
    if is_positive_definite_real(center).is_proven:
        return Verdict.proven("midpoint member is positive definite")
    if sym.n <= VERTEX_PD_GUARD:
        for z, vertex in sym.vertices():
            if is_positive_definite_real(vertex).is_proven:
                return Verdict.proven("a vertex member is positive definite")
    report = sym_eigen_range(sym, tol)
    if report.lambda_max.hi <= 0:
        return Verdict.refuted("largest eigenvalue over members is nonpositive")
    return Verdict.unknown("no member certified, refutation bound not reached")


# ---------------------------------------------------------------------------
# stability


def hurwitz_sym(sym: SymmetricIntervalMatrix) -> Decision:
    """Exact symmetric Hurwitz stability: -A strongly positive definite."""
    return strong_pd(-sym, "vertex-exact")


def hurwitz_general(
    matrix: IntervalMatrix, tol: Fraction = DEFAULT_TOL
) -> Verdict:
    """Sufficient Hurwitz check: definiteness of the symmetric part of -A."""
    tol = _positive_tol(tol)
    if not matrix.is_square():
        raise NotSquare("Hurwitz stability needs a square matrix")
    n = matrix.n
    half = Fraction(1, 2)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            combined = (-matrix[i, j]) + (-matrix[j, i])
            row.append(combined.scale(half))
        entries.append(row)
    sym = SymmetricIntervalMatrix(IntervalMatrix(entries))
    for mode in ("sufficient-2", "sufficient-1"):
        verdict = strong_pd(sym, mode, tol=tol)
        if verdict.is_proven:
            return Verdict.proven(f"symmetric part of -A strongly PD ({mode})")
    if sym.n <= VERTEX_PD_GUARD:
        decision = strong_pd(sym, "vertex-exact")
        if decision.answer:
            return Verdict.proven("symmetric part of -A strongly PD (vertex)")
    return Verdict.unknown("no sufficient condition applied")


def schur_sym(
    sym: SymmetricIntervalMatrix, tol: Fraction = DEFAULT_TOL
) -> Verdict:
    """Symmetric Schur stability: all member spectra inside (-1, 1)."""
    report = sym_eigen_range(sym, tol)
    if report.lambda_max.hi < 1 and report.lambda_min.lo > -1:
        return Verdict.proven("spectral enclosure inside the unit interval")
    if report.attained_max is not None and report.attained_max.lo >= 1:
        return Verdict.refuted("a vertex member has an eigenvalue at or above 1")
    if report.attained_min is not None and report.attained_min.hi <= -1:
        return Verdict.refuted("a vertex member has an eigenvalue at or below -1")
    if report.exact_max and report.lambda_max.lo >= 1:
        return Verdict.refuted("largest member eigenvalue reaches 1")
    if report.exact_min and report.lambda_min.hi <= -1:
        return Verdict.refuted("smallest member eigenvalue reaches -1")
    return Verdict.unknown("enclosures straddle the stability margin")

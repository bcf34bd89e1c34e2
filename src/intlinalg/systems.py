"""Solution sets of interval linear systems.

Membership tests, the exact hull by orthant sweep, enclosure methods
(interval Gaussian elimination, Jacobi, Gauss-Seidel, Krawczyk, and the
Hansen-Bliek-Rohn style closed form), structured exact solvers, the
solvability suite with dual certificates, and tolerance/control solutions.

Each solvability decider runs a split LP, x = x1 - x2 with x1, x2 >= 0.
The orthant sweep (``lp.feasible_orthants``) fixes one half of each pair at
0 per orthant and serves weak solvability, strong solvability of equations
(on the dual), weak inequalities and control solutions over every orthant,
and the nonnegative weak modes over the one orthant x >= 0.  With both
halves free, ``_split_lp`` serves strong inequalities, with x >= 0 or with
x = x1 - x2, and tolerance solutions, which are strong solutions of
[A; -A] x <= [b_hi; -b_lo].

Interval Gaussian elimination runs on integer rows: each row of [A | b] is
integer endpoints over one positive scale, and each update is fraction-free
(Bareiss 1968) yet equal to the rational one; Fractions are made only for x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import Certificate, Decision, Interval, as_vector, mul_bounds
from .errors import (
    DiagonalContainsZero,
    DimensionMismatch,
    NoInitialEnclosure,
    NotBidiagonal,
    NotSquare,
    PivotContainsZero,
    PreconditionNotVerifiable,
    ShapeError,
    SingularMatrix,
    UnboundedSolutionSet,
)
from .lp import (
    EQ,
    LEQ,
    Constraint,
    LinearProgram,
    _scaled,
    endpoint_rows,
    feasible_orthants,
    lp_feasible,
    lp_optimize,
    oettli_prager_member,
)
from .matrices import (
    IntervalMatrix,
    IntervalVector,
    RealMatrix,
    SignVector,
    Vector,
    integer_rows,
    vec_abs,
    vec_add,
    vec_sub,
)
from .regularity import _preconditioned, has_full_column_rank_exact

@dataclass
class SolveReport:
    box: Optional[IntervalVector]
    method: str
    exact: bool
    iterations: int
    insolvability_detected: bool
    converged: bool = True


@dataclass(frozen=True)
class SolveOptions:
    max_iter: int = 1000
    initial: Optional[IntervalVector] = None
    precondition: Optional[bool] = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class ParametricSystem:
    """Family sum_k p_k A^k x = sum_k p_k b^k with p ranging over a box."""

    a_terms: Tuple[RealMatrix, ...]
    b_terms: Tuple[Vector, ...]
    p_box: IntervalVector

    def __post_init__(self):
        if not self.a_terms:
            raise DimensionMismatch("parametric system needs at least one term")
        shape = self.a_terms[0].shape
        if any(a.shape != shape for a in self.a_terms):
            raise DimensionMismatch("parametric matrices must share a shape")
        if len(self.b_terms) != len(self.a_terms):
            raise DimensionMismatch("matrix/rhs term counts differ")
        if any(len(b) != shape[0] for b in self.b_terms):
            raise DimensionMismatch("rhs term length does not match rows")
        if self.p_box.dim != len(self.a_terms):
            raise DimensionMismatch("parameter box does not match term count")


def _check_system(matrix: IntervalMatrix, rhs: IntervalVector):
    if rhs.dim != matrix.m:
        raise DimensionMismatch(
            f"rhs of length {rhs.dim} does not match {matrix.m} rows"
        )


def _range_rows(
    matrix: IntervalMatrix, rhs: IntervalVector, x: Sequence
) -> List[Tuple[Interval, Interval]]:
    """Pairs of the exact range of (A x)_i over the members and b_i."""
    _check_system(matrix, rhs)
    return list(zip(matrix.matvec_point(x).entries, rhs.entries))


def is_solution(matrix: IntervalMatrix, rhs: IntervalVector, x: Sequence) -> bool:
    """Membership in the solution set: each row's range of A x meets b_i,
    which is the Oettli-Prager |C x - b_c| <= R |x| + d."""
    return all(r.intersect(b) is not None for r, b in _range_rows(matrix, rhs, x))


def parametric_witness(system: ParametricSystem, x: Sequence) -> Optional[Vector]:
    """Parameter vector p in its box with A(p) x = b(p), or None."""
    xs = as_vector(x)
    if len(xs) != system.a_terms[0].n:
        raise DimensionMismatch("candidate length does not match columns")
    k = len(system.a_terms)
    m = system.a_terms[0].m
    # coefficient of p_k in row i is (A^k x - b^k)_i
    cols = [
        vec_sub(system.a_terms[t].matvec(xs), system.b_terms[t]) for t in range(k)
    ]
    cons = [
        Constraint(tuple(cols[t][i] for t in range(k)), EQ, Fraction(0))
        for i in range(m)
    ]
    bounds = tuple((e.lo, e.hi) for e in system.p_box.entries)
    outcome = lp_feasible(
        LinearProgram(tuple([Fraction(0)] * k), tuple(cons), bounds)
    )
    if not outcome.answer:
        return None
    return outcome.certificate.witness


def is_solution_parametric(system: ParametricSystem, x: Sequence) -> bool:
    return parametric_witness(system, x) is not None


# ---------------------------------------------------------------------------
# exact hull by orthant sweep


def hull_exact(matrix: IntervalMatrix, rhs: IntervalVector) -> SolveReport:
    """Componentwise-tightest box around the solution set (orthant LPs)."""
    _check_system(matrix, rhs)
    if not has_full_column_rank_exact(matrix).answer:
        raise UnboundedSolutionSet(
            "solution set may be unbounded: no full column rank"
        )
    box = _orthant_hull(matrix, rhs)
    return SolveReport(box, "hull", True, 0, insolvability_detected=box is None)


def _orthant_hull(
    matrix: IntervalMatrix, rhs: IntervalVector
) -> Optional[IntervalVector]:
    """Hull of a bounded solution set from 2n LPs per feasible orthant;
    None when no orthant is feasible."""
    n = matrix.n
    _, rows = endpoint_rows(matrix, rhs.lower(), rhs.upper())
    # x_j and -x_j for each j, over the split variables: x_j = x+_j - x-_j
    objectives = [tuple(sign * ((t == j) - (t == n + j)) for t in range(2 * n))
                  for j in range(n) for sign in (1, -1)]
    top: List[Optional[Fraction]] = [None] * (2 * n)  # max x_j, then max -x_j
    for _, program, _ in feasible_orthants(SignVector.all(n), rows):
        for k, obj in enumerate(objectives):
            sol = lp_optimize(program.with_objective(obj))
            if sol.status != "optimal":
                raise UnboundedSolutionSet(
                    "orthant optimization unbounded despite rank check"
                )
            top[k] = sol.value if top[k] is None else max(top[k], sol.value)
    if top[0] is None:
        return None
    return IntervalVector.from_bounds(tuple(-v for v in top[1::2]), tuple(top[0::2]))


# ---------------------------------------------------------------------------
# structured exact solvers


def _bidiagonal_layout(matrix: IntervalMatrix) -> str:
    """Classify as 'diagonal', 'lower', or 'upper'; raise otherwise."""
    if not matrix.is_square():
        raise NotSquare("bidiagonal solver needs a square matrix")
    n = matrix.n
    lower_used = any(
        not matrix[i, i - 1].is_degenerate() or matrix[i, i - 1].lo != 0
        for i in range(1, n)
    )
    upper_used = any(
        not matrix[i, i + 1].is_degenerate() or matrix[i, i + 1].lo != 0
        for i in range(n - 1)
    )
    if lower_used and upper_used:
        raise NotBidiagonal("both neighbouring diagonals are populated")
    band = -1 if lower_used else (1 if upper_used else 0)
    for i in range(n):
        for j in range(n):
            if j == i or j - i == band:
                continue
            e = matrix[i, j]
            if not (e.is_degenerate() and e.lo == 0):
                raise NotBidiagonal(f"entry ({i},{j}) outside the band is nonzero")
    if any(matrix[i, i].contains_zero() for i in range(n)):
        raise DiagonalContainsZero("a diagonal entry contains zero")
    return {0: "diagonal", -1: "lower", 1: "upper"}[band]


def hull_bidiagonal(matrix: IntervalMatrix, rhs: IntervalVector) -> SolveReport:
    """Exact hull by interval substitution; every coefficient occurs once."""
    _check_system(matrix, rhs)
    layout = _bidiagonal_layout(matrix)
    n = matrix.n
    xs: List[Optional[Interval]] = [None] * n
    if layout in ("diagonal", "lower"):
        order = range(n)
        neighbour = -1
    else:
        order = range(n - 1, -1, -1)
        neighbour = 1
    for i in order:
        acc = rhs[i]
        j = i + neighbour
        if layout != "diagonal" and 0 <= j < n and xs[j] is not None:
            acc = acc - matrix[i, j] * xs[j]
        xs[i] = acc / matrix[i, i]
    method = "diagonal" if layout == "diagonal" else "bidiagonal"
    return SolveReport(IntervalVector(xs), method, True, 0, False)


def is_interval_m_matrix(matrix: IntervalMatrix) -> bool:
    """Every member an M-matrix: nonpositive off-diagonal uppers and an
    M-matrix lower bound."""
    if not matrix.is_square():
        return False
    n = matrix.n
    upper = matrix.upper()
    if any(
        upper.rows[i][j] > 0 for i in range(n) for j in range(n) if i != j
    ):
        return False
    return matrix.lower().leading_minors_all_positive()


def monotone_hull(matrix: IntervalMatrix, rhs: IntervalVector) -> IntervalVector:
    """Exact hull for inverse-nonnegative matrices (M-matrices included).

    By Kuttler's theorem, nonnegative inverses of the two endpoint matrices
    make every member regular with A^-1 >= 0.  So x = A^-1 b grows with b
    and, in column j of A, falls where x_j >= 0 and rises where x_j < 0:
    the upper bound solves A_c x - Delta |x| = b_hi, which has a unique
    solution as every member is regular (Rohn); the lower bound is minus
    that for -b_lo.  Rohn's sign accord finds it: solve the member
    A_c - Delta diag(z), flip the lowest z_j with z_j x_j < 0, repeat.
    Least-index flips never revisit a sign vector on this P-matrix problem,
    so the budget of 2^n flips per bound is never reached.
    """
    _check_system(matrix, rhs)
    n = matrix.n
    lo_m = matrix.lower()
    hi_m = matrix.upper()
    try:
        nonneg = (
            matrix.is_square()
            and lo_m.inverse().is_nonnegative()
            and hi_m.inverse().is_nonnegative()
        )
    except SingularMatrix:
        nonneg = False
    if not nonneg:
        raise PreconditionNotVerifiable(
            "monotone hull needs nonnegative endpoint inverses"
        )

    def upper_bound(b: Vector) -> Vector:
        # start from the signs of b: A^-1 >= 0 maps b >= 0 to x >= 0
        z = [1 if v >= 0 else -1 for v in b]
        for _ in range(2**n + 1):
            x = RealMatrix(
                [
                    [lo if zj == 1 else hi for lo, hi, zj in zip(lo_row, hi_row, z)]
                    for lo_row, hi_row in zip(lo_m.rows, hi_m.rows)
                ]
            ).solve(b)
            wrong = [j for j in range(n) if z[j] * x[j] < 0]
            if not wrong:
                return x
            z[wrong[0]] = -z[wrong[0]]
        raise AssertionError("sign accord exceeded its budget of 2^n flips")

    x_lo = upper_bound(tuple(-v for v in rhs.lower()))
    return IntervalVector.from_bounds(
        tuple(-v for v in x_lo), upper_bound(rhs.upper())
    )


# ---------------------------------------------------------------------------
# enclosure methods


def _auto_initial(
    p: List[List[int]], xc: List[int], q: List[int], k: int, u: Optional[Vector]
) -> IntervalVector:
    """Rigorous starting box from ``_preconditioned``'s (P, X, Q, k, u): the
    box [-u, u] after one Krawczyk step, [x_c - p u - q, x_c + p u + q]."""
    if u is None:
        raise NoInitialEnclosure(
            "no starting box: rho(|C^-1| R) < 1 not provable and none supplied"
        )
    box = IntervalVector.from_bounds(tuple(-v for v in u), u)
    tight = _preconditioned_step(p, xc, q, k, box, "krawczyk")
    if tight is None:
        raise AssertionError("two boxes that hold the solution set do not meet")
    return tight


def _forward_elimination(rows: Sequence[Sequence[Interval]]) -> Tuple[list, list, int]:
    """Interval elimination below the diagonal of the n leading columns of
    n rows; returns (rows, scales, parity of the swaps).  Row r holds each
    entry's endpoints as integers over one scale s_r > 0.

    The pivot of column k is the first candidate of largest mignitude, and
    rows whose entry is the point zero are skipped.  Pivot [P, Q] / s_k has
    the reciprocal [L/Q, L/P] s_k / L for L = lcm(P, Q); positive scalings
    commute with interval + and *, so row r becomes the integers
    L row_r - (row_rk [L/Q, L/P]) row_k over s_r L, cleared of common factors.
    """
    work, scales = integer_rows([e for iv in row for e in (iv.lo, iv.hi)] for row in rows)
    n, sign = len(work), 1
    for k in range(n):
        j = 2 * k
        pivot_row, pivot_mig, pivot_scale = None, 0, 1
        for r in range(k, n):
            mig = max(work[r][j], -work[r][j + 1], 0)
            if mig * pivot_scale > pivot_mig * scales[r]:
                pivot_row, pivot_mig, pivot_scale = r, mig, scales[r]
        if pivot_row is None:
            raise PivotContainsZero(f"all candidate pivots in column {k} contain zero")
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            scales[k], scales[pivot_row] = scales[pivot_row], scales[k]
            sign = -sign
        prow = work[k]
        lcm = math.lcm(prow[j], prow[j + 1])
        for r in range(k + 1, n):
            row = work[r]
            if row[j] == 0 == row[j + 1]:
                continue
            f_lo, f_hi = mul_bounds(row[j], row[j + 1], lcm // prow[j + 1], lcm // prow[j])
            h = math.gcd(lcm, f_lo, f_hi)
            up, f_lo, f_hi = lcm // h, f_lo // h, f_hi // h
            new = [0] * (j + 2)
            for c in range(j + 2, len(row), 2):
                m_lo, m_hi = mul_bounds(f_lo, f_hi, prow[c], prow[c + 1])
                new += (up * row[c] - m_hi, up * row[c + 1] - m_lo)
            g = math.gcd(scales[r] * up, *new)
            work[r], scales[r] = [v // g for v in new], scales[r] * up // g
    return work, scales, sign


def _back_substitution(work: List[List[int]], col: int) -> IntervalVector:
    """x with U x = column ``col`` of ``_forward_elimination``'s rows.  Row
    scales cancel, so x is integers over one scale t with gcd(t, x) = 1; a
    step multiplies both by the pivot's L, so gcd(L, x_k) divides out."""
    n = len(work)
    xs, out, t = [0] * (2 * n), [None] * (2 * n), 1
    for k, row in reversed(list(enumerate(work))):
        lo, hi = row[2 * col] * t, row[2 * col + 1] * t
        for c in range(2 * k + 2, 2 * n, 2):
            m_lo, m_hi = mul_bounds(row[c], row[c + 1], xs[c], xs[c + 1])
            lo, hi = lo - m_hi, hi - m_lo
        lcm = math.lcm(row[2 * k], row[2 * k + 1])
        lo, hi = mul_bounds(lo, hi, lcm // row[2 * k + 1], lcm // row[2 * k])
        g = math.gcd(lcm, lo, hi)
        up = lcm // g
        xs, t = [v * up for v in xs], t * up
        xs[2 * k : 2 * k + 2] = lo // g, hi // g
        out[2 * k : 2 * k + 2] = Fraction(lo // g, t), Fraction(hi // g, t)
    return IntervalVector.from_bounds(out[::2], out[1::2])


def _interval_gauss_elimination(
    matrix: IntervalMatrix, rhs: IntervalVector
) -> IntervalVector:
    if not matrix.is_square():
        raise NotSquare("interval elimination needs a square matrix")
    rows = [list(matrix.row(i)) + [rhs[i]] for i in range(matrix.n)]
    return _back_substitution(_forward_elimination(rows)[0], matrix.n)


def _sweep(
    a: IntervalMatrix, b: IntervalVector, box: IntervalVector, in_place: bool
) -> Optional[IntervalVector]:
    """One sweep x_i = (b_i - sum_{j != i} a_ij x_j) / a_ii, intersected
    with x_i; None when a coordinate empties.

    In place (Gauss-Seidel) the sum reads the entries already updated in
    this sweep; otherwise (Jacobi) it reads the old box.  No diagonal
    entry of a may contain zero.
    """
    old = box.entries
    new = list(old)
    read = new if in_place else old
    n = len(old)
    for i in range(n):
        acc = b[i]
        for j in range(n):
            if j != i:
                acc = acc - a[i, j] * read[j]
        cap = (acc / a[i, i]).intersect(old[i])
        if cap is None:
            return None
        new[i] = cap
    return IntervalVector(new)


def _preconditioned_step(
    p: List[List[int]], xc: List[int], q: List[int], k: int, box: IntervalVector, method: str
) -> Optional[IntervalVector]:
    """Step on [I - p, I + p] x = [x_c - q, x_c + q] from (p, x_c, q) = (P, X,
    Q) / k and |x|, as [-p_ij, p_ij] x_j = [-1, 1] p_ij |x_j|: x_i meets
    x_c,i + [-s_i, s_i], s_i = q_i + sum_j p_ij |x_j| (Krawczyk), or that over
    [1 - p_ii, 1 + p_ii] with j != i (Jacobi; Gauss-Seidel reads the updated
    |x_j|); None if empty."""
    divide = method != "krawczyk"
    new = list(box.entries)
    mags = [e.mag for e in new]
    for i, (row, x, r) in enumerate(zip(p, xc, q)):
        if i == 0 or method == "gauss-seidel":
            (ints,), (h,) = integer_rows([mags])  # |x_j| = ints[j] / h
        # k h s_i = Q_i h + sum_j P_ij ints_j, so x_i meets [X_i h - t, X_i h + t] / (k h)
        t = r * h + sum(map(int.__mul__, row, ints)) - (row[i] * ints[i] if divide else 0)
        lo, hi, lo_den, hi_den = x * h - t, x * h + t, k, k
        if divide:  # times [k / (k + P_ii), k / (k - P_ii)], which is > 0
            d = row[i]
            lo_den, hi_den = k + d if lo >= 0 else k - d, k - d if hi >= 0 else k + d
        new[i] = Interval(Fraction(lo, h * lo_den), Fraction(hi, h * hi_den)).intersect(new[i])
        if new[i] is None:
            return None
        mags[i] = new[i].mag
    return IntervalVector(new)


def _iterate(
    matrix: IntervalMatrix, rhs: IntervalVector, opts: SolveOptions, method: str
) -> SolveReport:
    """Jacobi / Gauss-Seidel / Krawczyk: preconditioned, ``_preconditioned_step``
    on the (p, x_c, q) of ``_preconditioned``; with precondition=False (a start
    box is required), ``_sweep`` on [A] x = [b] or the general Krawczyk."""
    if not matrix.is_square():
        raise NotSquare("iterative methods need a square matrix")
    n = matrix.n
    if opts.precondition is False:
        if opts.initial is None:
            raise NoInitialEnclosure("unpreconditioned iteration needs a start box")
        box = opts.initial
        if method == "krawczyk":
            center, radius = matrix.midpoint_radius()
            b_mid, b_rad = rhs.midpoint_radius()
            # with x - m = [-r, r], K(x) = m + (b - A m) + (I - A)(x - m) is the
            # box of midpoint m + b_c - A_c m and radius b_r + R |m| + |I - A| r
            gap_mag = (RealMatrix.identity(n) - center).abs() + radius
        elif any(matrix[i, i].contains_zero() for i in range(n)):
            raise PivotContainsZero("a diagonal entry contains zero")
    else:
        p, xc, q, k, u = _preconditioned(matrix, rhs)
        box = opts.initial if opts.initial is not None else _auto_initial(p, xc, q, k, u)
        if method != "krawczyk" and any(p[i][i] >= k for i in range(n)):
            raise PivotContainsZero("a preconditioned diagonal entry contains zero")
    iterations = 0
    while iterations < opts.max_iter:
        iterations += 1
        if opts.precondition is not False:
            new_box = _preconditioned_step(p, xc, q, k, box, method)
        elif method == "krawczyk":
            m, r = box.midpoint_radius()
            k_mid = vec_add(m, vec_sub(b_mid, center.matvec(m)))
            k_rad = vec_add(
                b_rad, vec_add(radius.matvec(vec_abs(m)), gap_mag.matvec(r))
            )
            new_box = IntervalVector.from_bounds(
                vec_sub(k_mid, k_rad), vec_add(k_mid, k_rad)
            ).intersect(box)
        else:
            new_box = _sweep(matrix, rhs, box, method == "gauss-seidel")
        if new_box is None:
            return SolveReport(None, method, False, iterations, True)
        if new_box == box:
            return SolveReport(new_box, method, False, iterations, False)
        box = new_box
    return SolveReport(box, method, False, iterations, False, converged=False)


def _hbr_enclosure(
    p: List[List[int]], xc: List[int], q: List[int], k: int, xstar: Optional[Vector]
) -> SolveReport:
    """Closed-form enclosure under the proven contraction rho(|C^-1| R) < 1,
    from ``_preconditioned``'s (P, X, Q, k, u)."""
    if xstar is None:
        raise PreconditionNotVerifiable("rho(|C^-1| R) < 1 is not provable")
    lo, hi = [], []
    for i, (row, x) in enumerate(zip(p, xc)):
        pii = row[i]
        # (1 - p_ii) / (1 + p_ii) and x_c,i / (1 - p_ii), with the k cancelled
        shrink = Fraction(k - pii, k + pii)
        up = xstar[i] + Fraction(x - abs(x), k - pii)
        hi.append(max(up, shrink * up))
        dn = -xstar[i] + Fraction(x + abs(x), k - pii)
        lo.append(min(dn, shrink * dn))
    box = IntervalVector.from_bounds(tuple(lo), tuple(hi))
    return SolveReport(box, "hbr", False, 0, False)


def enclosure(
    matrix: IntervalMatrix,
    rhs: IntervalVector,
    method: str,
    opts: SolveOptions = SolveOptions(),
) -> SolveReport:
    """A box containing the solution set, by the requested method."""
    _check_system(matrix, rhs)
    if method == "int-ge":
        box = _interval_gauss_elimination(matrix, rhs)
        return SolveReport(box, "int-ge", False, 0, False)
    if method == "hbr":
        if not matrix.is_square():
            raise NotSquare("the closed-form enclosure needs a square matrix")
        return _hbr_enclosure(*_preconditioned(matrix, rhs))
    if method == "gauss-seidel" and opts.precondition is not True:
        if is_interval_m_matrix(matrix):
            box = monotone_hull(matrix, rhs)
            if _sweep(matrix, rhs, box, True) != box:
                raise AssertionError(
                    "the exact hull is not a fixpoint of the Gauss-Seidel sweep"
                )
            return SolveReport(box, "gauss-seidel", True, 1, False)
    if method in ("jacobi", "gauss-seidel", "krawczyk"):
        return _iterate(matrix, rhs, opts, method)
    raise ValueError(f"unknown enclosure method {method!r}")


def lsq_enclosure(
    matrix: IntervalMatrix,
    rhs: IntervalVector,
    method: str = "krawczyk",
    opts: SolveOptions = SolveOptions(),
) -> SolveReport:
    """Enclosure of the least-squares solution set via interval normal equations."""
    _check_system(matrix, rhs)
    if matrix.m < matrix.n:
        raise ShapeError("least squares needs at least as many rows as columns")
    transposed = matrix.transpose()
    gram = transposed.matmul_interval(matrix)
    projected = IntervalVector.from_matrix(
        transposed.matmul_interval(rhs.as_matrix())
    )
    inner = enclosure(gram, projected, method, opts)
    return SolveReport(
        inner.box,
        f"lsq-{inner.method}",
        False,
        inner.iterations,
        inner.insolvability_detected,
        inner.converged,
    )


def solve_auto(
    matrix: IntervalMatrix, rhs: IntervalVector, opts: SolveOptions = SolveOptions()
) -> SolveReport:
    """Exact-first, cheapest-first dispatch across the solvers."""
    _check_system(matrix, rhs)
    if matrix.is_square():
        try:
            return hull_bidiagonal(matrix, rhs)
        except (NotBidiagonal, DiagonalContainsZero):
            pass
        try:
            box = monotone_hull(matrix, rhs)
            return SolveReport(box, "inverse-nonneg", True, 0, False)
        except PreconditionNotVerifiable:
            pass
        try:
            return _hbr_enclosure(*_preconditioned(matrix, rhs))
        except PreconditionNotVerifiable:
            pass
    if matrix.n <= 10:
        return hull_exact(matrix, rhs)
    return enclosure(matrix, rhs, "krawczyk", opts)


# ---------------------------------------------------------------------------
# solvability


def solvability(matrix: IntervalMatrix, rhs: IntervalVector, mode: str) -> Decision:
    """Weak/strong (nonnegative) solvability of A x = b with certificates."""
    _check_system(matrix, rhs)
    if mode in ("weak", "nonneg-weak"):
        # x >= 0 is the one orthant (1, ..., 1)
        n = matrix.n
        signs = SignVector.all(n) if mode == "weak" else [SignVector.ones(n)]
        _, rows = endpoint_rows(matrix, rhs.lower(), rhs.upper())
        hit = next(feasible_orthants(signs, rows), None)
        if hit is None:
            return Decision(False)
        s, _, x = hit
        member, b_vec = oettli_prager_member(matrix, x, s, rhs)
        return Decision(
            True,
            Certificate(
                sign_vector=s.entries, witness=x, member=member, rhs_member=b_vec
            ),
        )
    if mode in ("strong", "nonneg-strong"):
        return _strong_solvability(matrix, rhs, nonneg=(mode == "nonneg-strong"))
    raise ValueError(f"unknown solvability mode {mode!r}")


def _strong_solvability(
    matrix: IntervalMatrix, rhs: IntervalVector, nonneg: bool
) -> Decision:
    """Dual search: a Farkas vector p kills one member system; none proves all.

    For equations, an insolvable member exists iff some p admits a member
    with A^T p = 0 (A^T p >= 0 in the nonnegative-variable case) while some
    rhs gives b^T p <= -1; both tests linearize per sign orthant of p.
    """
    b_ends = tuple(zip(rhs.lower(), rhs.upper()))
    scale, pairs = endpoint_rows(
        matrix.transpose(), also=[v for ends in b_ends for v in ends]
    )
    # (C^T - R^T D_s) p <= 0 and (-C^T - R^T D_s) p <= 0; the second alone
    # is (C^T + R^T D_s) p >= 0.  b_c - D_s d picks b_lo where s_i = 1 and
    # b_hi where s_i = -1, so its row over (p+, p-) is (b_lo, -b_hi).
    b_row = [_scaled(lo, scale) for lo, _ in b_ends] + [-_scaled(hi, scale) for _, hi in b_ends]
    rows = (pairs[1::2] if nonneg else pairs) + [Constraint(b_row, LEQ, -scale)]
    hit = next(feasible_orthants(SignVector.all(matrix.m), rows), None)
    if hit is None:
        return Decision(True)
    s, _, p = hit
    # nonneg: the vertex C + D_s R, whose A^T p = (C^T + R^T D_s) p >= 0;
    # otherwise the member with A^T p = 0, built on the transposed matrix
    if nonneg:
        member = matrix.vertex_matrix(s, -SignVector.ones(matrix.n))
    else:
        member = oettli_prager_member(matrix.transpose(), p, s)[0].transpose()
    b_vec = tuple(ends[e < 0] for ends, e in zip(b_ends, s))
    return Decision(
        False,
        Certificate(sign_vector=s.entries, witness=p, member=member, rhs_member=b_vec),
    )


def ineq_solvability(
    matrix: IntervalMatrix, rhs: IntervalVector, mode: str
) -> Decision:
    """Solvability of A x <= b in the four weak/strong variants."""
    _check_system(matrix, rhs)
    b_lo = rhs.lower()
    b_hi = rhs.upper()
    if mode in ("weak", "nonneg-weak"):
        # (C - R D_s) x <= b_hi: the first row of each pair, b_c = b_hi, d = 0;
        # x >= 0 is the one orthant (1, ..., 1)
        n = matrix.n
        signs = SignVector.all(n) if mode == "weak" else [SignVector.ones(n)]
        _, pairs = endpoint_rows(matrix, b_hi, b_hi)
        hit = next(feasible_orthants(signs, pairs[0::2]), None)
        if hit is None:
            return Decision(False)
        s, _, x = hit
        # the rows' matrix C - R D_s picks lo where s_j = 1 and hi elsewhere
        member = matrix.vertex_matrix(SignVector.ones(matrix.m), s)
        return Decision(
            True,
            Certificate(
                sign_vector=s.entries, witness=x, member=member, rhs_member=b_hi
            ),
        )
    if mode in ("strong", "nonneg-strong"):
        x = _split_lp(matrix, b_lo, nonneg=(mode == "nonneg-strong"))
        if x is None:
            return Decision(False)
        _verify_universal_witness(matrix, b_lo, x)
        return Decision(True, Certificate(witness=x, note="universal witness"))
    raise ValueError(f"unknown inequality solvability mode {mode!r}")


def _split_lp(
    matrix: IntervalMatrix, bound: Sequence[Fraction], nonneg: bool = False
) -> Optional[Vector]:
    """x with A x <= bound for every member A, or None; one LP (Rohn).

    With x = x1 - x2 and x1, x2 >= 0, the row-wise maximum of A x is at most
    upper x1 - lower x2, and equals it when x1, x2 have disjoint supports, as
    they may; with nonneg, x >= 0 and the maximum is upper x.
    """
    n = matrix.n
    upper = matrix.upper().rows
    if nonneg:
        rows = [Constraint(u, LEQ, b) for u, b in zip(upper, bound)]
    else:
        rows = [
            Constraint(tuple(u) + tuple(-v for v in lo), LEQ, b)
            for u, lo, b in zip(upper, matrix.lower().rows, bound)
        ]
    k = n if nonneg else 2 * n
    outcome = lp_feasible(
        LinearProgram(tuple([Fraction(0)] * k), tuple(rows), ((0, None),) * k)
    )
    if not outcome.answer:
        return None
    y = outcome.certificate.witness
    return y if nonneg else tuple(a - b for a, b in zip(y[:n], y[n:]))


def _verify_universal_witness(
    matrix: IntervalMatrix, b_lo: Vector, x: Vector
) -> None:
    """Raise unless A x <= lower rhs for every member A; the upper end of
    ``matvec_point`` is the exact row-wise maximum of A x."""
    worst = matrix.matvec_point(x).upper()
    if any(v > b for v, b in zip(worst, b_lo)):
        raise AssertionError("universal witness fails for some member")


# ---------------------------------------------------------------------------
# tolerance and control solutions


def tc_membership(
    matrix: IntervalMatrix, rhs: IntervalVector, x: Sequence, kind: str
) -> bool:
    """Sign-flipped membership tests: range within rhs (tolerance) or
    rhs within range (control)."""
    rows = _range_rows(matrix, rhs, x)
    if kind == "tolerance":
        return all(b.contains_interval(r) for r, b in rows)
    if kind == "control":
        return all(r.contains_interval(b) for r, b in rows)
    raise ValueError(f"unknown membership kind {kind!r}")


def tc_existence(matrix: IntervalMatrix, rhs: IntervalVector, kind: str) -> Decision:
    """Does a tolerance (one LP) or control (orthant sweep) solution exist?"""
    _check_system(matrix, rhs)
    if kind == "tolerance":
        # every member maps x into [b_lo, b_hi]: [A; -A] x <= [b_hi; -b_lo],
        # with the rows of A and -A interleaved
        stacked = IntervalMatrix(
            [r for row in matrix.entries for r in (row, [-e for e in row])]
        )
        x = _split_lp(stacked, [v for e in rhs.entries for v in (e.hi, -e.lo)])
        if x is None:
            return Decision(False)
        if not tc_membership(matrix, rhs, x, "tolerance"):
            raise AssertionError("the tolerance witness fails its membership test")
        return Decision(True, Certificate(witness=x))
    if kind == "control":
        # the Oettli-Prager pair with d replaced by -d swaps b_lo and b_hi
        _, rows = endpoint_rows(matrix, rhs.upper(), rhs.lower())
        hit = next(feasible_orthants(SignVector.all(matrix.n), rows), None)
        if hit is None:
            return Decision(False)
        s, _, x = hit
        if not tc_membership(matrix, rhs, x, "control"):
            raise AssertionError("the control witness fails its membership test")
        return Decision(True, Certificate(sign_vector=s.entries, witness=x))
    raise ValueError(f"unknown existence kind {kind!r}")

"""Exact rational linear programming.

Two-phase primal simplex over Fractions with Bland's anti-cycling rule:
terminating, deterministic, and bit-exact.  Every orthant-decomposition
decider in the package funnels through this module: ``feasible_orthants``
is the one sweep, which solves one feasibility LP per sign orthant with the
signs passed as variable bounds, and ``oettli_prager_rows`` builds the row
pair of the Oettli-Prager inequality |C x - b_c| <= R |x| + d that those
LPs share.  ``oettli_prager_member`` inverts those rows: from a witness it
builds the member system that the witness solves, and checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .core import Certificate, Decision, as_vector, rational
from .errors import MalformedProgram
from .matrices import (
    IntervalMatrix,
    IntervalVector,
    RealMatrix,
    SignVector,
    Vector,
    vec_abs,
    vec_add,
    vec_sub,
)

LEQ = "<="
EQ = "="
GEQ = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: Tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in (LEQ, EQ, GEQ):
            raise MalformedProgram(f"bad relation {self.relation!r}")
        object.__setattr__(self, "coeffs", as_vector(self.coeffs))
        object.__setattr__(self, "rhs", rational(self.rhs))

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
        lhs = sum((c * v for c, v in zip(self.coeffs, x)), Fraction(0))
        if self.relation == LEQ:
            return lhs <= self.rhs
        if self.relation == GEQ:
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to the constraints and optional bounds.

    bounds[j] = (lo, hi) with None meaning unbounded on that side; variables
    default to free.
    """

    objective: Tuple[Fraction, ...]
    constraints: Tuple[Constraint, ...]
    bounds: Optional[Tuple[Tuple[Optional[Fraction], Optional[Fraction]], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "objective", as_vector(self.objective))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        n = len(self.objective)
        for c in self.constraints:
            if len(c.coeffs) != n:
                raise MalformedProgram(
                    f"constraint arity {len(c.coeffs)} != {n} variables"
                )
        if self.bounds is not None:
            if len(self.bounds) != n:
                raise MalformedProgram("bounds length != variable count")
            clean = []
            for lo, hi in self.bounds:
                lo_q = None if lo is None else rational(lo)
                hi_q = None if hi is None else rational(hi)
                clean.append((lo_q, hi_q))
            object.__setattr__(self, "bounds", tuple(clean))

    @property
    def nvars(self) -> int:
        return len(self.objective)

    def feasible_point(self, x: Sequence[Fraction]) -> bool:
        xs = as_vector(x)
        if len(xs) != self.nvars:
            return False
        if self.bounds is not None:
            for v, (lo, hi) in zip(xs, self.bounds):
                if lo is not None and v < lo:
                    return False
                if hi is not None and v > hi:
                    return False
        return all(c.satisfied_by(xs) for c in self.constraints)


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Optional[Fraction] = None
    x: Optional[Tuple[Fraction, ...]] = None


class _Standardized:
    """min c.y  s.t.  Ay = b, y >= 0, plus the recovery map back to x."""

    def __init__(self, program: LinearProgram):
        n = program.nvars
        bounds = program.bounds or tuple([(None, None)] * n)
        # var_map[j]: ("split", i_pos, i_neg) | ("lo", i, lo) | ("hi", i, hi)
        self.var_map = []
        self.n_std = 0
        self.trivially_infeasible = False
        upper_caps: List[Tuple[int, Fraction]] = []  # (std index, cap)
        for lo, hi in bounds:
            if lo is not None and hi is not None and lo > hi:
                self.trivially_infeasible = True
            if lo is not None:
                if hi is not None:
                    upper_caps.append((self.n_std, hi - lo))
                self.var_map.append(("lo", self.n_std, lo))
                self.n_std += 1
            elif hi is not None:
                self.var_map.append(("hi", self.n_std, hi))
                self.n_std += 1
            else:
                self.var_map.append(("split", self.n_std, self.n_std + 1))
                self.n_std += 2

        rows: List[List[Fraction]] = []
        rels: List[str] = []
        rhs: List[Fraction] = []
        for con in program.constraints:
            row = [Fraction(0)] * self.n_std
            shift = Fraction(0)
            for j, coeff in enumerate(con.coeffs):
                if coeff == 0:
                    continue
                shift += self._apply(row, j, coeff)
            rows.append(row)
            rels.append(con.relation)
            rhs.append(con.rhs - shift)
        for idx, cap in upper_caps:
            row = [Fraction(0)] * self.n_std
            row[idx] = Fraction(1)
            rows.append(row)
            rels.append(LEQ)
            rhs.append(cap)

        cost = [Fraction(0)] * self.n_std
        self.cost_shift = Fraction(0)
        for j, coeff in enumerate(program.objective):
            if coeff == 0:
                continue
            self.cost_shift += self._apply(cost, j, coeff)
        # maximize -> minimize the negation
        self.cost = [-c for c in cost]
        self.rows = rows
        self.rels = rels
        self.rhs = rhs

    def _apply(self, row: List[Fraction], j: int, coeff: Fraction) -> Fraction:
        """Add coeff * x_j in standardized variables; return the constant part."""
        mapping = self.var_map[j]
        if mapping[0] == "split":
            row[mapping[1]] += coeff
            row[mapping[2]] -= coeff
            return Fraction(0)
        if mapping[0] == "lo":
            row[mapping[1]] += coeff
            return coeff * mapping[2]
        row[mapping[1]] -= coeff
        return coeff * mapping[2]

    def recover(self, y: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        out = []
        for mapping in self.var_map:
            if mapping[0] == "split":
                out.append(y[mapping[1]] - y[mapping[2]])
            elif mapping[0] == "lo":
                out.append(mapping[2] + y[mapping[1]])
            else:
                out.append(mapping[2] - y[mapping[1]])
        return tuple(out)


def _pivot(tableau: List[List[Fraction]], obj: List[Fraction], row: int, col: int):
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    prow = tableau[row]
    for r, trow in enumerate(tableau):
        if r == row or trow[col] == 0:
            continue
        factor = trow[col]
        tableau[r] = [v - factor * w for v, w in zip(trow, prow)]
    if obj[col] != 0:
        factor = obj[col]
        for c in range(len(obj)):
            obj[c] -= factor * prow[c]


def _simplex_min(
    tableau: List[List[Fraction]],
    obj: List[Fraction],
    basis: List[int],
    allowed: Sequence[bool],
) -> str:
    """Bland-rule simplex on a full tableau; obj holds reduced costs + value."""
    ncols = len(obj) - 1
    while True:
        enter = next(
            (j for j in range(ncols) if allowed[j] and obj[j] < 0), None
        )
        if enter is None:
            return OPTIMAL
        best_row = None
        best_ratio = None
        for r, trow in enumerate(tableau):
            a = trow[enter]
            if a <= 0:
                continue
            ratio = trow[-1] / a
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[r] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = r
        if best_row is None:
            return UNBOUNDED
        _pivot(tableau, obj, best_row, enter)
        basis[best_row] = enter


def _solve_standard(
    rows: List[List[Fraction]],
    rels: List[str],
    rhs: List[Fraction],
    cost: List[Fraction],
) -> LpSolution:
    """min cost.y  s.t.  rows y (rel) rhs, y >= 0."""
    m = len(rows)
    n = len(cost)
    # slack/surplus columns, then one artificial per row
    n_slack = sum(1 for rel in rels if rel != EQ)
    total = n + n_slack + m
    tableau: List[List[Fraction]] = []
    slack_at = 0
    for i in range(m):
        row = list(rows[i]) + [Fraction(0)] * (n_slack + m) + [rhs[i]]
        if rels[i] == LEQ:
            row[n + slack_at] = Fraction(1)
            slack_at += 1
        elif rels[i] == GEQ:
            row[n + slack_at] = Fraction(-1)
            slack_at += 1
        if row[-1] < 0:
            row = [-v for v in row]
        row[n + n_slack + i] = Fraction(1)
        tableau.append(row)
    basis = [n + n_slack + i for i in range(m)]

    # phase 1: minimize the artificial sum
    obj = [Fraction(0)] * (total + 1)
    for j in range(total):
        col_sum = sum((tableau[i][j] for i in range(m)), Fraction(0))
        if j >= n + n_slack:
            col_sum -= Fraction(1)
        obj[j] = -col_sum
    obj[-1] = -sum((tableau[i][-1] for i in range(m)), Fraction(0))
    allowed = [True] * total
    status = _simplex_min(tableau, obj, basis, allowed)
    assert status == OPTIMAL  # phase 1 is bounded below by 0
    if -obj[-1] != 0:
        return LpSolution(INFEASIBLE)

    # drive remaining artificials out of the basis
    drop_rows = []
    for r in range(m):
        if basis[r] < n + n_slack:
            continue
        col = next(
            (j for j in range(n + n_slack) if tableau[r][j] != 0), None
        )
        if col is None:
            drop_rows.append(r)
        else:
            _pivot(tableau, obj, r, col)
            basis[r] = col
    if drop_rows:
        tableau = [row for r, row in enumerate(tableau) if r not in drop_rows]
        basis = [b for r, b in enumerate(basis) if r not in drop_rows]

    # phase 2
    for j in range(n + n_slack, total):
        allowed[j] = False
    obj = [Fraction(0)] * (total + 1)
    for j in range(total):
        obj[j] = cost[j] if j < n else Fraction(0)
    value = Fraction(0)
    for r, b in enumerate(basis):
        cb = cost[b] if b < n else Fraction(0)
        if cb == 0:
            continue
        value += cb * tableau[r][-1]
        for j in range(total):
            obj[j] -= cb * tableau[r][j]
    obj[-1] = -value
    status = _simplex_min(tableau, obj, basis, allowed)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)
    y = [Fraction(0)] * (n + n_slack)
    for r, b in enumerate(basis):
        if b < n + n_slack:
            y[b] = tableau[r][-1]
    return LpSolution(OPTIMAL, value=-obj[-1], x=tuple(y[:n]))


def lp_optimize(program: LinearProgram) -> LpSolution:
    """Exact optimum of a maximization program (or infeasible/unbounded)."""
    std = _Standardized(program)
    if std.trivially_infeasible:
        return LpSolution(INFEASIBLE)
    sol = _solve_standard(std.rows, std.rels, std.rhs, std.cost)
    if sol.status != OPTIMAL:
        return sol
    x = std.recover(sol.x)
    value = -sol.value + std.cost_shift
    return LpSolution(OPTIMAL, value=value, x=x)


def lp_feasible(program: LinearProgram) -> Decision:
    """Feasibility with an exact witness on success."""
    std = _Standardized(program)
    if std.trivially_infeasible:
        return Decision(False)
    sol = _solve_standard(std.rows, std.rels, std.rhs, [Fraction(0)] * std.n_std)
    if sol.status != OPTIMAL:
        return Decision(False)
    x = std.recover(sol.x)
    assert program.feasible_point(x)
    return Decision(True, Certificate(witness=x))


def oettli_prager_rows(
    center: RealMatrix,
    radius: RealMatrix,
    s: SignVector,
    b_mid: Optional[Sequence[Fraction]] = None,
    b_rad: Optional[Sequence[Fraction]] = None,
) -> List[Constraint]:
    """|C x - b_c| <= R |x| + d on the orthant of s, as two rows per row of C.

    With |x| = D_s x the pair is (C - R D_s) x <= b_c + d followed by
    (-C - R D_s) x <= -b_c + d; b_c and d default to zero.
    """
    m, n = center.shape
    rows = []
    for i in range(m):
        c, r = center.rows[i], radius.rows[i]
        bc = Fraction(0) if b_mid is None else b_mid[i]
        d = Fraction(0) if b_rad is None else b_rad[i]
        up = tuple(c[j] - r[j] * s[j] for j in range(n))
        down = tuple(-c[j] - r[j] * s[j] for j in range(n))
        rows.append(Constraint(up, LEQ, bc + d))
        rows.append(Constraint(down, LEQ, d - bc))
    return rows


def oettli_prager_member(
    matrix: IntervalMatrix,
    x: Vector,
    s: SignVector,
    rhs: Optional[IntervalVector] = None,
) -> Tuple[RealMatrix, Vector]:
    """Member system (M, b) with M x = b, from a witness x in the orthant of s.

    The converse of Oettli-Prager, row by row: t_i = (C x - b_c)_i /
    (R |x| + d)_i (0 when the divisor is 0), m_i = c_i - t_i (r_i .* s) and
    b_i = b_c,i + t_i d_i; b_c and d are zero when rhs is None.  A witness
    that satisfies the rows of ``oettli_prager_rows`` gives |t_i| <= 1; any
    other raises AssertionError, as does every failed check of the output.
    """
    m, n = matrix.shape
    center, radius = matrix.midpoint_radius()
    if rhs is None:
        b_mid = b_rad = tuple([Fraction(0)] * m)
    else:
        b_mid, b_rad = rhs.midpoint_radius()
    residual = vec_sub(center.matvec(x), b_mid)
    slack = vec_add(radius.matvec(vec_abs(x)), b_rad)
    rows = []
    b_out = []
    for i in range(m):
        t = residual[i] / slack[i] if slack[i] != 0 else Fraction(0)
        rows.append(
            [center.rows[i][j] - t * radius.rows[i][j] * s[j] for j in range(n)]
        )
        b_out.append(b_mid[i] + t * b_rad[i])
    member = RealMatrix(rows)
    b = tuple(b_out)
    if not matrix.contains(member):
        raise AssertionError("witness gives a member outside the interval matrix")
    if rhs is not None and not rhs.contains_point(b):
        raise AssertionError("witness gives a right-hand side outside the box")
    if member.matvec(x) != b:
        raise AssertionError("member does not map the witness to its right-hand side")
    return member, b


def feasible_orthants(
    n: int, rows_for: Callable[[SignVector], Sequence[Constraint]]
) -> Iterator[Tuple[SignVector, LinearProgram, Vector]]:
    """(s, program, witness) for each sign orthant whose program is feasible.

    Orthants come in ``SignVector.all(n)`` order; the program has the rows
    ``rows_for(s)``, a zero objective and the bounds s_j x_j >= 0.
    """
    zero = tuple([Fraction(0)] * n)
    for s in SignVector.all(n):
        bounds = tuple((0, None) if e > 0 else (None, 0) for e in s)
        program = LinearProgram(zero, tuple(rows_for(s)), bounds)
        outcome = lp_feasible(program)
        if outcome.answer:
            yield s, program, outcome.certificate.witness

"""Exact rational linear programming.

Two-phase primal simplex with Bland's anti-cycling rule: terminating,
deterministic, and bit-exact.  The tableau holds Python ints over one common
positive denominator, and each pivot divides exactly (integer-preserving
pivoting: Edmonds 1967, Bareiss 1968), so no Fraction enters a pivot; the
pivot is ``matrices.bareiss_pivot``, which the point linear algebra shares.
The standard form is written in integer rows directly, scaled once by a common
multiple of the denominators.  Phase 1 starts on the slack basis, with
artificial columns only on rows that need one, such as e^T D_s x >= 1.  It
reads only the constraints and bounds, so the last program's phase-1 end
state is kept, without the artificial columns that phase 2 never enters:
further objectives over an equal program, such as the 2n of ``hull_exact``
over each feasible orthant, start at phase 2.

Every solvability LP in the package takes one of two shapes.  The orthant
sweep, ``feasible_orthants``, solves one feasibility LP per sign orthant it
is given, with the signs passed as variable bounds; ``oettli_prager_rows``,
built once per sweep, gives each orthant the row pairs of the Oettli-Prager
inequality |C x - b_c| <= R |x| + d.  A nonnegative weak mode sweeps the one
orthant x >= 0.  The split LP, in ``systems``, writes x = x1 - x2 with
x1, x2 >= 0 for problems that hold for every member at once: strong
inequalities and tolerance solutions.  ``oettli_prager_member`` inverts the
Oettli-Prager rows: from a witness it builds the member system that the
witness solves, and checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import Certificate, Decision, as_vector, rational
from .errors import MalformedProgram
from .matrices import (
    IntervalMatrix,
    IntervalVector,
    RealMatrix,
    SignVector,
    Vector,
    bareiss_pivot,
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
    """min c.y  s.t.  A y (rel) b, y >= 0, plus the recovery map back to x and
    ``phase1``, the end state of ``_phase1`` (None when infeasible).

    The rows [A | b] are written in integers: one common multiple of the
    denominators of the coefficients, the shifted right-hand sides and the
    caps scales them all, so no Fraction row is built.  The scale is common,
    not per row as in ``matrices.integer_rows``, because the +-1 slack and
    artificial columns added later must scale like the rest (see ``_phase1``).
    """

    def __init__(self, program: LinearProgram):
        n = program.nvars
        bounds = program.bounds or tuple([(None, None)] * n)
        # var_map[j]: ("split", i_pos, i_neg) | ("lo", i, lo) | ("hi", i, hi)
        self.var_map = []
        self.n_std = 0
        trivially_infeasible = False
        upper_caps: List[Tuple[int, Fraction]] = []  # (std index, cap)
        for lo, hi in bounds:
            if lo is not None and hi is not None and lo > hi:
                trivially_infeasible = True
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

        # x_j = lo + y or hi - y moves lo or hi to the right-hand side
        offsets = [(j, m[2]) for j, m in enumerate(self.var_map)
                   if m[0] != "split" and m[2]]
        shifted = [con.rhs - sum(con.coeffs[j] * v for j, v in offsets)
                   if offsets else con.rhs for con in program.constraints]
        scale = math.lcm(
            *(c.denominator for con in program.constraints for c in con.coeffs),
            *(v.denominator for v in shifted),
            *(cap.denominator for _, cap in upper_caps),
        )
        rows: List[List[int]] = []
        for con, rhs in zip(program.constraints, shifted):
            row = [0] * self.n_std
            for coeff, (kind, i, k) in zip(con.coeffs, self.var_map):
                if coeff:
                    v = coeff.numerator * (scale // coeff.denominator)
                    row[i] = -v if kind == "hi" else v
                    if kind == "split":
                        row[k] = -v
            row.append(rhs.numerator * (scale // rhs.denominator))
            rows.append(row)
        for idx, cap in upper_caps:
            row = [0] * self.n_std
            row[idx] = scale
            row.append(cap.numerator * (scale // cap.denominator))
            rows.append(row)
        rels = [con.relation for con in program.constraints] + [LEQ] * len(upper_caps)
        self.phase1 = (None if trivially_infeasible
                       else _phase1(rows, rels, self.n_std))

    def cost(self, objective: Sequence[Fraction]) -> Tuple[List[Fraction], Fraction]:
        """The cost that minimizes -objective . x, and its constant part."""
        cost = [Fraction(0)] * self.n_std
        shift = Fraction(0)
        for coeff, (kind, i, k) in zip(objective, self.var_map):
            if coeff:
                cost[i] = coeff if kind == "hi" else -coeff
                if kind == "split":
                    cost[k] = coeff
                else:
                    shift += coeff * k
        return cost, shift

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


def _simplex_min(
    tableau: List[List[int]],
    obj: List[int],
    basis: List[int],
    d: int,
) -> Tuple[str, int]:
    """Bland-rule simplex on a full integer tableau with denominator d; obj
    holds d times the reduced costs and minus the value.  Returns the status
    and the final denominator."""
    ncols = len(obj) - 1
    rows = tableau + [obj]
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return OPTIMAL, d
        best = None
        for r, trow in enumerate(tableau):
            a = trow[enter]
            if a <= 0:
                continue
            if best is None:
                best = r
                continue
            # trow[-1] / a against the best ratio, cross-multiplied
            lhs = trow[-1] * tableau[best][enter]
            rhs = tableau[best][-1] * a
            if lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                best = r
        if best is None:
            return UNBOUNDED, d
        d = bareiss_pivot(rows, best, enter, d)
        basis[best] = enter


def _phase1(
    rows: List[List[int]], rels: List[str], n: int
) -> Optional[Tuple[List[List[int]], List[int], int, int]]:
    """Phase 1 for integer rows [a | b] meaning a.y (rel) b, y >= 0.

    Returns (tableau, basis, d, n_cols) at a feasible basis with no
    artificial in it, or None if infeasible; each tableau row holds the n_cols
    variables and slacks and then the right-hand side.  Each row is negated
    to b >= 0 and starts on its slack if that enters at +1, else on an
    artificial column.  Slack and artificial columns enter at +-1; with rows
    scaled by one common multiple of their denominators, that scales each
    column uniformly, so Bland's rule takes the pivots of the rational
    tableau.  Phase 2 never enters an artificial, so the artificial columns
    are dropped from the end state.
    """
    n_slack = sum(1 for rel in rels if rel != EQ)
    n_cols = n + n_slack
    on_slack = [rel != EQ and (rel == LEQ) == (row[-1] >= 0)
                for row, rel in zip(rows, rels)]
    n_art = len(rows) - sum(on_slack)
    tableau: List[List[int]] = []
    basis: List[int] = []
    # minimize the sum of the artificials: the reduced costs are minus the
    # column sums over their rows, taken before the artificials are set
    obj = [0] * (n_cols + n_art + 1)
    slack_at, art_at = n, n_cols
    for row, rel, own in zip(rows, rels, on_slack):
        row[n:n] = [0] * (n_slack + n_art)
        if rel != EQ:
            row[slack_at] = 1 if rel == LEQ else -1
            slack_at += 1
        if row[-1] < 0:
            row = [-v for v in row]
        basis.append(slack_at - 1 if own else art_at)
        if not own:
            obj = [o - v for o, v in zip(obj, row)]
            row[art_at] = 1
            art_at += 1
        tableau.append(row)
    status, d = _simplex_min(tableau, obj, basis, 1)
    if status != OPTIMAL:
        raise AssertionError("phase 1 is bounded below by 0 but read unbounded")
    if obj[-1] != 0:
        return None

    # drive remaining artificials out of the basis; drop the rows they cannot leave
    keep = []
    for r in range(len(tableau)):
        if basis[r] >= n_cols:
            col = next((j for j in range(n_cols) if tableau[r][j] != 0), None)
            if col is None:
                continue
            d = bareiss_pivot(tableau, r, col, d)
            basis[r] = col
        keep.append(r)
    return ([tableau[r][:n_cols] + tableau[r][-1:] for r in keep],
            [basis[r] for r in keep], d, n_cols)


def _phase2(
    phase1: Tuple[List[List[int]], List[int], int, int], cost: List[Fraction]
) -> LpSolution:
    """min cost.y from the end state of ``_phase1``, which it leaves unchanged."""
    tableau, basis, d, n_cols = phase1
    tableau = [list(row) for row in tableau]
    basis = list(basis)
    k = math.lcm(*(c.denominator for c in cost))
    c = [v.numerator * (k // v.denominator) for v in cost]
    c += [0] * (n_cols + 1 - len(cost))
    obj = [v * d for v in c]
    for r, b in enumerate(basis):
        if c[b]:
            obj = [o - c[b] * t for o, t in zip(obj, tableau[r])]
    status, d = _simplex_min(tableau, obj, basis, d)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)
    y = [Fraction(0)] * len(cost)
    for r, b in enumerate(basis):
        if b < len(cost):
            y[b] = Fraction(tableau[r][-1], d)
    return LpSolution(OPTIMAL, value=Fraction(-obj[-1], d * k), x=tuple(y))


# The last standard form, kept for its phase-1 end state: hull_exact optimizes
# 2n objectives over each program that feasible_orthants has just found
# feasible, and phase 1 reads only the constraints and bounds.
_last_standardized: Optional[Tuple[tuple, _Standardized]] = None


def _standardize(program: LinearProgram) -> _Standardized:
    """The program's standard form, reused when the last one is equal."""
    global _last_standardized
    key = (program.nvars, program.constraints, program.bounds)
    last = _last_standardized
    if last is None or last[0] != key:
        last = _last_standardized = (key, _Standardized(program))
    return last[1]


def lp_optimize(program: LinearProgram) -> LpSolution:
    """Exact optimum of a maximization program (or infeasible/unbounded)."""
    std = _standardize(program)
    if std.phase1 is None:
        return LpSolution(INFEASIBLE)
    cost, shift = std.cost(program.objective)
    sol = _phase2(std.phase1, cost)
    if sol.status != OPTIMAL:
        return sol
    return LpSolution(OPTIMAL, value=-sol.value + shift, x=std.recover(sol.x))


def lp_feasible(program: LinearProgram) -> Decision:
    """Feasibility with an exact witness on success."""
    std = _standardize(program)
    if std.phase1 is None:
        return Decision(False)
    sol = _phase2(std.phase1, [Fraction(0)] * std.n_std)
    x = std.recover(sol.x)
    if not program.feasible_point(x):
        raise AssertionError("the simplex returned a point outside the program")
    return Decision(True, Certificate(witness=x))


def oettli_prager_rows(
    center: RealMatrix,
    radius: RealMatrix,
    b_mid: Optional[Sequence[Fraction]] = None,
    b_rad: Optional[Sequence[Fraction]] = None,
) -> Callable[[SignVector], List[Constraint]]:
    """|C x - b_c| <= R |x| + d on each orthant, as two rows per row of C.

    Returns rows_for(s).  With |x| = D_s x the pair is (C - R D_s) x <= b_c + d
    followed by (-C - R D_s) x <= -b_c + d; b_c and d default to zero.  Both
    column pairs, (c - r, -c - r) for s_j = 1 and (c + r, -c + r) for
    s_j = -1, and both right-hand sides are computed here once, so an orthant
    only picks entries.
    """
    zero = Fraction(0)
    picks = []
    for i, (c_row, r_row) in enumerate(zip(center.rows, radius.rows)):
        bc = zero if b_mid is None else b_mid[i]
        d = zero if b_rad is None else b_rad[i]
        pairs = [((c - r, -c - r), (c + r, -c + r)) for c, r in zip(c_row, r_row)]
        picks.append((pairs, bc + d, d - bc))

    def rows_for(s: SignVector) -> List[Constraint]:
        rows = []
        for pairs, up_rhs, down_rhs in picks:
            cols = [pair[e < 0] for pair, e in zip(pairs, s)]
            rows.append(Constraint(tuple(col[0] for col in cols), LEQ, up_rhs))
            rows.append(Constraint(tuple(col[1] for col in cols), LEQ, down_rhs))
        return rows

    return rows_for


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
    signs: Iterable[SignVector], rows_for: Callable[[SignVector], Sequence[Constraint]]
) -> Iterator[Tuple[SignVector, LinearProgram, Vector]]:
    """(s, program, witness) for each orthant s of ``signs``, in that order,
    whose program is feasible: the rows ``rows_for(s)``, a zero objective and
    the bounds s_j x_j >= 0.
    """
    for s in signs:
        bounds = tuple((0, None) if e > 0 else (None, 0) for e in s)
        program = LinearProgram(tuple([Fraction(0)] * s.dim), tuple(rows_for(s)), bounds)
        outcome = lp_feasible(program)
        if outcome.answer:
            yield s, program, outcome.certificate.witness

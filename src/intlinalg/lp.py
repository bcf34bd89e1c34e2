"""Exact rational linear programming.

Two-phase primal simplex with Bland's anti-cycling rule: terminating,
deterministic, and bit-exact.  The tableau holds Python ints over one common
positive denominator, and each pivot divides exactly (integer-preserving
pivoting: Edmonds 1967, Bareiss 1968), so no Fraction enters a pivot.  The
tableau is condensed, as in lrs (Avis 2000): it keeps only the nonbasic
columns and the right-hand side, and ``_exchange`` runs
``matrices.bareiss_pivot`` and puts the leaving column in the entering
column's place, so Bland's rule takes the pivots of the full tableau.  The
standard form, in integer rows scaled once by a common multiple of the
denominators, is built on first use and kept on the program.  Phase 1
starts on the slack basis, with artificial columns only on rows that need
one, such as e^T (x+ + x-) >= 1.  ``lp_feasible`` checks the basic solution
that phase 1 ends on; ``with_objective`` shares the standard form, so the 2n
objectives of ``hull_exact`` over a feasible orthant start at phase 2.

Every solvability LP in the package is a split LP, x = x+ - x- with
x+, x- >= 0.  The orthant sweep, ``feasible_orthants``, fixes one half of
each pair at 0, so |x| = x+ + x- and an orthant is bounds only: the
Oettli-Prager rows |C x - b_c| <= R |x| + d of ``endpoint_rows`` hold on
every orthant.  The sweep builds one phase-1 start on all 2n split columns,
and each orthant's phase 1 picks its n free columns from it.  A nonnegative
weak mode sweeps the one orthant x >= 0; the split LP in ``systems``, with
both halves free, serves strong inequalities and tolerance solutions.
``oettli_prager_member`` builds from a witness the member system it solves, and checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, sub
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import Certificate, Decision, rational
from .errors import MalformedProgram
from .matrices import (
    IntervalMatrix,
    IntervalVector,
    RealMatrix,
    SignVector,
    Vector,
    bareiss_pivot,
)

LEQ = "<="
EQ = "="
GEQ = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


_EXACT = frozenset((int, Fraction))
_ZERO = Fraction(0)


def _number(value):
    """An exact number: an int or a Fraction as it is, anything else through
    ``core.rational``."""
    return value if type(value) in _EXACT else rational(value)


def _numbers(values: Iterable) -> tuple:
    """A tuple of exact numbers, as ``_number`` makes them."""
    values = tuple(values)
    return values if _EXACT.issuperset(map(type, values)) else tuple(map(_number, values))


def _scaled(q, scale: int) -> int:
    """q times scale, for a scale that q's denominator divides."""
    return q.numerator * (scale // q.denominator)


@dataclass(frozen=True)
class Constraint:
    coeffs: Tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in (LEQ, EQ, GEQ):
            raise MalformedProgram(f"bad relation {self.relation!r}")
        object.__setattr__(self, "coeffs", _numbers(self.coeffs))
        object.__setattr__(self, "rhs", _number(self.rhs))

    def satisfied_by(self, x: Sequence, d: int = 1) -> bool:
        """Does x / d satisfy the row?  In ints when x and the row are ints."""
        lhs = sum(c * v for c, v in zip(self.coeffs, x))
        if self.relation == LEQ:
            return lhs <= self.rhs * d
        if self.relation == GEQ:
            return lhs >= self.rhs * d
        return lhs == self.rhs * d


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to the constraints and optional bounds.

    bounds[j] = (lo, hi) with None meaning unbounded on that side; variables
    default to free.  The standard form and its phase 1 are built on first
    use and kept on the program.
    """

    objective: Tuple[Fraction, ...]
    constraints: Tuple[Constraint, ...]
    bounds: Optional[Tuple[Tuple[Optional[Fraction], Optional[Fraction]], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "objective", _numbers(self.objective))
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
            object.__setattr__(self, "bounds", tuple(
                (None if lo is None else _number(lo), None if hi is None else _number(hi))
                for lo, hi in self.bounds
            ))

    @property
    def nvars(self) -> int:
        return len(self.objective)

    def with_objective(self, objective: Sequence) -> "LinearProgram":
        """The same constraints and bounds under another objective; the two
        programs share one standard form, so phase 1 runs once."""
        objective = _numbers(objective)
        if len(objective) != self.nvars:
            raise MalformedProgram(f"objective arity {len(objective)} != {self.nvars}")
        return self._clone(objective=objective)

    def _clone(self, **fields) -> "LinearProgram":
        """A copy with fields replaced and no ``__post_init__``; a built standard form is shared."""
        clone = object.__new__(LinearProgram)
        clone.__dict__.update(self.__dict__, **fields)
        return clone

    @cached_property
    def standard_form(self) -> "_Standardized":
        return _Standardized(self)

    def feasible_point(self, x: Sequence, d: int = 1) -> bool:
        """Does x / d satisfy the bounds and the rows?"""
        xs = _numbers(x)
        if len(xs) != self.nvars:
            return False
        if self.bounds is not None:
            for v, (lo, hi) in zip(xs, self.bounds):
                if lo is not None and v < lo * d:
                    return False
                if hi is not None and v > hi * d:
                    return False
        return all(c.satisfied_by(xs, d) for c in self.constraints)


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Optional[Fraction] = None
    x: Optional[Tuple[Fraction, ...]] = None


class _Standardized:
    """min c.y  s.t.  A y (rel) b, y >= 0, plus the recovery map back to x and
    ``phase1``, the end state of ``_phase1`` (None when infeasible).

    Standard variable i is sign * (x_j - offset_j) for its ``columns[i]`` =
    (j, sign): x_j - lo, hi - x_j, or one half of x_j = y+ - y- when x_j is
    free.  The rows [A | b] are written in integers: one common multiple of
    the denominators of the coefficients, the shifted right-hand sides and
    the caps hi - lo scales them all, so no Fraction row is built.  The
    scale is common, not per row as in ``matrices.integer_rows``, because
    the +-1 slack and artificial columns added later must scale like the
    rest (see ``_phase1``).
    """

    def __init__(self, program: LinearProgram):
        self.columns: List[Tuple[int, int]] = []
        self.offsets = []
        caps = []  # (standard index, hi - lo)
        crossing = False
        for j, (lo, hi) in enumerate(program.bounds or ((None, None),) * program.nvars):
            crossing |= lo is not None and hi is not None and lo > hi
            if lo is not None:
                if hi is not None:
                    caps.append((len(self.columns), hi - lo))
                self.columns.append((j, 1))
                self.offsets.append(lo)
            elif hi is not None:
                self.columns.append((j, -1))
                self.offsets.append(hi)
            else:
                self.columns += [(j, 1), (j, -1)]
                self.offsets.append(0)
        self.n_std = len(self.columns)
        shifted = [con.rhs - sum(c * v for c, v in zip(con.coeffs, self.offsets))
                   if any(self.offsets) else con.rhs for con in program.constraints]
        scale = math.lcm(
            *(c.denominator for con in program.constraints for c in con.coeffs),
            *(v.denominator for v in shifted),
            *(cap.denominator for _, cap in caps),
        )
        rows: List[List[int]] = []
        for con, rhs in zip(program.constraints, shifted):
            vals = [c.numerator * (scale // c.denominator) for c in con.coeffs]
            rows.append([sign * vals[j] for j, sign in self.columns] + [_scaled(rhs, scale)])
        for i, cap in caps:
            row = [0] * (self.n_std + 1)
            row[i], row[-1] = scale, _scaled(cap, scale)
            rows.append(row)
        rels = [con.relation for con in program.constraints] + [LEQ] * len(caps)
        self.phase1 = None if crossing else _phase1(rows, rels, self.n_std)

    def cost(self, objective: Sequence) -> Tuple[list, Fraction]:
        """The cost that minimizes -objective . x, and its constant part."""
        cost = [-sign * objective[j] for j, sign in self.columns]
        return cost, sum(c * v for c, v in zip(objective, self.offsets))

    def recover(self, y: Sequence, d: int) -> Tuple:
        """d x from d y."""
        x = [v * d for v in self.offsets]
        for (j, sign), v in zip(self.columns, y):
            x[j] += sign * v
        return tuple(x)


class _OrthantForm(_Standardized):
    """The standard form of an orthant of ``feasible_orthants``: the variables
    in ``active`` are standard, the rest fixed at 0, and [A | b] and the phase-1
    start are the sweep's restricted to them.  Phase 1 runs on first use."""

    def __init__(self, start: tuple, active: List[int], nvars: int):
        self.columns = [(j, 1) for j in active]
        self.offsets, self.n_std = (0,) * nvars, len(active)
        self._start, self._pick = start, itemgetter(*active, *range(nvars, len(start[0][0])))

    @cached_property
    def phase1(self):
        rows, basis, cols, n_cols = self._start
        k = len(self.offsets) - self.n_std  # the slack and artificial indices move down by k
        return _phase1_run([list(self._pick(r)) for r in rows], [b - k for b in basis],
                           [j - k for j in cols[k:]], n_cols - k)


def _exchange(rows: List[List[int]], row: int, col: int, d: int) -> int:
    """Pivot a condensed tableau with denominator d on (row, col), and return
    the new denominator.

    ``bareiss_pivot`` updates every column but col.  Col then takes the
    leaving column, whose full-tableau entries were d in the pivot row and 0
    elsewhere: they become d and minus the old entries of col, all negated
    when the pivot is negative, as ``bareiss_pivot`` negates the rest.
    """
    sign = 1 if rows[row][col] > 0 else -1
    column = [trow[col] for trow in rows]
    new_d = bareiss_pivot(rows, row, col, d)
    for trow, f in zip(rows, column):
        trow[col] = -sign * f
    rows[row][col] = sign * d
    return new_d


def _simplex_min(
    rows: List[List[int]], cols: List[int], basis: List[int], d: int
) -> Tuple[str, int]:
    """Bland-rule simplex on a condensed integer tableau with denominator d.

    Each row holds d times the rational tableau on the nonbasic columns,
    whose indices are ``cols`` by place, and then the right-hand side; the
    last row is the objective, d times the reduced costs and minus the
    value.  Returns the status and the final denominator.
    """
    tableau, obj = rows[:-1], rows[-1]
    while True:
        enter = None
        for k, j in enumerate(cols):
            if obj[k] < 0 and (enter is None or j < cols[enter]):
                enter = k
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
        d = _exchange(rows, best, enter, d)
        basis[best], cols[enter] = cols[enter], basis[best]


def _phase1(
    rows: List[List[int]], rels: List[str], n: int
) -> Optional[Tuple[List[List[int]], List[int], int, List[int]]]:
    """Phase 1 for integer rows [a | b] meaning a.y (rel) b, y >= 0.

    Returns (tableau, basis, d, cols) at a feasible basis with no artificial
    in it, or None if infeasible: the condensed tableau over the nonbasic
    columns ``cols``, which index the n variables and then one slack per
    inequality.  Slack and artificial columns enter at +-1; with rows scaled
    by one common multiple of their denominators, that scales each column
    uniformly, so Bland's rule takes the pivots of the rational tableau.
    Phase 2 never enters an artificial, so the end state drops those columns.
    """
    return _phase1_run(*_phase1_start(rows, rels, n))


def _phase1_start(rows: List[List[int]], rels: List[str], n: int) -> tuple:
    """(tableau, basis, cols, n_cols) before phase 1 pivots, the objective row
    last.  Each row is negated to b >= 0 and starts on its slack if that
    enters at +1, else on an artificial column, indexed after the n_cols
    variable and slack columns.  Column k is built from column k of rows."""
    n_cols = n + sum(rel != EQ for rel in rels)
    flipped, basis, free = [], [], []  # free: (row, its nonbasic slack)
    slack_at, art_at = n, n_cols
    for r, (row, rel) in enumerate(zip(rows, rels)):
        flip = row[-1] < 0
        flipped.append([-v for v in row] if flip else row)
        if rel != EQ and (rel == LEQ) != flip:
            basis.append(slack_at)
        else:
            if rel != EQ:
                free.append((r, slack_at))
            basis.append(art_at)
            art_at += 1
        slack_at += rel != EQ
    # a nonbasic slack enters its row at -1
    tableau = [row[:n] + [-(r == q) for q, _ in free] + row[n:]
               for r, row in enumerate(flipped)]
    cols = list(range(n)) + [slack for _, slack in free]
    # minimize the sum of the artificials: the reduced costs are minus the
    # column sums over their rows
    obj = [0] * (len(cols) + 1)
    for trow, b in zip(tableau, basis):
        if b >= n_cols:
            obj = [o - v for o, v in zip(obj, trow)]
    return tableau + [obj], basis, cols, n_cols


def _phase1_run(tableau: List[List[int]], basis: List[int], cols: List[int], n_cols: int):
    """``_phase1`` from its start, which it pivots in place."""
    status, d = _simplex_min(tableau, cols, basis, 1)
    if status != OPTIMAL:
        raise AssertionError("phase 1 is bounded below by 0 but read unbounded")
    if tableau.pop()[-1] != 0:  # the objective row: minus the sum of the artificials
        return None

    # drive remaining artificials out of the basis; drop the rows they cannot leave
    keep = []
    for r, trow in enumerate(tableau):
        if basis[r] >= n_cols:
            places = [k for k, j in enumerate(cols) if j < n_cols and trow[k]]
            if not places:
                continue
            k = min(places, key=cols.__getitem__)
            d = _exchange(tableau, r, k, d)
            basis[r], cols[k] = cols[k], basis[r]
        keep.append(r)
    real = [k for k, j in enumerate(cols) if j < n_cols]
    return ([[tableau[r][k] for k in real] + tableau[r][-1:] for r in keep],
            [basis[r] for r in keep], d, [cols[k] for k in real])


def _basic(tableau: List[List[int]], basis: List[int], n: int) -> List[int]:
    """d times the first n variables of the basic solution."""
    y = [0] * n
    for trow, b in zip(tableau, basis):
        if b < n:
            y[b] = trow[-1]
    return y


def _phase2(
    phase1: Tuple[List[List[int]], List[int], int, List[int]], cost: list
) -> Tuple[str, Optional[Fraction], Optional[List[int]], int]:
    """min cost.y from the end state of ``_phase1``, which it leaves unchanged:
    the status, the minimum, d times y and d."""
    tableau, basis, d, cols = phase1
    tableau = [list(row) for row in tableau]
    basis, cols = list(basis), list(cols)
    k = math.lcm(*(c.denominator for c in cost))
    c = [_scaled(v, k) for v in cost]
    c += [0] * (len(cols) + len(basis) - len(c))
    obj = [c[j] * d for j in cols] + [0]
    for trow, b in zip(tableau, basis):
        if c[b]:
            obj = [o - c[b] * t for o, t in zip(obj, trow)]
    status, d = _simplex_min(tableau + [obj], cols, basis, d)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None, d
    return OPTIMAL, Fraction(-obj[-1], d * k), _basic(tableau, basis, len(cost)), d


def lp_optimize(program: LinearProgram) -> LpSolution:
    """Exact optimum of a maximization program (or infeasible/unbounded)."""
    std = program.standard_form
    if std.phase1 is None:
        return LpSolution(INFEASIBLE)
    cost, shift = std.cost(program.objective)
    status, value, y, d = _phase2(std.phase1, cost)
    if status != OPTIMAL:
        return LpSolution(status)
    x = tuple(Fraction(v, d) if v else _ZERO for v in std.recover(y, d))
    return LpSolution(OPTIMAL, value=shift - value if shift else -value, x=x)


def lp_feasible(program: LinearProgram) -> Decision:
    """Feasibility with an exact witness on success: the basic solution that
    phase 1 ends on, checked against the program in integers."""
    std = program.standard_form
    if std.phase1 is None:
        return Decision(False)
    tableau, basis, d, _ = std.phase1
    x = std.recover(_basic(tableau, basis, std.n_std), d)
    if not program.feasible_point(x, d):
        raise AssertionError("the simplex returned a point outside the program")
    return Decision(True, Certificate(witness=tuple(Fraction(v, d) for v in x)))


def endpoint_rows(
    matrix: IntervalMatrix,
    b_lo: Optional[Sequence[Fraction]] = None,
    b_hi: Optional[Sequence[Fraction]] = None,
    also: Iterable[Fraction] = (),
) -> Tuple[int, List[Constraint]]:
    """|C x - b_c| <= R |x| + d as two integer rows per row of the matrix,
    over the split variables (x+, x-) of x = x+ - x-, |x| = x+ + x- on every
    orthant: lo x+ - hi x- <= b_hi, then -hi x+ + lo x- <= -b_lo (b_lo and
    b_hi default to zero).  Returns (L, rows); every entry is times L, the
    least common multiple of the denominators of the endpoints and of
    ``also``, the numbers of a caller's own rows.
    """
    zeros = (0,) * matrix.m
    b_lo = zeros if b_lo is None else b_lo
    b_hi = zeros if b_hi is None else b_hi
    scale = math.lcm(
        *(q.denominator for row in matrix.entries for e in row for q in (e.lo, e.hi)),
        *(q.denominator for q in (*b_lo, *b_hi, *also)),
    )
    rows = []
    for row, lo_i, hi_i in zip(matrix.entries, b_lo, b_hi):
        lo = tuple(_scaled(e.lo, scale) for e in row)
        minus_hi = tuple(-_scaled(e.hi, scale) for e in row)
        rows.append(Constraint(lo + minus_hi, LEQ, _scaled(hi_i, scale)))
        rows.append(Constraint(minus_hi + lo, LEQ, -_scaled(lo_i, scale)))
    return scale, rows


def oettli_prager_member(
    matrix: IntervalMatrix,
    x: Vector,
    s: SignVector,
    rhs: Optional[IntervalVector] = None,
) -> Tuple[RealMatrix, Vector]:
    """Member system (M, b) with M x = b, from a witness x in the orthant of s.

    The converse of Oettli-Prager, row by row: t_i = (C x - b_c)_i /
    (R |x| + d)_i (0 when the divisor is 0), m_i = c_i - t_i (r_i .* s) and
    b_i = b_c,i + t_i d_i; b_c and d are zero when rhs is None.  With the
    endpoints times L and x times D in integers, t_i = u_i / w_i for
    u_i = ((lo + hi) X - (b_lo + b_hi) D)_i and w_i = ((hi - lo) |X| +
    (b_hi - b_lo) D)_i, so each entry is one Fraction over 2 L w_i.  A
    witness that satisfies the rows of ``endpoint_rows`` gives |t_i| <= 1;
    any other raises AssertionError, as does every failed check of the
    output.
    """
    b_ends = [(0, 0)] * matrix.m if rhs is None else [(e.lo, e.hi) for e in rhs.entries]
    scale = math.lcm(
        *(q.denominator for row in matrix.entries for e in row for q in (e.lo, e.hi)),
        *(q.denominator for ends in b_ends for q in ends),
    )
    den = math.lcm(*(v.denominator for v in x))
    xs = [_scaled(v, den) for v in x]
    rows = []
    b_out = []
    for row, (b_lo, b_hi) in zip(matrix.entries, b_ends):
        ends = [(_scaled(e.lo, scale), _scaled(e.hi, scale)) for e in row]
        lo_b, hi_b = _scaled(b_lo, scale), _scaled(b_hi, scale)
        u = sum((lo + hi) * v for (lo, hi), v in zip(ends, xs)) - (lo_b + hi_b) * den
        w = sum((hi - lo) * abs(v) for (lo, hi), v in zip(ends, xs)) + (hi_b - lo_b) * den
        if w == 0:
            u, w = 0, 1
        rows.append([Fraction((lo + hi) * w - u * (hi - lo) * e, 2 * scale * w)
                     for (lo, hi), e in zip(ends, s)])
        b_out.append(Fraction((lo_b + hi_b) * w + u * (hi_b - lo_b), 2 * scale * w))
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
    signs: Iterable[SignVector], rows: Sequence[Constraint]
) -> Iterator[Tuple[SignVector, LinearProgram, Vector]]:
    """(s, program, x) for each orthant s of ``signs``, in that order, whose
    program is feasible: the integer ``rows`` over (x+, x-) of
    ``endpoint_rows``, a zero objective and the bounds x+, x- >= 0 with
    x-_j = 0 where s_j = 1 and x+_j = 0 where s_j = -1.  The programs share
    the rows and one phase-1 start; x is x+ - x-.
    """
    integer = [[*con.coeffs, con.rhs] for con in rows]
    if not integer or any(type(q) is not int for row in integer for q in row):
        raise MalformedProgram("orthant rows must be integers, and at least one")
    base = LinearProgram((0,) * len(rows[0].coeffs), rows)
    start = _phase1_start(integer, [con.relation for con in base.constraints], base.nvars)
    on, off = (0, None), (0, 0)
    for s in signs:
        n, free = s.dim, [e > 0 for e in s.entries]
        ends = [on if f else off for f in free] + [off if f else on for f in free]
        active = [j if f else n + j for j, f in enumerate(free)]
        program = base._clone(bounds=tuple(ends),
                              standard_form=_OrthantForm(start, active, 2 * n))
        outcome = lp_feasible(program)
        if outcome.answer:
            w = outcome.certificate.witness
            yield s, program, tuple(map(sub, w[:n], w[n:]))

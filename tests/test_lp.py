"""Exact simplex: feasibility witnesses, optima, determinism."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from conftest import interval_matrices, interval_vectors, rationals
from intlinalg import (
    Constraint,
    Interval,
    IntervalMatrix,
    IntervalVector,
    LinearProgram,
    has_full_column_rank_exact,
    is_regular_exact,
    lp_feasible,
    lp_optimize,
)
from intlinalg.errors import MalformedProgram
from intlinalg import generate, lp, systems
from intlinalg.lp import EQ, GEQ, LEQ, oettli_prager_member
from intlinalg.matrices import RealMatrix, SignVector, bareiss_pivot

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")


def F(a, b=1):
    return Fraction(a, b)


def iv(lo, hi):
    return Interval(F(lo), F(hi))


class TestFeasibility:
    def test_nonnegativity_alone(self):
        p = LinearProgram((F(0),), (Constraint((F(1),), GEQ, F(0)),))
        outcome = lp_feasible(p)
        assert outcome.answer
        assert p.feasible_point(outcome.certificate.witness)

    def test_contradiction(self):
        p = LinearProgram(
            (F(0),),
            (Constraint((F(1),), LEQ, F(-1)), Constraint((F(1),), GEQ, F(1))),
        )
        assert not lp_feasible(p).answer

    def test_planted_point_systems(self):
        """Random systems built around a planted point are feasible and the
        returned witness satisfies every constraint exactly."""
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 4)
            planted = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)
            )
            cons = []
            for _ in range(rng.randint(1, 6)):
                row = tuple(
                    Fraction(rng.randint(-3, 3), 1) for _ in range(n)
                )
                value = sum((r * p for r, p in zip(row, planted)), Fraction(0))
                slack = Fraction(rng.randint(0, 5), 2)
                kind = rng.choice((LEQ, GEQ, EQ))
                if kind == LEQ:
                    cons.append(Constraint(row, LEQ, value + slack))
                elif kind == GEQ:
                    cons.append(Constraint(row, GEQ, value - slack))
                else:
                    cons.append(Constraint(row, EQ, value))
            p = LinearProgram(tuple([F(0)] * n), tuple(cons))
            outcome = lp_feasible(p)
            assert outcome.answer
            assert p.feasible_point(outcome.certificate.witness)


class TestOptimize:
    def test_bounded_above(self):
        p = LinearProgram((F(1),), (Constraint((F(1),), LEQ, F(3)),))
        sol = lp_optimize(p)
        assert sol.status == "optimal"
        assert sol.value == 3
        assert sol.x == (F(3),)

    def test_unbounded(self):
        p = LinearProgram((F(1),), (Constraint((F(1),), GEQ, F(0)),))
        assert lp_optimize(p).status == "unbounded"

    def test_infeasible(self):
        p = LinearProgram(
            (F(1),),
            (Constraint((F(1),), LEQ, F(-1)), Constraint((F(1),), GEQ, F(1))),
        )
        assert lp_optimize(p).status == "infeasible"

    def test_bounds_handling(self):
        p = LinearProgram(
            (F(1), F(1)),
            (Constraint((F(1), F(1)), LEQ, F(5)),),
            bounds=((F(0), F(2)), (F(0), None)),
        )
        sol = lp_optimize(p)
        assert sol.value == 5
        assert sol.x[0] <= 2

    def test_upper_bound_only_variable(self):
        p = LinearProgram(
            (F(1),),
            (Constraint((F(1),), GEQ, F(-10)),),
            bounds=((None, F(4)),),
        )
        sol = lp_optimize(p)
        assert sol.value == 4

    def test_crossing_bounds_infeasible(self):
        p = LinearProgram((F(1),), (), bounds=((F(2), F(1)),))
        assert lp_optimize(p).status == "infeasible"

    def test_degenerate_equalities(self):
        p = LinearProgram(
            (F(1), F(0)),
            (
                Constraint((F(1), F(1)), EQ, F(2)),
                Constraint((F(2), F(2)), EQ, F(4)),
            ),
        )
        sol = lp_optimize(p)
        assert sol.status == "unbounded"


def _polytope_vertices(cons, n):
    """All vertices of {x : rows <= rhs} by basis enumeration (oracle)."""
    vertices = []
    for subset in itertools.combinations(range(len(cons)), n):
        m = RealMatrix([list(cons[i].coeffs) for i in subset])
        if m.det() == 0:
            continue
        x = m.solve(tuple(cons[i].rhs for i in subset))
        if all(
            sum((c * v for c, v in zip(con.coeffs, x)), Fraction(0)) <= con.rhs
            for con in cons
        ):
            vertices.append(x)
    return vertices


class TestVertexOracle:
    def test_optimum_matches_vertex_enumeration(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(2, 3)
            cons = []
            # box keeps the polytope bounded
            for j in range(n):
                row_hi = tuple(F(1) if t == j else F(0) for t in range(n))
                row_lo = tuple(F(-1) if t == j else F(0) for t in range(n))
                cons.append(Constraint(row_hi, LEQ, F(rng.randint(1, 5))))
                cons.append(Constraint(row_lo, LEQ, F(rng.randint(1, 5))))
            for _ in range(rng.randint(1, 3)):
                row = tuple(F(rng.randint(-3, 3)) for _ in range(n))
                cons.append(Constraint(row, LEQ, F(rng.randint(0, 6))))
            objective = tuple(F(rng.randint(-4, 4)) for _ in range(n))
            sol = lp_optimize(LinearProgram(objective, tuple(cons)))
            vertices = _polytope_vertices(cons, n)
            assert vertices, "bounded polytope must have vertices"
            best = max(
                sum((c * v for c, v in zip(objective, x)), Fraction(0))
                for x in vertices
            )
            assert sol.status == "optimal"
            assert sol.value == best


def _fuzz_programs(count=200, seed=2024):
    """A seeded corpus of small LPs (2-4 variables) that reaches every path of
    the simplex: rows with their own denominators, all three relations,
    negative right-hand sides, redundant equalities (dropped rows after
    phase 1), free, one-sided, two-sided and crossing bounds, rational
    objectives, zero slack at the planted point (degenerate Bland ties), and
    infeasible and unbounded programs."""
    rng = random.Random(seed)
    programs = []
    for _ in range(count):
        n = rng.randint(2, 4)
        planted = rng.random() < 0.75
        point = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]

        def row_through(rel):
            den = rng.randint(1, 7)
            row = tuple(F(rng.randint(-4, 4), den) for _ in range(n))
            at = sum((c * v for c, v in zip(row, point)), F(0))
            if not planted:
                return Constraint(row, rel, F(rng.randint(-6, 6), rng.randint(1, 3)))
            slack = rng.choice((F(0), F(0), F(rng.randint(1, 5), rng.randint(1, 4))))
            if rel == LEQ:
                return Constraint(row, rel, at + slack)
            return Constraint(row, rel, at - slack if rel == GEQ else at)

        cons = [row_through(rng.choice((LEQ, LEQ, GEQ, EQ)))
                for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.25:
            eq = row_through(EQ)
            q = F(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
            cons += [eq, Constraint(tuple(q * c for c in eq.coeffs), EQ, q * eq.rhs)]
        rng.shuffle(cons)
        bounds = None
        if rng.random() < 0.8:
            bounds = []
            for v in point:
                lo = v - F(rng.randint(0, 3), rng.randint(1, 2))
                hi = v + F(rng.randint(0, 3), rng.randint(1, 2))
                if not planted and rng.random() < 0.1:
                    lo, hi = hi + 1, lo
                bounds.append(
                    rng.choice(((None, None), (lo, None), (None, hi), (lo, hi), (lo, hi)))
                )
        objective = tuple(
            F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.9 else F(0)
            for _ in range(n)
        )
        programs.append(LinearProgram(objective, tuple(cons), bounds and tuple(bounds)))
    return programs


# (status, value, x) of lp_optimize and the witness of lp_feasible for each
# program of _fuzz_programs().  Statuses and values were recorded from the
# Fraction-tableau simplex; x and the witness, which depend on the pivot path,
# from the simplex that starts phase 1 on the slack basis.
FUZZ_EXPECTED = [
    ('unbounded', None, None, '0 0 -1'),
    ('optimal', '55/24', '-15/2 13/6 2', '1/2 2/3 1'),
    ('optimal', '-1561/48', '-4 -2 3/2 35/24', '-4 -7/2 3/2 -1/24'),
    ('optimal', '-71/75', '7/75 4 22/25 -48/25', '-11/3 4 0 -2'),
    ('infeasible', None, None, None),
    ('optimal', '65/12', '-1 4 -13/6 -1', '-9/4 4 -13/6 -7/2'),
    ('infeasible', None, None, None),
    ('optimal', '-219/10', '-9/5 67/10 -151/40', '-9/5 67/10 -151/40'),
    ('unbounded', None, None, '-393/170 -283/170 1177/170 149/170'),
    ('optimal', '1/2', '-1 3/2 0', '-5 0 0'),
    ('optimal', '-5/8', '4/3 3/2', '4/3 3/2'),
    ('optimal', '-27/2', '6 -3', '6 -3'),
    ('optimal', '-109/12', '5/2 -2 -2 47/8', '5/2 -2 -2 47/8'),
    ('unbounded', None, None, '-6 0 0'),
    ('unbounded', None, None, '-31 -19 0 0'),
    ('infeasible', None, None, None),
    ('optimal', '-1/24', '3/2 -1/3', '3/2 -1/3'),
    ('unbounded', None, None, '-5 4 -7/2'),
    ('unbounded', None, None, '67/11 -2/11 -1/2 -1/2'),
    ('optimal', '-28/3', '-110/9 112/9', '-110/9 112/9'),
    ('optimal', '653/252', '-124/21 -61/21 -5 31/21', '-31/6 -13/6 -5 0'),
    ('optimal', '-7', '-1 4', '-1 4'),
    ('unbounded', None, None, '253/24 237/16 -9 19/8'),
    ('optimal', '-5/2', '2 -2 -2', '11/4 -3 -2'),
    ('unbounded', None, None, '11/6 -19/6 5/2 -73/6'),
    ('optimal', '19/3', '19/12 1/3', '19/12 1/3'),
    ('unbounded', None, None, '3/2 6 -1 -8/3'),
    ('unbounded', None, None, '-133/27 -7/27 -2/9 0'),
    ('optimal', '7/8', '1/2 -6 -3 3', '1/2 -6 -3 3'),
    ('optimal', '24', '-8/3 4', '-2/3 5/2'),
    ('optimal', '127/12', '35/6 3 8 3', '-3/2 3 9/2 -1'),
    ('unbounded', None, None, '11/3 0 1/6'),
    ('unbounded', None, None, '101/39 -3/2 -43/39'),
    ('unbounded', None, None, '25/7 -11/28 481/84 0'),
    ('optimal', '81/8', '-3/4 0 -1/2 -5', '0 -1 -5/2 -5'),
    ('unbounded', None, None, '1 0 0'),
    ('optimal', '-4/3', '-4/3 0', '-4/3 -3'),
    ('optimal', '46/3', '-4 0 4/3', '-4 0 4/3'),
    ('optimal', '0', '3 -1/2', '3 -1/2'),
    ('optimal', '98/9', '5 -2 4 2/3', '5 -2 4 2/3'),
    ('optimal', '61/9', '2 4 -2 4/3', '2 4 -2 4/3'),
    ('unbounded', None, None, '1/2 0 0 0'),
    ('optimal', '22/3', '2 -6 -1', '2 -6 -1'),
    ('unbounded', None, None, '2 -83/48 1/12 -1'),
    ('unbounded', None, None, '101/25 57/25 206/25 -13/25'),
    ('optimal', '7', '0 -7', '0 -7'),
    ('optimal', '-35/9', '4 -3 -1 -5/3', '4 -3 -1 -5/3'),
    ('unbounded', None, None, '0 0'),
    ('unbounded', None, None, '11/3 0 0'),
    ('infeasible', None, None, None),
    ('unbounded', None, None, '2 -1/2 3'),
    ('infeasible', None, None, None),
    ('optimal', '32/9', '-5/6 1', '-1/3 1'),
    ('infeasible', None, None, None),
    ('optimal', '-19/66', '58/33 34/33', '58/33 34/33'),
    ('optimal', '-5/8', '-1/2 5/2 1', '-1/2 5/2 1'),
    ('optimal', '13/3', '1 -5/3', '1 -5/3'),
    ('infeasible', None, None, None),
    ('optimal', '325/24', '-7/2 -13/6 -5/4 1/4', '-2 0 -3 -5/2'),
    ('optimal', '7', '5/3 0 5/2 2', '5/3 0 5/2 2'),
    ('unbounded', None, None, '-12 0 0'),
    ('unbounded', None, None, '4/3 6 5/2'),
    ('optimal', '15/2', '-6 -1', '-19/3 -2'),
    ('unbounded', None, None, '7/2 -1 -13/2 -4'),
    ('optimal', '-8/3', '-2/3 -2', '-2/3 -2'),
    ('optimal', '-7/2', '4 -3/2', '4 -3/2'),
    ('unbounded', None, None, '1/2 -152/71 444/71 450/71'),
    ('optimal', '127/6', '-5 2 4', '-5 2 0'),
    ('optimal', '-5/6', '-1/2 -1', '-3/2 0'),
    ('unbounded', None, None, '53/6 14/3 -1 0'),
    ('optimal', '32/3', '-6 -2', '-5 -1'),
    ('unbounded', None, None, '-92/9 -6 -1/2 -5/4'),
    ('optimal', '-4', '9/2 -7', '9/2 -7'),
    ('unbounded', None, None, '-1 5/3 -1 -1'),
    ('optimal', '32', '1 1/2 -8 -4', '2 -3/2 -7 -4'),
    ('unbounded', None, None, '4 3/2 -6'),
    ('infeasible', None, None, None),
    ('optimal', '113/24', '5/6 -1 19/24 -8', '5/6 -1 8/3 -8'),
    ('unbounded', None, None, '0 -2'),
    ('unbounded', None, None, '-2 0'),
    ('optimal', '0', '0 0', '0 0'),
    ('unbounded', None, None, '1/2 -7/2 -3'),
    ('optimal', '111/4', '11/2 0 -1/2 2', '11/2 0 -1/2 2'),
    ('optimal', '169/22', '4/3 -39/22 -24/11 -46/11', '-5/12 -3/2 -1/2 0'),
    ('unbounded', None, None, '-28 -1 -9'),
    ('optimal', '-37/6', '-6 -2/3 2', '-6 -2/3 2'),
    ('optimal', '-1/4', '-1/3 -3/2 -1/2', '-1/3 -3/2 -1/2'),
    ('optimal', '125/12', '3 -25/4 0', '3 -25/12 -25/12'),
    ('unbounded', None, None, '2 1 0 0'),
    ('optimal', '35/8', '19/8 -2', '0 -2'),
    ('optimal', '77/2', '17/2 0 1', '3 -2 -2'),
    ('optimal', '-67/6', '-1 5/3 3', '-1 5/3 3'),
    ('optimal', '-2', '2 -4', '2 -4'),
    ('optimal', '-73/12', '-11/6 -9/2 -1/2 5/3', '-17/15 -31/10 -1/2 5/3'),
    ('optimal', '-4', '2 1/2', '2 1/2'),
    ('optimal', '-1/7', '3/7 -2 -10/21', '3/7 -2 -10/21'),
    ('infeasible', None, None, None),
    ('unbounded', None, None, '-2/3 -5 -8/3'),
    ('unbounded', None, None, '0 -2 -2 -1/2'),
    ('unbounded', None, None, '5/12 25/6 0 0'),
    ('optimal', '-843/40', '7/6 3 361/30 253/60', '7/6 3 361/30 253/60'),
    ('unbounded', None, None, '2987/160 -37/160 249/32 433/40'),
    ('unbounded', None, None, '2 5/2 7/4'),
    ('unbounded', None, None, '1/2 0 0'),
    ('infeasible', None, None, None),
    ('optimal', '1', '-4/3 0 -4', '-4/3 0 -4'),
    ('optimal', '-59/120', '-1/10 -13/10', '-1/10 -13/10'),
    ('optimal', '19', '2 -6 0', '2 -6 0'),
    ('optimal', '17/24', '0 1/2 -11/6 3/2', '0 1/2 -11/6 3/2'),
    ('infeasible', None, None, None),
    ('optimal', '-17/24', '-3 3/4 1/2', '-3 3/4 1/2'),
    ('optimal', '0', '0 -10/7 -22/7', '47/26 -32/13 -14/13'),
    ('unbounded', None, None, '13/3 -5/6 0 0'),
    ('optimal', '-5/3', '2 0 2/3 1', '2 0 2/3 1'),
    ('optimal', '-118/9', '-5/6 5 43/6', '-5/6 5 43/6'),
    ('infeasible', None, None, None),
    ('infeasible', None, None, None),
    ('optimal', '5/12', '-1 5/3', '0 0'),
    ('optimal', '15/4', '3 -5', '3 -5'),
    ('unbounded', None, None, '0 0 0 0'),
    ('infeasible', None, None, None),
    ('infeasible', None, None, None),
    ('optimal', '21/4', '-1/2 1 -1', '3/2 0 0'),
    ('optimal', '1/2', '1 -5/3 17/12', '-2 -5/3 2/3'),
    ('unbounded', None, None, '0 -1 -3/2'),
    ('unbounded', None, None, '-13/3 4 -7/3 4'),
    ('optimal', '3', '-3/2 -2 4 4/3', '-3/2 -2/3 4 0'),
    ('unbounded', None, None, '1 5/2'),
    ('optimal', '11/4', '-8/3 -1/2 5/3', '-8/3 -1/2 5/3'),
    ('unbounded', None, None, '5/9 0'),
    ('optimal', '-77/12', '7/6 -7/24 15/8', '5/3 -2/3 3/2'),
    ('optimal', '5', '7/6 3 0', '-7/6 -1/2 0'),
    ('unbounded', None, None, '2/3 1/3 7 -7/3'),
    ('infeasible', None, None, None),
    ('infeasible', None, None, None),
    ('unbounded', None, None, '-1/2 -17/6 -2 0'),
    ('optimal', '1/2', '0 -1/2', '0 -1/2'),
    ('optimal', '-1/6', '6 1/3', '6 1/3'),
    ('unbounded', None, None, '-5 3/2 0 -3'),
    ('unbounded', None, None, '0 0'),
    ('unbounded', None, None, '1 0 -5'),
    ('infeasible', None, None, None),
    ('optimal', '-1', '-2/3 4 2', '0 5 2'),
    ('optimal', '-11/4', '1 3 -2 -1', '1 5 -7/2 -3'),
    ('optimal', '-29/4', '4 -5/3', '4 -5/3'),
    ('unbounded', None, None, '1/2 -13/8 -15/4'),
    ('optimal', '12', '4 8', '3 0'),
    ('unbounded', None, None, '0 -1/2 -5/2 -8'),
    ('unbounded', None, None, '0 0 2'),
    ('unbounded', None, None, '5/6 9/2 0'),
    ('optimal', '-143/12', '8/3 5', '8/3 5'),
    ('optimal', '3', '-2 -3/2 -5/3', '-2 -3/2 -5/3'),
    ('optimal', '17/2', '1 8/3', '-1 -1/3'),
    ('optimal', '7/2', '-3/2 -1', '-3/2 -1'),
    ('unbounded', None, None, '-4 5/2 -5/6 -4'),
    ('optimal', '1027/288', '-121/24 -53/24 -1 11/6', '-121/24 -53/24 -1 11/6'),
    ('infeasible', None, None, None),
    ('unbounded', None, None, '0 2/3'),
    ('infeasible', None, None, None),
    ('unbounded', None, None, '111/8 -11/2 13/8 0'),
    ('unbounded', None, None, '3 -25/24 -10/3 -5/2'),
    ('unbounded', None, None, '23/12 0'),
    ('optimal', '-2/3', '-1/2 4/3 -3', '-1/2 4/3 -3'),
    ('optimal', '0', '1 0', '1 0'),
    ('unbounded', None, None, '-5/2 1 0'),
    ('optimal', '-29/4', '1 3 -1/3 -4', '1 3 -1/3 -4'),
    ('infeasible', None, None, None),
    ('unbounded', None, None, '5/3 0 0'),
    ('optimal', '7/18', '-3/2 0 2/3', '-3/2 0 2/3'),
    ('unbounded', None, None, '3/10 39/10 19/10 0'),
    ('infeasible', None, None, None),
    ('unbounded', None, None, '3 5/6 -3'),
    ('optimal', '365/24', '-11/6 2 -4 1/2', '-11/6 2 -4 -4/3'),
    ('optimal', '13', '0 -1/3 -25/2', '-3/2 -4/3 -5'),
    ('infeasible', None, None, None),
    ('unbounded', None, None, '77/4 43/4 -109/4 0'),
    ('optimal', '-85/12', '-2/3 -9/4', '-2/3 -9/4'),
    ('infeasible', None, None, None),
    ('optimal', '37/6', '8 -7/2 -5/3', '23/3 -4 -5/3'),
    ('optimal', '-5', '-2 -1/3', '-2 -1/3'),
    ('optimal', '16/5', '-21/10 -3/5', '-3/2 -1'),
    ('infeasible', None, None, None),
    ('optimal', '-21/4', '1/4 -5/2', '1/4 -5/2'),
    ('optimal', '-33/2', '3/2 3', '3/2 3'),
    ('optimal', '1/6', '-2 1 -1/2 -3', '-2 1 -1/2 -3'),
    ('optimal', '-5/2', '-5 5/2', '-5 5/2'),
    ('optimal', '3', '-3/2 -5/3', '-3/2 -5/3'),
    ('unbounded', None, None, '-37/6 0 0 0'),
    ('optimal', '77/24', '-1/6 -2/3 2', '-37/6 -11/3 2'),
    ('unbounded', None, None, '0 -9/2 -1'),
    ('optimal', '5', '-4 1', '-4 0'),
    ('optimal', '-19/4', '-2 -11/4 -5/2', '-1/2 -3 -3'),
    ('unbounded', None, None, '-8/3 0 0 0'),
    ('infeasible', None, None, None),
    ('unbounded', None, None, '-5/2 0 1/2'),
    ('optimal', '-24', '-8 5', '-8 5'),
    ('optimal', '20/9', '-13/9 8/9', '-13/9 8/9'),
    ('unbounded', None, None, '-11/2 77/54 0 -28/9'),
    ('optimal', '-20', '-5 -5', '-6 -6'),
    ('optimal', '113/3', '-101/12 31/4 -7/2 -7', '5/3 -7/3 -7/2 -7'),
]


def _fmt(v):
    return None if v is None else " ".join(map(str, v))


def _as_leq_rows(program):
    """The program's feasible set as <= rows, bounds included."""
    rows = []
    for c in program.constraints:
        if c.relation != GEQ:
            rows.append(Constraint(c.coeffs, LEQ, c.rhs))
        if c.relation != LEQ:
            rows.append(Constraint(tuple(-v for v in c.coeffs), LEQ, -c.rhs))
    for j, (lo, hi) in enumerate(program.bounds or ()):
        unit = tuple(F(1) if t == j else F(0) for t in range(program.nvars))
        if lo is not None:
            rows.append(Constraint(tuple(-v for v in unit), LEQ, -lo))
        if hi is not None:
            rows.append(Constraint(unit, LEQ, hi))
    return rows


class TestFuzzCorpus:
    def test_results_match_recorded(self):
        programs = _fuzz_programs()
        assert len(programs) == len(FUZZ_EXPECTED)
        for k, (program, expected) in enumerate(zip(programs, FUZZ_EXPECTED)):
            sol = lp_optimize(program)
            feasible = lp_feasible(program)
            witness = feasible.certificate.witness if feasible.answer else None
            got = (
                sol.status,
                None if sol.value is None else str(sol.value),
                _fmt(sol.x),
                _fmt(witness),
            )
            assert got == expected, f"program {k}"
            # the pinned points are right, not only recorded
            if witness is not None:
                assert program.feasible_point(witness), f"program {k}"
            if sol.x is not None:
                assert program.feasible_point(sol.x), f"program {k}"
                value = sum((c * v for c, v in zip(program.objective, sol.x)), F(0))
                assert value == sol.value, f"program {k}"

    def test_rows_share_one_scale(self):
        """Scaling each row by the multiple of its own denominators would
        change the phase-1 objective.  In about 26 of 4000 programs drawn like
        the corpus that changes the witness, as here: the scaled rows give
        (0, -2/3)."""
        p = LinearProgram(
            (F(-1), F(3)),
            (
                Constraint((F(1, 2), F(1, 4)), LEQ, F(1, 6)),
                Constraint((F(-1, 5), F(-2, 5)), LEQ, F(4, 15)),
                Constraint((F(1, 2), F(-1)), LEQ, F(2, 3)),
                Constraint((F(4), F(-1)), GEQ, F(-1, 3)),
            ),
            bounds=((None, F(1, 2)), (F(-5, 3), None)),
        )
        assert lp_feasible(p).certificate.witness == (F(-2, 9), F(-5, 9))
        assert lp_optimize(p).value == F(29, 18)

    def test_corpus_covers_every_status(self):
        statuses = {expected[0] for expected in FUZZ_EXPECTED}
        assert statuses == {"optimal", "unbounded", "infeasible"}

    def test_optima_match_vertex_enumeration(self):
        for k, program in enumerate(_fuzz_programs()):
            sol = lp_optimize(program)
            vertices = _polytope_vertices(_as_leq_rows(program), program.nvars)
            if sol.status == "infeasible":
                assert not vertices, f"program {k}"
                continue
            if sol.status == "unbounded":
                continue
            assert program.feasible_point(sol.x), f"program {k}"
            value = sum((c * v for c, v in zip(program.objective, sol.x)), F(0))
            assert value == sol.value, f"program {k}"
            assert vertices, f"program {k}: every optimum here sits at a vertex"
            best = max(
                sum((c * v for c, v in zip(program.objective, x)), F(0))
                for x in vertices
            )
            assert sol.value == best, f"program {k}"


    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_programs_match_vertex_enumeration(self, data):
        """Random pointed programs against vertex enumeration, independently
        of the pivot path: no vertex exactly when infeasible, a recession
        direction r with objective . r = 1 exactly when unbounded, and
        otherwise the best vertex value."""
        program = data.draw(_programs())
        rows = _as_leq_rows(program)
        n = program.nvars
        assume(RealMatrix([list(c.coeffs) for c in rows]).rank() == n)
        sol = lp_optimize(program)
        feasible = lp_feasible(program)
        vertices = _polytope_vertices(rows, n)
        assert feasible.answer == bool(vertices)
        if not vertices:
            assert sol.status == "infeasible"
            return
        assert program.feasible_point(feasible.certificate.witness)
        c = program.objective
        rays = _polytope_vertices(
            [Constraint(con.coeffs, LEQ, F(0)) for con in rows]
            + [Constraint(c, LEQ, F(1)), Constraint(tuple(-v for v in c), LEQ, F(-1))],
            n,
        )
        if rays:
            assert sol.status == "unbounded"
            return
        assert sol.status == "optimal"
        assert program.feasible_point(sol.x)
        assert sum((a * v for a, v in zip(c, sol.x)), F(0)) == sol.value
        best = max(sum((a * v for a, v in zip(c, x)), F(0)) for x in vertices)
        assert sol.value == best


@st.composite
def _programs(draw):
    """2-3 variable programs with 1-4 rows of every relation and free,
    one-sided, two-sided and crossing bounds."""
    n = draw(st.integers(2, 3))
    q = rationals(6, 4)
    cons = draw(st.lists(
        st.builds(
            Constraint,
            st.tuples(*[q] * n),
            st.sampled_from((LEQ, LEQ, GEQ, EQ)),
            q,
        ),
        min_size=1,
        max_size=4,
    ))
    bounds = draw(st.one_of(
        st.none(),
        st.tuples(*[st.tuples(st.none() | q, st.none() | q)] * n),
    ))
    objective = draw(st.tuples(*[q] * n))
    return LinearProgram(objective, tuple(cons), bounds)

def _cold(solve, program):
    """solve(program) on a fresh program, with no standard form built yet."""
    return solve(LinearProgram(program.objective, program.constraints, program.bounds))


class TestPhase1Cache:
    """Each program keeps its own standard form and phase-1 end state, and
    ``with_objective`` shares them; every result must be what a cold solve
    gives."""

    def test_interleaved_calls_equal_cold_solves(self):
        programs = _fuzz_programs()
        for k, (p, q) in enumerate(zip(programs, programs[1:])):
            p2 = p.with_objective(tuple(-c for c in p.objective))
            warm = (lp_feasible(p), lp_optimize(q), lp_optimize(p2))
            cold = (
                _cold(lp_feasible, p), _cold(lp_optimize, q), _cold(lp_optimize, p2)
            )
            assert warm == cold, f"programs {k}, {k + 1}"

    def test_repeated_optimize_leaves_the_cache_intact(self):
        for k, p in enumerate(_fuzz_programs()[:60]):
            other = p.with_objective(tuple(reversed(p.objective)))
            first = lp_optimize(p)
            for _ in range(3):
                assert lp_optimize(p) == first, f"program {k}"
                lp_optimize(other)
            assert lp_optimize(p) == _cold(lp_optimize, p), f"program {k}"
            assert lp_optimize(other) == _cold(lp_optimize, other), f"program {k}"

    @pytest.fixture()
    def phase1_runs(self, monkeypatch):
        runs = []
        real = lp._phase1

        def counted(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(lp, "_phase1", counted)
        return runs

    def test_equal_program_hits(self, phase1_runs):
        """with_objective shares phase 1; an equal program built anew runs
        its own."""
        p = _fuzz_programs()[1]
        assert lp_feasible(p).answer
        twin = p.with_objective(tuple(reversed(p.objective)))
        assert twin.constraints is p.constraints
        assert lp_optimize(twin) == _cold(lp_optimize, twin)
        assert lp_optimize(p) == _cold(lp_optimize, p)
        assert len(phase1_runs) == 3  # p and the two cold solves

    def test_other_bounds_or_arity_miss(self, phase1_runs):
        rows = (Constraint((F(1), F(1)), LEQ, F(4)),)
        lower = LinearProgram((F(2), F(1)), rows, ((F(0), None), (F(0), None)))
        upper = LinearProgram((F(2), F(1)), rows, ((F(0), F(1)), (F(0), None)))
        assert lp_optimize(lower).value == 8
        assert lp_optimize(upper).value == 5
        assert len(phase1_runs) == 2
        # no rows and no bounds: only the variable count tells these apart
        for n in (1, 2):
            free = LinearProgram(tuple([F(0)] * n), ())
            assert lp_feasible(free).certificate.witness == tuple([F(0)] * n)
        assert len(phase1_runs) == 4

    def test_with_objective_checks_its_arity(self):
        p = _fuzz_programs()[1]
        with pytest.raises(MalformedProgram):
            p.with_objective(p.objective + (F(1),))


class TestPhase1Start:
    """Phase 1 starts on the slack basis: a row gets an artificial column
    only when its slack cannot start basic."""

    def test_nonnegative_leq_rows_take_no_pivot(self, monkeypatch):
        pivots = []
        real = lp.bareiss_pivot
        monkeypatch.setattr(
            lp, "bareiss_pivot", lambda *args: pivots.append(args) or real(*args)
        )
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = tuple(
                Constraint(
                    tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)),
                    LEQ,
                    F(rng.randint(0, 6), rng.randint(1, 3)),
                )
                for _ in range(rng.randint(1, 5))
            )
            p = LinearProgram(tuple([F(0)] * n), rows, tuple([(F(0), None)] * n))
            outcome = _cold(lp_feasible, p)
            assert outcome.certificate.witness == tuple([F(0)] * n)
        assert pivots == []

    @pytest.mark.parametrize(
        "matrix",
        [
            generate.gen_regular_matrix(3, 0),
            IntervalMatrix([[iv(1, 2), iv(1, 1)], [iv(1, 1), iv(1, 2)]]),
        ],
        ids=["regular", "singular"],
    )
    def test_kernel_lp_has_one_artificial(self, monkeypatch, matrix):
        """The rows (+-C - R D_s) x <= 0 start on their slacks; only
        e^T D_s x >= 1 needs an artificial, which starts basic."""
        starts = []
        real_start = lp._phase1_start

        def start(rows, rels, n):
            begun = real_start(rows, rels, n)
            _, basis, cols, width = begun
            starts.append((sum(b >= width for b in basis),
                           sum(j >= width for j in cols)))
            return begun

        monkeypatch.setattr(lp, "_phase1_start", start)
        is_regular_exact(matrix)
        # (artificials in the starting basis, artificial columns outside it)
        assert starts and set(starts) == {(1, 0)}


class TestSimplexInsideLpCalls:
    """Every simplex run of an orthant sweep and of ``hull_exact`` happens
    inside an ``lp_feasible`` or ``lp_optimize`` call, so a span around
    those two calls times the LPs: phase 1 stays lazy."""

    def test_every_simplex_run_is_inside_an_lp_call(self, monkeypatch):
        depth, runs = [0], []
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "intlinalg"]
        for name in ("lp_feasible", "lp_optimize"):
            real = getattr(lp, name)

            def entered(*args, real=real):
                depth[0] += 1
                try:
                    return real(*args)
                finally:
                    depth[0] -= 1

            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, key, entered)
        real_simplex = lp._simplex_min
        monkeypatch.setattr(
            lp, "_simplex_min", lambda *args: runs.append(depth[0]) or real_simplex(*args)
        )
        matrix, rhs = generate.well_conditioned_system(3, 0)
        centred = IntervalVector([iv(e.lo - e.hi, e.hi - e.lo) for e in rhs.entries])
        is_regular_exact(generate.gen_regular_matrix(3, 0))
        is_regular_exact(generate.gen_boundary_singular_matrix(3, 0))
        has_full_column_rank_exact(generate.gen_interval_matrix(4, 3, 0, F(1, 4)))
        for mode in ("weak", "nonneg-weak", "strong", "nonneg-strong"):
            systems.solvability(matrix, rhs, mode)
        systems.ineq_solvability(matrix, rhs, "weak")
        systems.tc_existence(matrix, rhs, "control")
        systems.hull_exact(matrix, rhs)
        systems.hull_exact(matrix, centred)
        assert len(runs) > 100
        assert min(runs) >= 1


class TestContracts:
    def test_ragged_constraint_rejected(self):
        with pytest.raises(MalformedProgram):
            LinearProgram((F(1),), (Constraint((F(1), F(2)), LEQ, F(0)),))

    def test_bad_relation_rejected(self):
        with pytest.raises(MalformedProgram):
            Constraint((F(1),), "<", F(0))

    def test_determinism(self):
        p = LinearProgram(
            (F(3), F(-1), F(2)),
            (
                Constraint((F(1), F(1), F(1)), LEQ, F(7)),
                Constraint((F(1), F(-1), F(0)), GEQ, F(-2)),
                Constraint((F(0), F(1), F(2)), LEQ, F(5)),
                Constraint((F(1), F(0), F(0)), LEQ, F(4)),
            ),
        )
        first = lp_optimize(p)
        for _ in range(5):
            again = lp_optimize(p)
            assert again == first


def _gauss_jordan(rows, row, col):
    """One rational Gauss-Jordan pivot on (row, col), the reference for
    bareiss_pivot."""
    prow = [v / rows[row][col] for v in rows[row]]
    return [
        prow if r == row else [v - t[col] * w for v, w in zip(t, prow)]
        for r, t in enumerate(rows)
    ]


class TestPivot:
    """The integer pivot against plain Fraction Gauss-Jordan elimination:
    rows / d must be the rational tableau after every pivot."""

    def test_matches_rational_elimination(self):
        rng = random.Random(61)
        seen = {"zero entry, p != d": 0, "zero entry, p == d": 0, "p < 0": 0}
        for _ in range(150):
            m, width = rng.randint(2, 5), rng.randint(3, 7)
            rows = [
                [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(width)]
                for _ in range(m)
            ]
            rational = [[F(v) for v in row] for row in rows]
            d = 1
            for _ in range(5):
                nonzero = [
                    (r, j) for r in range(m) for j in range(width) if rows[r][j]
                ]
                if not nonzero:
                    break
                r, j = rng.choice(nonzero)
                p = rows[r][j]
                if any(not t[j] and any(t) for k, t in enumerate(rows) if k != r):
                    seen["zero entry, p == d" if p == d else "zero entry, p != d"] += 1
                seen["p < 0"] += p < 0
                d = bareiss_pivot(rows, r, j, d)
                rational = _gauss_jordan(rational, r, j)
                assert d > 0
                assert [[F(v, d) for v in row] for row in rows] == rational
        assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# the full-tableau Bland simplex, kept as the referee of the simplex in lp


def _referee_standard(program):
    """min c.y s.t. rows (rel) b, y >= 0 for the program's constraints and
    bounds, as integer rows over one common scale, and the map back to x."""
    n = program.nvars
    bounds = [
        tuple(None if v is None else F(v) for v in b)
        for b in (program.bounds or [(None, None)] * n)
    ]
    var_map, n_std, caps, crossing = [], 0, [], False
    for lo, hi in bounds:
        crossing |= lo is not None and hi is not None and lo > hi
        if lo is not None:
            if hi is not None:
                caps.append((n_std, hi - lo))
            var_map.append(("lo", n_std, lo))
            n_std += 1
        elif hi is not None:
            var_map.append(("hi", n_std, hi))
            n_std += 1
        else:
            var_map.append(("split", n_std, n_std + 1))
            n_std += 2
    cons = [([F(c) for c in con.coeffs], con.relation, F(con.rhs))
            for con in program.constraints]
    shifted = [
        rhs - sum((c * m[2] for c, m in zip(coeffs, var_map) if m[0] != "split"), F(0))
        for coeffs, _, rhs in cons
    ]
    scale = 1
    for q in [c for coeffs, _, _ in cons for c in coeffs] + shifted + [v for _, v in caps]:
        scale = scale * q.denominator // math.gcd(scale, q.denominator)
    rows = []
    for (coeffs, _, _), rhs in zip(cons, shifted):
        row = [0] * n_std
        for coeff, (kind, i, k) in zip(coeffs, var_map):
            v = int(coeff * scale)
            row[i] = -v if kind == "hi" else v
            if kind == "split":
                row[k] = -v
        rows.append(row + [int(rhs * scale)])
    for idx, cap in caps:
        row = [0] * n_std
        row[idx] = scale
        rows.append(row + [int(cap * scale)])
    rels = [rel for _, rel, _ in cons] + [LEQ] * len(caps)
    return rows, rels, n_std, var_map, crossing


def _referee_simplex(tableau, obj, basis, d):
    """Bland's rule on the full integer tableau; obj holds d times the reduced
    costs and minus the value."""
    rows = tableau + [obj]
    while True:
        enter = next((j for j in range(len(obj) - 1) if obj[j] < 0), None)
        if enter is None:
            return "optimal", d
        best = None
        for r, trow in enumerate(tableau):
            if trow[enter] <= 0:
                continue
            if best is not None:
                lhs = trow[-1] * tableau[best][enter]
                rhs = tableau[best][-1] * trow[enter]
                if lhs > rhs or (lhs == rhs and basis[r] > basis[best]):
                    continue
            best = r
        if best is None:
            return "unbounded", d
        d = bareiss_pivot(rows, best, enter, d)
        basis[best] = enter


def _referee_phase1(rows, rels, n):
    """The full tableau at a feasible basis without artificials, or None."""
    n_slack = sum(rel != EQ for rel in rels)
    n_cols = n + n_slack
    on_slack = [rel != EQ and (rel == LEQ) == (row[-1] >= 0)
                for row, rel in zip(rows, rels)]
    n_art = len(rows) - sum(on_slack)
    tableau, basis, obj = [], [], [0] * (n_cols + n_art + 1)
    slack_at, art_at = n, n_cols
    for row, rel, own in zip(rows, rels, on_slack):
        row = row[:n] + [0] * (n_slack + n_art) + row[n:]
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
    status, d = _referee_simplex(tableau, obj, basis, 1)
    assert status == "optimal"
    if obj[-1] != 0:
        return None
    keep = []
    for r in range(len(tableau)):
        if basis[r] >= n_cols:
            col = next((j for j in range(n_cols) if tableau[r][j]), None)
            if col is None:
                continue
            d = bareiss_pivot(tableau, r, col, d)
            basis[r] = col
        keep.append(r)
    return ([tableau[r][:n_cols] + tableau[r][-1:] for r in keep],
            [basis[r] for r in keep], d, n_cols)


def _referee_recover(var_map, y):
    return tuple(
        y[i] - y[k] if kind == "split" else k + y[i] if kind == "lo" else k - y[i]
        for kind, i, k in var_map
    )


def _referee(program):
    """(status, value, x) of the optimum and the feasibility witness, by the
    two-phase full-tableau simplex, phase 2 also for the witness."""
    rows, rels, n_std, var_map, crossing = _referee_standard(program)
    phase1 = None if crossing else _referee_phase1(rows, rels, n_std)
    if phase1 is None:
        return "infeasible", None, None, None
    tableau, basis, d, n_cols = phase1

    def phase2(objective):
        cost, shift = [F(0)] * n_std, F(0)
        for coeff, (kind, i, k) in zip(map(F, objective), var_map):
            cost[i] = coeff if kind == "hi" else -coeff
            if kind == "split":
                cost[k] = coeff
            else:
                shift += coeff * k
        scale = 1
        for q in cost:
            scale = scale * q.denominator // math.gcd(scale, q.denominator)
        c = [int(v * scale) for v in cost] + [0] * (n_cols + 1 - n_std)
        t, b = [list(row) for row in tableau], list(basis)
        obj = [v * d for v in c]
        for r, col in enumerate(b):
            obj = [o - c[col] * v for o, v in zip(obj, t[r])]
        status, dd = _referee_simplex(t, obj, b, d)
        if status != "optimal":
            return status, None, None
        y = [F(0)] * n_std
        for r, col in enumerate(b):
            if col < n_std:
                y[col] = F(t[r][-1], dd)
        return status, -F(-obj[-1], dd * scale) + shift, _referee_recover(var_map, y)

    status, value, x = phase2(program.objective)
    return status, value, x, phase2([0] * program.nvars)[2]


def _solved(program):
    sol = lp_optimize(program)
    feasible = lp_feasible(program)
    return (sol.status, sol.value, sol.x,
            feasible.certificate.witness if feasible.answer else None)


class TestFullTableauReferee:
    """lp_optimize and lp_feasible against the full-tableau simplex: the same
    status, value, optimal point and witness."""

    def test_fuzz_corpus_matches_referee(self):
        for k, program in enumerate(_fuzz_programs()):
            assert _solved(program) == _referee(program), f"program {k}"

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_programs_match_referee(self, data):
        program = data.draw(_programs())
        assert _solved(program) == _referee(program)


def _rational_exchange(rows, row, col):
    """Exchange on a tableau of nonbasic columns and the right-hand side: the
    entering column's place takes the leaving column, whose entries are
    1 / p in the pivot row and -a / p elsewhere."""
    p = rows[row][col]
    out = []
    for r, t in enumerate(rows):
        if r == row:
            new = [v / p for v in t]
            new[col] = 1 / p
        else:
            new = [v - t[col] * w / p for v, w in zip(t, rows[row])]
            new[col] = -t[col] / p
        out.append(new)
    return out


class TestCondensedExchange:
    """The full integer tableau restricted to its nonbasic columns, with the
    leaving column in the entering column's place, is d times the rational
    exchange, and ``lp._exchange`` on the condensed tableau keeps it so."""

    def test_restricted_full_tableau_matches_rational_exchange(self):
        rng = random.Random(67)
        seen = {"zero in the pivot column": 0, "p < 0": 0}
        for _ in range(150):
            m, k = rng.randint(2, 5), rng.randint(2, 5)
            # [A | I | b] starts on the identity basis with d = 1
            full = [
                [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(k)]
                + [int(r == i) for i in range(m)]
                + [rng.randint(-9, 9)]
                for r in range(m)
            ]
            nonbasic, basis, d = list(range(k)), [k + r for r in range(m)], 1
            rational = [[F(t[j]) for j in nonbasic] + [F(t[-1])] for t in full]
            condensed = [[t[j] for j in nonbasic] + [t[-1]] for t in full]
            for _ in range(5):
                choices = [(r, c) for r in range(m) for c in range(k)
                           if full[r][nonbasic[c]]]
                if not choices:
                    break
                r, c = rng.choice(choices)
                p = full[r][nonbasic[c]]
                seen["p < 0"] += p < 0
                seen["zero in the pivot column"] += any(
                    not t[nonbasic[c]] for t in full)
                rational = _rational_exchange(rational, r, c)
                new_d = lp._exchange(condensed, r, c, d)
                d = bareiss_pivot(full, r, nonbasic[c], d)
                basis[r], nonbasic[c] = nonbasic[c], basis[r]
                restricted = [[t[j] for j in nonbasic] + [t[-1]] for t in full]
                assert [[F(v, d) for v in t] for t in restricted] == rational
                assert (condensed, new_d) == (restricted, d)
        assert all(seen.values()), seen


def _oettli_prager_formula(center, radius, s, b_mid, b_rad):
    """(C - R D_s) x <= b_c + d and (-C - R D_s) x <= -b_c + d, row by row."""
    m, n = center.shape
    rows = []
    for i in range(m):
        c, r = center.rows[i], radius.rows[i]
        up = tuple(c[j] - r[j] * s[j] for j in range(n))
        down = tuple(-c[j] - r[j] * s[j] for j in range(n))
        rows.append(Constraint(up, LEQ, b_mid[i] + b_rad[i]))
        rows.append(Constraint(down, LEQ, -b_mid[i] + b_rad[i]))
    return rows


def _common_scale(*groups):
    """The least common multiple of the denominators of the interval
    endpoints in ``groups`` (interval matrices and vectors)."""
    ends = [
        q
        for g in groups
        for row in (g.entries if isinstance(g, IntervalMatrix) else [g.entries])
        for e in row
        for q in (e.lo, e.hi)
    ]
    return math.lcm(*(q.denominator for q in ends))


def _times(rows, scale):
    return [
        Constraint(tuple(scale * c for c in r.coeffs), r.relation, scale * r.rhs)
        for r in rows
    ]


def _all_ints(rows):
    return all(type(v) is int for r in rows for v in (*r.coeffs, r.rhs))


def _in_orthant(rows, s):
    """The split rows restricted to the halves that orthant s leaves free,
    x+_j where s_j = 1 and x-_j where s_j = -1, with column j times s_j:
    the rows in x on that orthant."""
    n = s.dim
    return [
        Constraint(
            tuple(e * r.coeffs[j if e > 0 else n + j] for j, e in enumerate(s)),
            r.relation,
            r.rhs,
        )
        for r in rows
    ]


class TestOettliPragerRows:
    """The endpoint rows are over the split variables (x+, x-); on every
    orthant, restricted to its free halves, they are L times what the
    defining formula computes, in ints; L is the least common multiple of
    the denominators of the endpoints."""

    CASES = [
        (m, n, seed, radius)
        for n in (2, 3)
        for m in (n, n + 1)
        for seed in range(3)
        for radius in (F(1, 4), F(3, 2))
    ]

    @pytest.mark.parametrize("m,n,seed,radius", CASES)
    def test_rows_match_formula(self, m, n, seed, radius):
        matrix = generate.gen_interval_matrix(m, n, seed, radius)
        rhs = generate.gen_rhs(m, seed, radius)
        center, rad = matrix.midpoint_radius()
        b_mid, b_rad = rhs.midpoint_radius()
        zero = tuple([F(0)] * m)
        scale, with_rhs = lp.endpoint_rows(matrix, rhs.lower(), rhs.upper())
        assert scale == _common_scale(matrix, rhs)
        bare_scale, without = lp.endpoint_rows(matrix)
        assert bare_scale == _common_scale(matrix)
        assert _all_ints(with_rhs) and _all_ints(without)
        assert {len(r.coeffs) for r in with_rhs + without} == {2 * n}
        for s in SignVector.all(n):
            assert _in_orthant(with_rhs, s) == _times(
                _oettli_prager_formula(center, rad, s, b_mid, b_rad), scale
            )
            assert _in_orthant(without, s) == _times(
                _oettli_prager_formula(center, rad, s, zero, zero), bare_scale
            )

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_systems_match_formula(self, data):
        """m, n <= 4, with a zero right-hand side, a box, and control's -d,
        which swaps b_lo and b_hi."""
        m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        matrix = data.draw(interval_matrices(m, n))
        rhs = data.draw(interval_vectors(m))
        center, rad = matrix.midpoint_radius()
        b_mid, b_rad = rhs.midpoint_radius()
        zero = tuple([F(0)] * m)
        minus_d = tuple(-v for v in b_rad)
        b_lo, b_hi = rhs.lower(), rhs.upper()
        for ends, (b_c, d) in (
            ((None, None), (zero, zero)),
            ((b_lo, b_hi), (b_mid, b_rad)),
            ((b_hi, b_lo), (b_mid, minus_d)),
        ):
            scale, rows = lp.endpoint_rows(matrix, *ends)
            assert scale == (_common_scale(matrix) if ends[0] is None
                             else _common_scale(matrix, rhs))
            assert _all_ints(rows)
            for s in SignVector.all(n):
                assert _in_orthant(rows, s) == _times(
                    _oettli_prager_formula(center, rad, s, b_c, d), scale
                )

    @pytest.mark.parametrize("nonneg", [False, True], ids=["strong", "nonneg-strong"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_strong_solvability_rows(self, monkeypatch, n, nonneg):
        """Strong solvability's rows on C^T, R^T and its b row, (b_lo, -b_hi)
        over (p+, p-), which is b_c - D_s d on each orthant, all times the L
        of the matrix and the right-hand side."""
        matrix = generate.gen_interval_matrix(n + 1, n, n, F(1, 2))
        rhs = generate.gen_rhs(n + 1, n, F(1, 2))
        sweeps = []
        monkeypatch.setattr(
            systems, "feasible_orthants",
            lambda signs, rows: sweeps.append((list(signs), rows)) or iter(()),
        )
        systems._strong_solvability(matrix, rhs, nonneg)
        (signs, rows), = sweeps
        assert signs == list(SignVector.all(n + 1))
        center, rad = matrix.midpoint_radius()
        b_mid, b_rad = rhs.midpoint_radius()
        zero = tuple([F(0)] * n)
        scale = _common_scale(matrix, rhs)
        assert _all_ints(rows)
        assert rows[-1] == Constraint(
            tuple(scale * v for v in rhs.lower()) + tuple(-scale * v for v in rhs.upper()),
            LEQ,
            -scale,
        )
        for s in signs:
            pairs = _oettli_prager_formula(
                center.transpose(), rad.transpose(), s, zero, zero
            )
            b_row = tuple(b_mid[i] - b_rad[i] * s[i] for i in range(n + 1))
            expected = (pairs[1::2] if nonneg else pairs) + [
                Constraint(b_row, LEQ, F(-1))
            ]
            assert _in_orthant(rows, s) == _times(expected, scale)


class TestOettliPragerMember:
    """The member builder against members recorded from the four builders it
    replaced, and its own checks on witnesses that solve nothing."""

    def test_kernel_member(self):
        a = IntervalMatrix(
            [[iv(F(6, 5), F(24, 5)), iv(F(3, 5), F(12, 5))],
             [iv(F(-3, 5), F(33, 5)), iv(F(-24, 5), F(-6, 5))]]
        )
        member, b = oettli_prager_member(
            a, (F(2, 3), F(-1, 3)), SignVector.of((1, -1))
        )
        assert member == RealMatrix([[F(6, 5), F(12, 5)], [F(-3, 5), F(-6, 5)]])
        assert b == (0, 0)

    def test_weak_member(self):
        a = IntervalMatrix([[iv(2, 3), iv(-1, 1)], [iv(0, 1), iv(1, 2)]])
        rhs = IntervalVector([iv(1, 2), iv(1, 3)])
        member, b = oettli_prager_member(a, (F(1), F(1)), SignVector.ones(2), rhs)
        assert member == RealMatrix([[F(9, 4), F(-1, 2)], [F(1, 2), F(3, 2)]])
        assert b == (F(7, 4), F(2))

    def test_strong_member_on_the_transpose(self):
        """A^T p = 0 for the Farkas vector p = (1, -2)."""
        a = IntervalMatrix([[iv(1, 2), iv(1, 2)], [iv(1, 2), iv(1, 2)]])
        member_t, _ = oettli_prager_member(
            a.transpose(), (F(1), F(-2)), SignVector.of((1, -1))
        )
        assert member_t.transpose() == RealMatrix([[2, 2], [1, 1]])

    def test_eigenvector_member(self):
        """A x = (3/2) x for x = (1, -1)."""
        a = IntervalMatrix([[iv(1, 2), iv(0, 1)], [iv(-1, 1), iv(2, 3)]])
        x = (F(1), F(-1))
        member, b = oettli_prager_member(
            a, x, SignVector.of((1, -1)), IntervalVector.degenerate([F(3, 2), F(-3, 2)])
        )
        assert member == RealMatrix([[F(7, 4), F(1, 4)], [F(2, 3), F(13, 6)]])
        assert b == (F(3, 2), F(-3, 2))

    @pytest.mark.parametrize(
        "matrix,x,rhs",
        [
            # |C x| > R |x|: the member leaves the matrix
            (
                IntervalMatrix.from_midpoint_radius(
                    RealMatrix.identity(2).scale(2), RealMatrix.ones(2, 2).scale(F(1, 4))
                ),
                (F(1), F(1)),
                None,
            ),
            # a point row with C x != 0: no member maps x to 0
            (IntervalMatrix.identity(2), (F(1), F(0)), None),
            # a point row with C x outside b: b leaves the box
            (IntervalMatrix.identity(1), (F(3),), IntervalVector([iv(0, 1)])),
        ],
        ids=["member-outside", "no-kernel", "rhs-outside"],
    )
    def test_tampered_witness_raises(self, matrix, x, rhs):
        with pytest.raises(AssertionError):
            oettli_prager_member(matrix, x, SignVector.ones(len(x)), rhs)

    def test_tampered_witness_raises_under_optimize(self):
        """The checks are explicit raises, so ``python -O`` keeps them."""
        code = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from intlinalg import IntervalMatrix, RealMatrix\n"
            "from intlinalg.lp import oettli_prager_member\n"
            "from intlinalg.matrices import SignVector\n"
            "assert False, 'asserts must be off'\n"
            "a = IntervalMatrix.from_midpoint_radius(\n"
            "    RealMatrix.identity(2).scale(2),\n"
            "    RealMatrix.ones(2, 2).scale(Fraction(1, 4)))\n"
            "try:\n"
            "    oettli_prager_member(a, (Fraction(1), Fraction(1)), SignVector.ones(2))\n"
            "except AssertionError:\n"
            "    print('raised')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised\n"


class TestUnderOptimize:
    """The checks in lp are explicit raises, so ``python -O`` keeps them."""

    def test_checks_raise_under_optimize(self):
        code = (
            "from fractions import Fraction\n"
            "from intlinalg import Constraint, LinearProgram, lp_feasible\n"
            "from intlinalg import lp\n"
            "assert False, 'asserts must be off'\n"
            "p = LinearProgram((Fraction(0),), (Constraint((1,), '<=', 1),),\n"
            "                  ((0, None),))\n"
            "real = lp._simplex_min\n"
            "lp._simplex_min = lambda *args: (lp.UNBOUNDED, 1)\n"
            "try:\n"
            "    lp_feasible(p)\n"
            "except AssertionError:\n"
            "    print('phase 1 raised')\n"
            "lp._simplex_min = real\n"
            "# x basic at 5, the slack of x <= 1 nonbasic: x = 5 breaks the row\n"
            "lp._phase1 = lambda rows, rels, n: ([[1, 5]], [0], 1, [1])\n"
            "try:\n"
            "    lp_feasible(p)\n"
            "except AssertionError:\n"
            "    print('witness raised')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "phase 1 raised\nwitness raised\n"

    def test_suite_passes_under_optimize(self):
        """Every test file runs again with asserts off."""
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        done = subprocess.run(
            [
                sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "tests/test_lp.py", "tests/test_orthant_sweeps.py",
                "tests/test_systems.py", "tests/test_regularity.py",
                "tests/test_matrices.py", "tests/test_spectral.py",
                "tests/test_generate.py", "tests/test_inverse.py",
                "tests/test_eigen.py", "tests/test_cli.py",
                "tests/test_core.py", "tests/test_oracles.py",
                "tests/test_acceptance.py", "tests/test_elimination.py",
                "tests/test_point_elimination.py",
                "-k", "not test_suite_passes_under_optimize",
            ],
            cwd=os.path.abspath(ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        assert " passed" in done.stdout and "failed" not in done.stdout

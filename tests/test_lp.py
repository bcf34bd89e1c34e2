"""Exact simplex: feasibility witnesses, optima, determinism."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from intlinalg import (
    Constraint,
    Interval,
    IntervalMatrix,
    IntervalVector,
    LinearProgram,
    lp_feasible,
    lp_optimize,
)
from intlinalg.errors import MalformedProgram
from intlinalg.lp import EQ, GEQ, LEQ, oettli_prager_member
from intlinalg.matrices import RealMatrix, SignVector

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


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

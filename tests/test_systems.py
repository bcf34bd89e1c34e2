"""Solution-set machinery: membership, hull, enclosures, solvability,
tolerance/control solutions."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import grid_sample
from intlinalg import (
    Interval,
    IntervalMatrix,
    IntervalVector,
    ParametricSystem,
    RealMatrix,
    SolveOptions,
    enclosure,
    hull_bidiagonal,
    hull_exact,
    ineq_solvability,
    is_solution,
    is_solution_parametric,
    lsq_enclosure,
    sample_members,
    solvability,
    solve_auto,
    tc_existence,
    tc_membership,
    vertex_system_hull,
)
from intlinalg.errors import (
    DiagonalContainsZero,
    NoInitialEnclosure,
    NotBidiagonal,
    PivotContainsZero,
    PreconditionNotVerifiable,
    UnboundedSolutionSet,
)
from intlinalg.generate import (
    bidiagonal_system,
    mmatrix_system,
    well_conditioned_system,
)
from intlinalg.matrices import SignVector
from intlinalg.systems import is_interval_m_matrix, monotone_hull, parametric_witness

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def F(a, b=1):
    return Fraction(a, b)


def iv(lo, hi):
    return Interval(F(lo), F(hi))


class TestIsSolution:
    def test_degenerate_solution(self):
        m = RealMatrix([[2, 1], [1, 2]])
        a = IntervalMatrix.degenerate(m)
        b = IntervalVector.degenerate([3, 3])
        x = m.solve((F(3), F(3)))
        assert is_solution(a, b, x)

    def test_zero_vector_rule(self):
        a = IntervalMatrix([[iv(1, 2)]])
        assert is_solution(a, IntervalVector([iv(-1, 1)]), [0])
        assert not is_solution(a, IntervalVector([iv(1, 2)]), [0])

    def test_sampled_member_solutions_accepted(self):
        a = IntervalMatrix(
            [[iv(3, 4), iv(0, 1)], [iv(-1, 0), iv(2, 3)]]
        )
        b = IntervalVector([iv(1, 2), iv(-2, -1)])
        for smp in sample_members(a, b, seed=5, count=100):
            assert is_solution(a, b, smp.matrix.solve(smp.rhs))


class TestHullExact:
    def test_one_dimensional(self):
        report = hull_exact(
            IntervalMatrix([[iv(2, 4)]]), IntervalVector([iv(2, 4)])
        )
        assert report.box == IntervalVector([Interval(F(1, 2), F(2))])
        assert report.exact

    def test_degenerate_point(self):
        m = RealMatrix([[2, 1], [1, 2]])
        report = hull_exact(
            IntervalMatrix.degenerate(m), IntervalVector.degenerate([3, 3])
        )
        assert report.box == IntervalVector.degenerate(m.solve((F(3), F(3))))

    def test_vertex_oracle_and_sampling_pincer(self):
        rng = random.Random(88)
        for seed in range(10):
            a, b = well_conditioned_system(2, seed)
            outer = hull_exact(a, b).box
            inner = vertex_system_hull(a, b)
            assert outer.contains_box(inner)
            for smp in sample_members(a, b, seed=seed, count=40):
                assert outer.contains_point(smp.matrix.solve(smp.rhs))

    def test_overdetermined_hull(self):
        a = IntervalMatrix(
            [
                [Interval.point(1), Interval.point(0)],
                [Interval.point(0), Interval.point(1)],
                [Interval.point(1), Interval.point(1)],
            ]
        )
        b = IntervalVector([iv(1, 2), iv(0, 1), iv(1, 3)])
        report = hull_exact(a, b)
        assert report.box == IntervalVector([iv(1, 2), iv(0, 1)])

    def test_membership_consistency_sampled_candidates(self):
        rng = random.Random(606)
        a, b = well_conditioned_system(2, 2048)
        hull = hull_exact(a, b).box
        probe = IntervalVector(
            [Interval(e.lo - 1, e.hi + 1) for e in hull.entries]
        )
        accepted = 0
        for _ in range(1000):
            x = tuple(grid_sample(rng, e) for e in probe.entries)
            if is_solution(a, b, x):
                accepted += 1
                assert hull.contains_point(x)
        assert accepted > 0

    def test_insolvable_detected(self):
        # rows force x = 1 and x = 3 simultaneously
        a = IntervalMatrix.degenerate(RealMatrix([[1], [1]]))
        b = IntervalVector.degenerate([1, 3])
        report = hull_exact(a, b)
        assert report.insolvability_detected
        assert report.box is None

    def test_unbounded_rejected(self):
        a = IntervalMatrix([[iv(-1, 1)]])
        with pytest.raises(UnboundedSolutionSet):
            hull_exact(a, IntervalVector([iv(1, 1)]))


class TestEnclosureMethods:
    METHODS = ("int-ge", "jacobi", "gauss-seidel", "krawczyk", "hbr")

    def test_degenerate_all_methods_exact_point(self):
        m = RealMatrix([[2, 1], [1, 2]])
        a = IntervalMatrix.degenerate(m)
        b = IntervalVector.degenerate([3, 3])
        x = IntervalVector.degenerate(m.solve((F(3), F(3))))
        for method in self.METHODS:
            report = enclosure(a, b, method)
            assert report.box == x, method

    def test_every_method_contains_hull(self):
        for seed in range(8):
            a, b = well_conditioned_system(2, seed + 100)
            hull = hull_exact(a, b).box
            for method in self.METHODS:
                report = enclosure(a, b, method)
                assert report.box.contains_box(hull), method

    def test_hbr_needs_contraction(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix.identity(2), RealMatrix.ones(2, 2)
        )
        with pytest.raises(PreconditionNotVerifiable):
            enclosure(a, IntervalVector.degenerate([1, 1]), "hbr")

    def test_intge_pivot_failure(self):
        a = IntervalMatrix([[iv(-1, 1)]])
        with pytest.raises(PivotContainsZero):
            enclosure(a, IntervalVector([iv(1, 1)]), "int-ge")

    def test_unpreconditioned_needs_start_box(self):
        a = IntervalMatrix([[iv(2, 4)]])
        b = IntervalVector([iv(2, 4)])
        with pytest.raises(NoInitialEnclosure):
            enclosure(a, b, "jacobi", SolveOptions(precondition=False))

    def test_supplied_start_box_is_used(self):
        a = IntervalMatrix([[iv(2, 4)]])
        b = IntervalVector([iv(2, 4)])
        start = IntervalVector([iv(-10, 10)])
        report = enclosure(
            a, b, "jacobi", SolveOptions(precondition=False, initial=start)
        )
        assert report.box.contains_box(
            IntervalVector([Interval(F(1, 2), F(2))])
        )

    def test_max_iter_guard_reports_nonconvergence(self):
        a, b = well_conditioned_system(2, 77)
        report = enclosure(a, b, "krawczyk", SolveOptions(max_iter=1))
        assert report.iterations == 1


class TestMMatrixGaussSeidel:
    def test_detection(self):
        a, _ = mmatrix_system(2, 0)
        assert is_interval_m_matrix(a)
        assert not is_interval_m_matrix(
            IntervalMatrix.degenerate(RealMatrix([[1, 2], [2, 1]]))
        )

    def test_limit_equals_hull(self):
        for seed in range(8):
            a, b = mmatrix_system(2 + seed % 2, seed)
            gs = enclosure(a, b, "gauss-seidel")
            assert gs.exact
            assert gs.box == hull_exact(a, b).box

    def test_monotone_hull_requires_inverse_positivity(self):
        a = IntervalMatrix.degenerate(RealMatrix([[1, 2], [2, 1]]))
        with pytest.raises(PreconditionNotVerifiable):
            monotone_hull(a, IntervalVector.degenerate([1, 1]))


class TestBidiagonal:
    def test_reference_instance(self):
        a = IntervalMatrix(
            [[iv(1, 2), Interval.point(0)], [iv(0, 1), Interval.point(1)]]
        )
        b = IntervalVector([Interval.point(1), Interval.point(0)])
        report = hull_bidiagonal(a, b)
        assert report.box == IntervalVector(
            [Interval(F(1, 2), F(1)), Interval(F(-1), F(0))]
        )
        assert report.exact

    def test_diagonal_case(self):
        a = IntervalMatrix(
            [[iv(1, 2), Interval.point(0)], [Interval.point(0), iv(2, 4)]]
        )
        b = IntervalVector([iv(2, 2), iv(4, 4)])
        report = hull_bidiagonal(a, b)
        assert report.method == "diagonal"
        assert report.box == IntervalVector(
            [Interval(F(1), F(2)), Interval(F(1), F(2))]
        )

    def test_upper_band(self):
        a = IntervalMatrix(
            [[Interval.point(1), iv(0, 1)], [Interval.point(0), iv(1, 2)]]
        )
        b = IntervalVector([Interval.point(1), Interval.point(2)])
        report = hull_bidiagonal(a, b)
        assert report.box == hull_exact(a, b).box

    def test_seeded_instances_match_hull(self):
        for seed in range(10):
            a, b = bidiagonal_system(2 + seed % 2, seed)
            assert hull_bidiagonal(a, b).box == hull_exact(a, b).box

    def test_rejections(self):
        tri = IntervalMatrix.degenerate(
            RealMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        )
        with pytest.raises(NotBidiagonal):
            hull_bidiagonal(tri, IntervalVector.degenerate([1, 1, 1]))
        zero_diag = IntervalMatrix(
            [[iv(-1, 1), Interval.point(0)], [Interval.point(0), iv(1, 2)]]
        )
        with pytest.raises(DiagonalContainsZero):
            hull_bidiagonal(zero_diag, IntervalVector.degenerate([1, 1]))


class TestLeastSquares:
    def test_square_degenerate_point(self):
        m = RealMatrix([[2, 1], [1, 2]])
        report = lsq_enclosure(
            IntervalMatrix.degenerate(m), IntervalVector.degenerate([3, 3])
        )
        assert report.box == IntervalVector.degenerate(m.solve((F(3), F(3))))
        assert not report.exact

    def test_overdetermined_contains_member_least_squares(self):
        a = IntervalMatrix(
            [
                [iv(1, 1), Interval.point(0)],
                [Interval.point(0), iv(1, 1)],
                [iv(F(-1, 8), F(1, 8)), iv(F(7, 8), F(9, 8))],
            ]
        )
        b = IntervalVector([iv(1, 1), iv(0, F(1, 4)), iv(0, F(1, 4))])
        report = lsq_enclosure(a, b)
        rng = random.Random(3)
        for _ in range(40):
            member = RealMatrix(
                [[grid_sample(rng, e) for e in row] for row in a.entries]
            )
            rhs = tuple(grid_sample(rng, e) for e in b.entries)
            gram = member.transpose() @ member
            x = gram.solve(member.transpose().matvec(rhs))
            assert report.box.contains_point(x)

    def test_square_interval_contains_hull(self):
        a, b = well_conditioned_system(2, 55)
        report = lsq_enclosure(a, b)
        assert report.box.contains_box(hull_exact(a, b).box)


class TestSolvability:
    def test_wide_entry_weak_but_not_strong(self):
        a = IntervalMatrix([[iv(-1, 1)]])
        b = IntervalVector([Interval.point(2)])
        weak = solvability(a, b, "weak")
        assert weak.answer
        member = weak.certificate.member
        rhs_member = weak.certificate.rhs_member
        assert member.matvec(weak.certificate.witness) == rhs_member
        strong = solvability(a, b, "strong")
        assert not strong.answer
        # the refuting member system must indeed be insolvable
        bad_a = strong.certificate.member
        bad_b = strong.certificate.rhs_member
        augmented = RealMatrix(
            [list(row) + [bad_b[i]] for i, row in enumerate(bad_a.rows)]
        )
        assert augmented.rank() > bad_a.rank()

    def test_strong_true_has_all_members_solvable(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix.identity(2), RealMatrix.ones(2, 2).scale(F(1, 8))
        )
        b = IntervalVector([iv(1, 2), iv(1, 2)])
        assert solvability(a, b, "strong").answer
        for smp in sample_members(a, b, seed=2, count=200):
            augmented = RealMatrix(
                [
                    list(row) + [smp.rhs[i]]
                    for i, row in enumerate(smp.matrix.rows)
                ]
            )
            assert augmented.rank() == smp.matrix.rank()

    def test_nonneg_weak(self):
        a = IntervalMatrix([[iv(1, 2)]])
        b = IntervalVector([iv(2, 3)])
        decision = solvability(a, b, "nonneg-weak")
        assert decision.answer
        assert decision.certificate.witness[0] >= 0
        b_neg = IntervalVector([iv(-3, -2)])
        assert not solvability(a, b_neg, "nonneg-weak").answer

    def test_nonneg_strong_refutation(self):
        a = IntervalMatrix([[iv(-1, 1)]])
        b = IntervalVector([iv(1, 1)])
        decision = solvability(a, b, "nonneg-strong")
        assert not decision.answer
        bad_a = decision.certificate.member
        p = decision.certificate.witness
        # Farkas: member admits A^T p >= 0 while b^T p < 0
        col = bad_a.transpose().matvec(p)
        assert all(v >= 0 for v in col)
        assert sum(
            (decision.certificate.rhs_member[i] * p[i] for i in range(1)),
            F(0),
        ) < 0

    def test_weak_iff_hull_not_insolvable(self):
        for seed in range(6):
            a, b = well_conditioned_system(2, seed + 300)
            assert solvability(a, b, "weak").answer == (
                not hull_exact(a, b).insolvability_detected
            )


class TestInequalitySolvability:
    def test_strong_with_universal_witness(self):
        a = IntervalMatrix([[iv(1, 2)]])
        b = IntervalVector([iv(3, 4)])
        decision = ineq_solvability(a, b, "strong")
        assert decision.answer
        x = decision.certificate.witness
        for y in SignVector.all(1):
            for z in SignVector.all(1):
                vals = a.vertex_matrix(y, z).matvec(x)
                assert vals[0] <= b[0].lo

    def test_nonneg_strong_infeasible(self):
        a = IntervalMatrix([[iv(-1, 1)]])
        b = IntervalVector([Interval.point(-1)])
        assert not ineq_solvability(a, b, "nonneg-strong").answer

    def test_weak_easier_than_strong(self):
        a = IntervalMatrix([[iv(-2, 2)]])
        b = IntervalVector([Interval.point(-1)])
        assert ineq_solvability(a, b, "weak").answer
        assert not ineq_solvability(a, b, "strong").answer

    def test_universal_witness_satisfies_sampled_members(self):
        a = IntervalMatrix(
            [[iv(1, 2), iv(0, 1)], [iv(-1, 0), iv(2, 3)]]
        )
        b = IntervalVector([iv(5, 6), iv(4, 5)])
        decision = ineq_solvability(a, b, "strong")
        assert decision.answer
        x = decision.certificate.witness
        for smp in sample_members(a, b, seed=8, count=200):
            lhs = smp.matrix.matvec(x)
            assert all(v <= r for v, r in zip(lhs, smp.rhs))


class TestToleranceControl:
    def test_degenerate_matrix_tolerance_equals_membership(self):
        m = RealMatrix([[2, 0], [0, 2]])
        a = IntervalMatrix.degenerate(m)
        b = IntervalVector([iv(1, 3), iv(1, 3)])
        x = (F(1), F(1))
        assert tc_membership(a, b, x, "tolerance") == is_solution(a, b, x)

    def test_zero_candidate(self):
        a = IntervalMatrix.identity(1)
        b = IntervalVector([iv(-1, 1)])
        assert tc_membership(a, b, [0], "tolerance")

    def test_equivalence_with_range_inclusion(self):
        rng = random.Random(31)
        checked = 0
        while checked < 300:
            a = IntervalMatrix(
                [
                    [
                        iv(rng.randint(-2, 0), rng.randint(0, 2))
                        for _ in range(2)
                    ]
                    for _ in range(2)
                ]
            )
            b = IntervalVector(
                [iv(rng.randint(-4, 0), rng.randint(0, 4)) for _ in range(2)]
            )
            x = tuple(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)
            )
            product = a.matvec_point(x)
            tol = tc_membership(a, b, x, "tolerance")
            ctl = tc_membership(a, b, x, "control")
            assert tol == b.contains_box(product)
            assert ctl == product.contains_box(b)
            checked += 1

    def test_tolerance_existence(self):
        a = IntervalMatrix.identity(1)
        b = IntervalVector([iv(-1, 1)])
        decision = tc_existence(a, b, "tolerance")
        assert decision.answer
        assert tc_membership(a, b, decision.certificate.witness, "tolerance")

    def test_control_existence(self):
        a = IntervalMatrix([[iv(0, 2)]])
        b = IntervalVector([Interval.point(1)])
        decision = tc_existence(a, b, "control")
        assert decision.answer
        assert tc_membership(a, b, decision.certificate.witness, "control")

    def test_control_nonexistence(self):
        a = IntervalMatrix.degenerate(RealMatrix([[1]]))
        b = IntervalVector([iv(-1, 1)])
        assert not tc_existence(a, b, "control").answer

    def test_witness_checks_raise_under_optimize(self):
        """The membership checks on both witnesses are explicit raises, so
        ``python -O`` keeps them."""
        code = (
            "from intlinalg import Interval, IntervalMatrix, IntervalVector, systems\n"
            "assert False, 'asserts must be off'\n"
            "systems.tc_membership = lambda *args: False\n"
            "for a, b, kind in (\n"
            "    (IntervalMatrix.identity(1), IntervalVector([Interval(-1, 1)]),\n"
            "     'tolerance'),\n"
            "    (IntervalMatrix([[Interval(0, 2)]]), IntervalVector([Interval(1, 1)]),\n"
            "     'control'),\n"
            "):\n"
            "    try:\n"
            "        systems.tc_existence(a, b, kind)\n"
            "    except AssertionError:\n"
            "        print(kind, 'raised')\n"
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
        assert done.stdout == "tolerance raised\ncontrol raised\n"


class TestParametric:
    def test_single_term_reduces_to_real_system(self):
        s = ParametricSystem(
            (RealMatrix([[2, 0], [0, 2]]),),
            ((F(2), F(4)),),
            IntervalVector([Interval.point(1)]),
        )
        assert is_solution_parametric(s, [1, 2])
        assert not is_solution_parametric(s, [1, 1])

    def test_dependency_rejects_relaxation_member(self):
        # A(p) = p1*I + p2*J, rhs fixed via a frozen third parameter
        terms = (
            RealMatrix([[1, 0], [0, 1]]),
            RealMatrix([[0, 1], [1, 0]]),
            RealMatrix.zeros(2, 2),
        )
        rhs = ((F(0), F(0)), (F(0), F(0)), (F(1), F(1)))
        box = IntervalVector(
            [iv(1, 2), iv(0, 1), Interval.point(1)]
        )
        system = ParametricSystem(terms, rhs, box)
        # independent-interval relaxation accepts x = (1, 1/2) ...
        relaxed = IntervalMatrix(
            [[iv(1, 2), iv(0, 1)], [iv(0, 1), iv(1, 2)]]
        )
        b = IntervalVector([Interval.point(1), Interval.point(1)])
        x = (F(1), F(1, 2))
        assert is_solution(relaxed, b, x)
        # ... but unequal coordinates force p1 = p2 = 1, where row 1 reads
        # 1 + 1/2 = 1: no consistent parameter vector exists
        assert not is_solution_parametric(system, x)

    def test_witness_reconstructs_system(self):
        terms = (
            RealMatrix([[1, 0], [0, 1]]),
            RealMatrix([[0, 1], [1, 0]]),
            RealMatrix.zeros(2, 2),
        )
        rhs = ((F(0), F(0)), (F(0), F(0)), (F(1), F(1)))
        box = IntervalVector([iv(1, 2), iv(0, 1), Interval.point(1)])
        system = ParametricSystem(terms, rhs, box)
        x = (F(0), F(1))
        p = parametric_witness(system, x)
        assert p is not None
        assert box.contains_point(p)
        combined = RealMatrix(
            [
                [
                    sum(
                        (p[k] * terms[k].rows[i][j] for k in range(3)),
                        F(0),
                    )
                    for j in range(2)
                ]
                for i in range(2)
            ]
        )
        target = tuple(
            sum((p[k] * rhs[k][i] for k in range(3)), F(0)) for i in range(2)
        )
        assert combined.matvec(x) == target


class TestAutoDispatch:
    def test_routes(self):
        a, b = bidiagonal_system(2, 4)
        assert solve_auto(a, b).method in ("bidiagonal", "diagonal")
        a, b = mmatrix_system(2, 4)
        assert solve_auto(a, b).method == "inverse-nonneg"
        a, b = well_conditioned_system(2, 4)
        report = solve_auto(a, b)
        assert report.method in ("hbr", "hull")
        assert report.box.contains_box(hull_exact(a, b).box)


def test_starting_box_check_raises_under_optimize():
    """The two starting boxes of ``_auto_initial`` must meet; the check is an
    explicit raise, so ``python -O`` keeps it."""
    code = (
        "from fractions import Fraction\n"
        "from intlinalg import IntervalMatrix, IntervalVector, RealMatrix, systems\n"
        "assert False, 'asserts must be off'\n"
        "a = IntervalMatrix.identity(1)\n"
        "b = IntervalVector.degenerate([1])\n"
        "p = RealMatrix([[0]])\n"
        "systems._contraction_bound = lambda *args: (\n"
        "    p, (Fraction(100),), (Fraction(0),), (Fraction(1),))\n"
        "try:\n"
        "    systems._auto_initial(a, b, RealMatrix.identity(1))\n"
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

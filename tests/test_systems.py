"""Solution-set machinery: membership, hull, enclosures, solvability,
tolerance/control solutions."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import (
    grid_sample,
    intervals,
    preconditioned_fractions,
    rationals,
    run_under_optimize,
)
from intlinalg import (
    Constraint,
    Interval,
    IntervalInverse,
    IntervalMatrix,
    IntervalVector,
    LinearProgram,
    ParametricSystem,
    RealMatrix,
    SolveOptions,
    enclosure,
    format_interval,
    hull_bidiagonal,
    hull_exact,
    ineq_solvability,
    inverse_enclosure,
    is_solution,
    is_solution_parametric,
    lp_feasible,
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
    PreconditionError,
    PreconditionNotVerifiable,
    SingularMatrix,
    UnboundedSolutionSet,
)
from intlinalg.generate import (
    bidiagonal_system,
    gen_interval_matrix,
    gen_rhs,
    mmatrix_system,
    well_conditioned_system,
)
from intlinalg.matrices import SignVector
from intlinalg.oracles import vertex_matvec_hull
from intlinalg.systems import (
    SolveReport,
    _sweep,
    is_interval_m_matrix,
    monotone_hull,
    parametric_witness,
)
from intlinalg.matrices import vec_abs, vec_add, vec_sub
from intlinalg.spectral import rho_less_than

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

    @pytest.mark.parametrize("method", ["jacobi", "gauss-seidel"])
    def test_pivot_messages(self, method):
        """Preconditioned, the error names the diagonal of C^-1 A (here
        p_11 > 1); with precondition=False, the diagonal of A itself."""
        start = IntervalVector.from_bounds([-4, -4], [4, 4])
        with pytest.raises(
            PivotContainsZero, match="^a preconditioned diagonal entry contains zero$"
        ):
            enclosure(
                gen_interval_matrix(2, 2, 2, 1),
                gen_rhs(2, 2, 1),
                method,
                SolveOptions(initial=start),
            )
        with pytest.raises(PivotContainsZero, match="^a diagonal entry contains zero$"):
            enclosure(
                IntervalMatrix([[iv(2, 3), iv(1, 1)], [iv(1, 1), iv(-1, 1)]]),
                IntervalVector([iv(1, 1), iv(0, 1)]),
                method,
                SolveOptions(precondition=False, initial=start),
            )

    def test_max_iter_guard_reports_nonconvergence(self):
        a, b = well_conditioned_system(2, 77)
        report = enclosure(a, b, "krawczyk", SolveOptions(max_iter=1))
        assert report.iterations == 1

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            SolveOptions(max_iter=max_iter)


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


def _negated(rhs):
    return IntervalVector([Interval(-e.hi, -e.lo) for e in rhs.entries])


def _centred(rhs):
    """The right-hand side moved to midpoint 0 and widened by 1/2, so every
    entry has both signs."""
    return IntervalVector(
        [Interval(e.lo - e.hi - F(1, 2), e.hi - e.lo + F(1, 2)) for e in rhs.entries]
    )


def _rhs_kinds(rhs):
    return {"generated": rhs, "negated": _negated(rhs), "centred": _centred(rhs)}


def _inverse_nonneg_matrices(n, count):
    """Non-M interval matrices with nonnegative endpoint inverses: each entry
    of B^-1, for an integer B > 0, widened by up to 1/16 of its size; draws
    that fail the precondition or are M-matrices are skipped."""
    rng = random.Random(f"inverse-nonneg-{n}")
    out = []
    while len(out) < count:
        b = RealMatrix([[rng.randint(1, 4) for _ in range(n)] for _ in range(n)])
        if b.det() == 0:
            continue
        matrix = IntervalMatrix(
            [
                [
                    Interval(v - abs(v) * F(k, 64), v + abs(v) * F(k, 64))
                    for v, k in zip(row, (rng.randint(0, 4) for _ in row))
                ]
                for row in b.inverse().rows
            ]
        )
        try:
            nonneg = all(
                end.inverse().is_nonnegative()
                for end in (matrix.lower(), matrix.upper())
            )
        except SingularMatrix:
            nonneg = False
        if nonneg and not is_interval_m_matrix(matrix):
            out.append(matrix)
    return out


def _monotone_cases(n, count):
    """(label, matrix, rhs): M-matrix systems and non-M inverse-nonnegative
    matrices, each with its generated, negated and centred right-hand side."""
    inputs = [(f"mmatrix-{s}", *mmatrix_system(n, s)) for s in range(count)]
    inputs += [
        (f"inverse-nonneg-{i}", a, gen_rhs(n, i, F(1, 2)))
        for i, a in enumerate(_inverse_nonneg_matrices(n, count))
    ]
    return [
        (f"{label}/{kind}", a, rhs)
        for label, a, b in inputs
        for kind, rhs in _rhs_kinds(b).items()
    ]


def _monotone_digest(n, seed):
    """SHA-256 of the monotone hulls of mmatrix_system(n, seed) with its
    generated, negated and centred right-hand sides, as interval text."""
    a, b = mmatrix_system(n, seed)
    text = "\n".join(
        "; ".join(format_interval(e) for e in monotone_hull(a, rhs).entries)
        for rhs in _rhs_kinds(b).values()
    )
    return hashlib.sha256(text.encode()).hexdigest()


# mmatrix_system(n, seed) for n = 6..8 and seed = 0..5, hulls by a sweep
# over all 2^n sign vectors
MONOTONE_DIGESTS = {
    (6, 0): "fb1c7928fa8d99598f95576d8ce0a5b93fab886aecd50fcdc2c96a98b7a74b67",
    (6, 1): "1509d2cc7a1895d7077dac6e8ccf4e676d69092b11948c30259861a0f86042be",
    (6, 2): "d4a5960a7f436e912a9cba724215cc8c063d78e7aacb7cd8dfd84637655189d6",
    (6, 3): "a1bd5f53facf2d943d78ce56ed23cb696888b10619ca7906994dbe50c20afe0d",
    (6, 4): "770424b6332c75f29ca1411d3a625187ff9f7d5223c2486a92d84d883dc8549d",
    (6, 5): "505c8148e6d7defd2dfee9b7aa27e629c572761faad5dd32f3efb16f544158e0",
    (7, 0): "2fe49dd8c20ba7e8612b7b2f7d254081155231844a334e59afa1d44fa01deb46",
    (7, 1): "6b1833b83735a7f4da660b71c987de3d3fa67b30e77af25c148c871bfa46e6a1",
    (7, 2): "834548e29db9a23f660ad8a6feb17822bf1c5426586e4785b4201d3faed49978",
    (7, 3): "c8680a190ff19e1b2db2eac5c22a956920d35350929734d6d90999337498aa26",
    (7, 4): "81206071ea9c2a788825ce5b7d466cf0a6f7eb3c9f213a6385fdeca2e6b9f5a8",
    (7, 5): "13964c713c946d8b3e710ad0255563abf3c51bfe4ea18c9169778c1d3a9eb4ce",
    (8, 0): "a5ce746906dd354ad858d5105f1b6d4bbb77682c66c47a317ae20e1a507bebfd",
    (8, 1): "e4c326836e4e4be35b72905038eacd331b4c638e32b0325bf0d2297f2787a885",
    (8, 2): "1b20a7705c2388aae28956dabb6cabc8abd6bd3ff00497360efd1af0761411cb",
    (8, 3): "360859e537e4479c5eda2b68fe6907e4ecc4445afaa160e879bdb8cf3256831f",
    (8, 4): "d4f3cfc275aa2f7aa4a69091a15a96f75ab9d9194f4f09f6dab9f18485aeb2be",
    (8, 5): "34d909daa965aa988bdea909e850802edc6a73d2df507719dda57dbe3aa9d450",
}


class TestMonotoneHull:
    """``monotone_hull`` against the vertex oracle (n <= 3) and the exact
    LP hull (n = 4), and pinned where neither reaches (n = 6..8)."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_equals_vertex_hull(self, n):
        for label, a, rhs in _monotone_cases(n, 6 if n < 3 else 3):
            assert monotone_hull(a, rhs) == vertex_system_hull(a, rhs), label

    def test_equals_exact_hull_at_four(self):
        for label, a, rhs in _monotone_cases(4, 3):
            assert monotone_hull(a, rhs) == hull_exact(a, rhs).box, label

    @pytest.mark.parametrize(
        "n, seed", sorted(MONOTONE_DIGESTS), ids=lambda v: str(v)
    )
    def test_pinned_digests(self, n, seed):
        assert _monotone_digest(n, seed) == MONOTONE_DIGESTS[n, seed]

    def test_at_most_2n_plus_2_solves(self, monkeypatch):
        """Sign accord solves a handful of members per bound, where a sweep
        over all sign vectors solves 2^(n+1)."""
        calls = []
        real = RealMatrix.solve

        def counted(member, b):
            calls.append(member)
            return real(member, b)

        monkeypatch.setattr(RealMatrix, "solve", counted)
        for n in range(6, 9):
            for seed in range(6):
                a, b = mmatrix_system(n, seed)
                for kind, rhs in _rhs_kinds(b).items():
                    calls.clear()
                    monotone_hull(a, rhs)
                    assert len(calls) <= 2 * n + 2, (n, seed, kind)

    def test_flip_budget_raises(self, monkeypatch):
        """A solve whose first coordinate changes sign on every call never
        agrees with the sign vector, so the 2^n flips run out."""
        real = RealMatrix.solve
        signs = itertools.cycle((1, -1))
        monkeypatch.setattr(
            RealMatrix, "solve", lambda m, b: (next(signs),) + real(m, b)[1:]
        )
        with pytest.raises(AssertionError, match="budget"):
            monotone_hull(*mmatrix_system(3, 0))


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
            # Oettli-Prager written out: r = C x - b_c and s = R |x|; the
            # shifted rhs, which need not hold 0, makes is_solution vary
            center, radius = a.midpoint_radius()
            s = [sum(radius[i, j] * abs(x[j]) for j in range(2)) for i in range(2)]
            for rhs in (b, IntervalVector([e.shift(3) for e in b])):
                b_mid, d = rhs.midpoint_radius()
                r = [
                    sum(center[i, j] * x[j] for j in range(2)) - b_mid[i]
                    for i in range(2)
                ]
                pairs = list(zip(r, s, d))
                assert is_solution(a, rhs, x) == all(
                    abs(ri) <= si + di for ri, si, di in pairs
                )
                assert tc_membership(a, rhs, x, "tolerance") == all(
                    abs(ri) <= di - si for ri, si, di in pairs
                )
                assert tc_membership(a, rhs, x, "control") == all(
                    abs(ri) <= si - di for ri, si, di in pairs
                )
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


def _textbook_lp(rows, nvars):
    """Feasibility of rows (coeffs, relation, rhs) over variables >= 0."""
    program = LinearProgram(
        tuple([F(0)] * nvars),
        tuple(Constraint(c, rel, b) for c, rel, b in rows),
        tuple([(F(0), None)] * nvars),
    )
    return lp_feasible(program).answer


def _textbook_answers(a, b):
    """The one-LP solvability problems, each written from its formula."""
    m, n = a.shape
    lower, upper = a.lower().rows, a.upper().rows
    b_lo, b_hi = b.lower(), b.upper()

    def split(u, lo):
        return tuple(u) + tuple(-v for v in lo)

    return {
        # some member and rhs with A x = b, x >= 0: lower x <= b_hi, upper x >= b_lo
        "nonneg-weak": _textbook_lp(
            [(lower[i], "<=", b_hi[i]) for i in range(m)]
            + [(upper[i], ">=", b_lo[i]) for i in range(m)],
            n,
        ),
        # x = x1 - x2 with every member below b_lo: upper x1 - lower x2 <= b_lo
        "ineq-strong": _textbook_lp(
            [(split(upper[i], lower[i]), "<=", b_lo[i]) for i in range(m)], 2 * n
        ),
        "ineq-nonneg-weak": _textbook_lp(
            [(lower[i], "<=", b_hi[i]) for i in range(m)], n
        ),
        "ineq-nonneg-strong": _textbook_lp(
            [(upper[i], "<=", b_lo[i]) for i in range(m)], n
        ),
        # every member maps x into [b_lo, b_hi]
        "tolerance": _textbook_lp(
            [(split(upper[i], lower[i]), "<=", b_hi[i]) for i in range(m)]
            + [(split([-v for v in lower[i]], [-v for v in upper[i]]), "<=", -b_lo[i])
               for i in range(m)],
            2 * n,
        ),
    }


# integer intervals [c - r, c + r]; narrow ones make the infeasible answers common
_INT_INTERVALS = st.builds(
    lambda c, r: Interval(F(c - r), F(c + r)), st.integers(-3, 3), st.integers(0, 2)
)


class TestOneLpReferee:
    """The nonnegative weak modes, the strong inequalities and tolerance
    against LPs written here from the textbook formulas; every witness is
    checked on the vertex hull of A x, which is the exact range over members."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_answers_and_witnesses(self, data):
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 3))
        row = st.lists(_INT_INTERVALS, min_size=n, max_size=n)
        a = IntervalMatrix(data.draw(st.lists(row, min_size=m, max_size=m)))
        b = IntervalVector(data.draw(st.lists(_INT_INTERVALS, min_size=m, max_size=m)))
        decisions = {
            "nonneg-weak": solvability(a, b, "nonneg-weak"),
            "ineq-strong": ineq_solvability(a, b, "strong"),
            "ineq-nonneg-weak": ineq_solvability(a, b, "nonneg-weak"),
            "ineq-nonneg-strong": ineq_solvability(a, b, "nonneg-strong"),
            "tolerance": tc_existence(a, b, "tolerance"),
        }
        expected = _textbook_answers(a, b)
        for name, decision in decisions.items():
            assert decision.answer == expected[name], name
            if not decision.answer:
                continue
            x = decision.certificate.witness
            hull = vertex_matvec_hull(a, x)
            if name != "ineq-strong" and name != "tolerance":
                assert all(v >= 0 for v in x), name
            for h, e in zip(hull.entries, b.entries):
                if name == "nonneg-weak":
                    assert h.lo <= e.hi and e.lo <= h.hi
                elif name == "ineq-nonneg-weak":
                    assert h.lo <= e.hi
                elif name == "tolerance":
                    assert e.lo <= h.lo and h.hi <= e.hi
                else:
                    assert h.hi <= e.lo, name


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

    def test_inverse_nonneg_route_inverts_each_endpoint_once(self, monkeypatch):
        calls = []
        real = RealMatrix._has_nonnegative_inverse

        def counted(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(RealMatrix, "_has_nonnegative_inverse", counted)
        assert solve_auto(*mmatrix_system(3, 0)).method == "inverse-nonneg"
        assert len(calls) == 2


def test_starting_box_check_raises_under_optimize():
    """The two starting boxes of ``_auto_initial`` must meet; the check is an
    explicit raise, so ``python -O`` keeps it."""
    code = (
        "from fractions import Fraction\n"
        "from intlinalg import systems\n"
        "try:\n"
        "    systems._auto_initial([[0]], [100], [0], 1, (Fraction(1),))\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    assert run_under_optimize(code) == "raised\n"


def test_mmatrix_fixpoint_check_raises_under_optimize():
    """The M-matrix Gauss-Seidel route checks that the exact hull is a
    fixpoint of the sweep with an explicit raise, which ``python -O`` keeps."""
    code = (
        "from intlinalg import systems\n"
        "from intlinalg.generate import mmatrix_system\n"
        "systems._sweep = lambda *args: None\n"
        "try:\n"
        "    systems.enclosure(*mmatrix_system(2, 0), 'gauss-seidel')\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    assert run_under_optimize(code) == "raised\n"


def test_sign_accord_budget_raises_under_optimize():
    """The flip budget of ``monotone_hull`` is an explicit raise, which
    ``python -O`` keeps."""
    code = (
        "from intlinalg import RealMatrix\n"
        "from intlinalg.generate import mmatrix_system\n"
        "from intlinalg.systems import monotone_hull\n"
        "import itertools\n"
        "real = RealMatrix.solve\n"
        "signs = itertools.cycle((1, -1))\n"
        "RealMatrix.solve = lambda m, b: (next(signs),) + real(m, b)[1:]\n"
        "try:\n"
        "    monotone_hull(*mmatrix_system(3, 0))\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    assert run_under_optimize(code) == "raised\n"


ITERATIVE = ("jacobi", "gauss-seidel", "krawczyk")
ROUTES = (
    ("int-ge", "jacobi", "gauss-seidel", "krawczyk", "hbr", "auto")
    + tuple(
        f"{m}:{v}"
        for m in ITERATIVE
        for v in ("unpreconditioned", "preconditioned", "max_iter=3")
    )
    + ("jacobi:far", "gauss-seidel:far")
)


def _system(family, n):
    if family == "well":
        return well_conditioned_system(n, 0)
    if family == "mmatrix":
        return mmatrix_system(n, 0)
    return gen_interval_matrix(n, n, 0, F(1, 2)), gen_rhs(n, 0, F(1, 2))


def _route(name, a, b):
    """Run one enclosure route; a start box is capped at 15 iterations, as
    unpreconditioned endpoints grow by thousands of bits over long runs."""
    if name == "auto":
        return solve_auto(a, b)
    method, _, variant = name.partition(":")
    n = a.n
    start = IntervalVector.from_bounds([-4] * n, [4] * n)
    far = IntervalVector.from_bounds([50] * n, [51] * n)
    opts = {
        "": SolveOptions(),
        "unpreconditioned": SolveOptions(precondition=False, initial=start, max_iter=15),
        "start": SolveOptions(initial=start, max_iter=15),
        "preconditioned": SolveOptions(precondition=True, initial=start, max_iter=15),
        "max_iter=3": SolveOptions(max_iter=3),
        "far": SolveOptions(precondition=True, initial=far, max_iter=15),
    }[variant]
    return enclosure(a, b, method, opts)


def _box_text(entries) -> str:
    """Intervals as format_interval text, or its SHA-256 when that runs long."""
    text = "[" + "; ".join(format_interval(e) for e in entries) + "]"
    if len(text) > 160:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return text


def _outcome(call) -> str:
    try:
        result = call()
    except PreconditionError as exc:
        return type(exc).__name__
    if isinstance(result, IntervalInverse):
        entries = [e for row in result.matrix.entries for e in row]
        return f"{result.method} {_box_text(entries)}"
    flags = "".join(
        flag
        for flag, on in (
            (" exact", result.exact),
            (" insolvable", result.insolvability_detected),
            (" unconverged", not result.converged),
        )
        if on
    )
    box = "" if result.box is None else " " + _box_text(result.box.entries)
    return f"{result.method} it={result.iterations}{flags}{box}"


def _outcomes(key):
    """Every pinned outcome of one table row, keyed by route."""
    kind, _, size = key.rpartition("-")
    n = int(size)
    if kind == "lsq":
        a = gen_interval_matrix(n + 1, n, 0, F(1, 32))
        b = gen_rhs(n + 1, 0, F(1, 8))
        return {
            m: _outcome(lambda: lsq_enclosure(a, b, m))
            for m in ("krawczyk", "gauss-seidel")
        }
    if kind == "wide":
        a, b = gen_interval_matrix(n, n, 2, 1), gen_rhs(n, 2, 1)
        return {
            name: _outcome(lambda: _route(name, a, b))
            for name in ("jacobi:start", "gauss-seidel:start")
        }
    a, b = _system("well" if kind == "inverse" else kind, n)
    if kind == "inverse":
        return {
            m: _outcome(lambda: inverse_enclosure(a, m))
            for m in ("krawczyk", "gauss-seidel")
        }
    return {name: _outcome(lambda: _route(name, a, b)) for name in ROUTES}


ENCLOSURE_TABLE = {
    "general-1": {
        "int-ge": "int-ge it=0 [26011/51159:2635/3143]",
        "jacobi": "jacobi it=2 [26011/51159:2635/3143]",
        "gauss-seidel": "gauss-seidel it=1 exact [26011/51159:2635/3143]",
        "krawczyk": "krawczyk it=1 [4667/9429:2635/3143]",
        "hbr": "hbr it=0 [26011/51159:2635/3143]",
        "auto": "diagonal it=0 exact [26011/51159:2635/3143]",
        "jacobi:unpreconditioned": "jacobi it=2 [26011/51159:2635/3143]",
        "jacobi:preconditioned": "jacobi it=2 [26011/51159:2635/3143]",
        "jacobi:max_iter=3": "jacobi it=2 [26011/51159:2635/3143]",
        "gauss-seidel:unpreconditioned": (
            "gauss-seidel it=1 exact [26011/51159:2635/3143]"
        ),
        "gauss-seidel:preconditioned": "gauss-seidel it=2 [26011/51159:2635/3143]",
        "gauss-seidel:max_iter=3": "gauss-seidel it=1 exact [26011/51159:2635/3143]",
        "krawczyk:unpreconditioned": "krawczyk it=1 [-4:4]",
        "krawczyk:preconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:b87bd2968e860f572d3fe9b78481555e8ed767ed704faf9b4a6b1754ef5f5de2"
        ),
        "krawczyk:max_iter=3": "krawczyk it=1 [4667/9429:2635/3143]",
        "jacobi:far": "jacobi it=1 insolvable",
        "gauss-seidel:far": "gauss-seidel it=1 insolvable",
    },
    "general-2": {
        "int-ge": (
            "int-ge it=0"
            " [-91709838195/18918968992:-191926961073791/221673559679264;"
            " 67592919438837/73595557119928:14488225167/4729742248]"
        ),
        "jacobi": (
            "jacobi it=2"
            " [-91709838195/18918968992:-191926961073791/221673559679264;"
            " 18403220819757/141592942323448:14488225167/4729742248]"
        ),
        "gauss-seidel": (
            "gauss-seidel it=2"
            " [-91709838195/18918968992:-191926961073791/221673559679264;"
            " 18403220819757/141592942323448:14488225167/4729742248]"
        ),
        "krawczyk": (
            "krawczyk it=1 [-91709838195/18918968992:16033962227/18918968992;"
            " -298998423/4729742248:14488225167/4729742248]"
        ),
        "hbr": (
            "hbr it=0"
            " [-91709838195/18918968992:-191926961073791/221673559679264;"
            " 18403220819757/141592942323448:14488225167/4729742248]"
        ),
        "auto": (
            "hbr it=0"
            " [-91709838195/18918968992:-191926961073791/221673559679264;"
            " 18403220819757/141592942323448:14488225167/4729742248]"
        ),
        "jacobi:unpreconditioned": "PivotContainsZero",
        "jacobi:preconditioned": (
            "jacobi it=3 [-4:-46116243373/51646380072;"
            " 138241/419114:1041407/367318]"
        ),
        "jacobi:max_iter=3": (
            "jacobi it=2"
            " [-91709838195/18918968992:-191926961073791/221673559679264;"
            " 18403220819757/141592942323448:14488225167/4729742248]"
        ),
        "gauss-seidel:unpreconditioned": "PivotContainsZero",
        "gauss-seidel:preconditioned": (
            "gauss-seidel it=3 [-4:-46116243373/51646380072;"
            " 138241/419114:1041407/367318]"
        ),
        "gauss-seidel:max_iter=3": (
            "gauss-seidel it=2"
            " [-91709838195/18918968992:-191926961073791/221673559679264;"
            " 18403220819757/141592942323448:14488225167/4729742248]"
        ),
        "krawczyk:unpreconditioned": "krawczyk it=1 [-4:4; -4:4]",
        "krawczyk:preconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:ba50f61c926132347f95835faa2b7a4e05fea0b15293a04fe424e6f1972c57ce"
        ),
        "krawczyk:max_iter=3": (
            "krawczyk it=1 [-91709838195/18918968992:16033962227/18918968992;"
            " -298998423/4729742248:14488225167/4729742248]"
        ),
        "jacobi:far": "jacobi it=1 insolvable",
        "gauss-seidel:far": "gauss-seidel it=1 insolvable",
    },
    "general-3": {
        "int-ge": "PivotContainsZero",
        "jacobi": "NoInitialEnclosure",
        "gauss-seidel": "NoInitialEnclosure",
        "krawczyk": "NoInitialEnclosure",
        "hbr": "PreconditionNotVerifiable",
        "auto": "UnboundedSolutionSet",
        "jacobi:unpreconditioned": "jacobi it=1 [-4:4; -4:4; -4:4]",
        "jacobi:preconditioned": (
            "jacobi it=3 [-363309/238087:363309/238087;"
            " -4:34478141471/35326634799; -4:4]"
        ),
        "jacobi:max_iter=3": "NoInitialEnclosure",
        "gauss-seidel:unpreconditioned": "gauss-seidel it=1 [-4:4; -4:4; -4:4]",
        "gauss-seidel:preconditioned": (
            "gauss-seidel it=2 [-363309/238087:363309/238087;"
            " -4:34478141471/35326634799; -4:4]"
        ),
        "gauss-seidel:max_iter=3": "NoInitialEnclosure",
        "krawczyk:unpreconditioned": "krawczyk it=1 [-4:4; -4:4; -4:4]",
        "krawczyk:preconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:cf9abd54ad49bbfafd14134d980030cc24f9c7494c002013d868b7c3e52bf542"
        ),
        "krawczyk:max_iter=3": "NoInitialEnclosure",
        "jacobi:far": "jacobi it=1 insolvable",
        "gauss-seidel:far": "gauss-seidel it=1 insolvable",
    },
    "general-4": {
        "int-ge": "PivotContainsZero",
        "jacobi": "NoInitialEnclosure",
        "gauss-seidel": "NoInitialEnclosure",
        "krawczyk": "NoInitialEnclosure",
        "hbr": "PreconditionNotVerifiable",
        "auto": "UnboundedSolutionSet",
        "jacobi:unpreconditioned": "PivotContainsZero",
        "jacobi:preconditioned": "PivotContainsZero",
        "jacobi:max_iter=3": "NoInitialEnclosure",
        "gauss-seidel:unpreconditioned": "PivotContainsZero",
        "gauss-seidel:preconditioned": "PivotContainsZero",
        "gauss-seidel:max_iter=3": "NoInitialEnclosure",
        "krawczyk:unpreconditioned": "krawczyk it=1 [-4:4; -4:4; -4:4; -4:4]",
        "krawczyk:preconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:75ac6732ed4dec883c65d915113ae4d5289136f44d024f682aff39f8d98d89b7"
        ),
        "krawczyk:max_iter=3": "NoInitialEnclosure",
        "jacobi:far": "PivotContainsZero",
        "gauss-seidel:far": "PivotContainsZero",
    },
    "inverse-1": {
        "krawczyk": "krawczyk [4657064/10547613:524288/1171957]",
        "gauss-seidel": "gauss-seidel [524288/1187339:524288/1171957]",
    },
    "inverse-2": {
        "krawczyk": (
            "krawczyk"
            " sha256:df6e427f610d18db7e8e4135abd7079f9ffdd9049f25d70cbbf1072830c3a34e"
        ),
        "gauss-seidel": (
            "gauss-seidel"
            " sha256:6172f1249d21b237cbb8e3f5a89953248c38325e14b9f2d76bf6fedcb254e4c8"
        ),
    },
    "inverse-3": {
        "krawczyk": (
            "krawczyk"
            " sha256:fd331ee8bdbb03ceb1119d81b292cbbcbb84133a75fb72bc1e00cc7e19a4f359"
        ),
        "gauss-seidel": (
            "gauss-seidel"
            " sha256:89731c4e963c287535cebe237fe1cc1370043595145475f7e42a506393bc6a16"
        ),
    },
    "lsq-1": {
        "krawczyk": (
            "lsq-krawczyk it=1"
            " [-54140913894048/61068580610869:-2997473195369612449064692512/3777209176561815288510220537]"
        ),
        "gauss-seidel": (
            "lsq-gauss-seidel it=1"
            " [-54140913894048/61068580610869:-49778201248416/62635266401077]"
        ),
    },
    "lsq-2": {
        "krawczyk": (
            "lsq-krawczyk it=1"
            " sha256:90b1152f5bfbf1d0ac0af23f0d9b294d6d4f591608364560bf566a5d71a9470b"
        ),
        "gauss-seidel": (
            "lsq-gauss-seidel it=1"
            " sha256:11e17622aa696db2b8f2ea110ac4982cc98fe3ad801d1af1790a9c45e5361942"
        ),
    },
    "lsq-3": {
        "krawczyk": (
            "lsq-krawczyk it=1"
            " sha256:3edd9c2f6d58ba0fa1f2cf6c7449cd9fc514f27da965e3cfc2cb69f2671f1153"
        ),
        "gauss-seidel": (
            "lsq-gauss-seidel it=2"
            " sha256:c46ae3eabfe2bc0c032c37229998ee039a128ffd92084a5ebbbd648714d8585c"
        ),
    },
    "mmatrix-1": {
        "int-ge": "int-ge it=0 [104044/122549:23715/16384]",
        "jacobi": "jacobi it=2 [104044/122549:23715/16384]",
        "gauss-seidel": "gauss-seidel it=1 exact [104044/122549:23715/16384]",
        "krawczyk": "krawczyk it=1 [9280123971/11392237568:23715/16384]",
        "hbr": "hbr it=0 [104044/122549:23715/16384]",
        "auto": "diagonal it=0 exact [104044/122549:23715/16384]",
        "jacobi:unpreconditioned": "jacobi it=2 [104044/122549:23715/16384]",
        "jacobi:preconditioned": "jacobi it=2 [104044/122549:23715/16384]",
        "jacobi:max_iter=3": "jacobi it=2 [104044/122549:23715/16384]",
        "gauss-seidel:unpreconditioned": (
            "gauss-seidel it=1 exact [104044/122549:23715/16384]"
        ),
        "gauss-seidel:preconditioned": "gauss-seidel it=2 [104044/122549:23715/16384]",
        "gauss-seidel:max_iter=3": (
            "gauss-seidel it=1 exact [104044/122549:23715/16384]"
        ),
        "krawczyk:unpreconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:ffb87dcd2160bef12364a5cf7adee478ca823e6fa39430aa037e1975f044bc89"
        ),
        "krawczyk:preconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:7719ad6deed70fd733eaade49b77729c0a497f157376d7fe8cbb4b7fc757f629"
        ),
        "krawczyk:max_iter=3": "krawczyk it=1 [9280123971/11392237568:23715/16384]",
        "jacobi:far": "jacobi it=1 insolvable",
        "gauss-seidel:far": "gauss-seidel it=1 insolvable",
    },
    "mmatrix-2": {
        "int-ge": (
            "int-ge it=0 [192747774897/95234417516:404867481/125739008;"
            " 28928050272/23808604379:3064457619/1383129088]"
        ),
        "jacobi": (
            "jacobi it=2"
            " [2809737198616367241/1442021801139765248:404867481/125739008;"
            " 2078634875982768259/1838474434458876928:3064457619/1383129088]"
        ),
        "gauss-seidel": (
            "gauss-seidel it=1 exact"
            " [192747774897/95234417516:404867481/125739008;"
            " 28928050272/23808604379:3064457619/1383129088]"
        ),
        "krawczyk": (
            "krawczyk it=1"
            " [4842007865382423897/2642587137990025216:404867481/125739008;"
            " 943330703112404912013/901122214054598598656:3064457619/1383129088]"
        ),
        "hbr": (
            "hbr it=0"
            " [2809737198616367241/1442021801139765248:404867481/125739008;"
            " 2078634875982768259/1838474434458876928:3064457619/1383129088]"
        ),
        "auto": (
            "inverse-nonneg it=0 exact"
            " [192747774897/95234417516:404867481/125739008;"
            " 28928050272/23808604379:3064457619/1383129088]"
        ),
        "jacobi:unpreconditioned": (
            "jacobi it=15 unconverged"
            " sha256:71ee3c83d0f3cce15a2a515aa7d0bed189933c75fc8297fcdfe9b67a46332e1a"
        ),
        "jacobi:preconditioned": (
            "jacobi it=15 unconverged"
            " sha256:4d41e9be54ddc24b2c22abbf0ff692b9caf754eef90cf9cd19010de8fac2c3ee"
        ),
        "jacobi:max_iter=3": (
            "jacobi it=2"
            " [2809737198616367241/1442021801139765248:404867481/125739008;"
            " 2078634875982768259/1838474434458876928:3064457619/1383129088]"
        ),
        "gauss-seidel:unpreconditioned": (
            "gauss-seidel it=1 exact"
            " [192747774897/95234417516:404867481/125739008;"
            " 28928050272/23808604379:3064457619/1383129088]"
        ),
        "gauss-seidel:preconditioned": (
            "gauss-seidel it=15 unconverged"
            " sha256:8316c02b8cef96075037604ab57639442f56f878509b9f3af2fbcb243582a51e"
        ),
        "gauss-seidel:max_iter=3": (
            "gauss-seidel it=1 exact"
            " [192747774897/95234417516:404867481/125739008;"
            " 28928050272/23808604379:3064457619/1383129088]"
        ),
        "krawczyk:unpreconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:c45f69ead8f917be3ee42eccae9d8a900d83d4b81d32f0d914cdb5d88e048e67"
        ),
        "krawczyk:preconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:445b9b99ac92cfdee3335b72ede3077ec166751795950912626ded55009e9d79"
        ),
        "krawczyk:max_iter=3": (
            "krawczyk it=1"
            " [4842007865382423897/2642587137990025216:404867481/125739008;"
            " 943330703112404912013/901122214054598598656:3064457619/1383129088]"
        ),
        "jacobi:far": "jacobi it=1 insolvable",
        "gauss-seidel:far": "gauss-seidel it=1 insolvable",
    },
    "mmatrix-3": {
        "int-ge": (
            "int-ge it=0"
            " sha256:43474b5c9194a2e97b9f1c6d5b817a7a4d3f25f0ed9d51c7267a0afcfceb85d7"
        ),
        "jacobi": (
            "jacobi it=2"
            " sha256:97bd63f0e28c947795a555279bb75f6d2e33090d6d1aac2e63d593a7fcb8d80e"
        ),
        "gauss-seidel": (
            "gauss-seidel it=1 exact"
            " sha256:c542f52c20acbda30dc89dfb15f7da103257e5880275eaf9e395f0a5811654f3"
        ),
        "krawczyk": (
            "krawczyk it=1"
            " sha256:9422c1b27e649622774181c4e655d3d2785a7de8e90daf19e398f0155d12527e"
        ),
        "hbr": (
            "hbr it=0"
            " sha256:97bd63f0e28c947795a555279bb75f6d2e33090d6d1aac2e63d593a7fcb8d80e"
        ),
        "auto": (
            "inverse-nonneg it=0 exact"
            " sha256:c542f52c20acbda30dc89dfb15f7da103257e5880275eaf9e395f0a5811654f3"
        ),
        "jacobi:unpreconditioned": (
            "jacobi it=15 unconverged"
            " sha256:59e765c48b12b05a7f019ee5cbf79b011a213212f00cf3e5714eb0e6a2481a70"
        ),
        "jacobi:preconditioned": (
            "jacobi it=15 unconverged"
            " sha256:ecb95d2a0b070009c93f16908e5a1f574aa72312a87de9523ec688517cb64699"
        ),
        "jacobi:max_iter=3": (
            "jacobi it=2"
            " sha256:97bd63f0e28c947795a555279bb75f6d2e33090d6d1aac2e63d593a7fcb8d80e"
        ),
        "gauss-seidel:unpreconditioned": (
            "gauss-seidel it=1 exact"
            " sha256:c542f52c20acbda30dc89dfb15f7da103257e5880275eaf9e395f0a5811654f3"
        ),
        "gauss-seidel:preconditioned": (
            "gauss-seidel it=15 unconverged"
            " sha256:53ac3ad3f15ac39c208c702f23f5e6bc491948946f3d1baf70f6f29f02363847"
        ),
        "gauss-seidel:max_iter=3": (
            "gauss-seidel it=1 exact"
            " sha256:c542f52c20acbda30dc89dfb15f7da103257e5880275eaf9e395f0a5811654f3"
        ),
        "krawczyk:unpreconditioned": "krawczyk it=1 [-4:4; -4:4; -4:4]",
        "krawczyk:preconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:adb4d4a3bff9036a64ff3d244365bbab33f126d888c24f1c81dc0bb95d05bc7b"
        ),
        "krawczyk:max_iter=3": (
            "krawczyk it=1"
            " sha256:9422c1b27e649622774181c4e655d3d2785a7de8e90daf19e398f0155d12527e"
        ),
        "jacobi:far": "jacobi it=1 insolvable",
        "gauss-seidel:far": "gauss-seidel it=1 insolvable",
    },
    "mmatrix-4": {
        "int-ge": (
            "int-ge it=0"
            " sha256:5ea44f722f88cd1309bd7453f4858e4f4b1bdb073973f83b3dd92db5dcd493c8"
        ),
        "jacobi": (
            "jacobi it=2"
            " sha256:4effe03ad62bffef64d6425aeee394c92e4fc5227c0488ec649850e669b1e101"
        ),
        "gauss-seidel": (
            "gauss-seidel it=1 exact"
            " sha256:c36c05b82b2761fc74ce62201c7132e9c4733dd0d750ea586bd852b83b0f5a8c"
        ),
        "krawczyk": (
            "krawczyk it=1"
            " sha256:f4990d5fb30a465d132dc677c3e4510cf968b3c4e325ee0a33623220fccf352a"
        ),
        "hbr": (
            "hbr it=0"
            " sha256:4effe03ad62bffef64d6425aeee394c92e4fc5227c0488ec649850e669b1e101"
        ),
        "auto": (
            "inverse-nonneg it=0 exact"
            " sha256:c36c05b82b2761fc74ce62201c7132e9c4733dd0d750ea586bd852b83b0f5a8c"
        ),
        "jacobi:unpreconditioned": (
            "jacobi it=15 unconverged"
            " sha256:30b1ef2f8f06aee441244e1c4fef1d362d7159f104fd5377ce2c1a6094705a92"
        ),
        "jacobi:preconditioned": (
            "jacobi it=15 unconverged"
            " sha256:ade381894d900c9771e9f44cb78d929a7bc1f86dc30285e6784fc621ef140313"
        ),
        "jacobi:max_iter=3": (
            "jacobi it=2"
            " sha256:4effe03ad62bffef64d6425aeee394c92e4fc5227c0488ec649850e669b1e101"
        ),
        "gauss-seidel:unpreconditioned": (
            "gauss-seidel it=1 exact"
            " sha256:c36c05b82b2761fc74ce62201c7132e9c4733dd0d750ea586bd852b83b0f5a8c"
        ),
        "gauss-seidel:preconditioned": (
            "gauss-seidel it=15 unconverged"
            " sha256:23785439efb6c79769ca28e004ce9a70478933beb74409e5682f8f1f469a7a5a"
        ),
        "gauss-seidel:max_iter=3": (
            "gauss-seidel it=1 exact"
            " sha256:c36c05b82b2761fc74ce62201c7132e9c4733dd0d750ea586bd852b83b0f5a8c"
        ),
        "krawczyk:unpreconditioned": "krawczyk it=1 [-4:4; -4:4; -4:4; -4:4]",
        "krawczyk:preconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:44525a8c55f8cf3f315c5f9d41d539caa16f77a39d8fce0d0dc9b751798ca501"
        ),
        "krawczyk:max_iter=3": (
            "krawczyk it=1"
            " sha256:f4990d5fb30a465d132dc677c3e4510cf968b3c4e325ee0a33623220fccf352a"
        ),
        "jacobi:far": "jacobi it=1 insolvable",
        "gauss-seidel:far": "gauss-seidel it=1 insolvable",
    },
    "well-1": {
        "int-ge": "int-ge it=0 [-811480/1171957:-761384/1187339]",
        "jacobi": "jacobi it=2 [-811480/1171957:-761384/1187339]",
        "gauss-seidel": "gauss-seidel it=1 exact [-811480/1171957:-761384/1187339]",
        "krawczyk": "krawczyk it=1 [-811480/1171957:-2253388/3515871]",
        "hbr": "hbr it=0 [-811480/1171957:-761384/1187339]",
        "auto": "diagonal it=0 exact [-811480/1171957:-761384/1187339]",
        "jacobi:unpreconditioned": "jacobi it=2 [-811480/1171957:-761384/1187339]",
        "jacobi:preconditioned": "jacobi it=2 [-811480/1171957:-761384/1187339]",
        "jacobi:max_iter=3": "jacobi it=2 [-811480/1171957:-761384/1187339]",
        "gauss-seidel:unpreconditioned": (
            "gauss-seidel it=1 exact [-811480/1171957:-761384/1187339]"
        ),
        "gauss-seidel:preconditioned": (
            "gauss-seidel it=2 [-811480/1171957:-761384/1187339]"
        ),
        "gauss-seidel:max_iter=3": (
            "gauss-seidel it=1 exact [-811480/1171957:-761384/1187339]"
        ),
        "krawczyk:unpreconditioned": "krawczyk it=2 [-4:472705/131072]",
        "krawczyk:preconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:087fa39b55d377657d645ad3b16cd08b35d30d74655d2688b04b440c8b1a3166"
        ),
        "krawczyk:max_iter=3": "krawczyk it=1 [-811480/1171957:-2253388/3515871]",
        "jacobi:far": "jacobi it=1 insolvable",
        "gauss-seidel:far": "gauss-seidel it=1 insolvable",
    },
    "well-2": {
        "int-ge": (
            "int-ge it=0"
            " [-892394104789/641556193026:-859188193237/804610154242;"
            " 616612698761/804610154242:768824646281/641556193026]"
        ),
        "jacobi": (
            "jacobi it=2"
            " [-892394104789/641556193026:-3974012289143336263/3754270719917214294;"
            " 169120104870601813/224748040872289242:768824646281/641556193026]"
        ),
        "gauss-seidel": (
            "gauss-seidel it=2"
            " [-892394104789/641556193026:-3974012289143336263/3754270719917214294;"
            " 169120104870601813/224748040872289242:768824646281/641556193026]"
        ),
        "krawczyk": (
            "krawczyk it=1"
            " [-892394104789/641556193026:-665670935417/641556193026;"
            " 234231148706/320778096513:768824646281/641556193026]"
        ),
        "hbr": (
            "hbr it=0"
            " [-892394104789/641556193026:-3974012289143336263/3754270719917214294;"
            " 169120104870601813/224748040872289242:768824646281/641556193026]"
        ),
        "auto": (
            "hbr it=0"
            " [-892394104789/641556193026:-3974012289143336263/3754270719917214294;"
            " 169120104870601813/224748040872289242:768824646281/641556193026]"
        ),
        "jacobi:unpreconditioned": (
            "jacobi it=15 unconverged"
            " sha256:4a5e3640b9ac5e1550a6b6e3d43bb3cc77fbbd9e66f2f645ebce850e0bfa06d9"
        ),
        "jacobi:preconditioned": (
            "jacobi it=15 unconverged"
            " sha256:c9616a5306abd94d74da07f45a696f01f560d26d2665d87fee1d0add723e3775"
        ),
        "jacobi:max_iter=3": (
            "jacobi it=2"
            " [-892394104789/641556193026:-3974012289143336263/3754270719917214294;"
            " 169120104870601813/224748040872289242:768824646281/641556193026]"
        ),
        "gauss-seidel:unpreconditioned": (
            "gauss-seidel it=15 unconverged"
            " sha256:6b9d7da6e0c168761409628cf21dd218a892e2cc08eeb8af0295e3af73eb4fb1"
        ),
        "gauss-seidel:preconditioned": (
            "gauss-seidel it=15 unconverged"
            " sha256:d4e2b8e3216b239e79d40971b61b9b4dae94bec5784addd0bc9b00162816e84a"
        ),
        "gauss-seidel:max_iter=3": (
            "gauss-seidel it=2"
            " [-892394104789/641556193026:-3974012289143336263/3754270719917214294;"
            " 169120104870601813/224748040872289242:768824646281/641556193026]"
        ),
        "krawczyk:unpreconditioned": "krawczyk it=1 [-4:4; -4:4]",
        "krawczyk:preconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:184a8f811fecd51d2282db49229a06445149cc25f1665e10963b89119af4c760"
        ),
        "krawczyk:max_iter=3": (
            "krawczyk it=1"
            " [-892394104789/641556193026:-665670935417/641556193026;"
            " 234231148706/320778096513:768824646281/641556193026]"
        ),
        "jacobi:far": "jacobi it=1 insolvable",
        "gauss-seidel:far": "gauss-seidel it=1 insolvable",
    },
    "well-3": {
        "int-ge": (
            "int-ge it=0"
            " sha256:7f859dd0e445ec40be62e8d331bdabe90a548b07862a583e0e7a529eb24d5727"
        ),
        "jacobi": (
            "jacobi it=2"
            " sha256:76880d9e5b5cb7e271b0a824f72e3532e387ab53bf3014256d619dd00da53ff6"
        ),
        "gauss-seidel": (
            "gauss-seidel it=2"
            " sha256:76880d9e5b5cb7e271b0a824f72e3532e387ab53bf3014256d619dd00da53ff6"
        ),
        "krawczyk": (
            "krawczyk it=1"
            " sha256:485653b07953533c576a61ae4cc691e993b4492515ccc7e4203a7c20ddbf96a9"
        ),
        "hbr": (
            "hbr it=0"
            " sha256:76880d9e5b5cb7e271b0a824f72e3532e387ab53bf3014256d619dd00da53ff6"
        ),
        "auto": (
            "hbr it=0"
            " sha256:76880d9e5b5cb7e271b0a824f72e3532e387ab53bf3014256d619dd00da53ff6"
        ),
        "jacobi:unpreconditioned": (
            "jacobi it=15 unconverged"
            " sha256:1be022a86b4d39c188d7c323023cf322a5d5b63ed2010cc8858040953111ef5b"
        ),
        "jacobi:preconditioned": (
            "jacobi it=15 unconverged"
            " sha256:0912541f8863e12d28e920d7cac086245401a2a58dffb75d2678d9944c34eba4"
        ),
        "jacobi:max_iter=3": (
            "jacobi it=2"
            " sha256:76880d9e5b5cb7e271b0a824f72e3532e387ab53bf3014256d619dd00da53ff6"
        ),
        "gauss-seidel:unpreconditioned": (
            "gauss-seidel it=15 unconverged"
            " sha256:bda3271b81efa75ebf6a58440c24864abff2e27b1e79aa5ffe03ffcb433cc17b"
        ),
        "gauss-seidel:preconditioned": (
            "gauss-seidel it=15 unconverged"
            " sha256:cbe0b33a04023a90501de07d71bef6163c5bc55eceaceada0cabdf15e6053193"
        ),
        "gauss-seidel:max_iter=3": (
            "gauss-seidel it=2"
            " sha256:76880d9e5b5cb7e271b0a824f72e3532e387ab53bf3014256d619dd00da53ff6"
        ),
        "krawczyk:unpreconditioned": "krawczyk it=1 [-4:4; -4:4; -4:4]",
        "krawczyk:preconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:40711ed4943c973d3a10861218c34d2d15f666fd3937cca73ce104c2cadc52e3"
        ),
        "krawczyk:max_iter=3": (
            "krawczyk it=1"
            " sha256:485653b07953533c576a61ae4cc691e993b4492515ccc7e4203a7c20ddbf96a9"
        ),
        "jacobi:far": "jacobi it=1 insolvable",
        "gauss-seidel:far": "gauss-seidel it=1 insolvable",
    },
    "well-4": {
        "int-ge": (
            "int-ge it=0"
            " sha256:3fd435736fe676a41c6e808892d82ee71b5c70d2f62884df5987d4d80a92a412"
        ),
        "jacobi": (
            "jacobi it=2"
            " sha256:ca94fa366bae988cd9c2fe49b2c5a98579a8611403ffae9922f6509a27bf749d"
        ),
        "gauss-seidel": (
            "gauss-seidel it=2"
            " sha256:ca94fa366bae988cd9c2fe49b2c5a98579a8611403ffae9922f6509a27bf749d"
        ),
        "krawczyk": (
            "krawczyk it=1"
            " sha256:d85c15f8101c02ef7d35fe7b0ec4ba22e106e2130f51235cfdbd39cbb7a22f94"
        ),
        "hbr": (
            "hbr it=0"
            " sha256:ca94fa366bae988cd9c2fe49b2c5a98579a8611403ffae9922f6509a27bf749d"
        ),
        "auto": (
            "hbr it=0"
            " sha256:ca94fa366bae988cd9c2fe49b2c5a98579a8611403ffae9922f6509a27bf749d"
        ),
        "jacobi:unpreconditioned": (
            "jacobi it=15 unconverged"
            " sha256:d94e9d927304bc6676727c0f4e1ddc3dd477a6abbaeb158912a1bd9a17e3aeda"
        ),
        "jacobi:preconditioned": (
            "jacobi it=15 unconverged"
            " sha256:dd4fcfeed302e0131cba8cc2d33ed019a018d576a95a41c3ac7bbf4a66c36c80"
        ),
        "jacobi:max_iter=3": (
            "jacobi it=2"
            " sha256:ca94fa366bae988cd9c2fe49b2c5a98579a8611403ffae9922f6509a27bf749d"
        ),
        "gauss-seidel:unpreconditioned": (
            "gauss-seidel it=15 unconverged"
            " sha256:c3a4f9e68f1d756db2da7b6be7ad8ed9ba0fe1161d17a4997ebf841fca3fece9"
        ),
        "gauss-seidel:preconditioned": (
            "gauss-seidel it=15 unconverged"
            " sha256:ce0ab53f835c1e183fa28d81c3a288bbf7154abe2f3136c6317e468d9a63c75e"
        ),
        "gauss-seidel:max_iter=3": (
            "gauss-seidel it=2"
            " sha256:ca94fa366bae988cd9c2fe49b2c5a98579a8611403ffae9922f6509a27bf749d"
        ),
        "krawczyk:unpreconditioned": "krawczyk it=1 [-4:4; -4:4; -4:4; -4:4]",
        "krawczyk:preconditioned": (
            "krawczyk it=15 unconverged"
            " sha256:f00ccde3d9019ffad449a01fec8ee0196a6251949896affa37f0332ca89e2f52"
        ),
        "krawczyk:max_iter=3": (
            "krawczyk it=1"
            " sha256:d85c15f8101c02ef7d35fe7b0ec4ba22e106e2130f51235cfdbd39cbb7a22f94"
        ),
        "jacobi:far": "jacobi it=1 insolvable",
        "gauss-seidel:far": "gauss-seidel it=1 insolvable",
    },
    "wide-2": {
        "jacobi:start": "PivotContainsZero",
        "gauss-seidel:start": "PivotContainsZero",
    },
}


class TestEnclosureTable:
    """Every enclosure route on seeded n = 1..4 systems, pinned as
    literals: the method, the iteration count, the flags and the box (or
    the error type).  Well-conditioned, M-matrix and general (radius 1/2)
    systems; least squares and inverse enclosures on small ones; and the
    preconditioned Jacobi and Gauss-Seidel on a radius-1 system with
    p_ii >= 1 from the start box [-4, 4]^2, which raise PivotContainsZero."""

    @pytest.mark.parametrize("key", sorted(ENCLOSURE_TABLE))
    def test_outcomes_match_table(self, key):
        assert _outcomes(key) == ENCLOSURE_TABLE[key]

    @pytest.mark.parametrize("family", ["well", "mmatrix", "general"])
    def test_preconditioned_system_equals_interval_products(self, family):
        """[I - p, I + p] and [x_c - q, x_c + q] equal C^-1 A and C^-1 b
        summed term by term as intervals, sum_k c_ik [A]_kj; u solves
        (I - p) u = |x_c| + q when rho(p) < 1 holds, and is None otherwise."""
        for n in range(1, 5):
            a, b = _system(family, n)
            center, _ = a.midpoint_radius()
            if center.det() == 0:
                continue
            c = center.inverse().rows

            def times(rows):
                return [
                    [
                        sum(
                            (rows[k][j].scale(c[i][k]) for k in range(n)),
                            Interval.point(0),
                        )
                        for j in range(len(rows[0]))
                    ]
                    for i in range(n)
                ]

            p, xc, q, u = preconditioned_fractions(a, b)
            if rho_less_than(p, 1):
                assert (RealMatrix.identity(n) - p).matvec(u) == vec_add(vec_abs(xc), q)
            else:
                assert u is None
            assert times(a.entries) == [
                [
                    Interval((i == j) - p.rows[i][j], (i == j) + p.rows[i][j])
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert times([[e] for e in b.entries]) == [
                [Interval(x - r, x + r)] for x, r in zip(xc, q)
            ]


@st.composite
def _square_systems(draw):
    """Square systems with n <= 4 whose endpoints mix denominators up to 12,
    with zero, negative and degenerate entries drawn often."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(
        st.just(Interval.point(0)),
        rationals(6, 12).map(Interval.point),
        intervals(6, 12),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    rhs = draw(st.lists(entry, min_size=n, max_size=n))
    return IntervalMatrix(rows), IntervalVector(rhs)


@settings(max_examples=300, deadline=None)
@given(system=_square_systems())
@example(system=(IntervalMatrix([[iv(-1, 1)]]), IntervalVector([iv(1, 1)])))
@example(
    system=(
        IntervalMatrix([[iv(1, 3), iv(0, 0)], [iv(2, 6), iv(0, 0)]]),
        IntervalVector([iv(0, 0), iv(-1, 2)]),
    )
)
def test_preconditioned_equals_fraction_formula(system):
    """(p, x_c, q) is (|C^-1| R, C^-1 b_c, |C^-1| d), summed in Fractions
    entry by entry, and u solves (I - p) u = |x_c| + q exactly when
    rho(p) < 1; a singular midpoint raises PreconditionNotVerifiable."""
    a, b = system
    n = a.n
    center, radius = a.midpoint_radius()
    b_mid, b_rad = b.midpoint_radius()
    if center.det() == 0:
        with pytest.raises(PreconditionNotVerifiable):
            preconditioned_fractions(a, b)
        return
    inv = center.inverse().rows
    mag = [[abs(v) for v in row] for row in inv]

    def times(rows, x):
        return tuple(sum((rows[i][k] * x[k] for k in range(n)), F(0)) for i in range(n))

    p = RealMatrix(
        [[sum((mag[i][k] * radius.rows[k][j] for k in range(n)), F(0)) for j in range(n)]
         for i in range(n)]
    )
    out = preconditioned_fractions(a, b)
    assert tuple(out[:3]) == (p, times(inv, b_mid), times(mag, b_rad))
    if rho_less_than(p, 1):
        assert (RealMatrix.identity(n) - p).matvec(out[3]) == vec_add(vec_abs(out[1]), out[2])
    else:
        assert out[3] is None


def _referee_iteration(a, b, method, start, max_iter):
    """The preconditioned iteration run on the interval system
    [I - p, I + p] x = [x_c - q, x_c + q] itself: ``_sweep`` for Jacobi and
    Gauss-Seidel, and for Krawczyk the general midpoint-radius formula with
    centre I and radius p."""
    n = a.n
    p, xc, q, _ = preconditioned_fractions(a, b)
    eye = RealMatrix.identity(n)
    pre_a = IntervalMatrix.from_bounds(eye - p, eye + p)
    pre_b = IntervalVector.from_bounds(vec_sub(xc, q), vec_add(xc, q))
    if method != "krawczyk" and any(pre_a[i, i].contains_zero() for i in range(n)):
        raise PivotContainsZero("a preconditioned diagonal entry contains zero")
    gap_mag = (eye - eye).abs() + p
    box = start
    for iterations in range(1, max_iter + 1):
        if method == "krawczyk":
            m, r = box.midpoint_radius()
            k_mid = vec_add(m, vec_sub(xc, eye.matvec(m)))
            k_rad = vec_add(q, vec_add(p.matvec(vec_abs(m)), gap_mag.matvec(r)))
            new = IntervalVector.from_bounds(
                vec_sub(k_mid, k_rad), vec_add(k_mid, k_rad)
            ).intersect(box)
        else:
            new = _sweep(pre_a, pre_b, box, method == "gauss-seidel")
        if new is None:
            return SolveReport(None, method, False, iterations, True)
        if new == box:
            return SolveReport(new, method, False, iterations, False)
        box = new
    return SolveReport(box, method, False, max_iter, False, converged=False)


def _report_or_error(call):
    """Every SolveReport field, or the type and text of the error raised."""
    try:
        return vars(call())
    except PreconditionError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _started_systems(draw):
    """A square system whose diagonal is shifted by 0 to 24, so that
    p_ii >= 1, rho(p) >= 1 and rho(p) < 1 all come up, a start box (centred
    on 0, or drawn anywhere, so that it often empties) and an iteration cap
    of 1 to 4."""
    a, b = draw(_square_systems())
    shifts = draw(st.lists(st.integers(0, 24), min_size=a.n, max_size=a.n))
    a = IntervalMatrix(
        [
            [e.shift(shifts[i]) if i == j else e for j, e in enumerate(row)]
            for i, row in enumerate(a.entries)
        ]
    )
    start = draw(
        st.one_of(
            st.integers(1, 60).map(
                lambda w: IntervalVector.from_bounds([-w] * a.n, [w] * a.n)
            ),
            st.lists(intervals(60, 4), min_size=a.n, max_size=a.n).map(IntervalVector),
        )
    )
    return a, b, start, draw(st.integers(min_value=1, max_value=4))


@settings(max_examples=200, deadline=None)
@given(case=_started_systems())
@example(
    case=(
        gen_interval_matrix(2, 2, 2, 1),
        gen_rhs(2, 2, 1),
        IntervalVector.from_bounds([-4, -4], [4, 4]),
        3,
    )
)
@example(
    case=(
        *well_conditioned_system(3, 0),
        IntervalVector.from_bounds([-9, -9, -9], [9, 9, 9]),
        1,
    )
)
@example(
    case=(
        *well_conditioned_system(2, 0),
        IntervalVector.from_bounds([50, 50], [51, 51]),
        4,
    )
)
def test_preconditioned_iteration_equals_interval_system(case):
    """Jacobi, Gauss-Seidel and Krawczyk with the default preconditioning
    and with precondition=True give every SolveReport field (or error) of
    the referee iteration on [I - p, I + p] x = [x_c - q, x_c + q]; the
    Gauss-Seidel M-matrix route, which does not iterate, is left out."""
    a, b, start, max_iter = case
    for method in ITERATIVE:
        want = _report_or_error(
            lambda: _referee_iteration(a, b, method, start, max_iter)
        )
        for precondition in (None, True):
            if precondition is None and method == "gauss-seidel" and is_interval_m_matrix(a):
                continue
            opts = SolveOptions(initial=start, max_iter=max_iter, precondition=precondition)
            got = _report_or_error(lambda: enclosure(a, b, method, opts))
            assert got == want, (method, precondition)

"""Eigenvalue/eigenvector membership, symmetric ranges, definiteness,
stability."""

import random
from fractions import Fraction

import pytest

from conftest import grid_sample
from intlinalg import (
    Interval,
    IntervalMatrix,
    RealMatrix,
    SymmetricIntervalMatrix,
    hurwitz_general,
    hurwitz_sym,
    is_eigenvalue,
    is_eigenvector,
    is_perron_vector,
    is_regular_exact,
    schur_sym,
    spectral_radius_range,
    strong_pd,
    sym_eigen_range,
    weak_pd,
)
from intlinalg.errors import (
    DimensionMismatch,
    NotIrreducible,
    NotNonnegative,
    NotPositiveVector,
    UnsupportedClass,
    ZeroVector,
)
from intlinalg.generate import regularity_corpus, symmetric_corpus
from intlinalg.spectral import sym_eigen_range as point_eigen_range

TOL = Fraction(1, 10**6)


def F(a, b=1):
    return Fraction(a, b)


def iv(lo, hi):
    return Interval(F(lo), F(hi))


def sym(matrix: IntervalMatrix) -> SymmetricIntervalMatrix:
    return SymmetricIntervalMatrix(matrix)


def sample_symmetric(rng, s: SymmetricIntervalMatrix) -> RealMatrix:
    n = s.n
    raw = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = grid_sample(rng, s.base[i, j])
            raw[i][j] = value
            raw[j][i] = value
    return RealMatrix(raw)


class TestIsEigenvalue:
    def test_diagonal_interval(self):
        a = IntervalMatrix([[iv(0, 2)]])
        assert is_eigenvalue(a, 1).answer
        assert not is_eigenvalue(a, 3).answer

    def test_certificate_reconstructs_member(self):
        a = IntervalMatrix([[iv(0, 2), iv(0, 1)], [iv(0, 1), iv(0, 2)]])
        decision = is_eigenvalue(a, F(3, 2))
        assert decision.answer
        member = decision.certificate.member
        x = decision.certificate.witness
        assert a.contains(member)
        assert member.matvec(x) == tuple(F(3, 2) * v for v in x)

    def test_zero_reduction_matches_singularity(self):
        for matrix in regularity_corpus(30, seed0=808):
            assert is_eigenvalue(matrix, 0).answer == (
                not is_regular_exact(matrix).answer
            )


class TestIsEigenvector:
    def test_axis_vector_of_diagonal_family(self):
        a = IntervalMatrix(
            [[iv(0, 2), Interval.point(0)], [Interval.point(0), iv(0, 2)]]
        )
        decision = is_eigenvector(a, [1, 0])
        assert decision.answer
        assert iv(0, 2).contains(decision.certificate.value)

    def test_rotation_has_no_real_eigenvector(self):
        rot = IntervalMatrix.degenerate(RealMatrix([[0, -1], [1, 0]]))
        assert not is_eigenvector(rot, [1, 0]).answer

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            is_eigenvector(IntervalMatrix.identity(2), [0, 0])

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            is_eigenvector(IntervalMatrix.identity(2), [1, 0, 0])

    def test_sampling_agrees(self):
        rng = random.Random(15)
        for seed in range(10):
            a = IntervalMatrix(
                [
                    [
                        iv(rng.randint(-2, 0), rng.randint(0, 2))
                        for _ in range(2)
                    ]
                    for _ in range(2)
                ]
            )
            x = (
                F(rng.randint(-3, 3), rng.randint(1, 2)),
                F(rng.randint(-3, 3), rng.randint(1, 2)),
            )
            if all(v == 0 for v in x):
                continue
            decision = is_eigenvector(a, x)
            if decision.answer:
                member = decision.certificate.member
                lam = decision.certificate.value
                assert a.contains(member)
                assert member.matvec(x) == tuple(lam * v for v in x)
            else:
                # sampling can only confirm the refusal
                for _ in range(300):
                    member = RealMatrix(
                        [
                            [grid_sample(rng, e) for e in row]
                            for row in a.entries
                        ]
                    )
                    y = member.matvec(x)
                    # y parallel to x would contradict the exact emptiness
                    assert y[0] * x[1] != y[1] * x[0] or any(
                        (x[i] == 0) != (y[i] == 0) for i in range(2)
                    )


class TestPerron:
    def test_permutation_matrix(self):
        p = IntervalMatrix.degenerate(RealMatrix([[0, 1], [1, 0]]))
        decision = is_perron_vector(p, [1, 1])
        assert decision.answer
        assert decision.certificate.value == 1
        assert not is_perron_vector(p, [2, 1]).answer

    def test_preconditions(self):
        p = IntervalMatrix.degenerate(RealMatrix([[0, 1], [1, 0]]))
        with pytest.raises(NotPositiveVector):
            is_perron_vector(p, [1, -1])
        neg = IntervalMatrix.degenerate(RealMatrix([[0, -1], [1, 0]]))
        with pytest.raises(NotNonnegative):
            is_perron_vector(neg, [1, 1])
        red = IntervalMatrix.degenerate(RealMatrix([[1, 1], [0, 1]]))
        with pytest.raises(NotIrreducible):
            is_perron_vector(red, [1, 1])

    def test_wrong_length_rejected(self):
        p = IntervalMatrix.degenerate(RealMatrix([[0, 1], [1, 0]]))
        with pytest.raises(DimensionMismatch):
            is_perron_vector(p, [1, 1, 1])
        # the length is checked before the matrix class
        red = IntervalMatrix.degenerate(RealMatrix([[1, 1], [0, 1]]))
        with pytest.raises(DimensionMismatch):
            is_perron_vector(red, [1, 1, 1])

    def test_interval_family(self):
        a = IntervalMatrix(
            [[iv(0, 1), iv(1, 2)], [iv(1, 2), iv(0, 1)]]
        )
        decision = is_perron_vector(a, [1, 1])
        assert decision.answer
        member = decision.certificate.member
        lam = decision.certificate.value
        assert lam > 0
        assert member.matvec((F(1), F(1))) == (lam, lam)


class TestSymEigenRange:
    def test_diagonal_radius_subclass(self):
        s = sym(
            IntervalMatrix.from_midpoint_radius(
                RealMatrix.diag([1, 2]), RealMatrix.diag([F(1, 2), F(1, 2)])
            )
        )
        report = sym_eigen_range(s, TOL)
        assert report.subclass == "diagonal-radius"
        assert report.exact_min and report.exact_max
        assert report.lambda_min.contains(F(1, 2))
        assert report.lambda_max.contains(F(5, 2))

    def test_degenerate_point_spectrum(self):
        s = sym(IntervalMatrix.degenerate(RealMatrix([[2, 1], [1, 2]])))
        report = sym_eigen_range(s, TOL)
        assert report.lambda_min.contains(1)
        assert report.lambda_max.contains(3)

    def test_essentially_nonnegative_subclass(self):
        base = IntervalMatrix.from_midpoint_radius(
            RealMatrix([[1, 1], [1, -2]]),
            RealMatrix([[F(1, 4), F(1, 8)], [F(1, 8), F(1, 4)]]),
        )
        report = sym_eigen_range(sym(base), TOL)
        assert report.subclass == "essentially-nonnegative"
        assert report.exact_max and not report.exact_min
        top, _ = point_eigen_range(base.upper(), TOL)

    def test_sampled_members_inside_range(self):
        rng = random.Random(44)
        for matrix in symmetric_corpus(10, seed0=999):
            s = sym(matrix)
            report = sym_eigen_range(s, TOL)
            for _ in range(60):
                member = sample_symmetric(rng, s)
                lo, hi = point_eigen_range(member, TOL)
                assert report.lambda_min.lo <= lo.value.hi
                assert report.lambda_max.hi >= hi.value.lo


class TestSpectralRadiusRange:
    def test_diagonal_formula(self):
        a = IntervalMatrix(
            [[iv(-3, -2), Interval.point(0)], [Interval.point(0), Interval.point(1)]]
        )
        assert spectral_radius_range(a) == iv(2, 3)

    def test_diagonal_with_zero_crossing(self):
        a = IntervalMatrix([[iv(-1, 2)]])
        assert spectral_radius_range(a) == iv(0, 2)

    def test_nonnegative_permutation(self):
        p = IntervalMatrix.degenerate(RealMatrix([[0, 1], [1, 0]]))
        box = spectral_radius_range(p, TOL)
        assert box.contains(1)

    def test_nonnegative_monotone_sampling(self):
        rng = random.Random(21)
        a = IntervalMatrix(
            [[iv(0, 1), iv(1, 2)], [iv(0, 1), iv(0, 2)]]
        )
        box = spectral_radius_range(a, TOL)
        from intlinalg import spectral_radius

        for _ in range(25):
            member = RealMatrix(
                [[grid_sample(rng, e) for e in row] for row in a.entries]
            )
            enc = spectral_radius(member, TOL).value
            assert enc.lo <= box.hi and enc.hi >= box.lo

    def test_unsupported_class(self):
        a = IntervalMatrix.degenerate(RealMatrix([[0, -1], [1, 0]]))
        with pytest.raises(UnsupportedClass):
            spectral_radius_range(a)

    @pytest.mark.parametrize("tol", [0, -1])
    def test_tolerance_must_be_positive(self, tol):
        # the diagonal formula needs no tolerance, yet a bad one is refused
        with pytest.raises(ValueError, match="tolerance must be positive"):
            spectral_radius_range(IntervalMatrix([[iv(-1, 2)]]), tol)


class TestStrongPd:
    def test_sufficient_one(self):
        s = sym(
            IntervalMatrix.from_midpoint_radius(
                RealMatrix.identity(2).scale(2),
                RealMatrix.ones(2, 2).scale(F(1, 2)),
            )
        )
        assert strong_pd(s, "sufficient-1", tol=TOL).is_proven

    def test_degenerate_pd_both_modes(self):
        s = sym(IntervalMatrix.degenerate(RealMatrix([[2, 1], [1, 2]])))
        assert strong_pd(s, "sufficient-1", tol=TOL).is_proven
        assert strong_pd(s, "sufficient-2").is_proven

    def test_vertex_refutation(self):
        s = sym(
            IntervalMatrix.from_midpoint_radius(
                RealMatrix.identity(2), RealMatrix.ones(2, 2).scale(2)
            )
        )
        decision = strong_pd(s, "vertex-exact")
        assert not decision.answer
        vertex = decision.certificate.member
        lo, _ = point_eigen_range(vertex, TOL)
        assert lo.value.lo < 0

    def test_vertex_true_implies_sampled_members_pd(self):
        rng = random.Random(31)
        s = sym(
            IntervalMatrix.from_midpoint_radius(
                RealMatrix([[4, 1], [1, 4]]),
                RealMatrix.ones(2, 2).scale(F(1, 4)),
            )
        )
        assert strong_pd(s, "vertex-exact").answer
        from intlinalg import is_positive_definite_real

        for _ in range(200):
            member = sample_symmetric(rng, s)
            assert is_positive_definite_real(member).is_proven

    def test_semidefinite_mode(self):
        s = sym(
            IntervalMatrix.from_midpoint_radius(
                RealMatrix.identity(2), RealMatrix.identity(2)
            )
        )
        # members range over [0, 2I]-style diagonals: PSD but not PD
        assert strong_pd(s, "vertex-exact", semidefinite=True).answer
        assert not strong_pd(s, "vertex-exact", semidefinite=False).answer
        assert strong_pd(s, "sufficient-1", semidefinite=True, tol=TOL).state in (
            "proven",
            "unknown",
        )

    def test_sufficient_never_contradicts_vertex(self):
        for matrix in symmetric_corpus(20, seed0=77):
            s = sym(matrix)
            exact = strong_pd(s, "vertex-exact").answer
            for mode in ("sufficient-1", "sufficient-2"):
                if strong_pd(s, mode, tol=TOL).is_proven:
                    assert exact

    @pytest.mark.parametrize("mode", ["sufficient-1", "sufficient-2", "vertex-exact"])
    @pytest.mark.parametrize("tol", [0, -1])
    def test_tolerance_must_be_positive(self, mode, tol):
        s = sym(IntervalMatrix.degenerate(RealMatrix([[2, 1], [1, 2]])))
        with pytest.raises(ValueError, match="tolerance must be positive"):
            strong_pd(s, mode, tol=tol)


class TestWeakPd:
    def test_midpoint_member(self):
        s = sym(
            IntervalMatrix.from_midpoint_radius(
                RealMatrix.identity(2).scale(2), RealMatrix.ones(2, 2)
            )
        )
        assert weak_pd(s, TOL).is_proven

    def test_refuted_when_upper_bound_negative(self):
        s = sym(
            IntervalMatrix.from_bounds(
                RealMatrix.identity(2).scale(-3),
                RealMatrix.identity(2).scale(-1),
            )
        )
        assert weak_pd(s, TOL).is_refuted

    def test_unknown_allowed_for_wide_straddle(self):
        s = sym(
            IntervalMatrix.from_midpoint_radius(
                RealMatrix.zeros(2, 2), RealMatrix.ones(2, 2).scale(F(1, 100))
            )
        )
        verdict = weak_pd(s, TOL)
        assert verdict.state in ("proven", "refuted", "unknown")

    @pytest.mark.parametrize("tol", [0, -1])
    def test_tolerance_must_be_positive(self, tol):
        # the midpoint is positive definite, so no eigenvalue range is needed
        s = sym(IntervalMatrix.degenerate(RealMatrix.identity(2)))
        with pytest.raises(ValueError, match="tolerance must be positive"):
            weak_pd(s, tol)


class TestStability:
    def test_hurwitz_sym_diagonal_family(self):
        s = sym(
            IntervalMatrix.from_midpoint_radius(
                RealMatrix.identity(2).scale(-2),
                RealMatrix.identity(2).scale(F(1, 2)),
            )
        )
        assert hurwitz_sym(s).answer

    def test_hurwitz_identity_with_strong_pd(self):
        for matrix in symmetric_corpus(20, seed0=654):
            s = sym(matrix)
            assert hurwitz_sym(s).answer == strong_pd(-s, "vertex-exact").answer

    def test_hurwitz_general_nilpotent_unknown(self):
        j = IntervalMatrix.degenerate(RealMatrix([[0, 1], [0, 0]]))
        assert hurwitz_general(j, TOL).is_unknown

    def test_hurwitz_general_proven_case(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix([[-3, 1], [-1, -3]]), RealMatrix.ones(2, 2).scale(F(1, 8))
        )
        assert hurwitz_general(a, TOL).is_proven

    @pytest.mark.parametrize("tol", [0, -1])
    def test_hurwitz_general_tolerance_must_be_positive(self, tol):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix([[-3, 1], [-1, -3]]), RealMatrix.ones(2, 2).scale(F(1, 8))
        )
        with pytest.raises(ValueError, match="tolerance must be positive"):
            hurwitz_general(a, tol)

    def test_schur_diagonal_family(self):
        s = sym(
            IntervalMatrix.from_midpoint_radius(
                RealMatrix.diag([F(1, 2), F(-1, 2)]),
                RealMatrix.diag([F(1, 4), F(1, 4)]),
            )
        )
        assert schur_sym(s, TOL).is_proven

    def test_schur_refuted(self):
        s = sym(
            IntervalMatrix.from_midpoint_radius(
                RealMatrix.diag([2, 0]), RealMatrix.diag([F(1, 4), F(1, 4)])
            )
        )
        assert schur_sym(s, TOL).is_refuted

    def test_schur_never_false_proven(self):
        rng = random.Random(3)
        for matrix in symmetric_corpus(12, seed0=2024):
            s = sym(matrix)
            if schur_sym(s, TOL).is_proven:
                for _ in range(50):
                    member = sample_symmetric(rng, s)
                    lo, hi = point_eigen_range(member, TOL)
                    assert hi.value.lo < 1 and lo.value.hi > -1

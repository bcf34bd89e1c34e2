"""Regularity, singularity, and full-column-rank deciders and conditions."""

from fractions import Fraction

import pytest

from intlinalg import (
    Interval,
    IntervalMatrix,
    RealMatrix,
    fcr_sufficient,
    has_full_column_rank_exact,
    is_regular_exact,
    regularity_sufficient,
    singular_candidate_search,
    singularity_sufficient,
    vertex_det_singularity,
)
from intlinalg.errors import NotSquare, PreconditionViolated, ShapeError
from intlinalg.generate import gen_regular_matrix, regularity_corpus

TOL = Fraction(1, 10**6)


def F(a, b=1):
    return Fraction(a, b)


def iv(lo, hi):
    return Interval(F(lo), F(hi))


def sharaya_matrix():
    return IntervalMatrix(
        [
            [Interval.point(1), iv(0, 1)],
            [Interval.point(-1), iv(0, 1)],
            [iv(-1, 1), Interval.point(1)],
        ]
    )


class TestIsRegularExact:
    def test_identity(self):
        assert is_regular_exact(IntervalMatrix.identity(2)).answer

    def test_unit_midpoint_full_radius(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix.identity(2), RealMatrix.ones(2, 2)
        )
        decision = is_regular_exact(a)
        assert not decision.answer
        member = decision.certificate.member
        assert a.contains(member)
        assert member.det() == 0
        assert member.rank() <= 1 or member.det() == 0

    def test_small_radius_regular(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix.identity(2), RealMatrix.ones(2, 2).scale(F(2, 5))
        )
        assert is_regular_exact(a).answer

    def test_not_square_rejected(self):
        with pytest.raises(NotSquare):
            is_regular_exact(
                IntervalMatrix.degenerate(RealMatrix([[1], [2]]))
            )

    def test_kernel_witness_checks_out(self):
        a = IntervalMatrix(
            [[iv(1, 3), iv(1, 2)], [iv(2, 2), iv(1, 4)]]
        )
        decision = is_regular_exact(a)
        if not decision.answer:
            cert = decision.certificate
            member = cert.member
            assert a.contains(member)
            assert all(
                v == 0 for v in member.matvec(cert.witness)
            )
            assert any(v != 0 for v in cert.witness)


class TestSufficientConditions:
    def test_zero_radius_proven(self):
        a = IntervalMatrix.degenerate(RealMatrix([[2, 1], [0, 1]]))
        assert regularity_sufficient(a, 1).is_proven

    def test_contraction_proven(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix.identity(2), RealMatrix.ones(2, 2).scale(F(2, 5))
        )
        assert regularity_sufficient(a, 1).is_proven

    def test_wide_radius_unknown(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix.identity(2), RealMatrix.ones(2, 2)
        )
        assert regularity_sufficient(a, 1).is_unknown

    def test_singular_midpoint_unknown(self):
        a = IntervalMatrix.degenerate(RealMatrix([[1, 1], [1, 1]]))
        assert regularity_sufficient(a, 1).is_unknown

    def test_singularity_diagonal_condition(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix.identity(2), RealMatrix.ones(2, 2)
        )
        assert singularity_sufficient(a, 1).is_proven

    def test_singularity_degenerate_unknown(self):
        a = IntervalMatrix.degenerate(RealMatrix([[2, 0], [0, 2]]))
        assert singularity_sufficient(a, 1).is_unknown

    def test_singularity_psd_condition(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix.zeros(2, 2), RealMatrix.identity(2)
        )
        assert singularity_sufficient(a, 3).is_proven

    def test_sigma_and_norm_variants(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix.diag([3, 3]), RealMatrix.ones(2, 2).scale(F(1, 4))
        )
        assert regularity_sufficient(a, 2, TOL).is_proven
        assert regularity_sufficient(a, 3, TOL).is_proven

    @pytest.mark.parametrize("tol", [F(0), F(-1)], ids=["tol-0", "tol-minus-1"])
    @pytest.mark.parametrize(
        "decide, cond",
        [
            (regularity_sufficient, 1),
            (regularity_sufficient, 2),
            (regularity_sufficient, 3),
            (fcr_sufficient, 1),
            (fcr_sufficient, 2),
        ],
        ids=["regular-1", "regular-2", "regular-3", "fcr-1", "fcr-2"],
    )
    def test_nonpositive_tol_raises(self, decide, cond, tol):
        """Every condition refuses a tolerance <= 0 up front; regularity
        condition 3 used to end in ZeroDivisionError at tol 0 and to prove
        regularity at tol -1."""
        with pytest.raises(ValueError, match="tolerance must be positive"):
            decide(gen_regular_matrix(2, 0), cond, tol)


class TestSoundnessOnCorpus:
    def test_sufficient_never_contradicts_exact(self):
        corpus = regularity_corpus(60, seed0=500)
        for matrix in corpus:
            exact = is_regular_exact(matrix).answer
            for cond in (1, 2, 3):
                if regularity_sufficient(matrix, cond, TOL).is_proven:
                    assert exact
                if singularity_sufficient(matrix, cond).is_proven:
                    assert not exact

    def test_oracle_equivalence_small(self):
        corpus = regularity_corpus(60, seed0=900)
        for matrix in corpus:
            assert is_regular_exact(matrix).answer == (
                not vertex_det_singularity(matrix)
            )


class TestCandidateSearch:
    def test_one_dimensional_hit(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix([[1]]), RealMatrix.ones(1, 1)
        )
        found = singular_candidate_search(a)
        assert found == RealMatrix([[0]])

    def test_one_dimensional_miss(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix([[3]]), RealMatrix.ones(1, 1)
        )
        assert singular_candidate_search(a) is None

    def test_returned_candidate_is_singular_member(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix([[1, 0], [0, 1]]), RealMatrix.ones(2, 2)
        )
        found = singular_candidate_search(a)
        assert found is not None
        assert a.contains(found)
        assert found.det() == 0

    def test_preconditions(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix.identity(2), RealMatrix.ones(2, 2).scale(F(1, 2))
        )
        with pytest.raises(PreconditionViolated):
            singular_candidate_search(a)


class TestFullColumnRank:
    def test_sharaya_has_full_column_rank(self):
        assert has_full_column_rank_exact(sharaya_matrix()).answer

    def test_sharaya_submatrices_all_singular(self):
        sh = sharaya_matrix()
        for rows in ((0, 1), (0, 2), (1, 2)):
            sub = sh.submatrix(rows, (0, 1))
            assert not is_regular_exact(sub).answer

    def test_tall_degenerate(self):
        a = IntervalMatrix.degenerate(RealMatrix([[1], [1], [0]]))
        assert has_full_column_rank_exact(a).answer

    def test_equal_columns_fail_with_witness(self):
        a = IntervalMatrix.degenerate(RealMatrix([[1, 1], [2, 2], [3, 3]]))
        decision = has_full_column_rank_exact(a)
        assert not decision.answer
        member = decision.certificate.member
        x = decision.certificate.witness
        assert all(v == 0 for v in member.matvec(x))

    def test_wide_rejected(self):
        with pytest.raises(ShapeError):
            has_full_column_rank_exact(
                IntervalMatrix.degenerate(RealMatrix([[1, 2]]))
            )

    def test_square_case_matches_regularity(self):
        corpus = regularity_corpus(30, seed0=321)
        for matrix in corpus:
            assert (
                has_full_column_rank_exact(matrix).answer
                == is_regular_exact(matrix).answer
            )

    def test_fcr_sufficient_zero_radius(self):
        a = IntervalMatrix.degenerate(RealMatrix([[1, 0], [0, 1], [1, 1]]))
        assert fcr_sufficient(a, 1).is_proven

    def test_fcr_sufficient_never_refutes_sharaya(self):
        verdict = fcr_sufficient(sharaya_matrix(), 2, TOL)
        assert not verdict.is_refuted

    def test_fcr_sufficient_sound_on_tall_instances(self):
        from intlinalg.generate import gen_interval_matrix

        for seed in range(12):
            a = gen_interval_matrix(3, 2, seed, F(1, 16), "general")
            if fcr_sufficient(a, 1, TOL).is_proven:
                assert has_full_column_rank_exact(a).answer

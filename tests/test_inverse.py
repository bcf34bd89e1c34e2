"""Interval inverse (vertex, closed forms, columnwise) and determinant range."""

import random
from fractions import Fraction

import pytest

from conftest import grid_sample
from intlinalg import (
    Interval,
    IntervalMatrix,
    RealMatrix,
    det_range,
    inverse_enclosure,
    inverse_exact,
    inverse_nonneg,
    inverse_unit_midpoint,
    is_regular_exact,
    sample_members,
)
from intlinalg.errors import (
    PivotContainsZero,
    SingularIntervalMatrix,
    SizeGuardExceeded,
    SpectralRadiusNotProven,
)
from intlinalg.generate import (
    contraction_radius_matrix,
    gen_interval_matrix,
    gen_regular_matrix,
)
from intlinalg.matrices import SignVector
from intlinalg.oracles import vertex_inverse


def F(a, b=1):
    return Fraction(a, b)


def iv(lo, hi):
    return Interval(F(lo), F(hi))


class TestInverseExact:
    def test_one_dimensional_reciprocal(self):
        result = inverse_exact(IntervalMatrix([[iv(2, 4)]]))
        assert result.matrix == IntervalMatrix([[Interval(F(1, 4), F(1, 2))]])
        assert result.exact

    def test_identity(self):
        result = inverse_exact(IntervalMatrix.identity(2))
        assert result.matrix == IntervalMatrix.identity(2)

    def test_member_inverses_inside_and_bounds_attained(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix([[3, 1], [1, 4]]),
            RealMatrix([[F(1, 8), F(1, 8)], [F(1, 8), F(1, 8)]]),
        )
        result = inverse_exact(a)
        rng = random.Random(12)
        for _ in range(200):
            member = RealMatrix(
                [[grid_sample(rng, e) for e in row] for row in a.entries]
            )
            assert result.matrix.contains(member.inverse())
        # every bound is hit by some vertex inverse
        lower = result.matrix.lower()
        upper = result.matrix.upper()
        vertex_inverses = [
            a.vertex_matrix(y, z).inverse()
            for y in SignVector.all(2)
            for z in SignVector.all(2)
        ]
        for i in range(2):
            for j in range(2):
                assert any(v[i, j] == lower[i, j] for v in vertex_inverses)
                assert any(v[i, j] == upper[i, j] for v in vertex_inverses)

    def test_singular_input_rejected(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix.identity(2), RealMatrix.ones(2, 2)
        )
        with pytest.raises(SingularIntervalMatrix):
            inverse_exact(a)

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            inverse_exact(IntervalMatrix.identity(7))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_vertex_inverse(self, n):
        """The exact inverse equals the vertex-inverse referee on regular
        matrices and raises on the singular general draws."""
        cases = [IntervalMatrix.identity(n)]
        if n == 1:
            cases.append(IntervalMatrix([[iv(2, 4)]]))
        for seed in range(4):
            cases.append(gen_regular_matrix(n, seed))
            cases.append(gen_interval_matrix(n, n, seed, F(1, 16)))
        for seed in range(2):
            cases.append(gen_interval_matrix(n, n, seed, F(1, 8), "mmatrix"))
            cases.append(
                IntervalMatrix.from_midpoint_radius(
                    RealMatrix.identity(n), contraction_radius_matrix(n, seed)
                )
            )
        for a in cases:
            if is_regular_exact(a).answer:
                assert inverse_exact(a).matrix == vertex_inverse(a), a
            else:
                with pytest.raises(SingularIntervalMatrix):
                    inverse_exact(a)


class TestUnitMidpoint:
    def test_scalar_half_radius(self):
        result = inverse_unit_midpoint(RealMatrix([[F(1, 2)]]))
        assert result.matrix == IntervalMatrix(
            [[Interval(F(2, 3), F(2))]]
        )

    def test_zero_radius(self):
        result = inverse_unit_midpoint(RealMatrix.zeros(2, 2))
        assert result.matrix == IntervalMatrix.identity(2)

    def test_matches_vertex_enumeration(self):
        for n in (1, 2, 3, 4):
            for seed in range(4):
                radius = contraction_radius_matrix(n, seed)
                closed = inverse_unit_midpoint(radius)
                full = inverse_exact(
                    IntervalMatrix.from_midpoint_radius(
                        RealMatrix.identity(n), radius
                    )
                )
                assert closed.matrix == full.matrix, (n, seed)

    def test_contraction_required(self):
        with pytest.raises(SpectralRadiusNotProven):
            inverse_unit_midpoint(RealMatrix.ones(2, 2))


class TestInverseNonneg:
    def test_closed_form_example(self):
        a = IntervalMatrix.from_bounds(
            RealMatrix([[2, -1], [-1, 2]]), RealMatrix([[3, 0], [0, 3]])
        )
        decision = inverse_nonneg(a)
        assert decision.answer
        box = decision.certificate.member.matrix
        assert box.lower() == RealMatrix(
            [[F(1, 3), 0], [0, F(1, 3)]]
        )
        assert box.upper() == RealMatrix(
            [[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]]
        )
        assert box == inverse_exact(a).matrix

    def test_degenerate_identity(self):
        decision = inverse_nonneg(IntervalMatrix.identity(2))
        assert decision.answer
        assert decision.certificate.member.matrix == IntervalMatrix.identity(2)

    def test_negative_entry_fails(self):
        a = IntervalMatrix.degenerate(RealMatrix([[1, 1], [0, 1]]))
        assert not inverse_nonneg(a).answer

    def test_closed_form_matches_vertex_on_mmatrices(self):
        for seed in range(8):
            a = gen_interval_matrix(2, 2, seed, F(1, 8), "mmatrix")
            decision = inverse_nonneg(a)
            assert decision.answer
            assert decision.certificate.member.matrix == inverse_exact(a).matrix


class TestInverseEnclosure:
    def test_degenerate_is_exact(self):
        m = RealMatrix([[2, 1], [1, 2]])
        result = inverse_enclosure(IntervalMatrix.degenerate(m))
        assert result.matrix == IntervalMatrix.degenerate(m.inverse())

    def test_contains_exact(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix([[3, 1], [1, 4]]),
            RealMatrix([[F(1, 8), F(1, 8)], [F(1, 8), F(1, 8)]]),
        )
        assert inverse_enclosure(a).matrix.contains_matrix(
            inverse_exact(a).matrix
        )

    def test_contains_unit_midpoint_closed_form(self):
        radius = contraction_radius_matrix(2, 5)
        a = IntervalMatrix.from_midpoint_radius(RealMatrix.identity(2), radius)
        assert inverse_enclosure(a).matrix.contains_matrix(
            inverse_unit_midpoint(radius).matrix
        )


class TestDetRange:
    def test_one_dimensional(self):
        assert det_range(IntervalMatrix([[iv(2, 4)]])) == iv(2, 4)

    def test_degenerate_diagonal(self):
        a = IntervalMatrix.degenerate(RealMatrix.diag([2, 3]))
        assert det_range(a) == Interval.point(6)

    def test_singular_member_gives_zero_in_range(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix.identity(2), RealMatrix.ones(2, 2)
        )
        assert det_range(a).contains(0)

    def test_sampling_soundness_and_bridge(self):
        rng = random.Random(6)
        for seed in range(12):
            a = gen_interval_matrix(2, 2, seed, F(1, 2), "general")
            box = det_range(a)
            for smp in sample_members(a, None, seed=seed, count=80):
                assert box.contains(smp.matrix.det())
            assert box.contains(0) == (not is_regular_exact(a).answer)

    def test_enclosure_superset(self):
        a = IntervalMatrix.from_midpoint_radius(
            RealMatrix([[3, 1], [1, 4]]),
            RealMatrix([[F(1, 8), F(1, 8)], [F(1, 8), F(1, 8)]]),
        )
        assert det_range(a, "enclosure").contains_interval(det_range(a, "exact"))

    # (matrix, enclosure) at n = 2 and 3: the product of the elimination
    # pivots, negated after an odd number of row swaps
    ENCLOSURE_TABLE = {
        "n2-noswap": ([[iv(2, 3), iv(0, 1)], [iv(1, 2), iv(3, 4)]], iv(4, 12)),
        "n2-swap": ([[iv(0, 1), iv(1, 2)], [iv(3, 4), iv(1, 1)]], iv(-8, -2)),
        "n3-point": (
            [[iv(2, 2), iv(1, 1), iv(0, 0)],
             [iv(1, 1), iv(3, 3), iv(1, 1)],
             [iv(0, 0), iv(1, 1), iv(4, 4)]],
            iv(18, 18),
        ),
        "n3-swap": (
            [[iv(-1, 1), iv(2, 3), iv(1, 1)],
             [iv(4, 5), iv(0, 1), iv(-1, 0)],
             [iv(1, 2), iv(1, 1), iv(3, 4)]],
            Interval(F(-285, 4), F(-16)),
        ),
        "n3-zero-skip": (
            [[iv(2, 3), iv(1, 2), iv(0, 1)],
             [iv(0, 0), iv(3, 4), iv(1, 1)],
             [iv(0, 0), iv(-1, 1), iv(5, 6)]],
            iv(28, 76),
        ),
    }

    @pytest.mark.parametrize("case", sorted(ENCLOSURE_TABLE))
    def test_enclosure_table(self, case):
        entries, expected = self.ENCLOSURE_TABLE[case]
        a = IntervalMatrix(entries)
        box = det_range(a, "enclosure")
        assert box == expected
        assert box.contains_interval(det_range(a, "exact"))

    def test_enclosure_pivot_failure(self):
        a = IntervalMatrix([[iv(-1, 1)]])
        with pytest.raises(PivotContainsZero):
            det_range(a, "enclosure")

    def test_exact_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            det_range(IntervalMatrix.identity(4), "exact")

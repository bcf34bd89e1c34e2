"""Spectral enclosures: eigenvalue ranges, spectral radii, singular values,
and exact definiteness decisions."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from intlinalg import (
    RealMatrix,
    extremal_singular_values,
    is_positive_definite_real,
    is_positive_semidefinite_real,
    rho_less_than,
    spectral_radius,
)
from intlinalg.errors import NotSymmetric, UnsupportedMatrixClass
from intlinalg.spectral import char_poly, sqrt_down, sqrt_up, sym_eigen_range

TOL = Fraction(1, 10**8)
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def F(a, b=1):
    return Fraction(a, b)


def quadratic_roots(a, b, c):
    """Exact symbolic check helper: returns (root-, root+) of a x^2+b x+c
    when the discriminant is a perfect square of a rational."""
    disc = b * b - 4 * a * c
    assert disc >= 0
    num = disc.numerator * disc.denominator
    root = Fraction(
        __import__("math").isqrt(num), disc.denominator
    )
    assert root * root == disc, "test matrix must have rational eigenvalues"
    return (-b - root) / (2 * a), (-b + root) / (2 * a)


class TestSymEigenRange:
    def test_identity(self):
        lo, hi = sym_eigen_range(RealMatrix.identity(2), TOL)
        assert lo.value.contains(1) and hi.value.contains(1)
        assert lo.value.width <= 2 * TOL

    def test_diagonal(self):
        lo, hi = sym_eigen_range(RealMatrix.diag([1, 2]), TOL)
        assert lo.value.contains(1)
        assert hi.value.contains(2)

    def test_two_by_two_against_characteristic_roots(self):
        rng = random.Random(5)
        for _ in range(15):
            a = F(rng.randint(-3, 3))
            d = F(rng.randint(-3, 3))
            # pick off-diagonal making the discriminant a perfect square:
            # (a-d)^2 + 4 b^2 with b chosen from pythagorean-friendly values
            b = F(0) if (a - d) != 0 else F(rng.randint(0, 3))
            m = RealMatrix([[a, b], [b, d]])
            coeffs = char_poly(m)
            r_lo, r_hi = quadratic_roots(coeffs[2], coeffs[1], coeffs[0])
            lo, hi = sym_eigen_range(m, TOL)
            assert lo.value.contains(r_lo)
            assert hi.value.contains(r_hi)

    def test_repeated_eigenvalues(self):
        lo, hi = sym_eigen_range(RealMatrix.diag([2, 2, 2]), TOL)
        assert lo.value.contains(2) and hi.value.contains(2)

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            sym_eigen_range(RealMatrix([[0, 1], [0, 0]]), TOL)

    def test_exact_rational_eigenvalue_hit_by_bisection(self):
        # integer spectrum makes bisection land exactly on roots
        lo, hi = sym_eigen_range(RealMatrix.diag([1, 3]), Fraction(1, 4))
        assert lo.value.contains(1)
        assert hi.value.contains(3)


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(RealMatrix.zeros(2, 2), TOL).value.contains(0)

    def test_scaled_ones(self):
        m = RealMatrix.ones(2, 2).scale(F(2, 5))
        enc = spectral_radius(m, TOL)
        assert enc.value.contains(F(4, 5))

    def test_collatz_wielandt_certificate(self):
        rng = random.Random(17)
        for _ in range(10):
            m = RealMatrix(
                [[F(rng.randint(0, 5), 2) for _ in range(3)] for _ in range(3)]
            )
            enc = spectral_radius(m, TOL)
            x = enc.iterate
            assert x is not None and all(v > 0 for v in x)
            y = m.matvec(x)
            ratios = [yi / xi for yi, xi in zip(y, x)]
            # the sandwich must be consistent with the certified enclosure
            assert min(ratios) <= enc.value.hi
            assert max(ratios) >= enc.value.lo

    def test_reducible_nonnegative(self):
        enc = spectral_radius(RealMatrix.diag([1, 2]), TOL)
        assert enc.value.contains(2)
        assert enc.value.width <= 2 * TOL

    def test_symmetric_route(self):
        m = RealMatrix([[0, -2], [-2, 0]])
        enc = spectral_radius(m, TOL)
        assert enc.value.contains(2)

    def test_unsupported_class(self):
        with pytest.raises(UnsupportedMatrixClass):
            spectral_radius(RealMatrix([[0, -1], [1, 0]]), TOL)


class TestRhoThreshold:
    def test_exact_boundary(self):
        m = RealMatrix.ones(2, 2).scale(F(1, 2))  # rho exactly 1
        assert not rho_less_than(m, 1)
        assert rho_less_than(m, F(101, 100))

    def test_matches_enclosure(self):
        rng = random.Random(3)
        for _ in range(20):
            m = RealMatrix(
                [[F(rng.randint(0, 4), 3) for _ in range(2)] for _ in range(2)]
            )
            enc = spectral_radius(m, TOL).value
            assert rho_less_than(m, enc.hi + F(1, 100))
            if enc.lo > F(1, 100):
                assert not rho_less_than(m, enc.lo - F(1, 100))


class TestSingularValues:
    def test_identity(self):
        smin, smax = extremal_singular_values(RealMatrix.identity(2), TOL)
        assert smin.value.contains(1) and smax.value.contains(1)

    def test_diagonal(self):
        smin, smax = extremal_singular_values(RealMatrix.diag([3, 4]), TOL)
        assert smin.value.contains(3)
        assert smax.value.contains(4)

    def test_rectangular(self):
        m = RealMatrix([[1, 0], [0, 1], [0, 0]])
        smin, smax = extremal_singular_values(m, TOL)
        assert smin.value.contains(1) and smax.value.contains(1)

    def test_gram_oracle_two_by_two(self):
        m = RealMatrix([[3, 0], [4, 0]])  # singular values 5, 0
        smin, smax = extremal_singular_values(m, TOL)
        assert smax.value.contains(5)
        assert smin.value.contains(0)


class TestSqrtBounds:
    def test_brackets(self):
        for q in (F(2), F(3, 7), F(10**6), F(1, 10**6)):
            lo = sqrt_down(q, F(1, 10**6))
            hi = sqrt_up(q, F(1, 10**6))
            assert lo * lo <= q <= hi * hi
            assert hi - lo <= F(2, 10**6)

    def test_perfect_square_is_tight(self):
        assert sqrt_down(F(9, 4), F(1, 100)) == F(3, 2)
        assert sqrt_up(F(9, 4), F(1, 100)) == F(3, 2)


class TestDefiniteness:
    def test_identity_proven(self):
        assert is_positive_definite_real(RealMatrix.identity(3)).is_proven

    def test_negated_identity_refuted(self):
        assert is_positive_definite_real(
            RealMatrix.identity(3).scale(-1)
        ).is_refuted

    def test_pivots(self):
        assert is_positive_definite_real(RealMatrix([[2, 1], [1, 2]])).is_proven

    def test_agrees_with_leading_minors(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 3)
            raw = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    raw[j][i] = raw[i][j]
            m = RealMatrix(raw)
            verdict = is_positive_definite_real(m)
            minors = [
                RealMatrix([row[: k + 1] for row in raw[: k + 1]]).det()
                for k in range(n)
            ]
            assert verdict.is_proven == all(v > 0 for v in minors)

    def test_psd_boundary_cases(self):
        assert is_positive_semidefinite_real(RealMatrix([[0, 0], [0, 0]]))
        assert is_positive_semidefinite_real(RealMatrix([[1, 1], [1, 1]]))
        assert not is_positive_semidefinite_real(RealMatrix([[0, 1], [1, 0]]))
        assert not is_positive_semidefinite_real(RealMatrix([[-1, 0], [0, 1]]))
        assert is_positive_semidefinite_real(
            RealMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        )

    def test_psd_never_contradicts_pd(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 3)
            raw = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    raw[j][i] = raw[i][j]
            m = RealMatrix(raw)
            if is_positive_definite_real(m).is_proven:
                assert is_positive_semidefinite_real(m)


def test_enclosure_soundness_on_exact_corpus():
    """Diagonal, rank-one, and 2x2 cases where ground truth is rational."""
    # diagonal: eigenvalues are the entries
    lo, hi = sym_eigen_range(RealMatrix.diag([F(-5, 3), F(7, 2), 0]), TOL)
    assert lo.value.contains(F(-5, 3))
    assert hi.value.contains(F(7, 2))
    # rank one: alpha * ones has eigenvalues {0, n*alpha}
    m = RealMatrix.ones(3, 3).scale(F(5, 7))
    enc = spectral_radius(m, TOL)
    assert enc.value.contains(F(15, 7))
    # 2x2 with rational roots: [[2,1],[1,2]] -> {1, 3}
    lo, hi = sym_eigen_range(RealMatrix([[2, 1], [1, 2]]), TOL)
    assert lo.value.contains(1)
    assert hi.value.contains(3)


def test_square_free_check_raises_under_optimize():
    """The exact-division check in square_free_part is an explicit raise, so
    ``python -O`` keeps it: a remainder on the final division must raise."""
    code = (
        "from fractions import Fraction\n"
        "from intlinalg import spectral\n"
        "assert False, 'asserts must be off'\n"
        "real = spectral._poly_divmod\n"
        "calls = []\n"
        "def with_remainder(a, b):\n"
        "    calls.append(1)\n"
        "    q, r = real(a, b)\n"
        "    return (q, [Fraction(1)]) if len(calls) > 1 else (q, r)\n"
        "spectral._poly_divmod = with_remainder\n"
        "try:\n"
        "    spectral.square_free_part([Fraction(1), Fraction(-2), Fraction(1)])\n"
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

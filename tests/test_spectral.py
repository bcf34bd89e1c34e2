"""Spectral enclosures: eigenvalue ranges, spectral radii, singular values,
and exact definiteness decisions."""

import hashlib
import itertools
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
from intlinalg.spectral import sqrt_down, sqrt_up, sym_eigen_range
from test_matrices import _gram_rows, _minor, _symmetric_rows

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
            # characteristic polynomial x^2 - (a + d) x + (a d - b^2)
            r_lo, r_hi = quadratic_roots(F(1), -(a + d), a * d - b * b)
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


TABLE_TOLS = (F(1, 4), F(1, 10**8), F(1, 10**12))


def _householder(v):
    """The rational orthogonal reflection I - 2 v v^T / v^T v."""
    n = len(v)
    vv = sum(x * x for x in v)
    return RealMatrix(
        [[F(int(i == j)) - 2 * v[i] * v[j] / vv for j in range(n)] for i in range(n)]
    )


def _table_matrices(n):
    """Two seeded symmetric matrices, one with a repeated spectrum, and one
    rank-deficient Gram matrix."""
    rng = random.Random(f"eigen-table-{n}")

    def random_symmetric():
        raw = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                raw[i][j] = raw[j][i] = F(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        return RealMatrix(raw)

    q = _householder([F(rng.randint(1, 3)) for _ in range(n)])
    spectrum = RealMatrix.diag([F(rng.choice((-1, 2))) for _ in range(n)])
    b = RealMatrix(
        [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(max(1, n // 2))]
    )
    return {
        "random-a": random_symmetric(),
        "random-b": random_symmetric(),
        "repeated": q @ spectrum @ q,
        "gram": b.transpose() @ b,
    }


def _range_text(matrix, tol):
    lo, hi = sym_eigen_range(matrix, tol)
    return f"{lo.value.lo}:{lo.value.hi} {hi.value.lo}:{hi.value.hi}"


# integer spectra, where bisection at tol 1/4 can land exactly on an
# eigenvalue
EIGEN_RANGE_HITS = {
    "diag(1,3)": (RealMatrix.diag([1, 3]), "1/2:1 5/2:3"),
    "[[2,1],[1,2]]": (RealMatrix([[2, 1], [1, 2]]), "1/2:1 5/2:3"),
    "diag(2,2,2)": (RealMatrix.diag([2, 2, 2]), "3/2:2 3/2:2"),
    "zeros(2)": (RealMatrix.zeros(2, 2), "-1/2:0 -1/2:0"),
    "ones(3)": (RealMatrix.ones(3, 3), "-1/8:1/4 23/8:13/4"),
}

# SHA-256 of the lines "n=<n> tol=<tol> <min lo:hi> <max lo:hi>" over
# n = 1..7 and TABLE_TOLS
EIGEN_RANGE_TABLE = {
    "random-a": "71e1b1a858d53cbe64269970c7eae57ae73322d7df9374d9f7734ea64f9e065f",
    "random-b": "49b7d9c95c8e4ec4010d94d40263e9d8c3d402621027e634d3327e5d8828d1e9",
    "repeated": "8d9b2237e84a7ad0f45c9216cbd872120b880d5a38cbeb26de7e7d5b7f4ff4d2",
    "gram": "92f79e18745b7a5738d998816f9e7786422adad62f05039381348d8411595cc2",
}


class TestEigenRangeTable:
    """Pinned endpoints of point eigenvalue enclosures."""

    @pytest.mark.parametrize("name", sorted(EIGEN_RANGE_HITS))
    def test_exact_hits(self, name):
        matrix, expected = EIGEN_RANGE_HITS[name]
        assert _range_text(matrix, F(1, 4)) == expected

    @pytest.mark.parametrize("kind", sorted(EIGEN_RANGE_TABLE))
    def test_seeded_corpus(self, kind):
        lines = [
            f"n={n} tol={tol} {_range_text(_table_matrices(n)[kind], tol)}"
            for n in range(1, 8)
            for tol in TABLE_TOLS
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == EIGEN_RANGE_TABLE[kind]


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


def _rho_table_matrices(n):
    """Three seeded nonnegative matrices (dense, sparse and a weighted
    cycle, on which power iteration does not converge) and one symmetric
    matrix with negative entries."""
    rng = random.Random(f"rho-table-{n}")
    table = {
        "dense": RealMatrix(
            [[F(rng.randint(0, 9), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)]
        ),
        "sparse": RealMatrix(
            [[F(rng.choice((0, 0, 0, 1, 2, 5)), rng.choice((1, 4))) for _ in range(n)]
             for _ in range(n)]
        ),
        "cyclic": RealMatrix(
            [[F(rng.randint(1, 3)) if j == (i + 1) % n else F(0) for j in range(n)]
             for i in range(n)]
        ),
    }
    sym = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sym[i][j] = sym[j][i] = F(rng.randint(-5, 5), rng.choice((1, 2)))
    table["symmetric"] = RealMatrix(sym)
    return table


def _radius_text(matrix, tol):
    enc = spectral_radius(matrix, tol)
    iterate = "-" if enc.iterate is None else ",".join(map(str, enc.iterate))
    return f"{enc.value.lo}:{enc.value.hi} {iterate}"


# SHA-256 of the lines "n=<n> tol=<tol> <lo:hi> <iterate>" over n = 1..6
# and TABLE_TOLS
RADIUS_TABLE = {
    "dense": "340201fd19b29d52d2b65e72be87951c477fd99c86d7a4c8a0bd9f723b150eec",
    "sparse": "856eec6e3b5a83f97787e6b3171e6906b6b211150e10dbc58ec7840c630ff88e",
    "cyclic": "1705754f35bdd1462289d0574dcd84e5560854a7e6fd9e594bfe744469cc7f6d",
    "symmetric": "f61e0f3ded75ea50b1c2065e7b982f9a1a4856693fc4b9e2fc1921caa1e40a2c",
}


class TestRadiusTable:
    """Pinned enclosures and Collatz-Wielandt iterates of spectral_radius."""

    @pytest.mark.parametrize("kind", sorted(RADIUS_TABLE))
    def test_seeded_corpus(self, kind):
        lines = [
            f"n={n} tol={tol} {_radius_text(_rho_table_matrices(n)[kind], tol)}"
            for n in range(1, 7)
            for tol in TABLE_TOLS
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == RADIUS_TABLE[kind]


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

    @pytest.mark.parametrize("grid", [F(0), F(-1)], ids=["grid-0", "grid-minus-1"])
    @pytest.mark.parametrize("root", [sqrt_down, sqrt_up], ids=lambda f: f.__name__)
    def test_nonpositive_grid_raises(self, root, grid):
        # at grid -1, sqrt_up(2) used to return 3/2; at grid 0 it divided by 0
        with pytest.raises(ValueError, match="tolerance must be positive"):
            root(F(2), grid)


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


def _semidefinite_cases():
    """Seeded symmetric matrices up to n = 4: random ones, Gram matrices of
    every rank, and tI - M at and next to the eigenvalues of a matrix with a
    known rational spectrum, the shifts the eigenvalue bisection tests; each
    of order < 4 also behind a zero first row and column."""
    rng = random.Random(41)
    cases = [_symmetric_rows(rng, n) for n in range(1, 5) for _ in range(15)]
    cases += [_gram_rows(rng, n, k) for n in range(1, 5) for k in range(1, n + 1)
              for _ in range(4)]
    for n in range(1, 5):
        spectrum = [F(rng.choice((-1, 0, 2, 2))) for _ in range(n)]
        q = _householder([F(rng.randint(1, 3)) for _ in range(n)])
        m = q @ RealMatrix.diag(spectrum) @ q
        for lam in set(spectrum):
            for t in (lam - F(1, 97), lam, lam + F(1, 97)):
                cases.append([[t * (i == j) - v for j, v in enumerate(row)]
                              for i, row in enumerate(m.rows)])
    return cases + [[[F(0)] * (len(rows) + 1)] + [[F(0)] + row for row in rows]
                    for rows in cases if len(rows) < 4]


def test_semidefinite_matches_principal_minors():
    """PSD exactly when every principal minor is >= 0, the minors from the
    Leibniz referee, which shares no elimination with the decision."""
    outcomes = set()
    deficient_psd = 0
    for rows in _semidefinite_cases():
        n = len(rows)
        minors = [
            _minor(rows, idx, idx)
            for k in range(1, n + 1)
            for idx in itertools.combinations(range(n), k)
        ]
        expected = all(v >= 0 for v in minors)
        assert is_positive_semidefinite_real(RealMatrix(rows)) == expected, rows
        outcomes.add(expected)
        deficient_psd += expected and minors[-1] == 0
    assert outcomes == {True, False}
    assert deficient_psd >= 10


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


@pytest.mark.parametrize(
    "call",
    [
        "spectral_radius(RealMatrix([[1, 1], [1, 0]]), Fraction(0))",
        "spectral_radius(RealMatrix([[1, 1], [1, 0]]), Fraction(-1))",
        "extremal_singular_values(RealMatrix([[1, 1], [1, 0]]), Fraction(0))",
        "extremal_singular_values(RealMatrix([[1, 1], [1, 0]]), Fraction(-1))",
    ],
)
def test_nonpositive_tol_raises_promptly(call):
    """A tolerance <= 0 is refused up front; bisecting to a width <= 0 would
    run to the step cap."""
    code = (
        "from fractions import Fraction\n"
        "from intlinalg import RealMatrix, extremal_singular_values, spectral_radius\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "tolerance must be positive\n"

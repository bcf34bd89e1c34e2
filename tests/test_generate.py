"""Seeded generators: determinism and class guarantees."""

from fractions import Fraction

import pytest

from conftest import run_under_optimize
from intlinalg import rho_less_than
from intlinalg.generate import (
    bidiagonal_system,
    gen_boundary_singular_matrix,
    gen_interval_matrix,
    gen_regular_matrix,
    gen_rhs,
    symmetric_stable_matrix,
    well_conditioned_system,
)
from intlinalg.regularity import is_regular_exact
from intlinalg.systems import _bidiagonal_layout, is_interval_m_matrix


def F(a, b=1):
    return Fraction(a, b)


def test_determinism():
    for klass in ("general", "bidiagonal", "mmatrix", "symmetric"):
        a = gen_interval_matrix(3, 3, 7, F(1, 4), klass)
        b = gen_interval_matrix(3, 3, 7, F(1, 4), klass)
        assert a == b
    assert gen_rhs(3, 5, F(1, 2)) == gen_rhs(3, 5, F(1, 2))
    assert gen_interval_matrix(2, 2, 1, F(1, 4)) != gen_interval_matrix(
        2, 2, 2, F(1, 4)
    )


def test_symmetric_class():
    a = gen_interval_matrix(3, 3, 11, F(1, 2), "symmetric")
    assert a.symmetric_views()


def test_mmatrix_class():
    for seed in range(6):
        a = gen_interval_matrix(3, 3, seed, F(1, 8), "mmatrix")
        assert is_interval_m_matrix(a)


def test_bidiagonal_class():
    for seed in range(6):
        a, _ = bidiagonal_system(3, seed)
        assert _bidiagonal_layout(a) in ("lower", "upper", "diagonal")


def test_regular_class_certified():
    for seed in range(6):
        a = gen_regular_matrix(3, seed)
        center, radius = a.midpoint_radius()
        assert rho_less_than(center.inverse().abs() @ radius, 1)
        assert is_regular_exact(a).answer


def test_boundary_class_is_singular():
    for seed in range(6):
        a = gen_boundary_singular_matrix(2, seed)
        assert not is_regular_exact(a).answer


def test_stable_class_midpoint_negative_definite():
    from intlinalg import SymmetricIntervalMatrix, hurwitz_sym

    count = 0
    for seed in range(8):
        a = symmetric_stable_matrix(2, seed)
        if hurwitz_sym(SymmetricIntervalMatrix(a)).answer:
            count += 1
    assert count >= 6


def test_well_conditioned_system_contract():
    from intlinalg.systems import _interval_gauss_elimination

    a, b = well_conditioned_system(2, 31337)
    center, radius = a.midpoint_radius()
    assert rho_less_than(center.inverse().abs() @ radius, 1)
    _interval_gauss_elimination(a, b)


def test_class_validation():
    with pytest.raises(ValueError):
        gen_interval_matrix(2, 2, 0, F(1, 2), "hilbert")
    with pytest.raises(ValueError):
        gen_interval_matrix(3, 2, 0, F(1, 2), "mmatrix")
    with pytest.raises(ValueError):
        gen_interval_matrix(2, 2, 0, F(-1, 2))
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        gen_rhs(2, 0, F(-1, 2))


@pytest.mark.parametrize(
    "call", ["gen_regular_matrix(2, 0)", "contraction_radius_matrix(2, 0)"]
)
def test_contraction_check_raises_under_optimize(call):
    """Both generators check rho < 1 on what they built with an explicit
    raise, which ``python -O`` keeps."""
    code = (
        "from intlinalg import generate\n"
        "from intlinalg.core import Verdict\n"
        "generate.rho_less_than = lambda *args: False\n"
        "generate.regularity_sufficient = lambda *args: Verdict.unknown()\n"
        "try:\n"
        f"    generate.{call}\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    assert run_under_optimize(code) == "raised\n"

"""One table over the orthant-sweep deciders at n = 2 and 3.

Each row names a decider, an instance and the answer with the sign vector
that the sweep reports first (orthants in ``SignVector.all`` order; the
nonnegative modes sweep the one orthant (1, ..., 1)).  Every
decider appears with both outcomes; hand-built instances cover the outcomes
that ``generate`` does not produce.  Certificates are re-checked here with
plain rational arithmetic, sharing no code with the deciders.
"""

from fractions import Fraction

import pytest

from intlinalg import (
    Interval,
    IntervalMatrix,
    IntervalVector,
    RealMatrix,
    has_full_column_rank_exact,
    hull_exact,
    ineq_solvability,
    is_regular_exact,
    solvability,
    tc_existence,
    tc_membership,
    vertex_system_hull,
)
from intlinalg import generate


def F(a, b=1):
    return Fraction(a, b)


def iv(lo, hi):
    return Interval(F(lo), F(hi))


def point(rows):
    return IntervalMatrix.degenerate(RealMatrix(rows))


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _matvec(rows, x):
    return [_dot(row, x) for row in rows]


def _columns(rows):
    return [list(col) for col in zip(*rows)]


def _inside_matrix(matrix, member):
    return all(
        matrix[i, j].lo <= member.rows[i][j] <= matrix[i, j].hi
        for i in range(matrix.m)
        for j in range(matrix.n)
    )


def _inside_vector(rhs, values):
    return len(values) == rhs.dim and all(
        rhs[i].lo <= v <= rhs[i].hi for i, v in enumerate(values)
    )


def _in_orthant(signs, x):
    return all(s * v >= 0 for s, v in zip(signs, x))


# -- instances -------------------------------------------------------------


def _system(n, seed):
    return generate.well_conditioned_system(n, seed)


def _regular(n, seed):
    return generate.gen_regular_matrix(n, seed), None


def _boundary_singular(n, seed):
    matrix = generate.gen_boundary_singular_matrix(n, seed)
    return matrix, generate.gen_rhs(n, seed, F(1, 4))


def _mmatrix(n, seed):
    return generate.mmatrix_system(n, seed)


def _overdetermined_inconsistent(n):
    """[I; e^T] x = (0, ..., 0, 1): full column rank, no solution."""
    rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    rows.append([F(1)] * n)
    rhs = IntervalVector([Interval(F(-1, 8), F(1, 8))] * n + [iv(1, 2)])
    return point(rows), rhs


def _parallel_rows(n):
    """x_1 + x_2 = b_1 and x_1 + x_2 = b_2 with disjoint b_1, b_2."""
    rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    rows[0][1] = rows[1][0] = rows[1][1] = F(1)
    rhs = [Interval(F(-1, 8), F(1, 8)), iv(1, 2)] + [iv(0, 0)] * (n - 2)
    return point(rows), IntervalVector(rhs)


def _capped(n):
    """x_i <= -1 on even i, x_i <= 1 on odd i: the first orthants are empty."""
    rhs = [iv(-2, -1) if i % 2 == 0 else iv(0, 1) for i in range(n)]
    return IntervalMatrix.identity(n), IntervalVector(rhs)


def _opposed_inequalities(n):
    """a x_1 <= -1 and -a' x_1 <= -1 with a, a' in [1, 2]: no x for any member."""
    entries = [[Interval.point(0)] * n for _ in range(n)]
    entries[0][0] = iv(1, 2)
    entries[1][0] = iv(-2, -1)
    for i in range(2, n):
        entries[i][i] = Interval.point(1)
    rhs = [iv(-2, -1), iv(-2, -1)] + [iv(0, 1)] * (n - 2)
    return IntervalMatrix(entries), IntervalVector(rhs)


INSTANCES = {
    "system-2": lambda: _system(2, 0),
    "system-3": lambda: _system(3, 0),
    "regular-2": lambda: _regular(2, 0),
    "regular-3": lambda: _regular(3, 0),
    "singular-2": lambda: _boundary_singular(2, 0),
    "singular-3": lambda: _boundary_singular(3, 0),
    "singular-3s1": lambda: _boundary_singular(3, 1),
    "mmatrix-2": lambda: _mmatrix(2, 0),
    "mmatrix-3": lambda: _mmatrix(3, 0),
    "inconsistent-2": lambda: _overdetermined_inconsistent(2),
    "inconsistent-3": lambda: _overdetermined_inconsistent(3),
    "parallel-2": lambda: _parallel_rows(2),
    "parallel-3": lambda: _parallel_rows(3),
    "capped-3": lambda: _capped(3),
    "opposed-2": lambda: _opposed_inequalities(2),
    "opposed-3": lambda: _opposed_inequalities(3),
}


# -- certificate checks ----------------------------------------------------


def _check_kernel(matrix, rhs, cert):
    assert _inside_matrix(matrix, cert.member)
    assert any(v != 0 for v in cert.witness)
    assert all(v == 0 for v in _matvec(cert.member.rows, cert.witness))
    assert _in_orthant(cert.sign_vector, cert.witness)


def _check_member_solution(matrix, rhs, cert):
    assert _inside_matrix(matrix, cert.member)
    assert _inside_vector(rhs, cert.rhs_member)
    assert _matvec(cert.member.rows, cert.witness) == list(cert.rhs_member)
    assert _in_orthant(cert.sign_vector, cert.witness)


def _check_farkas(matrix, rhs, cert, nonneg):
    p = cert.witness
    assert _inside_matrix(matrix, cert.member)
    assert _inside_vector(rhs, cert.rhs_member)
    at_p = _matvec(_columns(cert.member.rows), p)
    if nonneg:
        assert all(v >= 0 for v in at_p)
    else:
        assert all(v == 0 for v in at_p)
    assert _dot(cert.rhs_member, p) < 0
    assert _in_orthant(cert.sign_vector, p)


def _check_ineq_member(matrix, rhs, cert):
    assert _inside_matrix(matrix, cert.member)
    b_hi = [rhs[i].hi for i in range(rhs.dim)]
    assert list(cert.rhs_member) == b_hi
    assert all(v <= b for v, b in zip(_matvec(cert.member.rows, cert.witness), b_hi))
    assert _in_orthant(cert.sign_vector, cert.witness)


def _check_control(matrix, rhs, cert):
    assert tc_membership(matrix, rhs, cert.witness, "control")
    assert _in_orthant(cert.sign_vector, cert.witness)


# (decider, run, checker of a certificate, or None when that answer has none)
DECIDERS = {
    "regular": (lambda a, b: is_regular_exact(a), {False: _check_kernel}),
    "fullrank": (lambda a, b: has_full_column_rank_exact(a), {False: _check_kernel}),
    "weak": (lambda a, b: solvability(a, b, "weak"), {True: _check_member_solution}),
    "nonneg-weak": (
        lambda a, b: solvability(a, b, "nonneg-weak"),
        {True: _check_member_solution},
    ),
    "strong": (
        lambda a, b: solvability(a, b, "strong"),
        {False: lambda a, b, c: _check_farkas(a, b, c, nonneg=False)},
    ),
    "nonneg-strong": (
        lambda a, b: solvability(a, b, "nonneg-strong"),
        {False: lambda a, b, c: _check_farkas(a, b, c, nonneg=True)},
    ),
    "ineq-weak": (
        lambda a, b: ineq_solvability(a, b, "weak"),
        {True: _check_ineq_member},
    ),
    "ineq-nonneg-weak": (
        lambda a, b: ineq_solvability(a, b, "nonneg-weak"),
        {True: _check_ineq_member},
    ),
    "control": (lambda a, b: tc_existence(a, b, "control"), {True: _check_control}),
}

# (decider, instance, answer, first feasible orthant); answers and orthants
# are fixed by the lexicographic sweep order.
TABLE = [
    ("regular", "regular-2", True, None),
    ("regular", "regular-3", True, None),
    ("regular", "singular-2", False, (1, -1)),
    ("regular", "singular-3", False, (1, -1, 1)),
    ("fullrank", "regular-3", True, None),
    ("fullrank", "inconsistent-2", True, None),
    ("fullrank", "singular-2", False, (1, -1)),
    ("fullrank", "singular-3", False, (1, -1, 1)),
    ("weak", "system-2", True, (-1, 1)),
    ("weak", "system-3", True, (-1, -1, 1)),
    ("weak", "parallel-2", False, None),
    ("weak", "parallel-3", False, None),
    ("nonneg-weak", "mmatrix-2", True, (1, 1)),
    ("nonneg-weak", "mmatrix-3", True, (1, 1, 1)),
    ("nonneg-weak", "system-2", False, None),
    ("nonneg-weak", "parallel-3", False, None),
    ("strong", "system-2", True, None),
    ("strong", "system-3", True, None),
    ("strong", "singular-2", False, (1, 1)),
    ("strong", "singular-3", False, (1, -1, 1)),
    ("nonneg-strong", "mmatrix-2", True, None),
    ("nonneg-strong", "mmatrix-3", True, None),
    ("nonneg-strong", "system-2", False, (-1, 1)),
    ("nonneg-strong", "system-3", False, (1, 1, -1)),
    ("ineq-weak", "system-2", True, (1, 1)),
    ("ineq-weak", "capped-3", True, (-1, 1, -1)),
    ("ineq-weak", "opposed-2", False, None),
    ("ineq-weak", "opposed-3", False, None),
    ("ineq-nonneg-weak", "system-2", True, (1, 1)),
    ("ineq-nonneg-weak", "mmatrix-3", True, (1, 1, 1)),
    ("ineq-nonneg-weak", "capped-3", False, None),
    ("ineq-nonneg-weak", "opposed-2", False, None),
    ("control", "singular-2", True, (1, 1)),
    ("control", "singular-3s1", True, (1, 1, 1)),
    ("control", "system-2", False, None),
    ("control", "system-3", False, None),
]


@pytest.mark.parametrize(
    "decider,instance,answer,signs",
    TABLE,
    ids=[f"{d}-{i}" for d, i, _, _ in TABLE],
)
def test_sweep_decider_table(decider, instance, answer, signs):
    matrix, rhs = INSTANCES[instance]()
    run, checkers = DECIDERS[decider]
    decision = run(matrix, rhs)
    assert decision.answer is answer
    cert = decision.certificate
    assert (cert.sign_vector if cert is not None else None) == signs
    check = checkers.get(answer)
    if check is not None:
        check(matrix, rhs, cert)


# hull_exact: a box equal to the vertex hull, or the empty solution set.
HULL_TABLE = [
    ("system-2", False),
    ("system-3", False),
    ("inconsistent-2", True),
    ("inconsistent-3", True),
]


@pytest.mark.parametrize("instance,empty", HULL_TABLE, ids=[i for i, _ in HULL_TABLE])
def test_hull_exact_table(instance, empty):
    matrix, rhs = INSTANCES[instance]()
    report = hull_exact(matrix, rhs)
    assert report.insolvability_detected is empty
    if empty:
        assert report.box is None
    else:
        assert report.box == vertex_system_hull(matrix, rhs)

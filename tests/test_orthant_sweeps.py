"""One table over the orthant-sweep deciders at n = 2 and 3.

Each row names a decider, an instance and the answer with the sign vector
that the sweep reports first (orthants in ``SignVector.all`` order; the
nonnegative modes sweep the one orthant (1, ..., 1)).  Every
decider appears with both outcomes; hand-built instances cover the outcomes
that ``generate`` does not produce.  Certificates are re-checked here with
plain rational arithmetic, sharing no code with the deciders.
"""

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import interval_matrices, interval_vectors
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
from intlinalg.lp import GEQ, LEQ, Constraint, LinearProgram, lp_feasible, lp_optimize
from intlinalg.matrices import SignVector
from test_lp import _oettli_prager_formula, _times


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


# -- the per-orthant programs in x, built here as a referee ------------------
#
# Per orthant s, the loop below builds the program in x that each sweep
# decides: the rows of ``_oettli_prager_formula`` in D_s times L, with the
# sign bounds s_j x_j >= 0, solved by ``lp_feasible``.  The first feasible
# orthant and its exact witness (not just the answer) must match each
# decider's certificate, and the 2n optima per feasible orthant must give
# ``hull_exact``'s box: the pivots of the sweep are those of these programs.


def _lcm(*groups):
    """The least common multiple of the denominators of every number in
    ``groups``."""
    return math.lcm(*(Fraction(q).denominator for g in groups for q in g))


def _ends(matrix):
    return [q for row in matrix.entries for e in row for q in (e.lo, e.hi)]


def _orthant_program(rows, s, objective=None):
    bounds = tuple((0, None) if e > 0 else (None, 0) for e in s)
    return LinearProgram(objective or (0,) * s.dim, tuple(rows), bounds)


def _referee_sweep(decider, matrix, rhs):
    """(answer when some orthant is feasible, orthants, rows per orthant)."""
    m, n = matrix.shape
    center, rad = matrix.midpoint_radius()
    zero_m, zero_n = (F(0),) * m, (F(0),) * n
    every = list(SignVector.all(n))
    if decider in ("regular", "fullrank"):
        scale = _lcm(_ends(matrix))
        return False, every, lambda s: _times(
            _oettli_prager_formula(center, rad, s, zero_m, zero_m), scale
        ) + [Constraint(tuple(scale * e for e in s), GEQ, scale)]
    b_mid, b_rad = rhs.midpoint_radius()
    scale = _lcm(_ends(matrix), rhs.lower(), rhs.upper())
    nonneg = decider.endswith("nonneg-weak")
    signs = [SignVector.ones(n)] if nonneg else every
    if decider in ("weak", "nonneg-weak"):
        return True, signs, lambda s: _times(
            _oettli_prager_formula(center, rad, s, b_mid, b_rad), scale
        )
    if decider == "control":
        minus_d = tuple(-v for v in b_rad)
        return True, every, lambda s: _times(
            _oettli_prager_formula(center, rad, s, b_mid, minus_d), scale
        )
    if decider in ("ineq-weak", "ineq-nonneg-weak"):
        b_hi = rhs.upper()
        scale = _lcm(_ends(matrix), b_hi)
        return True, signs, lambda s: _times(
            _oettli_prager_formula(center, rad, s, b_hi, zero_m)[0::2], scale
        )
    # strong and nonneg-strong, on the transpose, over the orthants of p
    def strong_rows(s):
        pairs = _oettli_prager_formula(
            center.transpose(), rad.transpose(), s, zero_n, zero_n
        )
        b_row = tuple(b_mid[i] - b_rad[i] * s[i] for i in range(m))
        chosen = pairs[1::2] if decider == "nonneg-strong" else pairs
        return _times(chosen + [Constraint(b_row, LEQ, F(-1))], scale)

    return False, list(SignVector.all(m)), strong_rows


def _referee_first_orthant(signs, rows_for):
    for s in signs:
        outcome = lp_feasible(_orthant_program(rows_for(s), s))
        if outcome.answer:
            return s, outcome.certificate.witness
    return None


def _referee_hull(matrix, rhs):
    n = matrix.n
    _, signs, rows_for = _referee_sweep("weak", matrix, rhs)
    lo, hi = [None] * n, [None] * n
    for s in signs:
        rows = rows_for(s)
        if not lp_feasible(_orthant_program(rows, s)).answer:
            continue
        for j in range(n):
            for direction in (1, -1):
                obj = tuple(direction if t == j else 0 for t in range(n))
                sol = lp_optimize(_orthant_program(rows, s, obj))
                assert sol.status == "optimal"
                v = sol.x[j]
                if direction == 1:
                    hi[j] = v if hi[j] is None else max(hi[j], v)
                else:
                    lo[j] = v if lo[j] is None else min(lo[j], v)
    return None if lo[0] is None else IntervalVector.from_bounds(tuple(lo), tuple(hi))


def _applies(decider, matrix):
    m, n = matrix.shape
    return {"regular": m == n, "fullrank": m >= n}.get(decider, True)


def _check_against_referee(matrix, rhs):
    for decider, (run, _) in DECIDERS.items():
        if not _applies(decider, matrix):
            continue
        found, signs, rows_for = _referee_sweep(decider, matrix, rhs)
        hit = _referee_first_orthant(signs, rows_for)
        decision = run(matrix, rhs)
        if hit is None:
            assert decision.answer is not found, decider
            assert decision.certificate is None or decision.certificate.sign_vector is None
        else:
            s, x = hit
            assert decision.answer is found, decider
            assert decision.certificate.sign_vector == s.entries, decider
            assert decision.certificate.witness == x, decider
    if matrix.m >= matrix.n and has_full_column_rank_exact(matrix).answer:
        assert hull_exact(matrix, rhs).box == _referee_hull(matrix, rhs)


def _corpus():
    for n in (2, 3, 4):
        for seed in range(2):
            system = generate.well_conditioned_system(n, seed)
            yield f"system-{n}-{seed}", system
            matrix, rhs = system
            mid, _ = rhs.midpoint_radius()
            centred = IntervalVector([Interval(e.lo - v, e.hi - v) for e, v in zip(rhs.entries, mid)])
            yield f"centred-{n}-{seed}", (matrix, centred)
            yield f"mmatrix-{n}-{seed}", generate.mmatrix_system(n, seed)
            side = generate.gen_rhs(n, seed, F(1, 4))
            yield f"regular-{n}-{seed}", (generate.gen_regular_matrix(n, seed), side)
            yield f"singular-{n}-{seed}", (
                generate.gen_boundary_singular_matrix(n, seed), side
            )
            yield f"tall-{n}-{seed}", (
                generate.gen_interval_matrix(n + 1, n, seed, F(1, 2)),
                generate.gen_rhs(n + 1, seed, F(1, 2)),
            )
    for name, make in INSTANCES.items():
        matrix, rhs = make()
        yield name, (matrix, rhs or generate.gen_rhs(matrix.m, 0, F(1, 4)))


CORPUS = list(_corpus())


class TestPerOrthantReferee:
    """Every sweep decider and ``hull_exact`` against the per-orthant
    programs of the formula: same first orthant, same witness, same box."""

    @pytest.mark.parametrize("name,system", CORPUS, ids=[k for k, _ in CORPUS])
    def test_generated(self, name, system):
        _check_against_referee(*system)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random(self, data):
        m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        matrix = data.draw(interval_matrices(m, n))
        _check_against_referee(matrix, data.draw(interval_vectors(m)))

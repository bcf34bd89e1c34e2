"""Each orthant LP of a sweep against a cold phase 1 on its own rows.

An orthant program of ``feasible_orthants`` is the sweep's integer rows
over (x+, x-) with one half of each pair fixed at 0 by its bounds.  Its
standard form must hold exactly the phase-1 end state (tableau, basis,
denominator and nonbasic columns) that ``lp._phase1`` computes from
scratch on the rows restricted to the free halves, for every orthant that
the kernel, weak, strong, control and ``hull_exact`` sweeps visit.
"""

from fractions import Fraction

import pytest

from intlinalg import (
    hull_exact,
    is_regular_exact,
    solvability,
    tc_existence,
)
from intlinalg import generate, lp
from intlinalg.errors import MalformedProgram, UnboundedSolutionSet
from intlinalg.lp import GEQ, LEQ, LinearProgram, feasible_orthants, lp_feasible, lp_optimize
from intlinalg.matrices import SignVector

SWEEPS = {
    "kernel": lambda matrix, rhs: is_regular_exact(matrix),
    "weak": lambda matrix, rhs: solvability(matrix, rhs, "weak"),
    "strong": lambda matrix, rhs: solvability(matrix, rhs, "strong"),
    "control": lambda matrix, rhs: tc_existence(matrix, rhs, "control"),
    "hull_exact": lambda matrix, rhs: hull_exact(matrix, rhs),
}


def _corpus(n):
    """Regular, boundary-singular and well-conditioned systems of size n."""
    for seed in range(2):
        rhs = generate.gen_rhs(n, seed, Fraction(1, 2))
        yield f"regular-{seed}", generate.gen_regular_matrix(n, seed), rhs
        yield f"boundary-{seed}", generate.gen_boundary_singular_matrix(n, seed), rhs
        yield (f"well-conditioned-{seed}", *generate.well_conditioned_system(n, seed))


def _orthant_programs(sweep, matrix, rhs):
    """Every program the sweep hands to ``lp_feasible``, in order."""
    programs = []
    real = lp.lp_feasible
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "lp_feasible", lambda p: programs.append(p) or real(p))
        try:
            SWEEPS[sweep](matrix, rhs)
        except UnboundedSolutionSet:
            pass  # hull_exact on a singular matrix stops after its rank sweep
    return programs


def _free_halves(program):
    """The split column that the orthant's bounds leave free, x+_j or x-_j,
    for each j in turn."""
    n = program.nvars // 2
    return [j if program.bounds[j] == (0, None) else n + j for j in range(n)]


def _picked(program):
    """The orthant's integer rows on its free columns, their relations and
    the column count: the input of a cold phase 1."""
    free = _free_halves(program)
    rows = [[con.coeffs[j] for j in free] + [con.rhs] for con in program.constraints]
    return rows, [con.relation for con in program.constraints], len(free)


class TestOrthantPhase1Referee:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_phase1_equals_cold_phase1(self, sweep, n):
        outcomes = set()
        for name, matrix, rhs in _corpus(n):
            programs = _orthant_programs(sweep, matrix, rhs)
            assert programs, name
            for k, program in enumerate(programs):
                free = _free_halves(program)
                assert sorted(program.bounds[j] for j in free) == [(0, None)] * n
                assert all(
                    program.bounds[j] == (0, 0) for j in range(2 * n) if j not in free
                ), (name, k)
                rows, rels, width = _picked(program)
                assert all(type(v) is int for row in rows for v in row), (name, k)
                std = program.standard_form
                assert std.columns == [(j, 1) for j in free], (name, k)
                assert std.phase1 == lp._phase1(rows, rels, width), (name, k)
                outcomes.add(std.phase1 is None)
                if sweep == "kernel" or (sweep == "hull_exact" and k < 2 ** n):
                    # e^T (x+ + x-) >= 1 starts on an artificial
                    assert program.constraints[-1].relation == GEQ, (name, k)
                if sweep == "strong":
                    # b_c - D_s d <= -1: flipped, so it starts on an artificial
                    last = program.constraints[-1]
                    assert last.relation == LEQ and last.rhs < 0, (name, k)
        assert outcomes == {True, False}


class TestOrthantProgramCopies:
    """Orthant programs and ``with_objective`` copies share what they may
    and nothing else."""

    def test_orthants_of_one_sweep_keep_their_own_bounds(self):
        matrix = generate.gen_regular_matrix(3, 0)
        programs = _orthant_programs("kernel", matrix, None)
        assert len(programs) == 8
        assert len({p.bounds for p in programs}) == 8
        assert len({id(p.standard_form) for p in programs}) == 8
        for p in programs:
            assert p.objective == (0,) * 6
            assert p.constraints is programs[0].constraints
            assert [j for j, _ in p.standard_form.columns] == _free_halves(p)

    def test_with_objective_changes_the_copy_only(self):
        p = LinearProgram(
            (1, 1),
            (lp.Constraint((1, 2), LEQ, 4), lp.Constraint((3, 1), LEQ, 6)),
            ((0, None), (0, None)),
        )
        first = lp_optimize(p)
        twin = p.with_objective((2, -1))
        assert p.objective == (1, 1) and twin.objective == (2, -1)
        assert twin.constraints is p.constraints and twin.bounds is p.bounds
        assert twin.standard_form is p.standard_form
        assert lp_optimize(twin).value == 4
        assert lp_optimize(p) == first
        assert lp_feasible(twin) == lp_feasible(p)


class TestOrthantSweepStart:
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_one_start_per_sweep(self, monkeypatch, sweep):
        """Every orthant of a sweep starts from one phase-1 start; hull_exact
        runs two sweeps, the rank check and the hull."""
        matrix, rhs = generate.well_conditioned_system(3, 0)
        starts = []
        real = lp._phase1_start
        monkeypatch.setattr(
            lp, "_phase1_start", lambda *args: starts.append(args) or real(*args)
        )
        programs = _orthant_programs(sweep, matrix, rhs)
        assert len(programs) > 1
        assert len(starts) == (2 if sweep == "hull_exact" else 1)

    def test_no_rows_is_malformed(self):
        with pytest.raises(MalformedProgram):
            next(feasible_orthants(SignVector.all(2), []))

    def test_fraction_rows_are_malformed(self):
        rows = [lp.Constraint((1, Fraction(1, 2)), LEQ, 1)]
        with pytest.raises(MalformedProgram):
            next(feasible_orthants(SignVector.all(1), rows))

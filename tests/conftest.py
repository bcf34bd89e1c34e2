"""Shared strategies and helpers for the test suite."""

import os
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st

from intlinalg import Interval, IntervalMatrix, IntervalVector, RealMatrix
from intlinalg.regularity import _preconditioned


def rationals(max_num=12, max_den=8):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def intervals(max_num=12, max_den=8):
    return st.builds(
        lambda a, b: Interval(min(a, b), max(a, b)),
        rationals(max_num, max_den),
        rationals(max_num, max_den),
    )


def interval_matrices(m, n, max_num=6, max_den=4):
    return st.lists(
        st.lists(intervals(max_num, max_den), min_size=n, max_size=n),
        min_size=m,
        max_size=m,
    ).map(IntervalMatrix)


def interval_vectors(m, max_num=6, max_den=4):
    return st.lists(intervals(max_num, max_den), min_size=m, max_size=m).map(
        IntervalVector
    )


def real_matrices(m, n, max_num=6, max_den=4):
    return st.lists(
        st.lists(rationals(max_num, max_den), min_size=n, max_size=n),
        min_size=m,
        max_size=m,
    ).map(RealMatrix)


def preconditioned_fractions(matrix: IntervalMatrix, rhs: IntervalVector):
    """``regularity._preconditioned``'s (p, x_c, q, u) as a RealMatrix, two
    tuples of Fractions and a tuple of Fractions or None: its integers P, X
    and Q divided by its scale k."""
    p, xc, q, k, u = _preconditioned(matrix, rhs)
    return (
        RealMatrix([[Fraction(v, k) for v in row] for row in p]),
        tuple(Fraction(v, k) for v in xc),
        tuple(Fraction(v, k) for v in q),
        u,
    )


def grid_sample(rng, interval: Interval, grid=1 << 10) -> Fraction:
    k = rng.randint(0, grid)
    return interval.lo + (interval.hi - interval.lo) * Fraction(k, grid)


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run_under_optimize(code: str) -> str:
    """Standard output of ``code`` run by ``python -O`` on this source tree;
    the run must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run(
        [sys.executable, "-O", "-c", "assert False, 'asserts must be off'\n" + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout

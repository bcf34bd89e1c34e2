"""Independent brute-force references used to validate the exact deciders.

Deliberately dependent on nothing but the core scalar/matrix types: the
evidence these produce must not share code paths with the procedures they
check.  All enumeration is desk scale and guarded.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence

from .core import Interval
from .errors import SingularEndpointMatrix, SizeGuardExceeded
from .matrices import (
    IntervalMatrix,
    IntervalVector,
    RealMatrix,
    SignVector,
    Vector,
)

SAMPLE_GRID = 1 << 16


@dataclass(frozen=True)
class SampledMember:
    matrix: RealMatrix
    rhs: Vector
    seed: int


def _grid_point(rng: random.Random, box: Interval) -> Fraction:
    k = rng.randint(0, SAMPLE_GRID)
    return box.lo + (box.hi - box.lo) * Fraction(k, SAMPLE_GRID)


def sample_members(
    matrix: IntervalMatrix,
    rhs: Optional[IntervalVector],
    seed: int,
    count: int,
) -> List[SampledMember]:
    """Deterministic members drawn on a 2^16 rational grid per entry."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        member = RealMatrix(
            [[_grid_point(rng, e) for e in row] for row in matrix.entries]
        )
        if rhs is not None:
            vec = tuple(_grid_point(rng, e) for e in rhs.entries)
        else:
            vec = tuple([Fraction(0)] * matrix.m)
        out.append(SampledMember(member, vec, seed))
    return out


def endpoint_matrices(matrix: IntervalMatrix) -> Iterator[RealMatrix]:
    """All matrices with every entry at an interval endpoint."""
    choices = []
    for row in matrix.entries:
        for e in row:
            choices.append((e.lo,) if e.is_degenerate() else (e.lo, e.hi))
    n = matrix.n
    for combo in itertools.product(*choices):
        yield RealMatrix(
            [combo[i * n : (i + 1) * n] for i in range(matrix.m)]
        )


def endpoint_vectors(box: IntervalVector) -> Iterator[Vector]:
    choices = [
        (e.lo,) if e.is_degenerate() else (e.lo, e.hi) for e in box.entries
    ]
    for combo in itertools.product(*choices):
        yield combo


def vertex_det_singularity(matrix: IntervalMatrix) -> bool:
    """True iff the determinant range over endpoint matrices straddles zero."""
    if matrix.m != matrix.n:
        raise SizeGuardExceeded("vertex determinant oracle needs a square matrix")
    if matrix.n > 3:
        raise SizeGuardExceeded("vertex determinant oracle guarded to n <= 3")
    lo = hi = None
    for member in endpoint_matrices(matrix):
        d = member.det()
        lo = d if lo is None else min(lo, d)
        hi = d if hi is None else max(hi, d)
        if lo <= 0 <= hi:
            return True
    return lo <= 0 <= hi


def vertex_det_range(matrix: IntervalMatrix) -> Interval:
    """Exact determinant range endpoints over all boundary matrices."""
    if matrix.m != matrix.n:
        raise SizeGuardExceeded("vertex determinant oracle needs a square matrix")
    if matrix.n > 3:
        raise SizeGuardExceeded("vertex determinant oracle guarded to n <= 3")
    values = [member.det() for member in endpoint_matrices(matrix)]
    return Interval(min(values), max(values))


def vertex_system_hull(matrix: IntervalMatrix, rhs: IntervalVector) -> IntervalVector:
    """Hull of the solutions of every endpoint system (an inner bound)."""
    if matrix.m != matrix.n:
        raise SizeGuardExceeded("endpoint-system oracle needs a square matrix")
    if matrix.n > 3:
        raise SizeGuardExceeded("endpoint-system oracle guarded to n <= 3")
    lo: Optional[List[Fraction]] = None
    hi: Optional[List[Fraction]] = None
    for member in endpoint_matrices(matrix):
        if member.det() == 0:
            raise SingularEndpointMatrix("an endpoint matrix is singular")
        for b in endpoint_vectors(rhs):
            x = member.solve(b)
            if lo is None:
                lo = list(x)
                hi = list(x)
            else:
                lo = [min(a, v) for a, v in zip(lo, x)]
                hi = [max(a, v) for a, v in zip(hi, x)]
    return IntervalVector.from_bounds(tuple(lo), tuple(hi))


def vertex_inverse(matrix: IntervalMatrix) -> IntervalMatrix:
    """Componentwise min/max of the 4^n vertex inverses A_yz^-1, which is
    the inverse hull of a regular matrix (Rohn 1993)."""
    if matrix.m != matrix.n:
        raise SizeGuardExceeded("vertex inverse oracle needs a square matrix")
    if matrix.n > 4:
        raise SizeGuardExceeded("vertex inverse oracle guarded to n <= 4")
    n = matrix.n
    inverses = [
        matrix.vertex_matrix(y, z).inverse().rows
        for y in SignVector.all(n)
        for z in SignVector.all(n)
    ]
    lower = [[min(v[i][j] for v in inverses) for j in range(n)] for i in range(n)]
    upper = [[max(v[i][j] for v in inverses) for j in range(n)] for i in range(n)]
    return IntervalMatrix.from_bounds(RealMatrix(lower), RealMatrix(upper))


def vertex_matvec_hull(matrix: IntervalMatrix, x: Sequence[Fraction]) -> IntervalVector:
    """Hull of A_yz @ x over all sign-vector vertices."""
    lo: Optional[List[Fraction]] = None
    hi: Optional[List[Fraction]] = None
    for y in SignVector.all(matrix.m):
        for z in SignVector.all(matrix.n):
            v = matrix.vertex_matrix(y, z).matvec(x)
            if lo is None:
                lo = list(v)
                hi = list(v)
            else:
                lo = [min(a, w) for a, w in zip(lo, v)]
                hi = [max(a, w) for a, w in zip(hi, v)]
    return IntervalVector.from_bounds(tuple(lo), tuple(hi))

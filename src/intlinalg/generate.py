"""Seeded instance generators for matrices, right-hand sides, and corpora.

All randomness flows through ``random.Random`` seeded from the caller's
integers, with every entry taken on a rational grid, so instances are
reproducible bit-exactly across platforms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from .core import Interval, rational
from .errors import PivotContainsZero
from .matrices import IntervalMatrix, IntervalVector, RealMatrix
from .regularity import regularity_sufficient
from .spectral import rho_less_than

MATRIX_CLASSES = ("general", "bidiagonal", "mmatrix", "symmetric")
MID_GRID = 8
RAD_GRID = 1 << 16


def _grid(rng: random.Random, lo: Fraction, hi: Fraction, grid: int) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randint(0, grid), grid)


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def gen_interval_matrix(
    m: int, n: int, seed: int, radius, klass: str = "general"
) -> IntervalMatrix:
    """Seeded m x n interval matrix of the requested structure class."""
    radius = rational(radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if klass not in MATRIX_CLASSES:
        raise ValueError(f"unknown matrix class {klass!r}")
    rng = _rng("imx", klass, m, n, seed, radius)
    if klass in ("bidiagonal", "mmatrix") and m != n:
        raise ValueError(f"{klass} matrices must be square")
    if klass == "symmetric" and m != n:
        raise ValueError("symmetric matrices must be square")

    if klass == "bidiagonal":
        lower_band = rng.random() < 0.5
        center = [[Fraction(0)] * n for _ in range(n)]
        rad = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            body = _grid(rng, Fraction(1), Fraction(3), MID_GRID)
            sign = -1 if rng.random() < 0.5 else 1
            center[i][i] = sign * body
            rad[i][i] = min(_grid(rng, Fraction(0), radius, RAD_GRID), body / 2)
        for i in range(n):
            j = i - 1 if lower_band else i + 1
            if 0 <= j < n:
                center[i][j] = _grid(rng, Fraction(-2), Fraction(2), MID_GRID)
                rad[i][j] = _grid(rng, Fraction(0), radius, RAD_GRID)
        return IntervalMatrix.from_midpoint_radius(RealMatrix(center), RealMatrix(rad))

    if klass == "mmatrix":
        off_lo = [[Fraction(0)] * n for _ in range(n)]
        off_rad = [[Fraction(0)] * n for _ in range(n)]
        center = [[Fraction(0)] * n for _ in range(n)]
        rad = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                base = _grid(rng, Fraction(0), Fraction(1), MID_GRID)
                spread = _grid(rng, Fraction(0), radius, RAD_GRID)
                # entry interval [-(base+2*spread), -base] stays nonpositive
                center[i][j] = -(base + spread)
                rad[i][j] = spread
                off_lo[i][j] = base + 2 * spread
        for i in range(n):
            dominance = sum(off_lo[i][j] for j in range(n) if j != i)
            spread = _grid(rng, Fraction(0), radius, RAD_GRID)
            margin = _grid(rng, Fraction(1, 2), Fraction(2), MID_GRID)
            center[i][i] = dominance + margin + spread
            rad[i][i] = spread
        return IntervalMatrix.from_midpoint_radius(RealMatrix(center), RealMatrix(rad))

    center = [
        [_grid(rng, Fraction(-3), Fraction(3), MID_GRID) for _ in range(n)]
        for _ in range(m)
    ]
    rad = [
        [_grid(rng, Fraction(0), radius, RAD_GRID) for _ in range(n)]
        for _ in range(m)
    ]
    if klass == "symmetric":
        for i in range(n):
            for j in range(i + 1, n):
                center[j][i] = center[i][j]
                rad[j][i] = rad[i][j]
    return IntervalMatrix.from_midpoint_radius(RealMatrix(center), RealMatrix(rad))


def gen_rhs(m: int, seed: int, radius) -> IntervalVector:
    radius = rational(radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rng = _rng("rhs", m, seed, radius)
    mids = [_grid(rng, Fraction(-3), Fraction(3), MID_GRID) for _ in range(m)]
    rads = [_grid(rng, Fraction(0), radius, RAD_GRID) for _ in range(m)]
    return IntervalVector(
        [Interval(mid - r, mid + r) for mid, r in zip(mids, rads)]
    )


def _invertible_center(n: int, rng: random.Random) -> RealMatrix:
    while True:
        center = RealMatrix(
            [
                [_grid(rng, Fraction(-3), Fraction(3), MID_GRID) for _ in range(n)]
                for _ in range(n)
            ]
        )
        if center.det() != 0:
            return center


def gen_regular_matrix(n: int, seed: int, shrink=Fraction(1, 2)) -> IntervalMatrix:
    """Interval matrix with a certified contraction rho(|C^-1| R) < 1."""
    shrink = rational(shrink)
    rng = _rng("regular", n, seed)
    center = _invertible_center(n, rng)
    raw = [
        [_grid(rng, Fraction(0), Fraction(1), RAD_GRID) for _ in range(n)]
        for _ in range(n)
    ]
    scaled = RealMatrix(raw)
    weights = center.inverse().abs() @ scaled
    row_sum = max(
        sum(weights.rows[i][j] for j in range(n)) for i in range(n)
    )
    if row_sum > 0:
        scaled = scaled.scale(shrink / row_sum)
    matrix = IntervalMatrix.from_midpoint_radius(center, scaled)
    if not regularity_sufficient(matrix, 1).is_proven:
        raise AssertionError("the scaled radius fails rho(|C^-1| R) < 1")
    return matrix


def gen_boundary_singular_matrix(n: int, seed: int) -> IntervalMatrix:
    """Singular instance where the kernel member sits on the boundary."""
    rng = _rng("boundary", n, seed)
    center = _invertible_center(n, rng)
    x = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(n)]
    cx = center.matvec(tuple(x))
    norm = sum((v * v for v in x), Fraction(0))
    rad = RealMatrix(
        [[abs(cx[i]) * abs(x[j]) / norm for j in range(n)] for i in range(n)]
    )
    return IntervalMatrix.from_midpoint_radius(center, rad)


def regularity_corpus(count: int, n_values=(2, 3), seed0: int = 0) -> List[IntervalMatrix]:
    """Mix of certified-regular, wide (mostly singular), and boundary cases."""
    out = []
    for i in range(count):
        n = n_values[i % len(n_values)]
        bucket = i % 5
        seed = seed0 + i
        if bucket in (0, 1):
            out.append(gen_regular_matrix(n, seed))
        elif bucket in (2, 3):
            out.append(gen_interval_matrix(n, n, seed, Fraction(3, 2), "general"))
        else:
            out.append(gen_boundary_singular_matrix(n, seed))
    return out


def well_conditioned_system(
    n: int, seed: int
) -> Tuple[IntervalMatrix, IntervalVector]:
    """Regular system on which every enclosure method applies.

    Scans seeds deterministically until the contraction holds and interval
    elimination accepts the pivots, which read the matrix alone.
    """
    from .systems import _forward_elimination

    attempt = seed
    while True:
        rng = _rng("system", n, attempt)
        center_rows = []
        for i in range(n):
            row = [
                _grid(rng, Fraction(-1), Fraction(1), MID_GRID) for _ in range(n)
            ]
            row[i] = _grid(rng, Fraction(2), Fraction(4), MID_GRID) * (
                -1 if rng.random() < 0.5 else 1
            )
            center_rows.append(row)
        center = RealMatrix(center_rows)
        rad = RealMatrix(
            [
                [_grid(rng, Fraction(0), Fraction(1, 8), RAD_GRID) for _ in range(n)]
                for _ in range(n)
            ]
        )
        matrix = IntervalMatrix.from_midpoint_radius(center, rad)
        rhs = gen_rhs(n, attempt, Fraction(1, 4))
        ok = regularity_sufficient(matrix, 1).is_proven
        if ok:
            try:
                _forward_elimination(matrix.entries)
            except PivotContainsZero:
                ok = False
        if ok:
            return matrix, rhs
        attempt += 10007


def mmatrix_system(n: int, seed: int) -> Tuple[IntervalMatrix, IntervalVector]:
    matrix = gen_interval_matrix(n, n, seed, Fraction(1, 8), "mmatrix")
    rhs = gen_rhs(n, seed, Fraction(1, 2))
    return matrix, rhs


def bidiagonal_system(n: int, seed: int) -> Tuple[IntervalMatrix, IntervalVector]:
    matrix = gen_interval_matrix(n, n, seed, Fraction(1, 4), "bidiagonal")
    rhs = gen_rhs(n, seed, Fraction(1, 2))
    return matrix, rhs


def contraction_radius_matrix(n: int, seed: int) -> RealMatrix:
    """Nonnegative radius matrix with rho below one (row sums < 1)."""
    rng = _rng("contraction", n, seed)
    raw = [
        [_grid(rng, Fraction(0), Fraction(1), RAD_GRID) for _ in range(n)]
        for _ in range(n)
    ]
    matrix = RealMatrix(raw)
    top = max(
        sum(matrix.rows[i][j] for j in range(n)) for i in range(n)
    )
    if top > 0:
        matrix = matrix.scale(Fraction(3, 4) / top)
    if not rho_less_than(matrix, 1):
        raise AssertionError("the scaled radius matrix has rho >= 1")
    return matrix


def symmetric_stable_matrix(n: int, seed: int) -> IntervalMatrix:
    """Symmetric interval matrix whose members are Hurwitz stable."""
    rng = _rng("stable", n, seed)
    center = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j:
                center[i][j] = -_grid(rng, Fraction(3), Fraction(5), MID_GRID)
            else:
                center[i][j] = _grid(rng, Fraction(-1, 2), Fraction(1, 2), MID_GRID)
                center[j][i] = center[i][j]
    rad = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rad[i][j] = _grid(rng, Fraction(0), Fraction(1, 4), RAD_GRID)
            rad[j][i] = rad[i][j]
    return IntervalMatrix.from_midpoint_radius(RealMatrix(center), RealMatrix(rad))


def symmetric_corpus(count: int, n_values=(2, 3), seed0: int = 0) -> List[IntervalMatrix]:
    out = []
    for i in range(count):
        n = n_values[i % len(n_values)]
        out.append(gen_interval_matrix(n, n, seed0 + i, Fraction(1, 2), "symmetric"))
    return out

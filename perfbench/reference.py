"""Exact rational arithmetic that the benchmark checks the program against.

Nothing here imports intlinalg: an interval matrix is a pair of row lists
(lower and upper endpoints, as Fractions) and every solve, inverse and
product is done by this file's own Gaussian elimination.  The checks in
``workloads.py`` compare the program's outputs with these computations.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Rows = List[List[Fraction]]
Vec = Tuple[Fraction, ...]


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[Vec]:
    """The unique solution of a square system, or None when it is singular."""
    n = len(rows)
    work = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for k in range(n):
        pivot = next((r for r in range(k, n) if work[r][k] != 0), None)
        if pivot is None:
            return None
        work[k], work[pivot] = work[pivot], work[k]
        top = work[k]
        for r in range(k + 1, n):
            factor = work[r][k] / top[k]
            if factor:
                row = work[r]
                for c in range(k, n + 1):
                    row[c] -= factor * top[c]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = work[k][n] - sum(work[k][c] * x[c] for c in range(k + 1, n))
        x[k] = acc / work[k][k]
    return tuple(x)


def inverse(rows: Sequence[Sequence[Fraction]]) -> Optional[Rows]:
    """Gauss-Jordan inverse, or None when the matrix is singular."""
    n = len(rows)
    work = [
        list(row) + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for k in range(n):
        pivot = next((r for r in range(k, n) if work[r][k] != 0), None)
        if pivot is None:
            return None
        work[k], work[pivot] = work[pivot], work[k]
        top = [v / work[k][k] for v in work[k]]
        work[k] = top
        for r in range(n):
            factor = work[r][k]
            if r != k and factor:
                work[r] = [v - factor * w for v, w in zip(work[r], top)]
    return [row[n:] for row in work]


def matmul(a: Rows, b: Rows) -> Rows:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matvec(rows: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Vec:
    return tuple(sum(a * v for a, v in zip(row, x)) for row in rows)


def midpoint_radius(lo: Rows, hi: Rows) -> Tuple[Rows, Rows]:
    mid = [[(a + b) / 2 for a, b in zip(rl, rh)] for rl, rh in zip(lo, hi)]
    rad = [[(b - a) / 2 for a, b in zip(rl, rh)] for rl, rh in zip(lo, hi)]
    return mid, rad


def inside(lo: Sequence[Sequence[Fraction]], hi: Sequence[Sequence[Fraction]], member) -> bool:
    """Every entry of ``member`` lies between the matching endpoints."""
    return len(member) == len(lo) and all(
        len(row) == len(rl) and all(a <= v <= b for a, v, b in zip(rl, row, rh))
        for rl, row, rh in zip(lo, member, hi)
    )


def certified_regular(lo: Rows, hi: Rows, squarings: int = 6) -> bool:
    """A sufficient proof of regularity: rho(|C^-1| R) < 1.

    The spectral radius is below one when some power of P = |C^-1| R has a
    row-sum norm below one; the powers P, P^2, P^4, ... are tried exactly.
    """
    mid, rad = midpoint_radius(lo, hi)
    inv = inverse(mid)
    if inv is None:
        return False
    power = matmul([[abs(v) for v in row] for row in inv], rad)
    for _ in range(squarings + 1):
        if max(sum(row) for row in power) < 1:
            return True
        power = matmul(power, power)
    return False


def endpoint_members(
    lo: Rows, hi: Rows, b_lo: Vec, b_hi: Vec, seed: str, count: int
) -> List[Tuple[Rows, Vec]]:
    """``count`` seeded systems with every entry at one of its endpoints."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        member = [
            [a if rng.random() < 0.5 else b for a, b in zip(rl, rh)]
            for rl, rh in zip(lo, hi)
        ]
        rhs = tuple(a if rng.random() < 0.5 else b for a, b in zip(b_lo, b_hi))
        out.append((member, rhs))
    return out


def vertex_hull(lo: Rows, hi: Rows, b_lo: Vec, b_hi: Vec) -> Optional[Tuple[Vec, Vec]]:
    """Exact hull of a regular square system by endpoint enumeration.

    The method of ``oracles.vertex_system_hull``: every matrix with each entry
    at an endpoint is inverted.  For a fixed matrix M the solution M^-1 b is
    linear in b, so its extremes over the right-hand-side box sit at the
    endpoint picked by the sign of each entry of M^-1, which visits the same
    optimum as enumerating the 2^n endpoint vectors.  Returns None when an
    endpoint matrix is singular.
    """
    n = len(lo)
    choices = [
        (a,) if a == b else (a, b)
        for rl, rh in zip(lo, hi)
        for a, b in zip(rl, rh)
    ]
    x_lo: List[Optional[Fraction]] = [None] * n
    x_hi: List[Optional[Fraction]] = [None] * n
    for combo in itertools.product(*choices):
        inv = inverse([combo[i * n:(i + 1) * n] for i in range(n)])
        if inv is None:
            return None
        for i, row in enumerate(inv):
            low = sum(c * (b_lo[j] if c > 0 else b_hi[j]) for j, c in enumerate(row))
            high = sum(c * (b_hi[j] if c > 0 else b_lo[j]) for j, c in enumerate(row))
            if x_lo[i] is None or low < x_lo[i]:
                x_lo[i] = low
            if x_hi[i] is None or high > x_hi[i]:
                x_hi[i] = high
    return tuple(x_lo), tuple(x_hi)


def box_contains(box_lo: Vec, box_hi: Vec, x: Vec) -> bool:
    return len(x) == len(box_lo) and all(
        a <= v <= b for a, v, b in zip(box_lo, x, box_hi)
    )


def parse_box(text: str) -> Tuple[Vec, Vec]:
    """The ``[lo:hi; lo:hi]`` form the command line prints for a box."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"not a box: {text[:40]!r}")
    lows, highs = [], []
    for field in body[1:-1].split(";"):
        lo, hi = field.strip().split(":")
        lows.append(Fraction(lo))
        highs.append(Fraction(hi))
    return tuple(lows), tuple(highs)


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among the rationals."""
    top = 0
    for q in values:
        top = max(top, q.numerator.bit_length(), q.denominator.bit_length())
    return top

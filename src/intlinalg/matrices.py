"""Interval matrices/vectors, sign vectors, and exact rational point matrices.

The point-matrix type carries the exact linear algebra (determinant, rank,
inverse, solve, leading minors) that every decision procedure leans on:
rows scaled to integers (``integer_rows``), fraction-free forward
elimination (``_reduce``) and back substitution (``_back_substitute``), in
which every division is exact, so no Fraction enters an elimination.
Products scale rows and columns the same way and take integer dot products,
so they make one Fraction per entry.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import Interval, as_vector, format_interval, parse_interval, rational
from .errors import DimensionMismatch, NotSquare, ParseError, SingularMatrix

Vector = Tuple[Fraction, ...]


def vec_abs(u: Sequence[Fraction]) -> Vector:
    return tuple(abs(a) for a in u)


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def integer_rows(rows: Iterable[Sequence[Fraction]]) -> Tuple[List[List[int]], List[int]]:
    """Each row times the lcm of its own denominators, and those scales."""
    out, scales = [], []
    for row in rows:
        k = math.lcm(*(v.denominator for v in row))
        out.append([v.numerator * (k // v.denominator) for v in row])
        scales.append(k)
    return out, scales


def bareiss_pivot(rows: List[List[int]], row: int, col: int, d: int) -> int:
    """Pivot the whole integer tableau ``rows`` with denominator d on (row,
    col), for the simplex in ``lp`` and the semidefiniteness test in
    ``spectral``.

    Returns the new denominator, kept positive by negating every row after a
    negative pivot.  Each entry is d times a rational tableau entry, a minor
    of the integer starting tableau, so the division by d is exact (Edmonds
    1967; Bareiss 1968).  A row with a zero in the pivot column only moves
    to the new denominator, and not at all when p == d.
    """
    prow = rows[row]
    p = prow[col]
    for r, trow in enumerate(rows):
        if r == row:
            continue
        f = trow[col]
        if f:
            trow[:] = [(v * p - f * w) // d for v, w in zip(trow, prow)]
        elif p != d:
            trow[:] = [v * p // d for v in trow]
    if p < 0:
        for trow in rows:
            trow[:] = [-v for v in trow]
    return abs(p)


def _eliminate_below(rows: List[List[int]], k: int, col: int, d: int) -> int:
    """Pivot rows[k][col] = p over the previous pivot d: right of col, each
    row below k takes (v p - f w) / d, exactly.  Returns p."""
    prow = rows[k]
    p = prow[col]
    right = prow[col + 1 :]
    for trow in itertools.islice(rows, k + 1, None):
        f = trow[col]
        if f:
            trow[col + 1 :] = [(v * p - f * w) // d for v, w in zip(trow[col + 1 :], right)]
        elif p != d:
            trow[col + 1 :] = [v * p // d for v in trow[col + 1 :]]
    return p


def _reduce(rows: List[List[int]], ncols: int) -> Tuple[int, int, int]:
    """Fraction-free forward elimination (Bareiss 1968) on the first ncols
    columns of ``rows``, in place, each pivoting on its first nonzero entry
    at or below the current row.  Returns (d, sign, rank), d the last
    pivot's absolute value and sign the swap parity times its sign: when
    rank == ncols == len(rows), the starting rows' determinant is sign * d.
    """
    d, sign, rank = 1, 1, 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            sign = -sign
        d = _eliminate_below(rows, rank, col, d)
        rank += 1
    return abs(d), sign if d > 0 else -sign, rank


def _positive_pivots(rows: List[List[int]], n: int) -> int:
    """Forward elimination of integer ``rows`` on their first n diagonal
    entries while each is positive; the last pivot, or 0 at the first that
    is not.  Pivot k is the leading minor of order k + 1 of the start rows.
    """
    d = 1
    for k in range(n):
        if rows[k][k] <= 0:
            return 0
        d = _eliminate_below(rows, k, k, d)
    return d


def _back_substitute(rows: List[List[int]], n: int, col: int, d: int) -> List[int]:
    """d x for U x = column ``col`` of forward-eliminated ``rows``, U their
    n x n upper triangle: d x_i = (d b_i - sum_{j > i} u_ij d x_j) / u_ii,
    exact when d x is integral, as for d the starting rows' |determinant|.
    """
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        x[i] = (d * row[col] - sum(map(operator.mul, row[i + 1 : n], x[i + 1 :]))) // row[i]
    return x


class RealMatrix:
    """Immutable m x n matrix of exact rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        converted = tuple(tuple(rational(v) for v in row) for row in rows)
        if not converted or not converted[0]:
            raise DimensionMismatch("matrix must have at least one row and column")
        width = len(converted[0])
        if any(len(row) != width for row in converted):
            raise DimensionMismatch("ragged rows in matrix")
        object.__setattr__(self, "rows", converted)

    def __setattr__(self, name, value):
        raise AttributeError("RealMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "RealMatrix":
        return RealMatrix(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(m: int, n: int) -> "RealMatrix":
        return RealMatrix([[Fraction(0)] * n for _ in range(m)])

    @staticmethod
    def ones(m: int, n: int) -> "RealMatrix":
        return RealMatrix([[Fraction(1)] * n for _ in range(m)])

    @staticmethod
    def diag(values: Sequence) -> "RealMatrix":
        vals = as_vector(values)
        n = len(vals)
        return RealMatrix(
            [[vals[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def column(values: Sequence) -> "RealMatrix":
        return RealMatrix([[v] for v in as_vector(values)])

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, key: Tuple[int, int]) -> Fraction:
        i, j = key
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "RealMatrix":
        return RealMatrix(list(zip(*self.rows)))

    def __add__(self, other: "RealMatrix") -> "RealMatrix":
        self._check_same_shape(other)
        return RealMatrix(
            [vec_add(r, s) for r, s in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "RealMatrix") -> "RealMatrix":
        self._check_same_shape(other)
        return RealMatrix(
            [vec_sub(r, s) for r, s in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "RealMatrix":
        return RealMatrix([[-v for v in row] for row in self.rows])

    def scale(self, c) -> "RealMatrix":
        q = rational(c)
        return RealMatrix([[v * q for v in row] for row in self.rows])

    def __matmul__(self, other: "RealMatrix") -> "RealMatrix":
        if self.n != other.m:
            raise DimensionMismatch(f"matmul {self.shape} @ {other.shape}")
        left, row_scales = integer_rows(self.rows)
        right, col_scales = integer_rows(zip(*other.rows))
        return RealMatrix(
            [[Fraction(sum(map(operator.mul, r, c)), k * h) for c, h in zip(right, col_scales)]
             for r, k in zip(left, row_scales)]
        )

    def matvec(self, x: Sequence[Fraction]) -> Vector:
        if self.n != len(x):
            raise DimensionMismatch(f"matvec {self.shape} with vector of length {len(x)}")
        return (self @ RealMatrix.column(x)).col(0)

    def abs(self) -> "RealMatrix":
        return RealMatrix([[abs(v) for v in row] for row in self.rows])

    def is_symmetric(self) -> bool:
        if self.m != self.n:
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.m)
            for j in range(i + 1, self.n)
        )

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for row in self.rows for v in row)

    def is_square(self) -> bool:
        return self.m == self.n

    def det(self) -> Fraction:
        if not self.is_square():
            raise NotSquare("determinant of a non-square matrix")
        rows, scales = integer_rows(self.rows)
        d, sign, rank = _reduce(rows, self.n)
        if rank < self.n:
            return Fraction(0)
        # scaling a row by k scales the determinant by k
        return Fraction(sign * d, math.prod(scales))

    def rank(self) -> int:
        return _reduce(integer_rows(self.rows)[0], self.n)[2]

    def _solve_right(self, right: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
        """X with self X = right, for a square regular self."""
        n = self.n
        rows, _ = integer_rows(row + tuple(extra) for row, extra in zip(self.rows, right))
        d, _, rank = _reduce(rows, n)
        if rank < n:
            raise SingularMatrix("matrix is singular")
        cols = [_back_substitute(rows, n, col, d) for col in range(n, len(rows[0]))]
        return [[Fraction(v, d) for v in row] for row in zip(*cols)]

    def inverse(self) -> "RealMatrix":
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        return RealMatrix(self._solve_right(RealMatrix.identity(self.n).rows))

    def solve(self, b: Sequence[Fraction]) -> Vector:
        """Unique solution of a square regular system."""
        if not self.is_square():
            raise NotSquare("solve requires a square matrix")
        if len(b) != self.m:
            raise DimensionMismatch("rhs length does not match matrix")
        return tuple(row[0] for row in self._solve_right([(rational(v),) for v in b]))

    def leading_minors_all_positive(self) -> bool:
        """True iff every leading principal minor is > 0 (exact)."""
        if not self.is_square():
            raise NotSquare("leading minors of a non-square matrix")
        # scaling a row by a positive integer keeps the sign of every minor
        return _positive_pivots(integer_rows(self.rows)[0], self.n) > 0

    def _check_same_shape(self, other: "RealMatrix"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape {self.shape} vs {other.shape}")

    def __eq__(self, other) -> bool:
        return isinstance(other, RealMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(",".join(str(v) for v in row) for row in self.rows)
        return f"RealMatrix[{body}]"


@dataclass(frozen=True)
class SignVector:
    """A +/-1 vector; indexes orthants and vertex matrices."""

    entries: Tuple[int, ...]

    def __post_init__(self):
        if not self.entries or any(e not in (1, -1) for e in self.entries):
            raise ValueError("sign vector entries must be +1 or -1")

    @staticmethod
    def ones(n: int) -> "SignVector":
        return SignVector(tuple([1] * n))

    @staticmethod
    def of(values: Sequence[int]) -> "SignVector":
        return SignVector(tuple(int(v) for v in values))

    @staticmethod
    def all(n: int) -> Iterator["SignVector"]:
        """All sign vectors of dimension n, +1 before -1 per position."""
        for combo in itertools.product((1, -1), repeat=n):
            yield SignVector(combo)

    @staticmethod
    def half(n: int) -> Iterator["SignVector"]:
        """One representative per {z, -z} pair (first entry +1)."""
        for combo in itertools.product((1, -1), repeat=n - 1):
            yield SignVector((1,) + combo)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __neg__(self) -> "SignVector":
        return SignVector(tuple(-e for e in self.entries))


class IntervalMatrix:
    """Rectangular array of closed rational intervals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable[Interval]]):
        converted = tuple(tuple(e for e in row) for row in entries)
        if not converted or not converted[0]:
            raise DimensionMismatch("interval matrix must be non-empty")
        width = len(converted[0])
        if any(len(row) != width for row in converted):
            raise DimensionMismatch("ragged rows in interval matrix")
        for row in converted:
            for e in row:
                if not isinstance(e, Interval):
                    raise TypeError("entries must be Interval instances")
        object.__setattr__(self, "entries", converted)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalMatrix is immutable")

    @staticmethod
    def from_bounds(lower: RealMatrix, upper: RealMatrix) -> "IntervalMatrix":
        if lower.shape != upper.shape:
            raise DimensionMismatch("lower/upper bound shapes differ")
        return IntervalMatrix(
            [
                [Interval(lo, hi) for lo, hi in zip(lrow, urow)]
                for lrow, urow in zip(lower.rows, upper.rows)
            ]
        )

    @staticmethod
    def from_midpoint_radius(center: RealMatrix, radius: RealMatrix) -> "IntervalMatrix":
        if center.shape != radius.shape:
            raise DimensionMismatch("midpoint/radius shapes differ")
        if not radius.is_nonnegative():
            raise ValueError("radius matrix must be nonnegative")
        return IntervalMatrix.from_bounds(center - radius, center + radius)

    @staticmethod
    def degenerate(matrix: RealMatrix) -> "IntervalMatrix":
        return IntervalMatrix.from_bounds(matrix, matrix)

    @staticmethod
    def identity(n: int) -> "IntervalMatrix":
        return IntervalMatrix.degenerate(RealMatrix.identity(n))

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.entries), len(self.entries[0]))

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, key: Tuple[int, int]) -> Interval:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> Tuple[Interval, ...]:
        return self.entries[i]

    def is_square(self) -> bool:
        return self.m == self.n

    def is_degenerate(self) -> bool:
        return all(e.is_degenerate() for row in self.entries for e in row)

    def lower(self) -> RealMatrix:
        return RealMatrix([[e.lo for e in row] for row in self.entries])

    def upper(self) -> RealMatrix:
        return RealMatrix([[e.hi for e in row] for row in self.entries])

    def midpoint_radius(self) -> Tuple[RealMatrix, RealMatrix]:
        center = RealMatrix([[e.midpoint for e in row] for row in self.entries])
        radius = RealMatrix([[e.radius for e in row] for row in self.entries])
        return center, radius

    def vertex_matrix(self, y: SignVector, z: SignVector) -> RealMatrix:
        """Endpoint member with entry (i,j) picked by the sign of y_i * z_j."""
        if y.dim != self.m or z.dim != self.n:
            raise DimensionMismatch(
                f"sign vectors ({y.dim},{z.dim}) vs shape {self.shape}"
            )
        return RealMatrix(
            [[e.lo if yi == zj else e.hi for e, zj in zip(row, z)]
             for row, yi in zip(self.entries, y)]
        )

    def contains(self, member: RealMatrix) -> bool:
        if member.shape != self.shape:
            raise DimensionMismatch(f"shape {member.shape} vs {self.shape}")
        return all(
            e.contains(v)
            for row, vrow in zip(self.entries, member.rows)
            for e, v in zip(row, vrow)
        )

    def contains_matrix(self, other: "IntervalMatrix") -> bool:
        if other.shape != self.shape:
            raise DimensionMismatch(f"shape {other.shape} vs {self.shape}")
        return all(
            e.contains_interval(o)
            for row, orow in zip(self.entries, other.entries)
            for e, o in zip(row, orow)
        )

    def matvec_point(self, x: Sequence[Fraction]) -> "IntervalVector":
        """Exact range {Ax : A in this matrix} for a rational point x."""
        xs = as_vector(x)
        if len(xs) != self.n:
            raise DimensionMismatch("vector length does not match column count")
        center, radius = self.midpoint_radius()
        mid = center.matvec(xs)
        rad = radius.matvec(vec_abs(xs))
        return IntervalVector(
            [Interval(m - r, m + r) for m, r in zip(mid, rad)]
        )

    def matmul_interval(self, other: "IntervalMatrix") -> "IntervalMatrix":
        """Sound interval evaluation of A @ B."""
        if self.n != other.m:
            raise DimensionMismatch(f"matmul {self.shape} @ {other.shape}")
        out = []
        for i in range(self.m):
            row = []
            for j in range(other.n):
                acc = Interval.point(0)
                for k in range(self.n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return IntervalMatrix(out)

    def transpose(self) -> "IntervalMatrix":
        return IntervalMatrix(list(zip(*self.entries)))

    def __neg__(self) -> "IntervalMatrix":
        return IntervalMatrix([[-e for e in row] for row in self.entries])

    def shift_diagonal(self, offset) -> "IntervalMatrix":
        """A - offset*I on the diagonal (used for eigenvalue shifts)."""
        if not self.is_square():
            raise NotSquare("diagonal shift of a non-square matrix")
        q = rational(offset)
        rows = []
        for i, row in enumerate(self.entries):
            rows.append(
                [e.shift(-q) if i == j else e for j, e in enumerate(row)]
            )
        return IntervalMatrix(rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntervalMatrix":
        return IntervalMatrix(
            [[self.entries[i][j] for j in col_idx] for i in row_idx]
        )

    def symmetric_views(self) -> bool:
        """True iff midpoint and radius are both symmetric."""
        center, radius = self.midpoint_radius()
        return center.is_symmetric() and radius.is_symmetric()

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(
            ",".join(format_interval(e) for e in row) for row in self.entries
        )
        return f"IntervalMatrix[{body}]"


class IntervalVector:
    """Column of closed rational intervals (an axis-aligned box)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Interval]):
        converted = tuple(entries)
        if not converted:
            raise DimensionMismatch("interval vector must be non-empty")
        for e in converted:
            if not isinstance(e, Interval):
                raise TypeError("entries must be Interval instances")
        object.__setattr__(self, "entries", converted)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalVector is immutable")

    @staticmethod
    def degenerate(values: Sequence) -> "IntervalVector":
        return IntervalVector([Interval.point(v) for v in values])

    @staticmethod
    def from_bounds(lower: Sequence, upper: Sequence) -> "IntervalVector":
        lo = as_vector(lower)
        hi = as_vector(upper)
        if len(lo) != len(hi):
            raise DimensionMismatch("bound lengths differ")
        return IntervalVector([Interval(a, b) for a, b in zip(lo, hi)])

    @staticmethod
    def from_matrix(column: IntervalMatrix) -> "IntervalVector":
        if column.n != 1:
            raise DimensionMismatch("expected a single-column interval matrix")
        return IntervalVector([row[0] for row in column.entries])

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Interval:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def as_matrix(self) -> IntervalMatrix:
        return IntervalMatrix([[e] for e in self.entries])

    def lower(self) -> Vector:
        return tuple(e.lo for e in self.entries)

    def upper(self) -> Vector:
        return tuple(e.hi for e in self.entries)

    def midpoint_radius(self) -> Tuple[Vector, Vector]:
        return (
            tuple(e.midpoint for e in self.entries),
            tuple(e.radius for e in self.entries),
        )

    def contains_point(self, x: Sequence[Fraction]) -> bool:
        xs = as_vector(x)
        if len(xs) != self.dim:
            raise DimensionMismatch("point length does not match")
        return all(e.contains(v) for e, v in zip(self.entries, xs))

    def contains_box(self, other: "IntervalVector") -> bool:
        if other.dim != self.dim:
            raise DimensionMismatch("box dimensions differ")
        return all(
            e.contains_interval(o) for e, o in zip(self.entries, other.entries)
        )

    def intersect(self, other: "IntervalVector") -> Optional["IntervalVector"]:
        if other.dim != self.dim:
            raise DimensionMismatch("box dimensions differ")
        parts = []
        for e, o in zip(self.entries, other.entries):
            cap = e.intersect(o)
            if cap is None:
                return None
            parts.append(cap)
        return IntervalVector(parts)

    def widths(self) -> Vector:
        return tuple(e.width for e in self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        return "IntervalVector[" + "; ".join(format_interval(e) for e in self.entries) + "]"


def parse_imx(text: str) -> IntervalMatrix:
    """Parse the .imx matrix format.

    Line 1 holds `m n`; then m whitespace-separated rows of n fields, each
    `lo:hi` or a single rational.  Lines starting with `#` are comments.
    """
    rows: List[List[Interval]] = []
    m = n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if m is None:
            if len(fields) != 2:
                raise ParseError("expected header `m n`", line=lineno)
            try:
                m, n = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError("non-integer dimensions in header", line=lineno)
            if m < 1 or n < 1:
                raise ParseError("dimensions must be positive", line=lineno)
            continue
        if len(fields) != n:
            raise ParseError(
                f"expected {n} fields, found {len(fields)}", line=lineno
            )
        row = []
        for col, field_text in enumerate(fields, start=1):
            try:
                row.append(parse_interval(field_text))
            except (ParseError, ValueError) as exc:
                raise ParseError(str(exc), line=lineno, column=col) from None
        rows.append(row)
        if len(rows) == m:
            break
    if m is None:
        raise ParseError("empty .imx input")
    if len(rows) != m:
        raise ParseError(f"expected {m} rows, found {len(rows)}")
    return IntervalMatrix(rows)


def format_imx(matrix: IntervalMatrix) -> str:
    lines = [f"{matrix.m} {matrix.n}"]
    for row in matrix.entries:
        lines.append(" ".join(format_interval(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_imx_vector(text: str) -> IntervalVector:
    return IntervalVector.from_matrix(parse_imx(text))


def format_imx_vector(vector: IntervalVector) -> str:
    return format_imx(vector.as_matrix())

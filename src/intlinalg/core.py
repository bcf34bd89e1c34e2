"""Exact rational scalars, closed intervals, and shared verdict/decision types.

Every quantity in this package is a ``fractions.Fraction``: arbitrary
precision, always reduced, positive denominator, so equality is structural
and arithmetic is exact.  No floating point enters any computation.  A product
of intervals reads their endpoint signs (Moore, Kearfott & Cloud 2009, sec. 2.3)
and forms four endpoint products only when both factors straddle 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .errors import DivisionByIntervalContainingZero, EmptyInput, ParseError

Rational = Fraction

# a field `lo[:hi]`, each side `p` or `p/q`; a rational has no `:hi`
_FIELD_RE = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?(?::([+-]?\d+)(?:/([1-9]\d*))?)?")


def rational(value) -> Fraction:
    """Coerce ints, Fractions or `p/q` strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    match = _FIELD_RE.fullmatch(text)
    if not match or match[3] is not None:
        raise ParseError(f"not a rational literal: {text!r}")
    return Fraction(int(match[1]), int(match[2] or 1))


def format_rational(q: Fraction) -> str:
    return str(q)


def mul_bounds(a, b, c, d) -> tuple:
    """Endpoints of [a, b] * [c, d], exact for ints and Fractions alike."""
    if a >= 0:
        return (a * c if c >= 0 else b * c, b * d if d >= 0 else a * d)
    if b <= 0:
        return (a * d if d >= 0 else b * d, b * c if c >= 0 else a * c)
    if c >= 0:
        return (a * d, b * d)
    if d <= 0:
        return (b * c, a * c)
    return (min(a * d, b * c), max(a * c, b * d))


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi], lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rational(self.lo))
        object.__setattr__(self, "hi", rational(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval bounds out of order: {self.lo} > {self.hi}")

    @staticmethod
    def point(value) -> "Interval":
        q = rational(value)
        return Interval(q, q)

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mag(self) -> Fraction:
        """Largest absolute value over the interval."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def mig(self) -> Fraction:
        """Smallest absolute value over the interval (0 if it straddles 0)."""
        if self.contains_zero():
            return Fraction(0)
        return min(abs(self.lo), abs(self.hi))

    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, value) -> bool:
        q = rational(value)
        return self.lo <= q <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return Interval(-self.hi, -self.lo)
        return Interval(Fraction(0), self.mag)

    def scale(self, factor) -> "Interval":
        f = rational(factor)
        if f >= 0:
            return Interval(self.lo * f, self.hi * f)
        return Interval(self.hi * f, self.lo * f)

    def shift(self, offset) -> "Interval":
        q = rational(offset)
        return Interval(self.lo + q, self.hi + q)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        return Interval(*mul_bounds(self.lo, self.hi, other.lo, other.hi))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.contains_zero():
            raise DivisionByIntervalContainingZero(
                f"divisor {other} contains zero"
            )
        reciprocal = Interval(1 / other.hi, 1 / other.lo)
        return self * reciprocal

    def __str__(self) -> str:
        return format_interval(self)


def parse_interval(text: str) -> Interval:
    """Parse `lo:hi` or a single rational (degenerate interval)."""
    text = text.strip()
    if ":" in text:
        lo_text, _, hi_text = text.partition(":")
        return Interval(parse_rational(lo_text), parse_rational(hi_text))
    return Interval.point(parse_rational(text))


def _parse_field(text: str) -> Interval:
    """``parse_interval`` of a whitespace-free field, matched once, with lo <=
    hi checked on the matched ints; ``parse_interval`` gives any error."""
    match = _FIELD_RE.fullmatch(text)
    if match:
        a, b, c, d = match.groups()
        a, b = int(a), int(b or 1)  # int's ValueError past the digit limit
        c, d = (a, b) if c is None else (int(c), int(d or 1))
        if a * d <= c * b:
            x = object.__new__(Interval)  # skips __post_init__'s coercion
            object.__setattr__(x, "lo", lo := Fraction(a, b))
            object.__setattr__(x, "hi", lo if match[3] is None else Fraction(c, d))
            return x
    return parse_interval(text)


def format_interval(x: Interval) -> str:
    if x.is_degenerate():
        return format_rational(x.lo)
    return f"{format_rational(x.lo)}:{format_rational(x.hi)}"


_BINOPS = {
    "add": Interval.__add__,
    "sub": Interval.__sub__,
    "mul": Interval.__mul__,
    "div": Interval.__truediv__,
}


def interval_binop(op: str, x: Interval, y: Interval) -> Interval:
    """Apply one of add/sub/mul/div; the result is the exact range of x∘y."""
    try:
        fn = _BINOPS[op]
    except KeyError:
        raise ValueError(f"unknown interval operation {op!r}") from None
    return fn(x, y)


def interval_hull_of(points: Iterable) -> Interval:
    """Tightest interval containing the given rationals."""
    values = [rational(p) for p in points]
    if not values:
        raise EmptyInput("interval hull of an empty set")
    return Interval(min(values), max(values))


PROVEN = "proven"
REFUTED = "refuted"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    """Sound three-valued outcome of a one-sided (sufficient) test."""

    state: str
    note: str = ""

    def __post_init__(self):
        if self.state not in (PROVEN, REFUTED, UNKNOWN):
            raise ValueError(f"bad verdict state {self.state!r}")

    @staticmethod
    def proven(note: str = "") -> "Verdict":
        return Verdict(PROVEN, note)

    @staticmethod
    def refuted(note: str = "") -> "Verdict":
        return Verdict(REFUTED, note)

    @staticmethod
    def unknown(note: str = "") -> "Verdict":
        return Verdict(UNKNOWN, note)

    @property
    def is_proven(self) -> bool:
        return self.state == PROVEN

    @property
    def is_refuted(self) -> bool:
        return self.state == REFUTED

    @property
    def is_unknown(self) -> bool:
        return self.state == UNKNOWN


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence attached to a Decision.

    Which fields are populated depends on the producing operation:
    a sign vector locating the orthant, a rational witness vector, a
    concrete member matrix/rhs realizing an existential claim, or a
    scalar value (e.g. an eigenvalue).
    """

    sign_vector: Optional[Tuple[int, ...]] = None
    witness: Optional[Tuple[Fraction, ...]] = None
    member: Optional[object] = None         # RealMatrix
    rhs_member: Optional[Tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None
    note: str = ""


@dataclass(frozen=True)
class Decision:
    """Boolean result plus, where promised, an independently checkable certificate."""

    answer: bool
    certificate: Optional[Certificate] = None

    def __bool__(self) -> bool:
        return self.answer


def as_vector(values: Sequence) -> Tuple[Fraction, ...]:
    return tuple(rational(v) for v in values)

"""Interval arithmetic and the shared verdict types."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import grid_sample, intervals, rationals
from intlinalg import (
    Interval,
    Verdict,
    format_interval,
    interval_binop,
    interval_hull_of,
    parse_interval,
    parse_rational,
)
from intlinalg.errors import (
    DivisionByIntervalContainingZero,
    EmptyInput,
    ParseError,
)


def iv(lo, hi):
    return Interval(Fraction(lo), Fraction(hi))


class TestBinop:
    def test_product_of_symmetric_intervals(self):
        assert interval_binop("mul", iv(-2, 1), iv(-2, 1)) == iv(-2, 4)

    def test_add_identity(self):
        x = iv(Fraction(-7, 3), Fraction(1, 2))
        assert interval_binop("add", x, iv(0, 0)) == x

    def test_division_by_zero_straddling_interval(self):
        with pytest.raises(DivisionByIntervalContainingZero):
            interval_binop("div", iv(1, 2), iv(-1, 1))

    def test_self_subtraction_widens(self):
        assert interval_binop("sub", iv(1, 2), iv(1, 2)) == iv(-1, 1)

    def test_division_monotone_case(self):
        assert interval_binop("div", iv(1, 2), iv(2, 4)) == iv(
            Fraction(1, 4), 1
        )

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError):
            interval_binop("pow", iv(0, 1), iv(0, 1))


class TestDependency:
    def test_square_via_product_overestimates(self):
        x = iv(-2, 1)
        product = interval_binop("mul", x, x)
        assert product == iv(-2, 4)
        # exact range of the square function on the same interval
        exact = iv(0, 4)
        assert product.contains_interval(exact)
        assert product != exact


@given(x=intervals(), y=intervals())
@settings(max_examples=200, deadline=None)
def test_endpoint_attainment(x, y):
    """Both result endpoints are hit by endpoint pairs for every operation."""
    for op in ("add", "sub", "mul"):
        result = interval_binop(op, x, y)
        fn = {
            "add": lambda a, b: a + b,
            "sub": lambda a, b: a - b,
            "mul": lambda a, b: a * b,
        }[op]
        values = [
            fn(a, b) for a in (x.lo, x.hi) for b in (y.lo, y.hi)
        ]
        assert min(values) == result.lo
        assert max(values) == result.hi
        assert type(result.lo) is Fraction and type(result.hi) is Fraction


def _corner_hull(x, y):
    """Referee product: the hull of the four endpoint products."""
    corners = [a * b for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    return Interval(min(corners), max(corners))


# endpoints that put each factor on either side of 0, on it, or across it
_EDGES = (Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(2, 7), Fraction(5))
_SIGN_CASES = [Interval(lo, hi) for lo, hi in itertools.combinations_with_replacement(_EDGES, 2)]


class TestProductReferee:
    """Products against the hull of the four endpoint products, and
    quotients against the product with the reciprocal interval."""

    def test_every_sign_case(self):
        for x, y in itertools.product(_SIGN_CASES, repeat=2):
            product = x * y
            assert product == _corner_hull(x, y), (x, y)
            assert type(product.lo) is Fraction and type(product.hi) is Fraction

    @given(x=intervals(), y=intervals())
    @settings(max_examples=200, deadline=None)
    def test_quotient_is_product_with_reciprocal(self, x, y):
        if y.contains_zero():
            with pytest.raises(DivisionByIntervalContainingZero):
                x / y
            return
        quotient = x / y
        assert quotient == x * Interval(1 / y.hi, 1 / y.lo)
        assert type(quotient.lo) is Fraction and type(quotient.hi) is Fraction

    def test_int_endpoints_become_fractions(self):
        product = Interval(-2, 3) * Interval(0, 4)
        assert product == iv(-8, 12)
        assert type(product.lo) is Fraction and type(product.hi) is Fraction


def test_inclusion_soundness_seeded():
    """1000 seeded member pairs stay inside the evaluated interval."""
    rng = random.Random(20240521)

    def make_interval():
        lo = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        return Interval(lo, lo + Fraction(rng.randint(0, 12), 4))

    cases = 0
    while cases < 1000:
        x = make_interval()
        y = make_interval()
        op = ("add", "sub", "mul", "div")[cases % 4]
        if op == "div" and y.contains_zero():
            continue
        result = interval_binop(op, x, y)
        a = grid_sample(rng, x)
        b = grid_sample(rng, y)
        fn = {
            "add": lambda u, v: u + v,
            "sub": lambda u, v: u - v,
            "mul": lambda u, v: u * v,
            "div": lambda u, v: u / v,
        }[op]
        assert result.contains(fn(a, b))
        cases += 1


def test_single_occurrence_expression_is_exact():
    """a*b + c with each interval once: sampling never escapes, endpoints hit."""
    rng = random.Random(7)
    a = iv(-1, 2)
    b = iv(Fraction(1, 2), 3)
    c = iv(-2, -1)
    evaluated = interval_binop("add", interval_binop("mul", a, b), c)
    seen = []
    for _ in range(2000):
        va = grid_sample(rng, a)
        vb = grid_sample(rng, b)
        vc = grid_sample(rng, c)
        value = va * vb + vc
        assert evaluated.contains(value)
        seen.append(value)
    corners = [
        x * y + z
        for x in (a.lo, a.hi)
        for y in (b.lo, b.hi)
        for z in (c.lo, c.hi)
    ]
    assert min(corners) == evaluated.lo
    assert max(corners) == evaluated.hi


class TestHull:
    def test_singleton(self):
        assert interval_hull_of([Fraction(3)]) == iv(3, 3)

    def test_mixed(self):
        assert interval_hull_of([1, -1, 0]) == iv(-1, 1)

    def test_fractions(self):
        assert interval_hull_of(
            [Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)]
        ) == Interval(Fraction(1, 3), Fraction(1, 2))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            interval_hull_of([])


class TestTextForms:
    @given(q=rationals(max_num=10**6, max_den=10**4))
    @settings(max_examples=100, deadline=None)
    def test_rational_round_trip(self, q):
        assert parse_rational(str(q)) == q

    @given(x=intervals(max_num=10**3, max_den=100))
    @settings(max_examples=100, deadline=None)
    def test_interval_round_trip(self, x):
        assert parse_interval(format_interval(x)) == x

    def test_degenerate_renders_single_rational(self):
        assert format_interval(iv(3, 3)) == "3"
        assert parse_interval("5/7") == Interval(
            Fraction(5, 7), Fraction(5, 7)
        )

    def test_bad_literals_rejected(self):
        for text in ("1.5", "a", "1/0", "--2", "1/-3", "", " ", "1e3", "0x10"):
            with pytest.raises(ParseError) as caught:
                parse_rational(text)
            assert str(caught.value) == f"not a rational literal: {text.strip()!r}"


class TestParseRational:
    """``parse_rational`` accepts what its pattern accepts, with the value
    ``Fraction`` gives the same text; ``TestTextForms`` covers what it refuses."""

    @pytest.mark.parametrize(
        "text", ["+7", "-0", "007/10", "12/8", "-0/5", "4" * 4000, "-" + "9" * 4000 + "/36"]
    )
    def test_accepted_literals_match_fraction(self, text):
        value = parse_rational(text)
        assert value == Fraction(text)
        assert type(value) is Fraction

    def test_numerator_past_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the int-to-str digit limit is off")
        text = "1" * (limit + 1)
        with pytest.raises(ValueError) as expected:
            Fraction(text)
        with pytest.raises(ValueError) as caught:
            parse_rational(text)
        assert type(caught.value) is ValueError
        assert str(caught.value) == str(expected.value)


class TestVerdict:
    def test_states(self):
        assert Verdict.proven().is_proven
        assert Verdict.refuted().is_refuted
        assert Verdict.unknown().is_unknown

    def test_bad_state_rejected(self):
        with pytest.raises(ValueError):
            Verdict("maybe")


def test_interval_order_validated():
    with pytest.raises(ValueError):
        Interval(Fraction(2), Fraction(1))

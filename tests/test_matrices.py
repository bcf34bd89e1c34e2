"""Interval matrices, vertex members, exact matrix-vector ranges, file IO."""

import itertools
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import grid_sample, interval_matrices, real_matrices
from intlinalg import (
    Interval,
    IntervalMatrix,
    IntervalVector,
    RealMatrix,
    SignVector,
    format_imx,
    is_positive_semidefinite_real,
    parse_imx,
    parse_interval,
)
from intlinalg.errors import DimensionMismatch, ParseError, SingularMatrix
from intlinalg.oracles import vertex_matvec_hull


def iv(lo, hi):
    return Interval(Fraction(lo), Fraction(hi))


class TestMidpointRadius:
    def test_degenerate(self):
        m = RealMatrix([[1, 2], [3, 4]])
        a = IntervalMatrix.degenerate(m)
        center, radius = a.midpoint_radius()
        assert center == m
        assert radius == RealMatrix.zeros(2, 2)

    def test_single_entry(self):
        a = IntervalMatrix([[iv(0, 2)]])
        center, radius = a.midpoint_radius()
        assert center == RealMatrix([[1]])
        assert radius == RealMatrix([[1]])

    def test_componentwise(self):
        a = IntervalMatrix(
            [[iv(-1, 1), iv(3, 3)], [iv(0, 4), iv(-2, 0)]]
        )
        center, radius = a.midpoint_radius()
        assert center == RealMatrix([[0, 3], [2, -1]])
        assert radius == RealMatrix([[1, 0], [2, 1]])

    @given(a=interval_matrices(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, a):
        center, radius = a.midpoint_radius()
        assert IntervalMatrix.from_midpoint_radius(center, radius) == a


class TestVertexMatrix:
    def test_all_plus_gives_lower(self):
        a = IntervalMatrix([[iv(0, 2), iv(-1, 3)], [iv(1, 1), iv(-4, 0)]])
        e = SignVector.ones(2)
        assert a.vertex_matrix(e, e) == a.lower()
        assert a.vertex_matrix(e, -e) == a.upper()

    def test_all_sixteen_sign_pairs(self):
        rng = random.Random(99)
        entries = [
            [
                iv(rng.randint(-4, 0), rng.randint(1, 4))
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        a = IntervalMatrix(entries)
        for y in SignVector.all(2):
            for z in SignVector.all(2):
                v = a.vertex_matrix(y, z)
                for i in range(2):
                    for j in range(2):
                        expected = (
                            entries[i][j].lo
                            if y[i] * z[j] == 1
                            else entries[i][j].hi
                        )
                        assert v[i, j] == expected
                assert a.contains(v)

    def test_dimension_mismatch(self):
        a = IntervalMatrix([[iv(0, 1)]])
        with pytest.raises(DimensionMismatch):
            a.vertex_matrix(SignVector.ones(2), SignVector.ones(1))


class TestContains:
    def test_midpoint_is_member(self):
        a = IntervalMatrix([[iv(0, 2), iv(-3, 1)], [iv(5, 5), iv(0, 1)]])
        center, _ = a.midpoint_radius()
        assert a.contains(center)

    def test_outside(self):
        assert not IntervalMatrix([[iv(0, 1)]]).contains(RealMatrix([[2]]))


class TestMatvec:
    def test_degenerate_matches_product(self):
        m = RealMatrix([[2, -1], [0, 3]])
        a = IntervalMatrix.degenerate(m)
        x = (Fraction(1), Fraction(-2))
        box = a.matvec_point(x)
        assert box.lower() == m.matvec(x) == box.upper()

    def test_row_formula(self):
        a = IntervalMatrix([[iv(0, 1), iv(1, 1)]])
        box = a.matvec_point((Fraction(1), Fraction(1)))
        assert box[0] == iv(1, 2)

    def test_vertex_hull_agreement_seeded(self):
        rng = random.Random(4242)
        for _ in range(25):
            entries = [
                [
                    iv(rng.randint(-3, 0), rng.randint(0, 3))
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
            a = IntervalMatrix(entries)
            x = (
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
            assert a.matvec_point(x) == vertex_matvec_hull(a, x)

    def test_membership_sampling(self):
        rng = random.Random(7)
        a = IntervalMatrix([[iv(-1, 2), iv(0, 1)], [iv(1, 3), iv(-2, -1)]])
        x = (Fraction(3, 2), Fraction(-1, 3))
        box = a.matvec_point(x)
        for _ in range(200):
            member = RealMatrix(
                [[grid_sample(rng, e) for e in row] for row in a.entries]
            )
            assert box.contains_point(member.matvec(x))


class TestRealMatrix:
    @given(m=real_matrices(3, 3))
    @settings(max_examples=40, deadline=None)
    def test_det_respects_transpose(self, m):
        assert m.det() == m.transpose().det()

    def test_inverse_and_solve(self):
        m = RealMatrix([[2, 1], [1, 2]])
        inv = m.inverse()
        assert m @ inv == RealMatrix.identity(2)
        x = m.solve((Fraction(3), Fraction(3)))
        assert m.matvec(x) == (Fraction(3), Fraction(3))

    def test_rank(self):
        assert RealMatrix([[1, 2], [2, 4]]).rank() == 1
        assert RealMatrix([[1, 2], [0, 1]]).rank() == 2


def _leibniz(rows):
    """Determinant as the signed sum over all permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        term = Fraction(-1 if odd else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _minor(rows, row_idx, col_idx):
    return _leibniz([[rows[i][j] for j in col_idx] for i in row_idx])


def _rank_by_minors(rows):
    """The order of the largest nonzero minor."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for row_idx in itertools.combinations(range(m), k):
            for col_idx in itertools.combinations(range(n), k):
                if _minor(rows, row_idx, col_idx):
                    return k
    return 0


def _entry(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7, 97)))


def _random_rows(rng, m, n):
    return [[_entry(rng) for _ in range(n)] for _ in range(m)]


def _product_rows(rng, m, n, k):
    """An m x n product of random m x k and k x n factors: rank at most k."""
    left, right = _random_rows(rng, m, k), _random_rows(rng, k, n)
    return [
        [sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
        for i in range(m)
    ]


def _symmetric_rows(rng, n):
    rows = _random_rows(rng, n, n)
    return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def _gram_rows(rng, n, k):
    """B^T B for a random k x n factor B: positive semidefinite."""
    b = _random_rows(rng, k, n)
    return [
        [sum((b[t][i] * b[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def _fraction_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _naive_product(a_rows, b_rows):
    return [
        [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*b_rows)]
        for row in a_rows
    ]


def _wide_entry(rng):
    """An int, a zero, or a Fraction with a small or a 70-bit denominator."""
    pick = rng.random()
    if pick < 0.2:
        return 0
    if pick < 0.4:
        return rng.randint(-9, 9)
    if pick < 0.5:
        return Fraction(rng.randint(-9, 9), 2**70 + rng.randint(0, 5))
    return _entry(rng)


class TestPointProducts:
    """``A @ B`` and ``A.matvec(x)`` against a plain Fraction sum, over
    shapes 1..5 with int entries, zero rows and zero columns."""

    def _operands(self, rng, m, k, n):
        a = [[_wide_entry(rng) for _ in range(k)] for _ in range(m)]
        b = [[_wide_entry(rng) for _ in range(n)] for _ in range(k)]
        if rng.random() < 0.3:
            a[rng.randrange(m)] = [0] * k
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in b:
                row[j] = 0
        return a, b

    def test_matmul_matches_naive_sum(self):
        rng = random.Random(1701)
        for m, k, n in itertools.product(range(1, 6), repeat=3):
            a, b = self._operands(rng, m, k, n)
            product = RealMatrix(a) @ RealMatrix(b)
            assert product.rows == tuple(map(tuple, _naive_product(a, b))), (a, b)
            assert all(type(v) is Fraction for row in product.rows for v in row)

    def test_matvec_matches_naive_sum(self):
        rng = random.Random(1702)
        for m, k in itertools.product(range(1, 6), repeat=2):
            for _ in range(3):
                a, b = self._operands(rng, m, k, 1)
                x = [row[0] for row in b]
                y = RealMatrix(a).matvec(x)
                assert y == tuple(row[0] for row in _naive_product(a, b)), (a, x)
                assert type(y) is tuple and all(type(v) is Fraction for v in y)

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            RealMatrix.ones(2, 3) @ RealMatrix.ones(2, 3)
        with pytest.raises(DimensionMismatch):
            RealMatrix.ones(2, 3).matvec([1, 2])
        with pytest.raises(DimensionMismatch):
            RealMatrix.ones(2, 3).matvec([1, 2, 3, 4])


# zero pivots that force a row swap (at the first step and after one
# elimination), negative pivots, singular and zero matrices, denominators 97
SQUARE_CASES = [
    _fraction_rows(rows)
    for rows in (
        [[-1]],
        [[0]],
        [[0, 1], [1, 0]],
        [[-2, 1], [1, -3]],
        [[1, 2], [2, 4]],
        [[0, 0], [0, 0]],
        [[1, 1, 1], [1, 1, 2], [1, 2, 3]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[0, 2, 1], [3, 0, 0], [1, 1, 0]],
        [[Fraction(1, 97), Fraction(1, 3)], [Fraction(2, 7), Fraction(-5, 97)]],
    )
]

# a zero diagonal with a nonzero row, before and after one pivot, and the
# semidefinite boundary
SYMMETRIC_CASES = [
    _fraction_rows(rows)
    for rows in (
        [[0]],
        [[-1]],
        [[0, 1], [1, 0]],
        [[1, 1], [1, 0]],
        [[0, 0], [0, 1]],
        [[1, 1], [1, 1]],
        [[1, 1, 0], [1, 1, 0], [0, 0, 0]],
        [[1, 1, 1], [1, 1, 1], [1, 1, 2]],
        [[1, 1, 1], [1, 1, 2], [1, 2, 1]],
        [[2, 1, 1], [1, 0, 0], [1, 0, 0]],
    )
]


class TestExactElimination:
    """det, rank, inverse, solve and the definiteness tests against plain
    Fraction references: Leibniz determinants and minors, and M @ inv = I."""

    def test_det_matches_leibniz(self):
        rng = random.Random(71)
        cases = SQUARE_CASES + [
            _random_rows(rng, n, n) for n in range(1, 6) for _ in range(30)
        ] + [_product_rows(rng, n, n, n - 1) for n in range(2, 6) for _ in range(10)]
        signs = set()
        for rows in cases:
            expected = _leibniz(rows)
            assert RealMatrix(rows).det() == expected, rows
            signs.add((expected > 0) - (expected < 0))
        assert signs == {-1, 0, 1}

    def test_rank_matches_largest_minor(self):
        rng = random.Random(72)
        cases = SQUARE_CASES + [
            _random_rows(rng, m, n)
            for m in range(1, 5)
            for n in range(1, 5)
            for _ in range(4)
        ] + [
            _product_rows(rng, m, n, k)
            for m in range(2, 5)
            for n in range(2, 5)
            for k in range(1, min(m, n))
            for _ in range(3)
        ]
        deficient = 0
        for rows in cases:
            expected = _rank_by_minors(rows)
            assert RealMatrix(rows).rank() == expected, rows
            deficient += expected < min(len(rows), len(rows[0]))
        assert deficient >= 20

    def test_inverse_and_solve(self):
        rng = random.Random(73)
        cases = SQUARE_CASES + [
            _random_rows(rng, n, n) for n in range(1, 6) for _ in range(20)
        ] + [_product_rows(rng, n, n, n - 1) for n in range(2, 5) for _ in range(5)]
        singular = 0
        for rows in cases:
            m = RealMatrix(rows)
            n = m.n
            b = tuple(_entry(rng) for _ in range(n))
            if _leibniz(rows) == 0:
                singular += 1
                with pytest.raises(SingularMatrix):
                    m.inverse()
                with pytest.raises(SingularMatrix):
                    m.solve(b)
                continue
            inv = m.inverse()
            assert m @ inv == inv @ m == RealMatrix.identity(n), rows
            assert m.matvec(m.solve(b)) == b, rows
        assert singular >= 10

    def test_leading_minors_match_leibniz(self):
        rng = random.Random(74)
        cases = SQUARE_CASES + SYMMETRIC_CASES + [
            _random_rows(rng, n, n) for n in range(1, 6) for _ in range(20)
        ] + [_gram_rows(rng, n, k) for n in range(1, 6) for k in (n - 1, n, n + 1)
             for _ in range(4)]
        outcomes = set()
        for rows in cases:
            expected = all(
                _minor(rows, range(k), range(k)) > 0 for k in range(1, len(rows) + 1)
            )
            assert RealMatrix(rows).leading_minors_all_positive() == expected, rows
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_semidefinite_matches_principal_minors(self):
        rng = random.Random(75)
        cases = SYMMETRIC_CASES + [
            _symmetric_rows(rng, n) for n in range(1, 6) for _ in range(20)
        ] + [_gram_rows(rng, n, k) for n in range(1, 6) for k in (1, n - 1, n)
             for _ in range(6)]
        outcomes = set()
        for rows in cases:
            n = len(rows)
            expected = all(
                _minor(rows, idx, idx) >= 0
                for k in range(1, n + 1)
                for idx in itertools.combinations(range(n), k)
            )
            assert is_positive_semidefinite_real(RealMatrix(rows)) == expected, rows
            outcomes.add(expected)
        assert outcomes == {True, False}


class TestImxFormat:
    def test_example_round_trip(self):
        text = "# comment\n2 2\n0:2 3\n0:4 -2:0\n"
        a = parse_imx(text)
        assert parse_imx(format_imx(a)) == a

    @given(a=interval_matrices(3, 2, max_num=10**3, max_den=64))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, a):
        assert parse_imx(format_imx(a)) == a

    def test_vector_round_trip(self):
        v = IntervalVector([iv(1, 2), iv(-3, -3)])
        assert IntervalVector.from_matrix(parse_imx(format_imx(v.as_matrix()))) == v

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_imx("2 2\n1 2\n1\n")
        assert "line 3" in str(err.value)
        with pytest.raises(ParseError):
            parse_imx("")
        with pytest.raises(ParseError):
            parse_imx("2\n1 2\n")
        with pytest.raises(ParseError) as err:
            parse_imx("1 1\n2:1\n")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("text,line", [
        ("2 2\n1 2\n3 4\n5 6\n", 4),
        ("1 1\n1\n garbage\n", 3),
        ("1 1\n# comment\n1\n\n# trailing comment\n2\n", 6),
    ])
    def test_line_after_last_row_is_an_error(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_imx(text)
        assert err.value.line == line
        assert str(err.value) == f"expected {text.split()[0]} rows, found more (line {line})"

    def test_comments_after_last_row_still_load(self):
        assert parse_imx("1 2\n1 0:1\n\n# seed=3 class=regular\n   \n") == IntervalMatrix(
            [[iv(1, 1), iv(0, 1)]]
        )


@st.composite
def _literals(draw):
    """(text, value) of a rational literal in the forms .imx accepts: signs,
    leading zeros, unreduced fractions and -0."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    num = draw(st.integers(min_value=0, max_value=10**30))
    zeros = "0" * draw(st.integers(min_value=0, max_value=2))
    text = f"{sign}{zeros}{num}"
    den = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)))
    if den is not None:
        text += f"/{den}"
    return text, Fraction(-num if sign == "-" else num, den or 1)


@st.composite
def _fields(draw):
    (lo_text, lo), (hi_text, hi) = draw(_literals()), draw(_literals())
    if draw(st.booleans()):
        return lo_text
    return f"{lo_text}:{hi_text}" if lo <= hi else f"{hi_text}:{lo_text}"


@st.composite
def _imx_texts(draw):
    """(.imx text, its fields): comments, blank lines and mixed whitespace
    around the header and the rows."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(_fields(), min_size=n, max_size=n), min_size=m, max_size=m))
    filler = st.lists(st.sampled_from(["", "   ", "# note", "  # 1 2 3", "\t"]), max_size=2)
    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = draw(filler) + [f"{m} {n}"]
    for row in rows:
        lines += draw(filler)
        lines.append(draw(gap) + "".join(f + draw(gap) for f in row))
    return "\n".join(lines + draw(filler)) + "\n", rows


class TestImxParseReferee:
    """``parse_imx`` against one ``parse_interval`` per field, and its exact
    error on each malformed field."""

    @pytest.mark.parametrize("text", [
        "1 1\n12/8\n", "1 1\n+7\n", "1 1\n-0\n", "1 1\n007/10\n", "1 2\n-0:+7 12/8:007/4\n",
    ])
    def test_literal_forms(self, text):
        self._assert_referee(text, [text.splitlines()[1].split()])

    @given(case=_imx_texts())
    @settings(max_examples=200, deadline=None)
    def test_generated_texts_equal_referee(self, case):
        self._assert_referee(*case)

    @staticmethod
    def _assert_referee(text, fields):
        parsed = parse_imx(text)
        assert parsed == IntervalMatrix([[parse_interval(f) for f in row] for row in fields])
        for row in parsed.entries:
            for e in row:
                assert type(e) is Interval
                assert type(e.lo) is Fraction and type(e.hi) is Fraction

    @pytest.mark.parametrize("literal,message", [
        ("1/0", "not a rational literal: '1/0'"),
        ("1:", "not a rational literal: ''"),
        (":1", "not a rational literal: ''"),
        ("a", "not a rational literal: 'a'"),
        ("2:1", "interval bounds out of order: 2 > 1"),
        ("1/2:3/4:5", "not a rational literal: '3/4:5'"),
        ("1.5", "not a rational literal: '1.5'"),
        ("1" * 5000, None),
        ("-1/" + "1" * 5000, None),
    ])
    def test_field_errors(self, literal, message):
        if message is None:  # past the interpreter's int-to-str digit limit
            try:
                int("1" * 5000)
            except ValueError as exc:
                message = str(exc)
            else:
                pytest.skip("the int-to-str digit limit is off")
        with pytest.raises(ParseError) as err:
            parse_imx(f"# comment\n1 2\n\n0 {literal}\n")
        assert type(err.value) is ParseError
        assert str(err.value) == f"{message} (line 4, column 2)"
        assert (err.value.line, err.value.column) == (4, 2)


def test_sign_vector_enumeration_order():
    seen = list(SignVector.all(2))
    assert seen[0].entries == (1, 1)
    assert seen[-1].entries == (-1, -1)
    assert len(seen) == 4
    assert len(list(SignVector.half(3))) == 4

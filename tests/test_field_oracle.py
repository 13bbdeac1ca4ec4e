"""Extension scalars in the integer coding against the rational-coordinate
arithmetic of tests/ext_oracle.py, over Q(i) and over the cubic field
Q[w]/(w^3+w/3-2), whose minimal polynomial is not integral.

Every operation is done on both sides with the same operands, elements and
mixed int and Rational ones, and the results must agree in coordinates,
equality, hash, truth value and printed form.
"""

from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from curveforms import DivisionByZero, NumberField
from curveforms.field import Rational
from ext_oracle import OracleField

FIELDS = {
    "gauss": ((1, 0, 1), "z"),
    "cubic": ((-2, Rational(1, 3), 0, 1), "w"),
}
PAIRS = {name: (NumberField(m, g), OracleField(m, g)) for name, (m, g) in FIELDS.items()}

small = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def elements(draw, name):
    """(element, its oracle twin) drawn by coordinates on 1, z, z^2, ..."""
    field, oracle = PAIRS[name]
    coords = [Rational(f.numerator, f.denominator)
              for f in draw(st.lists(small, min_size=field.degree, max_size=field.degree))]
    return field.scalar(coords), oracle.element(coords)


@st.composite
def operands(draw, name):
    """An element, an int or a Rational, with its oracle twin."""
    kind = draw(st.sampled_from(["element", "int", "rational"]))
    if kind == "int":
        n = draw(st.integers(-7, 7))
        return n, n
    if kind == "rational":
        f = draw(small)
        r = Rational(f.numerator, f.denominator)
        return r, r
    return draw(elements(name))


def assert_same(got, want):
    assert got.coeffs == want.coeffs
    assert all(type(c) is Rational for c in got.coeffs)
    assert got.den > 0 and gcd(got.den, *got.nums) == 1   # lowest terms
    assert (got == want.coeffs[0]) == (want == want.coeffs[0])
    assert hash(got) == hash(want)
    assert bool(got) == bool(want)
    assert repr(got) == repr(want)


def cases(name):
    return st.tuples(elements(name), operands(name), st.integers(-3, 3))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_arithmetic_matches_rational_coordinates(name):
    @settings(max_examples=150, deadline=None)
    @given(cases(name))
    def check(case):
        (x, ox), (y, oy), n = case
        assert_same(x, ox)
        assert_same(x + y, ox + oy)
        assert_same(y + x, oy + ox)
        assert_same(x - y, ox - oy)
        assert_same(y - x, oy - ox)
        assert_same(x * y, ox * oy)
        assert_same(y * x, oy * ox)
        assert_same(-x, -ox)
        assert (x == y) == (ox == oy)
        if oy:
            assert_same(x / y, ox / oy)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        if ox:
            assert_same(y / x, oy / ox)
            assert_same(x ** n, ox ** n)
        elif n >= 0:
            assert_same(x ** n, ox ** n)
        else:
            with pytest.raises(DivisionByZero):
                x ** n
    check()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_constants_and_generator_match(name):
    field, oracle = PAIRS[name]
    assert_same(field.zero, oracle.element([0]))
    assert_same(field.one, oracle.element([1]))
    assert_same(field.generator, oracle.element([0, 1]))
    z = field.generator
    assert_same(z ** field.degree, oracle.element([-c for c in field.minpoly[:-1]]))
    half = Rational(1, 2)
    assert_same(field.from_rational(half), oracle.from_rational(half))
    assert field.from_int(3) == 3 and hash(field.from_int(3)) == hash(3)

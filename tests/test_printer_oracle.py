"""The merged printer against the three printers it replaced.

Seeded random polynomials, univariate polynomials and extension scalars
over Q, Q(i) and a cubic field must print exactly as `printer_oracle`
prints them, and every printed polynomial must parse back to itself.
"""

import random
from fractions import Fraction

import pytest

import printer_oracle as oracle
from curveforms import QQ, NumberField, Polynomial, UniPoly, parse_polynomial
from curveforms.field import format_univariate
from curveforms.poly import format_polynomial, parse_scalar

GAUSS = NumberField((1, 0, 1))
CUBIC = NumberField((-2, Fraction(1, 3), 0, 1), "w")   # w^3+w/3-2
FIELDS = {"QQ": QQ, "gauss": GAUSS, "cubic": CUBIC}
DRAWS = 600


def _coordinate(rng):
    # zeros and units often, so the sign and unit-coefficient rules are hit
    if rng.random() < 0.5:
        return QQ.from_int(rng.choice((0, 0, 1, -1)))
    return QQ.from_rational(Fraction(rng.randint(-30, 30), rng.randint(1, 9)))


def _scalar(rng, field):
    return field.scalar([_coordinate(rng) for _ in range(field.degree)])


def _polynomial(rng, field):
    monos = [(rng.randint(0, 4), rng.randint(0, 4))
             for _ in range(rng.randint(0, 6))]
    return Polynomial(field, {m: _scalar(rng, field) for m in monos})


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_polynomial_matches_oracle(name):
    field, rng = FIELDS[name], random.Random(f"poly-{name}")
    for _ in range(DRAWS):
        p = _polynomial(rng, field)
        text = format_polynomial(p)
        assert text == oracle.format_polynomial(p)
        assert parse_polynomial(text, field) == p


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_univariate_matches_oracle(name):
    field, rng = FIELDS[name], random.Random(f"uni-{name}")
    for _ in range(DRAWS):
        coeffs = [_scalar(rng, field) for _ in range(rng.randint(0, 6))]
        assert format_univariate(coeffs, "x", field) == \
            oracle.format_univariate(coeffs, "x", field)
        u = UniPoly(coeffs, field)
        assert str(u) == oracle.format_univariate(u.coeffs, "t", field)
        # read back as a polynomial in x alone
        back = parse_polynomial(format_univariate(u.coeffs, "x", field), field)
        assert back == Polynomial(field, dict(((k, 0), c)
                                              for k, c in enumerate(u.coeffs)))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_scalar_matches_oracle(name):
    field, rng = FIELDS[name], random.Random(f"scalar-{name}")
    for _ in range(DRAWS):
        a = _scalar(rng, field)
        text = field.format_scalar(a)
        assert text == oracle.format_scalar(field, a)
        assert parse_scalar(text, field) == a


def test_field_repr_matches_oracle():
    for field in (GAUSS, CUBIC):
        minpoly = oracle.format_univariate(field.minpoly, field.generator_name, QQ)
        assert repr(field) == f"QQ[{field.generator_name}]/({minpoly})"
    assert repr(CUBIC) == "QQ[w]/(w^3+1/3*w-2)"

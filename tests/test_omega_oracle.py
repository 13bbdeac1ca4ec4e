"""The kernel form omega against the field-level construction it replaced.

The oracle takes the cofactors of f*theta = A*f_x + B*f_y from a public
membership certificate on (f_x, f_y), sets omega = -B dx + A dy and checks
df ^ omega = f*theta with Polynomial arithmetic.  omega_from_theta works on
engine vectors from the Milnor algebra's lifts and makes the same one
reduction, so the two forms must be equal, scalar types included.
"""

import json
import random

import pytest

from curveforms import (QQ, NotInJacobian, OneForm, Polynomial, Rational,
                        Weights, exponent, exterior_derivative,
                        field_from_minpoly, membership, milnor_algebra,
                        min_poly, omega_from_theta, parse_polynomial,
                        theta_polynomial, wedge)
from curveforms.field import ExtElement
from curveforms.milnor import jacobian
from record_golden import CASES, golden_path


def oracle_omega(f, ma, theta):
    cert = membership(f * theta, jacobian(f), ma.order)
    if not cert:
        raise NotInJacobian("f*theta does not reduce to zero")
    a, b = cert.cofactors
    omega = OneForm(-b, a)
    assert wedge(exterior_derivative(f), omega) == f * theta
    return omega


def assert_same_omega(f, ma, theta):
    omega = omega_from_theta(f, ma, theta)
    assert omega == oracle_omega(f, ma, theta)
    want = Rational if f.field is QQ else ExtElement
    assert all(type(c) is want for p in omega.components for c in p.terms.values())


def _golden(name):
    text, weights, minpoly, untame = CASES[name]
    f = parse_polynomial(text, field_from_minpoly(minpoly) if minpoly else QQ)
    return f, milnor_algebra(f, Weights(*weights), allow_untame=untame)


def _golden_exponent(name):
    with open(golden_path(name), encoding="utf-8") as fh:
        return json.load(fh).get("exponent") or 0


# A'Campo, Lins Neto (allow_untame), weights (3, 2), Q(i) and more
KERNEL_GOLDENS = sorted(name for name in CASES if _golden_exponent(name) >= 1)


@pytest.mark.parametrize("name", KERNEL_GOLDENS)
def test_omega_matches_membership_on_golden_inputs(name):
    f, ma = _golden(name)
    assert_same_omega(f, ma, theta_polynomial(ma))


@pytest.mark.parametrize("name", ["quartic_cubic", "graph4"])
def test_omega_matches_membership_on_jacobian_elements(name):
    # e = 0 has no kernel witness, but any theta in <f_x, f_y> has f*theta
    # there too: the cubic field (a non-integral generator) and weights (1, 4)
    f, ma = _golden(name)
    assert exponent(min_poly(ma)) == 0
    fx, fy = jacobian(f)
    x, y = (Polynomial.variable(v, f.field) for v in "xy")
    assert_same_omega(f, ma, x * fx + y * y * fy)
    if ma.mu:
        one = Polynomial.constant(1, f.field)
        for construction in (omega_from_theta, oracle_omega):
            with pytest.raises(NotInJacobian):
                construction(f, ma, one)


@pytest.mark.parametrize("text", ["1/2*x^3+2/3*y^3-5/7*x*y",
                                  "3/5*x^4-7/2*y^4+1/3*x^2*y-2/9*x*y^2"])
def test_omega_matches_membership_on_rational_coefficients(text):
    f = parse_polynomial(text)
    ma = milnor_algebra(f)
    assert exponent(min_poly(ma)) >= 1
    assert_same_omega(f, ma, theta_polynomial(ma))


def _drawn_exponent_one(field, seed, count):
    """Seeded x^d + c*y^d plus terms of degree 2 .. d-1 (so f = 0 is singular
    at the origin), kept when the exponent of the curve is 1."""
    rng, degree, found = random.Random(seed), len(field.coeffs(field.one)), []

    def scalar():
        return field.scalar([rng.randint(-3, 3) for _ in range(degree)])
    while len(found) < count:
        d = rng.choice([3, 4])
        terms = {(d, 0): field.one, (0, d): field.one + scalar() * scalar()}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, d - 1)
            terms[(i, rng.randint(max(0, 2 - i), d - 1 - i))] = scalar()
        f = Polynomial(field, {m: c for m, c in terms.items() if c})
        if (0, d) not in f.terms:
            continue
        ma = milnor_algebra(f)
        if exponent(min_poly(ma)) == 1:
            found.append((f, ma))
    return found


@pytest.mark.parametrize("minpoly", [None, "z^2+1"])
def test_omega_matches_membership_on_drawn_curves(minpoly):
    field = field_from_minpoly(minpoly) if minpoly else QQ
    for f, ma in _drawn_exponent_one(field, 2027, 6):
        assert_same_omega(f, ma, theta_polynomial(ma))

"""The Milnor layer against its references (tests/dense_oracle.py).

The library reads the minimal polynomial off the Krylov sequence of [1]
and every rank off a quotient dimension, all on the engine's integer
coding; the dense reference takes powers and ranks of the mu x mu matrix,
and the rational reference runs the library's algorithms on field scalars.
All must agree on every corpus curve with a finite Jacobian quotient and on
drawn tame curves over Q, Q(i) and a cubic field whose minimal polynomial
is not integral.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from curveforms import (QQ, Polynomial, UniPoly, Weights,
                        critical_value_factors, exponent, jordan_profile,
                        kernel_condition, matrix_min_poly, milnor_algebra,
                        min_poly, multiplication_operator, parse_polynomial,
                        theta_polynomial, tjurina_number)
from curveforms.poly import field_from_minpoly
import dense_oracle as oracle
from conftest import tame_curves
from dense_oracle import dense_jordan_profile, dense_kernel_condition

# (text, weights, minimal polynomial of the field); the Riccati curve
# x(x-1)(x+1) is left out: its Jacobian quotient is infinite-dimensional
CORPUS_CURVES = [
    ("x*y-1", (1, 1), None),
    ("x^2+y^2-1", (1, 1), "z^2+1"),
    ("x^3+y^3", (1, 1), None),
    ("x^4+y^4", (1, 1), None),
    ("x^2+y^3", (3, 2), None),
    ("x*y", (1, 1), None),
    ("x^5+y^5-x^2*y^2", (1, 1), None),
    ("(x^3-1)*(y^3-1)*(x^3-y^3)", (1, 1), None),
    ("2*(2*x^2-1)^2+(2*y+1)^2*(y-1)", (1, 1), None),
    ("(x^2+y^2)^2+8*x*(x^2-3*y^2)+18*(x^2+y^2)-27", (1, 1), None),
    ("4*x^4+8*x^2*y^2+4*y^4-4*x^6-12*x^4*y^2-12*x^2*y^4-4*y^6-y^2",
     (1, 1), None),
    ("y-(x^4+5*x^3+8*x^2-x-4)", (1, 4), None),
    ("y-(x^5+7*x^4+2*x^3-8*x^2+7*x+1)", (1, 5), None),
]


def assert_matches_rational(ma, op, p):
    """min_poly, factors, Jordan data, tau and theta equal the rational
    reference; returns the factors whose Jordan data was compared."""
    assert p == oracle.krylov_min_poly(op)
    cfacs = critical_value_factors(p)
    assert cfacs == oracle.critical_value_factors(p)
    factors = [cfac.factor for cfac in cfacs]
    if exponent(p) >= 1:
        factors.append(UniPoly.t(ma.field))
    for factor in factors:
        assert jordan_profile(op, factor, p) == oracle.jordan_profile(op, factor)
    assert tjurina_number(ma) == oracle.tjurina_number(ma)
    if exponent(p) >= 1:
        assert theta_polynomial(ma, op, p) == oracle.theta_polynomial(ma, op, p)
    return factors


def assert_matches_dense(ma):
    op = multiplication_operator(ma)
    # the decoded entries are the coordinates of f times each basis monomial
    columns = [oracle.coordinates(ma, ma.f * Polynomial.term(ma.field.one, m, ma.field))
               for m in ma.basis]
    assert op.entries == [[col[r] for col in columns] for r in range(ma.mu)]
    p = min_poly(op)
    assert p == matrix_min_poly(op)
    for factor in assert_matches_rational(ma, op, p):
        assert (jordan_profile(op, factor, p)
                == dense_jordan_profile(op, factor, p))
    assert ma.mu - tjurina_number(ma) == op.rank()
    if exponent(p) >= 1:
        theta = theta_polynomial(ma, op, p)
        assert (kernel_condition(ma, op, theta)
                == dense_kernel_condition(ma, op, theta))


@pytest.mark.parametrize("text,weights,minpoly", CORPUS_CURVES,
                         ids=[c[0] for c in CORPUS_CURVES])
def test_corpus_curve_matches_dense(text, weights, minpoly):
    field = field_from_minpoly(minpoly) if minpoly else QQ
    f = parse_polynomial(text, field)
    assert_matches_dense(milnor_algebra(f, Weights(*weights),
                                        allow_untame=True))


GAUSSIAN = field_from_minpoly("z^2+1")
CUBIC = field_from_minpoly("z^3+1/3*z-2")


@settings(max_examples=40, deadline=None)
@given(tame_curves(QQ))
def test_drawn_curves_over_q_match_dense(f):
    assert_matches_dense(milnor_algebra(f))


@settings(max_examples=15, deadline=None)
@given(tame_curves(GAUSSIAN))
def test_drawn_curves_over_gaussian_field_match_dense(f):
    assert_matches_dense(milnor_algebra(f))


@settings(max_examples=8, deadline=None)
@given(tame_curves(CUBIC))
def test_drawn_curves_over_cubic_field_match_dense(f):
    assert_matches_dense(milnor_algebra(f))


def test_deformed_seven_matches_rational_reference():
    # mu = 36 and a minimal polynomial of degree 26: the Krylov sequence is
    # long enough for the coded vectors' scales and content to matter
    ma = milnor_algebra(parse_polynomial("x^7+y^7-x^2*y^2+3*x^3*y-1"))
    op = multiplication_operator(ma)
    p = min_poly(op)
    assert (ma.mu, p.degree()) == (36, 26)
    assert_matches_rational(ma, op, p)


@st.composite
def factored_polys(draw, field):
    """A product of drawn polynomials with repeated factors, so that gcds
    and the squarefree split are not trivial."""
    n = len(field.coeffs(field.one))
    coeff = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(field.scalar)
    factors = draw(st.lists(st.lists(coeff, min_size=1, max_size=4)
                            .map(lambda c: UniPoly(c, field))
                            .filter(lambda u: not u.is_zero()), min_size=1, max_size=4))
    out = UniPoly.one(field)
    for u in factors:
        out = out * u
    for u in draw(st.lists(st.sampled_from(factors), max_size=3)):
        out = out * u
    return out


@pytest.mark.parametrize("field", [QQ, GAUSSIAN, CUBIC], ids=["Q", "Q(i)", "cubic"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_gcd_and_squarefree_match_euclid(field, data):
    a = data.draw(factored_polys(field))
    b = data.draw(factored_polys(field))
    assert a.gcd(b) == oracle.euclid_gcd(a, b)
    assert a.gcd(UniPoly.zero(field)) == oracle.euclid_gcd(a, UniPoly.zero(field))
    assert a.squarefree_decompose() == oracle.yun_squarefree(a)

"""The Milnor layer against its dense reference (tests/dense_oracle.py).

The library reads the minimal polynomial off the Krylov sequence of [1]
and every rank off a quotient dimension; the reference takes powers and
ranks of the mu x mu matrix.  Both must agree on every corpus curve with a
finite Jacobian quotient and on drawn tame curves over Q and Q(i).
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


def assert_matches_dense(ma):
    op = multiplication_operator(ma)
    p = min_poly(op)
    assert p == matrix_min_poly(op)
    factors = [cfac.factor for cfac in critical_value_factors(p)]
    if exponent(p) >= 1:
        factors.append(UniPoly.t(ma.field))
    for factor in factors:
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


@st.composite
def tame_curves(draw, field):
    """x^d + c*y^d plus up to four terms of lower degree, c != 0, so the top
    form has the finite quotient K[x,y]/<x^(d-1), y^(d-1)>."""
    small = st.integers(-3, 3)
    degree = len(field.coeffs(field.one))

    def scalar(nonzero=False):
        coords = draw(st.lists(small, min_size=degree, max_size=degree)
                      .filter(lambda c: any(c) or not nonzero))
        return field.scalar(coords)

    d = draw(st.sampled_from([3, 4]))
    terms = {(d, 0): field.one, (0, d): scalar(nonzero=True)}
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, d - 1))
        terms[(i, draw(st.integers(0, d - 1 - i)))] = scalar()
    return Polynomial(field, terms)


@settings(max_examples=40, deadline=None)
@given(tame_curves(QQ))
def test_drawn_curves_over_q_match_dense(f):
    assert_matches_dense(milnor_algebra(f))


@settings(max_examples=15, deadline=None)
@given(tame_curves(GAUSSIAN))
def test_drawn_curves_over_gaussian_field_match_dense(f):
    assert_matches_dense(milnor_algebra(f))

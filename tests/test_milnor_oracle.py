"""The Milnor layer against its references (tests/dense_oracle.py).

The library reads the minimal polynomial off the Krylov sequence of [1]
and every rank off a quotient dimension, all on the engine's integer
coding; the dense reference takes powers and ranks of the mu x mu matrix,
and the rational reference runs the library's algorithms on field scalars.
All must agree on every corpus curve with a finite Jacobian quotient, on
the golden inputs and on drawn tame curves over Q, Q(i) and a cubic field
whose minimal polynomial is not integral.  So must the tau and the Jordan
profiles that analyze reports, which it reads partly off the minimal
polynomial instead of running the rank sequences out, and the profile at
every monic divisor of p assembled from its squarefree factors, which the
library reads off the chain gcd(p, h^k) of divisors of p.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from curveforms import (QQ, Polynomial, UniPoly, Weights, analyze,
                        critical_value_factors, exponent, jordan_profile,
                        kernel_condition, milnor_algebra, min_poly,
                        multiplication_operator, parse_polynomial,
                        theta_polynomial, tjurina_number)
from curveforms.linalg import matrix_min_poly
from curveforms.poly import field_from_minpoly
import dense_oracle as oracle
from conftest import tame_curves
from dense_oracle import (dense_jordan_profile, dense_kernel_condition,
                          dense_operator, monic_divisors)
from record_golden import CASES

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
        assert jordan_profile(op, factor) == oracle.jordan_profile(op, factor)
    assert tjurina_number(ma) == oracle.tjurina_number(ma)
    if exponent(p) >= 1:
        assert theta_polynomial(ma, op) == oracle.theta_polynomial(ma, op, p)
    return factors


def assert_divisor_profiles_match_dense(op, p, m, factors=()):
    """jordan_profile equals the dense rank sequence at ``factors`` and at
    every monic divisor of p; returns the dense profiles by factor."""
    dense = {h: dense_jordan_profile(m, h, p) for h in {*factors, *monic_divisors(p)}}
    for h, profile in dense.items():
        assert jordan_profile(op, h) == profile
    return dense


def assert_report_matches(ma, p, profiles):
    """analyze's tau is tjurina_number's, and each Jordan profile it reports
    is the reference profile ``profiles[factor]``."""
    rep = analyze(ma.f, ma.weights, allow_untame=True)
    assert rep.tau == tjurina_number(ma) and rep.min_poly == p
    assert rep.jordan == [profiles[jp.factor] for jp in rep.jordan]


def assert_matches_dense(ma):
    op = multiplication_operator(ma)
    m = dense_operator(op)
    # the decoded entries are the coordinates of f times each basis monomial
    columns = [oracle.coordinates(ma, ma.f * Polynomial.term(ma.field.one, b, ma.field))
               for b in ma.basis]
    assert m.entries == [[col[r] for col in columns] for r in range(ma.mu)]
    p = min_poly(op)
    assert p == matrix_min_poly(m)
    dense = assert_divisor_profiles_match_dense(
        op, p, m, assert_matches_rational(ma, op, p))
    assert ma.mu - tjurina_number(ma) == m.rank()
    if exponent(p) >= 1:
        theta = theta_polynomial(ma, op)
        assert (kernel_condition(ma, op, theta)
                == dense_kernel_condition(ma, op, theta))
    assert_report_matches(ma, p, dense)


@pytest.mark.parametrize("text,weights,minpoly", CORPUS_CURVES,
                         ids=[c[0] for c in CORPUS_CURVES])
def test_corpus_curve_matches_dense(text, weights, minpoly):
    field = field_from_minpoly(minpoly) if minpoly else QQ
    f = parse_polynomial(text, field)
    assert_matches_dense(milnor_algebra(f, Weights(*weights),
                                        allow_untame=True))


# the golden inputs that are not corpus curves, and the folium, whose
# p = t^2+t is squarefree: t is no Yun factor, and its profile is read at e = 1
GOLDEN_CURVES = [(text, weights, minpoly)
                 for name, (text, weights, minpoly, _) in sorted(CASES.items())
                 if name != "riccati" and (text, weights, minpoly) not in CORPUS_CURVES]
GOLDEN_CURVES.append(("x^3+y^3-3*x*y", (1, 1), None))


@pytest.mark.parametrize("text,weights,minpoly", GOLDEN_CURVES,
                         ids=[c[0] for c in GOLDEN_CURVES])
def test_golden_input_matches_dense(text, weights, minpoly):
    field = field_from_minpoly(minpoly) if minpoly else QQ
    ma = milnor_algebra(parse_polynomial(text, field), Weights(*weights),
                        allow_untame=True)
    if ma.mu <= 16:
        assert_matches_dense(ma)
    else:
        # dense powers take seconds to minutes here (factors of degree 24 to
        # 36, or a 97 x 97 matrix), so the larger inputs meet the rational
        # reference, which runs every rank sequence out, and the dense rank
        op = multiplication_operator(ma)
        p = min_poly(op)
        assert ma.mu - tjurina_number(ma) == dense_operator(op).rank()
        assert_report_matches(ma, p, {
            cfac.factor: oracle.jordan_profile(op, cfac.factor)
            for cfac in critical_value_factors(p)})


GAUSSIAN = field_from_minpoly("z^2+1")
CUBIC = field_from_minpoly("z^3+1/3*z-2")

# minimal polynomials with a root of multiplicity 2 beside other factors:
# t^2 (t^3 + c) and t^2 (t - c), over Q and Q(i); A'Campo n = 5 and the
# deformed quintic meet the same check as a corpus curve and a golden input
DIVISOR_CURVES = [("x^7+y^7-x^2*y^2", None), ("x^5+z*y^5-x^2*y^2", "z^2+1")]


@pytest.mark.parametrize("text,minpoly", DIVISOR_CURVES,
                         ids=[c[0] for c in DIVISOR_CURVES])
def test_every_divisor_profile_matches_dense(text, minpoly):
    field = field_from_minpoly(minpoly) if minpoly else QQ
    op = multiplication_operator(milnor_algebra(parse_polynomial(text, field)))
    p = min_poly(op)
    assert len(monic_divisors(p)) == 5
    assert_divisor_profiles_match_dense(op, p, dense_operator(op))


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


@pytest.mark.parametrize("field", [QQ, GAUSSIAN, CUBIC], ids=["Q", "Q(i)", "cubic"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_exact_division_matches_long_division(field, data):
    a = data.draw(factored_polys(field))
    b = data.draw(factored_polys(field))
    assert (a * b).exact_div(b) == oracle.field_exact_div(a * b, b) == a
    assert UniPoly.zero(field).exact_div(b).is_zero()
    if b.degree() > 0:
        with pytest.raises(ValueError):
            (a * b + UniPoly.one(field)).exact_div(b)


@pytest.mark.parametrize("text,weights,minpoly", CORPUS_CURVES,
                         ids=[c[0] for c in CORPUS_CURVES])
def test_corpus_minimal_polynomial_squarefree_matches_yun(text, weights, minpoly):
    field = field_from_minpoly(minpoly) if minpoly else QQ
    ma = milnor_algebra(parse_polynomial(text, field), Weights(*weights),
                        allow_untame=True)
    p = min_poly(multiplication_operator(ma))
    assert p.squarefree_decompose() == oracle.yun_squarefree(p)
    if field is QQ:
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")

        def sym(u):
            return sympy.Poly([sympy.Rational(int(c.numerator), int(c.denominator))
                               for c in reversed(u.coeffs)], t, domain="QQ")
        _, pairs = sympy.sqf_list(sym(p).monic())
        assert {(fac.monic(), m) for fac, m in pairs} == {
            (sym(fac), m) for fac, m in p.squarefree_decompose()}

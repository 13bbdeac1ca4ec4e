"""Polynomials, forms, the wedge calculus, parsing and printing."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import as_poly, ndiff, nmul, poly_dict, polynomials, recording_calls
from curveforms import (NEG_INFINITY, InvalidInput, ModuleVector, NumberField,
                        OneForm, PolySyntaxError, Polynomial, QQ, RankMismatch,
                        Rational, TermOrder, UnknownSymbol, Weights,
                        ZeroInput, exterior_derivative, field_from_minpoly,
                        format_one_form, format_polynomial, parse_polynomial,
                        pullback, wedge)


X = Polynomial.variable("x")
Y = Polynomial.variable("y")


# -- parsing -----------------------------------------------------------------

def test_parse_three_terms():
    f = parse_polynomial("x^5+y^5-x^2*y^2")
    assert len(f.terms) == 3
    assert f.terms[(2, 2)] == QQ.from_int(-1)


def test_parse_zero():
    assert parse_polynomial("0").is_zero()


def test_parse_two_terms():
    f = parse_polynomial("x*y-1")
    assert len(f.terms) == 2


def test_parse_rational_coefficients():
    f = parse_polynomial("3/2*x+1/3")
    assert f.terms[(1, 0)] == QQ.from_rational(Fraction(3, 2))


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(PolySyntaxError):
        parse_polynomial("2x")
    with pytest.raises(PolySyntaxError):
        parse_polynomial("x y")


def test_parse_unknown_symbol_with_position():
    with pytest.raises(UnknownSymbol) as err:
        parse_polynomial("x+w")
    assert err.value.position == 2


def test_parse_generator_requires_extension():
    with pytest.raises(UnknownSymbol):
        parse_polynomial("z*x", QQ)
    gauss = NumberField((1, 0, 1))
    p = parse_polynomial("z*x", gauss)
    assert p.terms[(1, 0)] == gauss.generator


def test_parse_error_positions():
    with pytest.raises(PolySyntaxError) as err:
        parse_polynomial("x^")
    assert err.value.position == 2
    with pytest.raises(PolySyntaxError):
        parse_polynomial("(x+y")
    with pytest.raises(PolySyntaxError):
        parse_polynomial("x+*y")


@pytest.mark.parametrize("text, position", [("x^\u00b2", 2), ("x^\u0663", 2),
                                            ("\u00b2*x", 0), ("x\u0663+1", 1)])
def test_parse_takes_only_ascii_digits(text, position):
    # str.isdigit() holds for superscripts and other scripts' digits, which
    # int() either rejects or reads silently ("x^\u0663" as x^3)
    with pytest.raises(PolySyntaxError) as err:
        parse_polynomial(text)
    assert err.value.position == position


def test_parse_huge_exponent_rejected():
    with pytest.raises(PolySyntaxError):
        parse_polynomial("x^99999999")


def test_parse_rejects_power_that_expands_too_far():
    # (x+y+1)^1000000 would have about 5*10^11 terms
    start = time.perf_counter()
    with pytest.raises(PolySyntaxError):
        parse_polynomial("(x+y+1)^1000000")
    assert time.perf_counter() - start < 1.0
    with pytest.raises(PolySyntaxError):
        parse_polynomial("(x+y+1)^22")   # 276 terms, over MAX_POWER_TERMS
    assert len(parse_polynomial("(x+y+1)^21").terms) == 253
    assert parse_polynomial("x^1000000") == Polynomial.term(QQ.one, (10**6, 0))
    assert parse_polynomial("(2*y)^3") == parse_polynomial("8*y^3")


def test_power_squares_once_per_bit_after_the_first(monkeypatch):
    base = parse_polynomial("x^2+y^2+1")
    square = parse_polynomial("x^4+2*x^2*y^2+y^4+2*x^2+2*y^2+1")
    products = recording_calls(monkeypatch, Polynomial, "__mul__")
    assert X ** 8 == Polynomial.term(QQ.one, (8, 0))
    assert products["__mul__"] == 3
    assert base ** 2 == square
    assert products["__mul__"] == 4
    assert base ** 0 == Polynomial.constant(1)


@pytest.mark.parametrize("text", [
    "x^5+y^5-x^2*y^2", "0", "x*y-1", "-x+1", "1/2*x^2*y-3*y^3+2",
])
def test_print_parse_round_trip(text):
    p = parse_polynomial(text)
    assert parse_polynomial(format_polynomial(p)) == p


def test_print_parse_round_trip_extension():
    gauss = NumberField((1, 0, 1))
    p = parse_polynomial("(z+1)*x^2-z*y+3", gauss)
    assert parse_polynomial(format_polynomial(p), gauss) == p


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_round_trip_random(p):
    assert parse_polynomial(format_polynomial(p)) == p


# -- degrees and leading forms ------------------------------------------------

def test_weighted_degree_basics():
    assert (X ** 2 * Y ** 3).weighted_degree(Weights(1, 1)) == 5
    f = parse_polynomial("x^5+y^5-x^2*y^2")
    assert f.weighted_degree(Weights(1, 1)) == 5
    assert Polynomial.zero().weighted_degree(Weights(1, 1)) == NEG_INFINITY


def test_leading_form():
    f = parse_polynomial("x^5+y^5-x^2*y^2")
    assert f.leading_form(Weights(1, 1)) == parse_polynomial("x^5+y^5")
    h = parse_polynomial("x^3+x*y^2")
    assert h.leading_form(Weights(1, 1)) == h


def test_leading_form_weighted():
    # with deg(x)=1, deg(y)=3 both terms of y - x^3 carry weight 3
    f = parse_polynomial("y-x^3")
    w = Weights(1, 3)
    assert {m[0] * 1 + m[1] * 3 for m in f.terms} == {3}
    assert f.leading_form(w) == f


def test_leading_form_of_zero_raises():
    with pytest.raises(ZeroInput):
        Polynomial.zero().leading_form(Weights(1, 1))


@pytest.mark.parametrize("bad", [(0, 1), (1, -2), (1.5, 2), (2, "3")])
def test_weights_must_be_positive_integers(bad):
    with pytest.raises(InvalidInput):
        Weights.of(*bad)


@settings(max_examples=150, deadline=None)
@given(polynomials(nonzero=True), polynomials(nonzero=True))
def test_leading_form_multiplicative(p, q):
    w = Weights(1, 1)
    assert (p * q).leading_form(w) == p.leading_form(w) * q.leading_form(w)


def test_term_order_is_weighted_grevlex():
    order = TermOrder(Weights(1, 1))
    assert order.key((2, 0)) > order.key((1, 1)) > order.key((0, 2))
    weighted = TermOrder(Weights(3, 2))
    assert weighted.key((2, 0)) > weighted.key((0, 3))  # same weight, x wins


# -- differential calculus -----------------------------------------------------

def test_exterior_derivative_simple():
    df = exterior_derivative(parse_polynomial("x*y-1"))
    assert df.P == Y and df.Q == X


def test_exterior_derivative_matches_termwise_oracle():
    f = parse_polynomial("x^5+y^5-x^2*y^2")
    df = exterior_derivative(f)
    oracle = poly_dict(f)
    assert df.P == as_poly(ndiff(oracle, "x"))
    assert df.Q == as_poly(ndiff(oracle, "y"))
    assert df.P == parse_polynomial("5*x^4-2*x*y^2")
    assert df.Q == parse_polynomial("5*y^4-2*x^2*y")


def test_exterior_derivative_of_constant():
    assert exterior_derivative(Polynomial.constant(7)).is_zero()


@settings(max_examples=150, deadline=None)
@given(polynomials(), polynomials())
def test_product_rule(p, q):
    left = exterior_derivative(p * q)
    right = p * exterior_derivative(q) + q * exterior_derivative(p)
    assert left == right


# -- wedge --------------------------------------------------------------------

def test_wedge_circle_pair():
    f = parse_polynomial("x*y-1")
    w0 = OneForm(parse_polynomial("y^2"), Polynomial.constant(1))
    winf = OneForm(f, Polynomial.zero())
    assert wedge(w0, winf) == -f


def test_wedge_alternating():
    u = OneForm(parse_polynomial("x^2+y"), parse_polynomial("x*y"))
    assert wedge(u, u).is_zero()


def test_wedge_lins_neto_pair_against_expansion_oracle():
    # oracle: naive dict expansion of (x^3-1)(y^3-1)(y^3-x^3)
    x3 = {(3, 0): Fraction(1), (0, 0): Fraction(-1)}
    y3 = {(0, 3): Fraction(1), (0, 0): Fraction(-1)}
    diff = {(0, 3): Fraction(1), (3, 0): Fraction(-1)}
    expected = nmul(nmul(x3, y3), diff)

    w0 = OneForm(parse_polynomial("-(y^3-1)*x^2"),
                 parse_polynomial("(x^3-1)*y^2"))
    winf = OneForm(parse_polynomial("-(y^4-y)"), parse_polynomial("x^4-x"))
    assert wedge(w0, winf) == as_poly(expected)
    f = parse_polynomial("(x^3-1)*(y^3-1)*(x^3-y^3)")
    assert wedge(w0, winf) == -f


@settings(max_examples=100, deadline=None)
@given(polynomials(), polynomials(), polynomials(), polynomials())
def test_wedge_bilinear(a, b, c, d):
    u, v = OneForm(a, b), OneForm(c, d)
    w = OneForm(b, a)
    assert wedge(u + w, v) == wedge(u, v) + wedge(w, v)
    assert wedge(u, v) == -wedge(v, u)


@settings(max_examples=100, deadline=None)
@given(polynomials(nonzero=True), polynomials(), polynomials())
def test_wedge_sign_convention_lock(f, a, b):
    # df ^ (-B dx + A dy) must equal (A f_x + B f_y) dx^dy
    lhs = wedge(exterior_derivative(f), OneForm(-b, a))
    rhs = a * f.diff("x") + b * f.diff("y")
    assert lhs == rhs


# -- forms are module vectors ---------------------------------------------------

def test_one_form_is_the_vector_of_its_components():
    P, Q = parse_polynomial("x^2+y"), parse_polynomial("x*y-1")
    w = OneForm(P, Q)
    assert isinstance(w, ModuleVector) and w.rank == 2
    assert w.components == (P, Q)
    assert w == ModuleVector((P, Q)) and ModuleVector((P, Q)) == w
    assert w != ModuleVector((Q, P))


def test_form_arithmetic_keeps_the_form():
    P, Q = parse_polynomial("x^2+y"), parse_polynomial("x*y-1")
    R, S = parse_polynomial("y^3"), parse_polynomial("2*x-y")
    w, v = OneForm(P, Q), OneForm(R, S)
    p, third = parse_polynomial("x-3*y"), Rational(1, 3)
    cases = [(p * w, p * P, p * Q), (w * p, P * p, Q * p),
             (2 * w, P * 2, Q * 2), (w * 2, P * 2, Q * 2),
             (third * w, P * third, Q * third),
             (w + v, P + R, Q + S), (w - v, P - R, Q - S), (-w, -P, -Q)]
    for got, want_p, want_q in cases:
        assert type(got) is OneForm
        assert (got.P, got.Q) == (want_p, want_q)
    assert type(ModuleVector((P, Q)) + w) is ModuleVector


def test_form_arithmetic_over_an_extension():
    K = field_from_minpoly("z^2+1")
    P, Q = parse_polynomial("z*x+y", K), parse_polynomial("x^2-z", K)
    w, i = OneForm(P, Q), K.generator
    for got in (i * w, w * i, Polynomial.constant(i, K) * w):
        assert type(got) is OneForm
        assert got == ModuleVector((P.scale(i), Q.scale(i)))


def test_form_arithmetic_rejects_other_operands():
    P, Q = parse_polynomial("x^2+y"), parse_polynomial("x*y-1")
    w = OneForm(P, Q)
    with pytest.raises(RankMismatch):
        w + ModuleVector((P, Q, P))
    with pytest.raises(RankMismatch):
        w - ModuleVector((P,))
    assert w.__mul__("x") is NotImplemented
    z = Polynomial.zero(QQ)
    for form in (w, OneForm(z, z)):
        with pytest.raises(TypeError):
            form * "x"
        with pytest.raises(TypeError):
            form + P


def test_wedge_returns_the_coefficient_polynomial():
    # (P dx + Q dy) ^ (R dx + S dy) = (P*S - Q*R) dx^dy, returned as P*S - Q*R
    u = OneForm(parse_polynomial("x^2+y"), parse_polynomial("x*y-1"))
    v = OneForm(parse_polynomial("y^3"), parse_polynomial("2*x-y"))
    two = wedge(u, v)
    assert type(two) is Polynomial
    assert two == u.P * v.Q - u.Q * v.P
    assert two == parse_polynomial("2*x^3-x^2*y+2*x*y-y^2-x*y^4+y^3")


def test_forms_print_through_the_canonical_printer():
    w = OneForm(parse_polynomial("-x^2+1/2*y"), parse_polynomial("x*y"))
    assert str(w) == repr(w) == format_one_form(w)
    assert str(w) == "[-x^2+1/2*y] dx + [x*y] dy"


# -- evaluation and substitution ----------------------------------------------

def test_evaluate_float():
    assert parse_polynomial("x*y-1").evaluate_float(1.0, 1.0) == 0.0
    assert parse_polynomial("x^2+y^2").evaluate_float(3.0, 4.0) == 25.0
    assert parse_polynomial("x^5+y^5-x^2*y^2").evaluate_float(0.0, 0.0) == 0.0


def test_substitute_composition():
    f = parse_polynomial("x^2-y")
    g = f.substitute(parse_polynomial("x+1"), parse_polynomial("y^2"))
    assert g == parse_polynomial("x^2+2*x+1-y^2")


def test_pullback_square_map():
    w = OneForm(parse_polynomial("x"), parse_polynomial("1"))
    pb = pullback(w, parse_polynomial("x^2"), parse_polynomial("y^2"))
    assert pb.P == parse_polynomial("2*x^3")
    assert pb.Q == parse_polynomial("2*y")


# -- ring axioms ---------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * (q * r) == (p * q) * r
    assert p + (q + r) == (p + q) + r
    assert p - p == Polynomial.zero()


def test_canonical_printer_is_sorted():
    p = parse_polynomial("1+x^2+y+x*y^2")
    assert format_polynomial(p) == "x*y^2+x^2+y+1"

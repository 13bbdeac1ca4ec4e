"""Tameness, the Jacobian quotient, and multiplication-by-f data."""

import pytest

from curveforms import (FactorNotDividing, NotInKernel, NotTame,
                        QQ, SmoothCurve, TermOrder, UniPoly, Weights,
                        ZeroInput, critical_value_factors, check_tame,
                        exponent, jordan_profile, kernel_condition,
                        milnor_algebra, min_poly, multiplication_operator,
                        parse_polynomial, rational, theta_polynomial,
                        tjurina_number)
from curveforms import milnor
from curveforms.milnor import standard_monomials
from curveforms.groebner import buchberger
from curveforms.linalg import Matrix
from conftest import recording_calls
from dense_oracle import (dense_jordan_profile, dense_operator, is_zero,
                          kernel_basis, monic_divisors)


def _p(text):
    return parse_polynomial(text)


ACAMPO = "x^5+y^5-x^2*y^2"


# -- tameness -------------------------------------------------------------------

def test_acampo_is_tame():
    res = check_tame(_p(ACAMPO), Weights(1, 1))
    assert res.tame
    assert res.leading == _p("x^5+y^5")


def test_x2y_is_not_tame():
    res = check_tame(_p("x^2*y"), Weights(1, 1))
    assert not res.tame


def test_hyperbola_is_tame():
    res = check_tame(_p("x*y-1"), Weights(1, 1))
    assert res.tame and res.leading == _p("x*y")


def test_tame_rejects_constant():
    with pytest.raises(ZeroInput):
        check_tame(_p("5"), Weights(1, 1))


def test_milnor_algebra_requires_tame_by_default():
    with pytest.raises(NotTame):
        milnor_algebra(_p("x^2*y"))


# -- basis ----------------------------------------------------------------------

def test_fermat_cubic_basis_matches_enumeration_oracle():
    # oracle: monomials outside <x^2, y^2> by direct enumeration
    oracle = sorted((i, j) for i in range(2) for j in range(2))
    ma = milnor_algebra(_p("x^3+y^3"))
    assert sorted(ma.basis) == oracle
    assert ma.mu == 4
    # the single top monomial x*y sits at weighted degree 2 = 2d - 4
    assert ma.top_degree == 2
    assert ma.unique_top


def test_acampo_mu_is_sixteen():
    ma = milnor_algebra(_p(ACAMPO))
    assert ma.mu == 16
    assert ma.g_dimension == 16
    assert ma.unique_top  # x^3*y^3 alone at weighted degree 6


def test_smooth_circle_mu_one():
    ma = milnor_algebra(_p("x^2+y^2-1"))
    assert ma.mu == 1
    assert ma.basis == [(0, 0)]


def test_graph_curve_mu_zero():
    f = _p("y-x^4")
    ma = milnor_algebra(f, Weights(1, 4))
    assert ma.mu == 0
    assert min_poly(multiplication_operator(ma)) == UniPoly.one()


# -- the multiplication operator ---------------------------------------------------

def test_operator_on_smooth_circle():
    ma = milnor_algebra(_p("x^2+y^2-1"))
    op = multiplication_operator(ma)
    assert dense_operator(op).entries == [[QQ.from_int(-1)]]


def test_operator_on_hyperbola():
    ma = milnor_algebra(_p("x*y-1"))
    op = multiplication_operator(ma)
    assert dense_operator(op).entries == [[QQ.from_int(-1)]]


def test_operator_vanishes_for_weighted_homogeneous():
    ma = milnor_algebra(_p("x^3+y^3"))
    op = multiplication_operator(ma)
    assert not any(op.columns.values())
    assert is_zero(dense_operator(op))


# -- minimal polynomial -------------------------------------------------------------

def test_min_poly_examples():
    assert min_poly(multiplication_operator(
        milnor_algebra(_p(ACAMPO)))) == UniPoly((0, 0, rational(16, 3125), 1))
    assert min_poly(multiplication_operator(
        milnor_algebra(_p("x^2+y^2-1")))) == UniPoly((1, 1))
    assert min_poly(multiplication_operator(
        milnor_algebra(_p("x^3+y^3")))) == UniPoly((0, 1))


def test_min_poly_is_minimal_acampo():
    op = multiplication_operator(milnor_algebra(_p(ACAMPO)))
    p, m = min_poly(op), dense_operator(op)
    assert is_zero(p.eval_matrix(m))
    for divisor in monic_divisors(p):
        if divisor != p:
            assert not is_zero(divisor.eval_matrix(m))


# -- critical values and the exponent ------------------------------------------------

def test_critical_value_factors_acampo():
    p = UniPoly((0, 0, rational(16, 3125), 1))
    factors = critical_value_factors(p)
    data = {(str(c.factor), c.multiplicity): c.roots for c in factors}
    assert data[("t", 2)] == (QQ.zero,)
    assert data[("t+16/3125", 1)] == (rational(-16, 3125),)


def test_critical_value_factors_smooth():
    factors = critical_value_factors(UniPoly((1, 1)))
    assert len(factors) == 1
    assert factors[0].roots == (QQ.from_int(-1),)


def test_exponent_values():
    assert exponent(UniPoly((0, 0, rational(16, 3125), 1))) == 2
    assert exponent(UniPoly((1, 1))) == 0
    assert exponent(UniPoly((0, 1))) == 1
    assert exponent(UniPoly((1,))) == 0


# -- Jordan profiles -----------------------------------------------------------------

def test_jordan_profiles_acampo():
    op = multiplication_operator(milnor_algebra(_p(ACAMPO)))
    assert jordan_profile(op, UniPoly.t()).blocks == {1: 9, 2: 1}
    other = UniPoly((rational(16, 3125), 1))
    assert jordan_profile(op, other).blocks == {1: 5}
    m = dense_operator(op)
    assert m.rank() == 6
    assert len(kernel_basis(m)) == 10


def test_jordan_profile_zero_matrix():
    op = Matrix.zeros(QQ, 4, 4)
    assert dense_jordan_profile(op, UniPoly.t()).blocks == {1: 4}


def test_milnor_routines_need_the_algebra():
    # a bare matrix carries no algebra to read the Milnor data from
    op = Matrix.zeros(QQ, 4, 4)
    with pytest.raises(TypeError):
        min_poly(op)
    with pytest.raises(TypeError):
        jordan_profile(op, UniPoly.t())


def test_tjurina_number_acampo():
    # rank(op) = mu - tau: 16 - 10 = 6
    ma = milnor_algebra(_p(ACAMPO))
    assert tjurina_number(ma) == 10
    assert dense_operator(multiplication_operator(ma)).rank() == ma.mu - 10


def test_tjurina_number_equals_mu_for_weighted_homogeneous():
    ma = milnor_algebra(_p("x^2+y^3"), Weights(3, 2))
    assert tjurina_number(ma) == ma.mu == 2


def test_shifted_operator_rank():
    # 5 one-dimensional kernel directions at the nonzero eigenvalue: 16-5
    op = multiplication_operator(milnor_algebra(_p(ACAMPO)))
    shifted = UniPoly((rational(16, 3125), 1)).eval_matrix(dense_operator(op))
    assert shifted.rank() == 11


def test_jordan_block_dimensions_sum_to_mu():
    ma = milnor_algebra(_p(ACAMPO))
    op = multiplication_operator(ma)
    total = 0
    for cfac in critical_value_factors(min_poly(op)):
        total += jordan_profile(op, cfac.factor).total_dimension()
    assert total == ma.mu


def test_jordan_factor_must_divide():
    op = multiplication_operator(milnor_algebra(_p("x^3+y^3")))
    with pytest.raises(FactorNotDividing):
        jordan_profile(op, UniPoly((1, 1)))  # t+1 does not divide t
    smooth = multiplication_operator(milnor_algebra(_p("x*y-1")))
    with pytest.raises(FactorNotDividing):
        jordan_profile(smooth, UniPoly.t())  # t does not divide t+1


def test_jordan_profile_of_the_minimal_polynomial_needs_no_rank(monkeypatch):
    # p(op) = 0, so the ranks are mu, 0 without a Krylov combination or a run
    op = multiplication_operator(milnor_algebra(_p("x^3+y^3-3*x*y")))
    p = min_poly(op)
    assert p == UniPoly((0, 1, 1))
    calls = recording_calls(monkeypatch, milnor, "_class_of", "_quotient_dimension")
    assert jordan_profile(op, p).blocks == {1: 4}
    assert calls == {"_class_of": 0, "_quotient_dimension": 0}


def test_jordan_profile_at_zero_stops_at_the_exponent(monkeypatch):
    # p = t^2 (t + 16/3125): d_1 = t and d_2 = t^2 give the ranks r_1, r_2,
    # one Krylov combination and one run each; gcd(p/t^2, t) = 1 stops there
    op = multiplication_operator(milnor_algebra(_p(ACAMPO)))
    p = min_poly(op)
    assert exponent(p) == 2
    calls = recording_calls(monkeypatch, milnor, "_class_of", "_quotient_dimension")
    assert jordan_profile(op, UniPoly.t()).blocks == {1: 9, 2: 1}
    assert calls == {"_class_of": 2, "_quotient_dimension": 2}


def test_jordan_profile_at_a_simple_factor_needs_one_run(monkeypatch):
    # gcd(p/h, h) = 1 for h = t + 16/3125, so r_1 ends the sequence and no
    # run confirms that r_2 = r_1
    op = multiplication_operator(milnor_algebra(_p(ACAMPO)))
    min_poly(op)
    calls = recording_calls(monkeypatch, milnor, "_quotient_dimension")
    assert jordan_profile(op, UniPoly((rational(16, 3125), 1))).blocks == {1: 5}
    assert calls == {"_quotient_dimension": 1}


# -- theta and the kernel condition ----------------------------------------------------

def test_theta_for_weighted_homogeneous_is_one():
    ma = milnor_algebra(_p("x^3+y^3"))
    op = multiplication_operator(ma)
    theta = theta_polynomial(ma, op)
    assert theta == parse_polynomial("1")


def test_theta_postconditions_acampo():
    ma = milnor_algebra(_p(ACAMPO))
    op = multiplication_operator(ma)
    theta = theta_polynomial(ma, op)
    assert not theta.is_zero()
    assert not ma.gb.reduces_to_zero(theta)          # nonzero in the quotient
    assert ma.gb.reduces_to_zero(ma.f * theta)       # f*theta in the ideal
    assert theta.weighted_degree(Weights(1, 1)) <= ma.top_degree


def test_theta_rejects_smooth_curves():
    ma = milnor_algebra(_p("x^2+y^2-1"))
    op = multiplication_operator(ma)
    with pytest.raises(SmoothCurve):
        theta_polynomial(ma, op)


def test_kernel_condition_cases():
    ma = milnor_algebra(_p("x^3+y^3"))
    op = multiplication_operator(ma)
    assert kernel_condition(ma, op, parse_polynomial("1"))

    ma = milnor_algebra(_p(ACAMPO))
    op = multiplication_operator(ma)
    theta = theta_polynomial(ma, op)
    assert kernel_condition(ma, op, theta) is False


def test_kernel_condition_rejects_non_kernel_class():
    ma = milnor_algebra(_p(ACAMPO))
    op = multiplication_operator(ma)
    with pytest.raises(NotInKernel):
        kernel_condition(ma, op, parse_polynomial("1"))


# -- cross-checks ---------------------------------------------------------------------

@pytest.mark.parametrize("text,weights", [
    (ACAMPO, (1, 1)),
    ("x*y-1", (1, 1)),
    ("x^3+y^3", (1, 1)),
    ("x^2+y^3", (3, 2)),
    ("x^2+y^2-1", (1, 1)),
])
def test_dim_vf_equals_dim_vg(text, weights):
    ma = milnor_algebra(_p(text), Weights(*weights))
    assert ma.mu == ma.g_dimension


def test_standard_monomials_infinite_case():
    order = TermOrder()
    gb = buchberger([_p("x^2")], order)
    assert standard_monomials(gb, order) is None

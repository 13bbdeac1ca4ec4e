"""Tameness, the Jacobian quotient, and multiplication-by-f data."""

import pytest

from curveforms import (CurveFormsError, FactorNotDividing, InvariantViolation,
                        NotFiniteDimensional, NotTame, QQ,
                        SmoothCurve, TermOrder, UniPoly, Weights,
                        ZeroInput, critical_value_factors, check_tame,
                        exponent, jordan_profile, kernel_condition,
                        milnor_algebra, min_poly, multiplication_operator,
                        parse_polynomial, rational, theta_polynomial,
                        tjurina_number)
from curveforms import analyze, groebner, milnor
from curveforms.milnor import standard_monomials
from curveforms.groebner import GroebnerBasis, buchberger
from curveforms.linalg import Matrix
from conftest import recording_calls
from dense_oracle import (dense_jordan_profile, dense_operator, is_zero,
                          kernel_basis, monic_divisors)


def _p(text):
    return parse_polynomial(text)


ACAMPO = "x^5+y^5-x^2*y^2"
QUARTIC9 = "x^4+3*y^4+x^2*y+2*x+2*y^3+3*y"


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


def test_infinite_jacobian_quotient_is_not_finite_dimensional():
    # an untame input passes the tameness gate but its quotient is infinite:
    # an input error, not a broken invariant
    with pytest.raises(NotFiniteDimensional) as algebra:
        milnor_algebra(_p("x^2*y"), allow_untame=True)
    with pytest.raises(NotFiniteDimensional) as report:
        analyze(_p("x^3*y^2"), allow_untame=True)
    for exc in (algebra.value, report.value):
        assert isinstance(exc, CurveFormsError)
        assert not isinstance(exc, InvariantViolation)


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
    assert is_zero(dense_operator(op))
    # the operator's own product of f with every basis monomial is zero
    assert not any(milnor._times(ma, {t: 1})[0] for t in ma.codes)


@pytest.mark.parametrize("text, products", [
    ("(x^3-1)*(y^3-1)*(x^3-y^3)", 4), (ACAMPO, 4), (QUARTIC9, 9)])
def test_analyze_multiplies_by_f_once_per_product(monkeypatch, text, products):
    # deg p Krylov steps, then theta's certificate when tau > 0; each
    # product is one reduction by the Jacobian basis
    reductions = recording_calls(monkeypatch, groebner, "_normal_form_core")
    per_call, original = [], milnor._times

    def counting(ma, vec):
        ma.f_class  # the one reduction of f, which the first product triggers
        before = reductions["_normal_form_core"]
        out = original(ma, vec)
        per_call.append(reductions["_normal_form_core"] - before)
        return out
    monkeypatch.setattr(milnor, "_times", counting)
    rep = analyze(_p(text), allow_untame=True)
    assert rep.min_poly.degree() + (1 if rep.tau else 0) == products
    assert per_call == [1] * products


def test_product_outside_the_standard_span_is_an_invariant_violation(monkeypatch):
    ma = milnor_algebra(_p(ACAMPO))
    outside, original = ma.gb._cores[0][1], groebner._normal_form_core

    def leaking(*args):
        # a leading term of the Jacobian basis is never a standard monomial
        rem, mult = original(*args)
        return {**rem, outside: 1}, mult
    monkeypatch.setattr(groebner, "_normal_form_core", leaking)
    with pytest.raises(InvariantViolation):
        milnor._times(ma, {next(iter(ma.codes)): 1})


def test_analyze_reduces_f_once(monkeypatch):
    # the operator and both Tjurina numbers read the class of f that the
    # algebra reduces once
    f, seen = _p(ACAMPO), []
    original = GroebnerBasis._reduce

    def recording(gb, v):
        seen.append(v)
        return original(gb, v)
    monkeypatch.setattr(GroebnerBasis, "_reduce", recording)
    rep = analyze(f)
    assert rep.tau == 10 and rep.kernel_condition is not None
    assert rep.generation["generates"] is False
    assert sum(v == f for v in seen) == 1


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
    with pytest.raises(ZeroInput):
        exponent(UniPoly.zero())


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
    with pytest.raises(TypeError):
        theta_polynomial(op)
    with pytest.raises(TypeError):
        kernel_condition(op)
    with pytest.raises(TypeError):
        tjurina_number(op)


def test_the_operator_is_the_algebra():
    ma = milnor_algebra(_p(ACAMPO))
    assert multiplication_operator(ma) is ma


def test_krylov_data_is_computed_once_per_algebra(monkeypatch):
    # deg p = 3: the first min_poly makes three products with f, the second
    # reads the cached Krylov data, even through a fresh multiplication_operator
    ma = milnor_algebra(_p(ACAMPO))
    calls = recording_calls(monkeypatch, milnor, "_times")
    assert min_poly(multiplication_operator(ma)).degree() == 3
    assert calls == {"_times": 3}
    min_poly(multiplication_operator(ma))
    assert calls == {"_times": 3}


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
        blocks = jordan_profile(op, cfac.factor).blocks
        total += sum(size * count for size, count in blocks.items())
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
    op = multiplication_operator(milnor_algebra(_p("x^3+y^3")))
    assert theta_polynomial(op) == parse_polynomial("1")


def test_theta_postconditions_acampo():
    ma = milnor_algebra(_p(ACAMPO))
    theta = theta_polynomial(multiplication_operator(ma))
    assert not theta.is_zero()
    assert not ma.gb.reduces_to_zero(theta)          # nonzero in the quotient
    assert ma.gb.reduces_to_zero(ma.f * theta)       # f*theta in the ideal
    assert theta.weighted_degree(Weights(1, 1)) <= ma.top_degree


def test_theta_rejects_smooth_curves():
    op = multiplication_operator(milnor_algebra(_p("x^2+y^2-1")))
    with pytest.raises(SmoothCurve):
        theta_polynomial(op)


def test_kernel_condition_cases():
    # A'Campo n = 5 and n = 7 have e = 2; x^3+y^3 and Lins Neto have e = 1
    for text, holds in [(ACAMPO, False), ("x^7+y^7-x^2*y^2", False),
                        ("x^3+y^3", True), ("(x^3-1)*(y^3-1)*(x^3-y^3)", True)]:
        op = multiplication_operator(milnor_algebra(_p(text), allow_untame=True))
        assert kernel_condition(op) is holds, text
    with pytest.raises(SmoothCurve):
        kernel_condition(multiplication_operator(milnor_algebra(_p("x^2+y^2-1"))))


def test_kernel_condition_at_exponent_one_makes_no_run(monkeypatch):
    # p = t^2+t: every block at 0 has size 1, so (theta) is all of ker(op)
    op = multiplication_operator(milnor_algebra(_p("x^3+y^3-3*x*y")))
    assert exponent(min_poly(op)) == 1
    calls = recording_calls(monkeypatch, milnor, "_class_of", "_quotient_rows", "_times")
    assert kernel_condition(op) is True
    assert calls == {"_class_of": 0, "_quotient_rows": 0, "_times": 0}


def test_kernel_condition_at_exponent_two_reads_one_rank(monkeypatch):
    # p = t^2 (t + 16/3125): dim ker(op^2) = dim V_f/([f^2]) = 11, not
    # 2*tau = 20; the class of f^2 and the run on it are the only new work
    op = multiplication_operator(milnor_algebra(_p(ACAMPO)))
    min_poly(op)
    tjurina_number(op)
    runs = recording_calls(monkeypatch, milnor, "_run_buchberger", "_class_of", "_times")
    assert kernel_condition(op) is False
    assert runs == {"_run_buchberger": 1, "_class_of": 1, "_times": 0}


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

"""Generating sets of the tangent-form module and the freeness test."""

import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from curveforms import (FieldMismatch, GroebnerBasis, InvalidInput,
                        InvariantViolation, ModuleVector, NotHomogeneous,
                        NotInJacobian, NotSmooth, NotTangent, OneForm,
                        Polynomial, QQ, TermOrder, Weights, analyze,
                        buchberger, exponent, exterior_derivative,
                        field_from_minpoly, four_generators, is_tangent,
                        membership, milnor_algebra, min_poly,
                        minimal_generators, multiplication_operator,
                        omega_from_theta, parse_polynomial,
                        quasihomogeneous_pair, recombine, saito_check,
                        smooth_generators, syzygy_generators, tangency_defect,
                        theta_polynomial, trivial_forms, verify_generation,
                        wedge)
from curveforms import ZeroInput, cli, groebner, tangent
from conftest import recording_calls, tame_curves, through_origin
import generation_oracle as oracle


def _p(text):
    return parse_polynomial(text)


def _form(ptext, qtext):
    return OneForm(_p(ptext), _p(qtext))


ACAMPO = "x^5+y^5-x^2*y^2"


def test_tangency_defect():
    f = _p("x*y-1")
    assert tangency_defect(f, exterior_derivative(f)).is_zero()
    assert not tangency_defect(f, _form("1", "0")).is_zero()


def test_zero_curve_is_a_typed_error():
    zero, w = Polynomial.zero(), _form("1", "0")
    with pytest.raises(ZeroInput):
        is_tangent(zero, w)
    with pytest.raises(ZeroInput):
        saito_check([w, _form("0", "1")], zero)


GAUSSIAN = field_from_minpoly("z^2+1")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([QQ, GAUSSIAN])
       .flatmap(tame_curves)
       .flatmap(lambda f: st.sampled_from([f, through_origin(f)])))
@example(_p("x*y-1"))
@example(_p(ACAMPO))
@example(_p("x^3+y^3"))
def test_syzygy_generators_are_tangent(f):
    # the constructors certify their forms by the identities that build
    # them and nothing else, so tangency is checked here instead
    fx, fy = f.diff("x"), f.diff("y")
    df = exterior_derivative(f)
    f_dx, f_dy, _ = trivial_forms(f)
    assert wedge(df, f_dx) == -fy * f
    assert wedge(df, f_dy) == fx * f
    assert wedge(df, df).is_zero()
    ma = milnor_algebra(f)
    op = multiplication_operator(ma)
    if exponent(min_poly(op)) == 0:
        candidate = smooth_generators(f, 0)
    else:
        candidate = four_generators(f, ma, theta_polynomial(op))
    for w in syzygy_generators(f).forms + candidate.forms:
        assert is_tangent(f, w)


@pytest.mark.parametrize("n", [5, 7, 8])
def test_decision_run_takes_the_route_of_a_proven_unit_ideal(n):
    # the run that decides <f, f_x, f_y> = (1) stops at its first constant,
    # and the raw set is then the reduced basis of the trivial forms
    f = _p(f"x^{n}+y^{n}-x^2*y^2+3*x^3*y-1")
    decided, spanned = syzygy_generators(f), buchberger(trivial_forms(f))
    assert decided.forms == [OneForm(*v.components) for v in spanned.generators]
    assert decided.basis._cores == spanned._cores


def _corrupt_first_form(gb):
    """The basis with its first form (p, q) replaced by (p + 1, q), which is
    not tangent unless f divides f_y."""
    if gb.rank != 2:
        return gb
    (p, q), rest = gb.generators[0].components, gb.generators[1:]
    one = Polynomial.constant(1, p.field)
    return GroebnerBasis([ModuleVector((p + one, q))] + rest, gb.order, gb.field, 2)


@pytest.mark.parametrize("text, minpoly", [
    ("x*y-1", None),                                   # e = 0
    ("x^4+2*y^4+x^2-x*y^2+2*x*y-3*y^3", "z^2+1"),      # e = 1
    (ACAMPO, None)],                                   # e = 2
    ids=["hyperbola", "quartic_qi", "acampo"])
def test_corrupted_raw_form_is_an_invariant_violation(monkeypatch, capsys, text,
                                                      minpoly):
    # the rank-2 run on the candidate's forms and the augmented run of the
    # relations among (-f_y, f_x) modulo f (A'Campo's route, in analyze and
    # in syzygy_generators) are certified by one check: f divides the wedge
    # of each form with df
    original_run, original_relations = tangent.buchberger, tangent._relations
    monkeypatch.setattr(tangent, "buchberger",
                        lambda *args: _corrupt_first_form(original_run(*args)))
    monkeypatch.setattr(tangent, "_relations",
                        lambda *args: _corrupt_first_form(original_relations(*args)))
    field = field_from_minpoly(minpoly) if minpoly else QQ
    with pytest.raises(InvariantViolation):
        syzygy_generators(parse_polynomial(text, field))
    # an engine fault, not bad input: exit 3
    args = ["analyze", "-f", text] + (["--minpoly", minpoly] if minpoly else [])
    assert cli.main(args) == 3
    assert "relation does not certify tangency" in capsys.readouterr().err


def test_corrupted_kernel_cofactor_is_an_invariant_violation(monkeypatch, capsys):
    # omega's cofactors are the tags left by one exact reduction by the
    # algebra's lifts, the only reduction whose divisors all lead in the
    # flagged first block; doubling one tag term of its remainder must fail
    # the exact check A*f_x + B*f_y = mult*f*theta
    f = _p(ACAMPO)
    ma = milnor_algebra(f)
    theta = theta_polynomial(ma)
    original = groebner._normal_form_core

    def corrupted(vec, basis, lts, exact, coding):
        rem, mult = original(vec, basis, lts, exact, coding)
        if exact and lts and all(t & groebner._ELIM for t in lts):
            tag = max(t for t in rem if not t & groebner._ELIM)
            rem = {**rem, tag: 2 * rem[tag]}
        return rem, mult
    monkeypatch.setattr(groebner, "_normal_form_core", corrupted)
    with pytest.raises(InvariantViolation):
        omega_from_theta(f, ma, theta)
    # an engine fault, not bad input: exit 3
    assert cli.main(["analyze", "-f", ACAMPO]) == 3
    assert "wedge identity for the kernel form failed" in capsys.readouterr().err


def test_jacobian_basis_tracks_no_cofactors(monkeypatch):
    # omega reads its cofactors off the algebra's lifts, an augmented run
    # built on first read, so building the algebra makes none
    runs, original = [], groebner._augmented_run

    def recording(*args):
        runs.append(args)
        return original(*args)
    monkeypatch.setattr(groebner, "_augmented_run", recording)
    milnor_algebra(_p(ACAMPO))
    assert not runs


@pytest.mark.parametrize("route, expected", [
    ("analyze", [(2, None), (3, 2)]),   # omega's lifts, then T
    ("library", [(3, 2)])])
def test_relations_modulo_f_take_one_two_tag_run(monkeypatch, route, expected):
    # A'Campo n = 5 under analyze (e = 2) and Lins Neto on the library path
    # (<f, f_x, f_y> != (1)) read the tangent module off one augmented run
    # seeded with -f_y, f_x and f, of which only the first two carry a tag,
    # and make no three-column relation run
    runs, original = [], groebner._augmented_run

    def recording(vecs, rank, field, order, tagged=None):
        runs.append((len(vecs), tagged))
        return original(vecs, rank, field, order, tagged)
    monkeypatch.setattr(groebner, "_augmented_run", recording)
    relation_runs = recording_calls(monkeypatch, groebner, "syzygies")
    if route == "analyze":
        analyze(_p(ACAMPO))
    else:
        syzygy_generators(_p("(x^3-1)*(y^3-1)*(x^3-y^3)"))
    assert runs == expected
    assert relation_runs == {"syzygies": 0}


@pytest.mark.parametrize("text, minpoly, count", [
    (ACAMPO, None, 0),
    ("x*y-1", None, 0),  # the minimal pair's Saito constant needs no check
    ("x^4+2*y^4+x^2-x*y^2+2*x*y-3*y^3", "z^2+1", 0),
])
def test_analyze_checks_no_constructed_form_twice(monkeypatch, text, minpoly,
                                                  count):
    fld = field_from_minpoly(minpoly) if minpoly else QQ
    calls = []
    original = tangent.is_tangent

    def recording(f, w):
        calls.append(w)
        return original(f, w)
    monkeypatch.setattr(tangent, "is_tangent", recording)
    analyze(parse_polynomial(text, fld))
    assert len(calls) == count


def test_circle_raw_contains_known_free_pair():
    f = _p("x*y-1")
    raw = syzygy_generators(f)
    w0 = _form("y^2", "1")
    winf = OneForm(f, Polynomial.zero())
    assert verify_generation(raw, [w0, winf]).generates
    assert verify_generation([w0, winf], raw).generates


def test_fermat_cubic_raw_contains_euler_pair():
    g = _p("x^3+y^3")
    raw = syzygy_generators(g)
    dg, eta = quasihomogeneous_pair(g, Weights(1, 1))
    assert verify_generation(raw, [dg, eta]).generates


def test_omega_for_fermat_cubic_satisfies_euler_identity():
    g = _p("x^3+y^3")
    ma = milnor_algebra(g)
    op = multiplication_operator(ma)
    theta = theta_polynomial(op)
    omega = omega_from_theta(g, ma, theta)
    assert wedge(exterior_derivative(g), omega) == g
    # the Euler form itself; our cofactors reproduce it exactly
    assert omega == OneForm(_p("-1/3*y"), _p("1/3*x"))


def test_omega_rejects_classes_outside_jacobian():
    f = _p(ACAMPO)
    ma = milnor_algebra(f)
    with pytest.raises(NotInJacobian):
        omega_from_theta(f, ma, Polynomial.constant(1))


def test_four_generator_set_acampo_fails_generation():
    f = _p(ACAMPO)
    ma = milnor_algebra(f)
    op = multiplication_operator(ma)
    theta = theta_polynomial(op)
    four = four_generators(f, ma, theta)
    assert len(four.forms) == 4
    assert four.forms[3] == omega_from_theta(f, ma, theta)
    raw = syzygy_generators(f)
    verdict = verify_generation(four, raw)
    assert not verdict.generates
    assert verdict.witness is not None
    assert not membership(verdict.witness, four.forms).contained


def test_omega_rejects_an_algebra_of_another_polynomial():
    # the lift comes from the algebra, so it must be the algebra of f
    f, g = _p(ACAMPO), _p("x^3+y^3")
    theta = theta_polynomial(milnor_algebra(g))
    for build in (omega_from_theta, four_generators):
        with pytest.raises(InvalidInput):
            build(f, milnor_algebra(g), theta)
    gaussian = parse_polynomial("x^3+y^3", field_from_minpoly("z^2+1"))
    with pytest.raises(InvalidInput):
        omega_from_theta(gaussian, milnor_algebra(g), theta)


def test_omega_rejects_a_theta_over_another_field():
    f = _p("x^3+y^3")
    ma = milnor_algebra(f)
    theta = parse_polynomial("z", field_from_minpoly("z^2+1"))
    for build in (omega_from_theta, four_generators):
        with pytest.raises(FieldMismatch):
            build(f, ma, theta)


def test_four_generators_reject_a_bad_theta():
    # the kernel form is built, and certified, from theta itself
    f = _p(ACAMPO)
    ma = milnor_algebra(f)
    with pytest.raises(NotInJacobian):
        four_generators(f, ma, Polynomial.constant(1))


def test_verify_generation_quasihomogeneous():
    g = _p("x^3+y^3")
    raw = syzygy_generators(g)
    dg, eta = quasihomogeneous_pair(g, Weights(1, 1))
    assert verify_generation([dg, eta], raw).generates


def test_minimal_counts():
    assert len(minimal_generators(syzygy_generators(_p("x*y-1")))) == 2
    assert len(minimal_generators(syzygy_generators(_p(ACAMPO)))) == 3


def test_minimal_set_is_irredundant():
    mini = minimal_generators(syzygy_generators(_p(ACAMPO)))
    vectors = mini.forms
    for k in range(len(vectors)):
        rest = vectors[:k] + vectors[k + 1:]
        assert not membership(vectors[k], rest).contained


def test_saito_circle_pair():
    f = _p("x*y-1")
    w0 = _form("y^2", "1")
    winf = OneForm(f, Polynomial.zero())
    result = saito_check([w0, winf], f)
    assert result.free and result.constant == QQ.from_int(-1)


def test_saito_degenerate_pair():
    f = _p("x*y-1")
    df = exterior_derivative(f)
    assert not saito_check([df, df], f).free


def test_saito_rejects_a_pair_that_is_not_two_forms():
    f = _p("x*y-1")
    w = exterior_derivative(f)
    with pytest.raises(InvalidInput):
        saito_check([w, w, w], f)
    with pytest.raises(InvalidInput):
        saito_check([f, f], f)


def test_verify_generation_rejects_an_empty_candidate():
    f = _p("x*y-1")
    with pytest.raises(InvalidInput):
        verify_generation([], [exterior_derivative(f)])


def test_verify_generation_of_the_zero_module():
    # all-zero candidates generate the zero module: only zero lies in it
    f = _p("x*y-1")
    zero = OneForm(Polynomial.zero(), Polynomial.zero())
    assert verify_generation([zero, zero], [zero]).generates
    verdict = verify_generation([zero], [zero, exterior_derivative(f)])
    assert verdict.witness == exterior_derivative(f)


def test_saito_requires_tangency():
    f = _p("x*y-1")
    with pytest.raises(NotTangent):
        saito_check([_form("1", "0"), _form("0", "1")], f)


@pytest.mark.parametrize("text, pair", [
    ("x^2", (("x", "0"), ("0", "x"))),          # misses the tangent dx
    ("x^2", (("1", "0"), ("0", "x"))),          # generates
    ("y^2*(x-1)", (("0", "x-1"), ("y", "0"))),  # its minimal pair
])
def test_saito_refuses_a_curve_that_is_not_reduced(text, pair):
    # the wedge test is Saito's criterion only for a reduced f; on x^2 it
    # would call the first pair free and the second not
    f = _p(text)
    forms = [_form(*w) for w in pair]
    assert all(is_tangent(f, w) for w in forms)
    with pytest.raises(InvalidInput, match="reduced"):
        saito_check(forms, f)


def test_saito_nonconstant_quotient_is_not_free():
    g = _p("x^3+y^3")
    dg, eta = quasihomogeneous_pair(g, Weights(1, 1))
    x = Polynomial.variable("x")
    assert not saito_check([dg, x * eta], g).free


def test_smooth_generators():
    f = _p("x^2+y^2-1")
    gens = smooth_generators(f, 0)
    assert len(gens.forms) == 3
    raw = syzygy_generators(f)
    assert verify_generation(gens, raw).generates
    assert verify_generation(raw, gens).generates


def test_smooth_generators_reject_singular_curves():
    with pytest.raises(NotSmooth):
        smooth_generators(_p("x^3+y^3"), 1)


def test_hyperbola_minimal_from_trivial():
    # the oracle prunes the basis of any set; the library prunes the
    # reduced basis of the smooth set, which spans the tangent module
    f = _p("x*y-1")
    gens = smooth_generators(f, 0)
    mini = minimal_generators(syzygy_generators(f))
    assert mini.forms == oracle.minimal_generators(gens).forms
    assert len(mini) == 2


def test_minimal_generators_need_a_syzygy_set():
    f = _p("x*y-1")
    with pytest.raises(InvalidInput):
        minimal_generators(smooth_generators(f, 0))
    # a plain list of forms has no basis to prune either
    with pytest.raises(InvalidInput):
        minimal_generators(trivial_forms(f))


def test_quasihomogeneous_pairs():
    g = _p("x^3+y^3")
    dg, eta = quasihomogeneous_pair(g, Weights(1, 1))
    assert eta == OneForm(_p("-1/3*y"), _p("1/3*x"))
    assert wedge(dg, eta) == g

    g = _p("x^2+y^3")
    dg, eta = quasihomogeneous_pair(g, Weights(3, 2))
    # Euler identity oracle: alpha1*x*g_x + alpha2*y*g_y = d*g
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    assert 3 * (x * g.diff("x")) + 2 * (y * g.diff("y")) == 6 * g
    assert wedge(dg, eta) == g

    g = _p("x*y")
    dg, eta = quasihomogeneous_pair(g, Weights(1, 1))
    assert eta == OneForm(_p("-1/2*y"), _p("1/2*x"))
    assert wedge(dg, eta) == g


def test_quasihomogeneous_pair_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneous):
        quasihomogeneous_pair(_p("x*y-1"), Weights(1, 1))


def test_generation_symmetry_invariant():
    f = _p(ACAMPO)
    raw = syzygy_generators(f)
    mini = minimal_generators(raw)
    assert verify_generation(mini, raw).generates
    assert verify_generation(raw, mini).generates


def test_generation_certificates_recombine():
    f = _p("x*y-1")
    raw = syzygy_generators(f)
    triv = trivial_forms(f)
    assert verify_generation(raw, triv).generates
    for target in triv:
        certificate = membership(target, raw.forms)
        assert certificate.contained
        assert recombine(certificate.cofactors, raw.forms) == target


def test_minimal_generators_respect_order_argument():
    # the order of syzygy_generators is the order the minimal stage prunes in
    f = Polynomial.variable("y") - _p("x^4+5*x^3+8*x^2-x-4")
    order = TermOrder(Weights(1, 4))
    raw = syzygy_generators(f, order)
    assert raw.basis.order.base is order
    mini = minimal_generators(raw)
    assert len(mini) == 2
    assert saito_check(mini.forms, f).free


@pytest.mark.parametrize("text, minpoly", [("x^2+y^2-1", None),
                                           ("x^2+y^2+z*x*y-1", "z^2+1")])
def test_engine_takes_forms_directly(text, minpoly):
    fld = field_from_minpoly(minpoly) if minpoly else QQ
    f = parse_polynomial(text, fld)
    triv = trivial_forms(f)
    as_vectors = [ModuleVector(w.components) for w in triv]
    assert (buchberger(triv).generators
            == buchberger(as_vectors).generators)
    target = (parse_polynomial("x-y", fld) * triv[0]
              + parse_polynomial("y^2", fld) * triv[2])
    result = membership(target, triv)
    assert result.contained
    rebuilt = recombine(result.cofactors, triv)
    assert type(rebuilt) is OneForm and rebuilt == target
    assert verify_generation(triv, [target]).generates
    dx = OneForm(Polynomial.constant(1, fld), Polynomial.zero(fld))
    assert not membership(dx, triv).contained
    assert not verify_generation(triv, [dx]).generates

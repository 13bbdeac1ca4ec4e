"""The packed, fraction-free Groebner engine against the tuple-keyed rational
kernel it replaced (tests/rational_oracle.py), and its module membership
verdicts against sympy.

Reduced bases, transforms and syzygy rows are unique, and both kernels
divide by the first basis element whose leading term divides, so every
comparison is exact equality in the public types.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import rational_oracle as oracle
from curveforms import (QQ, ModuleVector, OneForm, Polynomial, TermOrder,
                        buchberger, membership, parse_polynomial, recombine,
                        syzygies)
from curveforms.field import ExtElement, Rational
from curveforms.poly import field_from_minpoly
from curveforms.tangent import (divide, syzygy_generators, trivial_forms,
                                verify_generation)
from test_milnor_oracle import CORPUS_CURVES

GAUSS = field_from_minpoly("z^2+1")
WEIGHTS = [(1, 1), (2, 3), (3, 2), (1, 4)]
CURVES = CORPUS_CURVES + [("x*(x-1)*(x+1)", (1, 1), None),
                          ("x^5+y^5-x^2*y^2+3*x^3*y-1", (1, 1), None)]


def _curve(text, minpoly):
    return parse_polynomial(text, field_from_minpoly(minpoly) if minpoly else QQ)


def assert_field_scalars(*polys):
    """Equality would let an engine int pass for a Rational; the type may not."""
    for p in polys:
        for comp in getattr(p, "components", (p,)):
            want = Rational if comp.field is QQ else ExtElement
            assert all(type(c) is want for c in comp.terms.values())


def assert_same_basis(gens, order):
    plain, ref = buchberger(gens, order), oracle.buchberger(gens, order)
    assert plain.generators == ref.generators
    tracked = buchberger(gens, order, track_cofactors=True)
    ref_tracked = oracle.buchberger(gens, order, track_cofactors=True)
    assert tracked.generators == ref_tracked.generators == plain.generators
    assert tracked.transform == ref_tracked.transform
    assert_field_scalars(*plain.generators, *tracked.generators,
                         *(t for row in tracked.transform for t in row))
    assert tracked.leading_terms() == [lt for _, lt in ref_tracked.rows]
    return tracked, ref_tracked


def assert_same_normal_form(gb, ref, gens, probe):
    rem = gb.normal_form(probe)
    assert rem == ref.normal_form(probe)
    rem2, cof = gb.normal_form(probe, track_cofactors=True)
    ref_rem, ref_cof = ref.normal_form(probe, track_cofactors=True)
    assert rem2 == rem == ref_rem
    assert cof == ref_cof
    assert_field_scalars(rem, *cof)
    on_inputs = gb.cofactors_on_inputs(cof)
    assert recombine(on_inputs, gens) + rem == ModuleVector.wrap(probe)


@pytest.mark.parametrize("text,weights,minpoly", CURVES,
                         ids=[c[0] for c in CURVES])
def test_corpus_curve_matches_oracle(text, weights, minpoly):
    f = _curve(text, minpoly)
    fx, fy = f.diff("x"), f.diff("y")
    jac = [g for g in (fx, fy) if not g.is_zero()]
    gb, ref = assert_same_basis(jac, TermOrder(weights))
    x, y = Polynomial.variable("x", f.field), Polynomial.variable("y", f.field)
    for probe in (f, x * f + y, f * f, x * x * x * y * y + f.diff("x")):
        assert_same_normal_form(gb, ref, jac, probe)
    gens = [-fy, fx, f]
    assert syzygies(gens) == oracle.syzygies(gens)
    assert_field_scalars(*syzygies(gens))
    assert syzygies(gens, TermOrder(weights)) == oracle.syzygies(gens, TermOrder(weights))


# -- drawn inputs over Q and Q(i), rank 1 and rank 2 -----------------------------

@st.composite
def polys(draw, field):
    z = field.generator if field is GAUSS else None
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        c = field.from_rational(QQ.from_int(draw(st.integers(-4, 4))))
        if z is not None and draw(st.booleans()):
            c = c + z * draw(st.integers(-2, 2))
        if c:
            terms[mono] = c
    return Polynomial(field, terms)


@st.composite
def inputs(draw):
    field = draw(st.sampled_from([QQ, GAUSS]))
    rank = draw(st.integers(1, 2))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        vec = ModuleVector(tuple(draw(polys(field)) for _ in range(rank)))
        if not vec.is_zero():
            gens.append(vec)
    if not gens:
        gens = [ModuleVector((Polynomial.variable("x", field),) * rank)]
    probe = ModuleVector(tuple(draw(polys(field)) for _ in range(rank)))
    return gens, TermOrder(draw(st.sampled_from(WEIGHTS))), probe


@settings(max_examples=80, deadline=None)
@given(inputs())
def test_drawn_inputs_match_oracle(case):
    gens, order, probe = case
    gb, ref = assert_same_basis(gens, order)
    assert_same_normal_form(gb, ref, gens, probe)
    assert syzygies(gens, order) == oracle.syzygies(gens, order)
    result = membership(probe, gens, order)
    assert result.contained == ref.normal_form(probe).is_zero()
    if result.contained:
        assert recombine(result.cofactors, gens) == probe


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GAUSS]).flatmap(
    lambda field: st.tuples(polys(field), polys(field))))
def test_division_by_f_matches_principal_basis(case):
    p, f = case
    if f.is_zero():
        return
    rem, quotient = divide(p, f)
    assert quotient * f + rem == p
    assert_field_scalars(rem, quotient)
    ref = oracle.buchberger([f], track_cofactors=True)
    ref_rem, (ref_cof,) = ref.normal_form(p, track_cofactors=True)
    assert rem == ref_rem.components[0]
    assert quotient == ref_cof * ref.transform[0][0]


# -- module membership against sympy ---------------------------------------------

sympy = pytest.importorskip("sympy")
SX, SY = sympy.symbols("x y")
RING = sympy.QQ.old_poly_ring(SX, SY)


def _sym(p):
    return sum((sympy.Rational(int(c.numerator), int(c.denominator))
                * SX ** i * SY ** j for (i, j), c in p.terms.items()),
               sympy.Integer(0))


def _sympy_module(forms):
    return RING.free_module(2).submodule(*[[_sym(w.P), _sym(w.Q)] for w in forms])


TANGENT_CURVES = ["x*y-1", "x^3+y^3", "x^2+y^3", "x^5+y^5-x^2*y^2",
                  "y^2-x^3-x^2"]


@pytest.mark.parametrize("text", TANGENT_CURVES)
def test_tangent_module_verdicts_agree_with_sympy(text):
    f = parse_polynomial(text)
    raw = syzygy_generators(f).forms
    candidates = {"trivial": trivial_forms(f), "raw": raw}
    x = Polynomial.variable("x", f.field)
    probes = raw + trivial_forms(f) + [OneForm(x, Polynomial.zero()),
                                       OneForm(f.diff("y"), -f.diff("x"))]
    for name, forms in candidates.items():
        module = _sympy_module(forms)
        vectors = [ModuleVector((w.P, w.Q)) for w in forms]
        for w in probes:
            expected = module.contains([_sym(w.P), _sym(w.Q)])
            got = membership(ModuleVector((w.P, w.Q)), vectors)
            assert got.contained == expected, (name, w)
        verdict = verify_generation(forms, raw).generates
        assert verdict == all(module.contains([_sym(w.P), _sym(w.Q)])
                              for w in raw), name

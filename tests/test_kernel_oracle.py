"""The packed, fraction-free Groebner engine against the tuple-keyed rational
kernel it replaced (tests/rational_oracle.py), over Q, Q(i) and a cubic field
whose minimal polynomial is not integral, and its module membership verdicts
against sympy.

Reduced bases, transforms and syzygy rows are unique, and both kernels
divide by the first basis element whose leading term divides, so every
comparison is exact equality in the public types.
"""

import inspect
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import rational_oracle as oracle
from curveforms import (QQ, ModuleVector, OneForm, Polynomial, TermOrder,
                        buchberger, groebner, membership, parse_polynomial,
                        recombine, syzygies)
from curveforms.field import ExtElement, NumberField, Rational
from curveforms.poly import field_from_minpoly
from curveforms.tangent import (divide, syzygy_generators, trivial_forms,
                                verify_generation)
from test_milnor_oracle import CORPUS_CURVES

GAUSS = field_from_minpoly("z^2+1")
CUBIC = NumberField((-2, Rational(1, 3), 0, 1), "w")   # w^3+w/3-2
WEIGHTS = [(1, 1), (2, 3), (3, 2), (1, 4)]
CURVES = CORPUS_CURVES + [("x*(x-1)*(x+1)", (1, 1), None),
                          ("x^5+y^5-x^2*y^2+3*x^3*y-1", (1, 1), None),
                          ("x^3+y^3+(2+z)*x*y-z", (1, 1), "z^2+1"),
                          ("x^4+(z^2-1)*y^4+z*x*y^2-x+1", (1, 1), "z^3+1/3*z-2"),
                          ("x^3-z*y^2+x*y", (1, 1), "z^3+1/3*z-2"),
                          ("x^2+z*y^3", (3, 2), "z^3+1/3*z-2")]


def _curve(text, minpoly):
    return parse_polynomial(text, field_from_minpoly(minpoly) if minpoly else QQ)


_AUGMENTED_RUN = groebner._augmented_run


def augmented_syzygies(gens, order=None):
    """The relation rows of the augmented run, the route syzygies takes when
    the inputs do not generate (1); kept as the oracle of the Koszul route."""
    return _AUGMENTED_RUN(*groebner._prepare(gens, order))[1]


@contextmanager
def augmented_runs():
    """Records every augmented run made inside the block."""
    runs = []

    def counting(*args):
        runs.append(args)
        return _AUGMENTED_RUN(*args)
    groebner._augmented_run = counting
    try:
        yield runs
    finally:
        groebner._augmented_run = _AUGMENTED_RUN


def generates_one(gens):
    """<gens> == (1), decided by the rational oracle's basis."""
    nonzero = [g for g in gens if not ModuleVector.wrap(g).is_zero()]
    return bool(nonzero) and oracle.buchberger(nonzero).generators == [
        ModuleVector((Polynomial.constant(1, nonzero[0].field),))]


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
    # a smooth affine curve (tau = 0) takes the Koszul route, and its rows
    # are those of the augmented run
    with augmented_runs() as runs:
        rows = syzygies(gens, TermOrder(weights))
    assert rows == augmented_syzygies(gens, TermOrder(weights))
    assert len(runs) == (0 if generates_one(gens) else 1)


# -- drawn inputs over Q, Q(i) and the cubic field, rank 1 and rank 2 ------------

FIELDS = [QQ, GAUSS, CUBIC]


@st.composite
def polys(draw, field):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        c = field.from_rational(QQ.from_int(draw(st.integers(-4, 4))))
        for k in range(1, field.degree):
            if draw(st.booleans()):
                c = c + field.generator ** k * draw(st.integers(-2, 2))
        if c:
            terms[mono] = c
    return Polynomial(field, terms)


@st.composite
def inputs(draw):
    field = draw(st.sampled_from(FIELDS))
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


@settings(max_examples=120, deadline=None)
@given(inputs())
def test_drawn_inputs_match_oracle(case):
    gens, order, probe = case
    gb, ref = assert_same_basis(gens, order)
    assert_same_normal_form(gb, ref, gens, probe)
    assert syzygies(gens, order) == oracle.syzygies(gens, order)
    assert syzygies(gens, order) == augmented_syzygies(gens, order)
    result = membership(probe, gens, order)
    assert result.contained == ref.normal_form(probe).is_zero()
    if result.contained:
        assert recombine(result.cofactors, gens) == probe


@settings(max_examples=90, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
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


# -- normal forms without cofactor tracking --------------------------------------

@contextmanager
def kernel_calls():
    """Records the track argument of every kernel call made inside the block."""
    original = groebner._normal_form_core
    signature, tracks = inspect.signature(original), []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracks.append(bound.arguments["track"])
        return original(*args, **kwargs)
    groebner._normal_form_core = recording
    try:
        yield tracks
    finally:
        groebner._normal_form_core = original


def test_untracked_normal_form_tracks_no_cofactors():
    f = parse_polynomial("x^3+y^3-x*y")
    gb = buchberger([f.diff("x"), f.diff("y")])
    with kernel_calls() as tracks:
        gb.normal_form(f * f)
        gb.reduces_to_zero(f)
    assert tracks == [False, False]
    with kernel_calls() as tracks:
        gb.normal_form(f * f, track_cofactors=True)
    assert tracks == [True]


@settings(max_examples=80, deadline=None)
@given(inputs())
def test_tracked_and_untracked_remainders_agree(case):
    gens, order, probe = case
    rank, field = gens[0].rank, gens[0].field
    single = groebner.GroebnerBasis(gens[:1], groebner.ModuleOrder(order, rank), field, rank)
    for gb in (buchberger(gens, order), buchberger(gens, order, track_cofactors=True),
               single):
        rem = gb.normal_form(probe)
        tracked, cof = gb.normal_form(probe, track_cofactors=True)
        assert rem == tracked
        assert_field_scalars(rem, *cof)
        assert recombine(cof, gb.generators) + rem == probe
        assert gb.reduces_to_zero(probe) == rem.is_zero()


# -- the Koszul route of syzygies against the augmented run -------------------

@st.composite
def rank_one_inputs(draw):
    """s = 2..4 polynomials; with ``unit`` the last one is c plus a
    combination of the others, c a nonzero constant, so they generate (1)."""
    field = draw(st.sampled_from(FIELDS))
    s = draw(st.integers(2, 4))
    gens = [draw(polys(field)) for _ in range(s)]
    unit = draw(st.booleans())
    if unit:
        c = Polynomial.constant(draw(st.sampled_from([1, -2, 3])), field)
        for g in gens[:-1]:
            c = c + draw(polys(field)) * g
        gens[-1] = c
    return gens, TermOrder(draw(st.sampled_from(WEIGHTS[:3]))), unit


@settings(max_examples=180, deadline=None)
@given(rank_one_inputs())
def test_koszul_route_matches_augmented_run(case):
    gens, order, unit = case
    with augmented_runs() as runs:
        rows = syzygies(gens, order)
    assert rows == augmented_syzygies(gens, order)
    assert_field_scalars(*rows)
    assert len(runs) == (0 if generates_one(gens) else 1)
    if unit:
        assert not runs
    for row in rows:
        assert recombine(row.components, gens).is_zero()


@pytest.mark.parametrize("text,koszul", [
    ("x*y-1", True), ("x^5+y^5-x^2*y^2+3*x^3*y-1", True),
    ("x^5+y^5-x^2*y^2", False), ("x^7+y^7-x^2*y^2", False),
    ("(x^3-1)*(y^3-1)*(x^3-y^3)", False)])
def test_route_follows_the_unit_ideal(text, koszul):
    f = parse_polynomial(text)
    gens = [-f.diff("y"), f.diff("x"), f]
    with augmented_runs() as runs:
        rows = syzygies(gens)
    assert rows == augmented_syzygies(gens)
    assert len(runs) == (0 if koszul else 1)


@pytest.mark.parametrize("koszul", [True, False])
def test_zero_generator_on_either_route(koszul):
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    zero, one = Polynomial.zero(), Polynomial.constant(1)
    gens = [x, zero, x + one if koszul else y]
    with augmented_runs() as runs:
        rows = syzygies(gens)
    assert rows == augmented_syzygies(gens)
    assert len(runs) == (0 if koszul else 1)
    # the zero generator's own unit vector is a relation of degree 0
    assert ModuleVector((zero, one, zero)) in rows


def test_all_zero_generators_take_the_augmented_run():
    zero, one = Polynomial.zero(), Polynomial.constant(1)
    with augmented_runs() as runs:
        rows = syzygies([zero, zero])
    assert rows == [ModuleVector((zero, one)), ModuleVector((one, zero))]
    assert len(runs) == 1


@pytest.mark.parametrize("n", [6, 9])
def test_deformed_sextic_and_nonic_finish(n):
    f = parse_polynomial(f"x^{n}+y^{n}-x^2*y^2+3*x^3*y-1")
    fx, fy = f.diff("x"), f.diff("y")
    for p, q, c in (row.components for row in syzygies([-fy, fx, f])):
        assert (q * fx - p * fy + c * f).is_zero()
    raw = syzygy_generators(f)
    assert len(raw) == 3
    assert verify_generation(trivial_forms(f), raw).generates
    assert verify_generation(raw, trivial_forms(f)).generates


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

"""The packed, fraction-free Groebner engine against the tuple-keyed rational
kernel it replaced (tests/rational_oracle.py), over Q, Q(i) and a cubic field
whose minimal polynomial is not integral, and its module membership verdicts
against sympy.

Reduced bases and syzygy rows are unique, and both kernels divide by the
first basis element whose leading term divides, so every comparison is
exact equality in the public types.  membership's cofactors, read off the
tags of one reduction, equal the oracle's tracked cofactors rewritten on
the inputs through its transform.
"""

import inspect
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

import rational_oracle as oracle
from curveforms import (QQ, InvalidInput, ModuleVector, OneForm, Polynomial,
                        TermOrder, buchberger, groebner, membership,
                        parse_polynomial, recombine, syzygies, tangent)
from curveforms.field import ExtElement, NumberField, Rational
from curveforms.poly import field_from_minpoly
from curveforms.tangent import (saito_check, syzygy_generators, tangency_defect,
                                trivial_forms, verify_generation)
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
    """The relation rows (p, q, c) of the fully tagged augmented run, read by
    syzygies outside any count of augmented runs; their (p, q) are the
    oracle of both routes of syzygy_generators, which reads no c column."""
    with augmented_runs():
        return syzygies(gens, order)


@contextmanager
def augmented_runs():
    """Records every augmented run made inside the block."""
    runs = []

    def counting(*args):
        runs.append(args)
        return _AUGMENTED_RUN(*args)
    previous, groebner._augmented_run = groebner._augmented_run, counting
    try:
        yield runs
    finally:
        groebner._augmented_run = previous


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
    ref_tracked = oracle.buchberger(gens, order, track_cofactors=True)
    assert ref_tracked.generators == plain.generators
    for row, basis_vec in zip(ref_tracked.transform, ref_tracked.generators):
        assert recombine(row, gens) == basis_vec
    assert_field_scalars(*plain.generators)
    assert plain.leading_terms() == [lt for _, lt in ref_tracked.rows]
    return plain, ref_tracked


def assert_same_normal_form(gb, ref, gens, probe):
    """The engine's remainder and membership against the oracle's tracked
    division; a probe outside <gens> is also tried less its remainder."""
    rem = gb.normal_form(probe)
    ref_rem, ref_cof = ref.normal_form(probe, track_cofactors=True)
    assert rem == ref.normal_form(probe) == ref_rem
    assert_field_scalars(rem)
    on_inputs = ref.cofactors_on_inputs(ref_cof)
    assert recombine(on_inputs, gens) + rem == ModuleVector.wrap(probe)
    result = membership(probe, gens, gb.order)
    assert result.contained == rem.is_zero()
    if not result:
        assert result.remainder == rem
        assert_same_normal_form(gb, ref, gens, ModuleVector.wrap(probe) - rem)
        return
    assert result.cofactors == on_inputs
    assert_field_scalars(*result.cofactors)


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
    # the library path takes its basis from one run on f dx, f dy and df
    # when <f, f_x, f_y> = (1), and from the relations among (-f_y, f_x)
    # modulo f otherwise; either way it is the (p, q) of these rows
    assert_route_matches(f, TermOrder(weights), generates_one(gens))


# -- drawn inputs over Q, Q(i) and the cubic field, rank 1 and rank 2 ------------

FIELDS = [QQ, GAUSS, CUBIC]


@st.composite
def scalars(draw, field):
    c = field.from_rational(QQ.from_int(draw(st.integers(-4, 4))))
    for k in range(1, field.degree):
        if draw(st.booleans()):
            c = c + field.generator ** k * draw(st.integers(-2, 2))
    return c


@st.composite
def polys(draw, field):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        c = draw(scalars(field))
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


@st.composite
def unit_inputs(draw):
    """Rank-1 seeds of the unit ideal, where a run stops at its first
    constant: drawn polynomials with a nonzero constant first, in the middle
    or last, or (f, f_x, f_y) of a drawn smooth curve over Q or Q(i)."""
    field = draw(st.sampled_from(FIELDS))
    unit = draw(scalars(field).filter(bool))
    if draw(st.booleans()):
        gens = [draw(polys(field).filter(lambda p: not p.is_zero()))
                for _ in range(draw(st.integers(0, 3)))]
        gens.insert(draw(st.sampled_from([0, len(gens) // 2, len(gens)])),
                    Polynomial.constant(unit, field))
    else:
        field = field if field.degree < 3 else GAUSS
        f = draw(polys(field)) + Polynomial.constant(field.one, field)
        gens = [g for g in (f, f.diff("x"), f.diff("y")) if not g.is_zero()]
        assume(not f.is_constant() and generates_one(gens))
    probe = ModuleVector((draw(polys(field)),))
    return ([ModuleVector((g,)) for g in gens],
            TermOrder(draw(st.sampled_from(WEIGHTS))), probe)


@settings(max_examples=240, deadline=None)
@given(st.one_of(inputs(), unit_inputs()))
def test_drawn_inputs_match_oracle(case):
    gens, order, probe = case
    gb, ref = assert_same_basis(gens, order)
    assert_same_normal_form(gb, ref, gens, probe)
    assert syzygies(gens, order) == oracle.syzygies(gens, order)
    assert syzygies(gens, order) == augmented_syzygies(gens, order)


@contextmanager
def tangency_assumed():
    """saito_check takes any pair: the pairs below are drawn by their wedge,
    which two forms tangent to a reduced f never leave off a multiple of f."""
    original = tangent.is_tangent
    tangent.is_tangent = lambda f, w: True
    try:
        yield
    finally:
        tangent.is_tangent = original


def reduced(f):
    """K[x,y]/<f, f_x, f_y> is finite-dimensional, i.e. f has no repeated
    factor: the oracle's leading terms hold a pure power of x and of y."""
    lts = [lt for _, lt in oracle.buchberger([f, f.diff("x"), f.diff("y")]).rows]
    return any(j == 0 for _, _, j in lts) and any(i == 0 for _, i, _ in lts)


@st.composite
def wedges(draw, field):
    """(f, W) with W = c*f, c*f plus one term, g*f with g not constant, or 0."""
    f, x = draw(polys(field)), Polynomial.variable("x", field)
    kind = draw(st.sampled_from(["c*f", "c*f+term", "g*f", "0"]))
    c = draw(scalars(field).filter(bool))
    if kind == "c*f":
        return f, f * c
    if kind == "c*f+term":
        mono = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        return f, f * c + Polynomial.term(draw(scalars(field).filter(bool)), mono, field)
    if kind == "g*f":
        g = draw(polys(field))
        return f, (g + x if g.is_constant() else g) * f
    return f, Polynomial.zero(field)


@settings(max_examples=90, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda field: st.tuples(wedges(field), polys(field), polys(field))))
def test_division_by_f_matches_principal_basis(case):
    # tangency_defect and saito_check each divide by [f] once, untracked;
    # the oracle's tracked division gives the quotient that decides freeness,
    # and saito_check refuses an f with a repeated factor
    (f, wedge_coeff), p, q = case
    if f.is_zero():
        return
    ref = oracle.buchberger([f], track_cofactors=True)
    fx, fy = f.diff("x"), f.diff("y")
    defect = tangency_defect(f, OneForm(p, q))
    assert defect == ref.normal_form(fx * q - fy * p).components[0]
    assert_field_scalars(defect)
    ref_rem, (ref_cof,) = ref.normal_form(wedge_coeff, track_cofactors=True)
    quotient = ref_cof * ref.transform[0][0]
    assert quotient * f + ref_rem.components[0] == wedge_coeff
    free = not wedge_coeff.is_zero() and ref_rem.is_zero() and quotient.is_constant()
    one, zero = Polynomial.constant(1, f.field), Polynomial.zero(f.field)
    pair = [OneForm(one, zero), OneForm(zero, wedge_coeff)]
    if not reduced(f):
        with tangency_assumed(), pytest.raises(InvalidInput):
            saito_check(pair, f)
        return
    with tangency_assumed():
        result = saito_check(pair, f)
    assert result.free == free
    assert result.constant == (quotient.constant_value() if free else None)
    if free:
        assert type(result.constant) is (Rational if f.field is QQ else ExtElement)


# -- every normal form is one untracked reduction ---------------------------------

@contextmanager
def kernel_calls():
    """Records the exact argument of every kernel call made inside the block."""
    original = groebner._normal_form_core
    signature, calls = inspect.signature(original), []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments["exact"])
        return original(*args, **kwargs)
    groebner._normal_form_core = recording
    try:
        yield calls
    finally:
        groebner._normal_form_core = original


def test_membership_reads_cofactors_off_one_tagged_reduction(monkeypatch):
    f = parse_polynomial("x^3+y^3-x*y")
    jac = [f.diff("x"), f.diff("y")]
    gb = buchberger(jac)
    with kernel_calls() as calls:
        gb.normal_form(f * f)
        gb.reduces_to_zero(f)
    assert calls == [True, True]
    # one augmented run, whose reductions need no exact multiplier, then one
    # exact reduction of (v | 0); no basis of the inputs alone is built
    monkeypatch.setattr(groebner, "buchberger", None)
    probe = f * jac[0] + parse_polynomial("x*y") * jac[1]
    with augmented_runs() as runs, kernel_calls() as calls:
        cert = membership(probe, jac)
    assert len(runs) == 1 and calls[-1] and not any(calls[:-1])
    assert recombine(cert.cofactors, jac) == ModuleVector.wrap(probe)


@settings(max_examples=80, deadline=None)
@given(inputs())
def test_tracked_and_untracked_remainders_agree(case):
    # the engine's untracked remainder by a reduced basis, or by one given
    # generator, is the oracle's tracked one by the same (monic) vectors
    gens, order, probe = case
    rank, field = gens[0].rank, gens[0].field
    single = groebner.GroebnerBasis(gens[:1], groebner.ModuleOrder(order, rank), field, rank)
    for gb in (buchberger(gens, order), single):
        rows = []
        for g in gb.generators:
            core = oracle._vec_core(g)
            lt = max(core, key=lambda t: oracle._key(gb.order, t))
            rows.append((oracle._monic(core, lt), lt))
        ref = oracle.OracleBasis(rows, gb.order, field, rank)
        rem = gb.normal_form(probe)
        tracked, cof = ref.normal_form(probe, track_cofactors=True)
        assert rem == tracked
        assert_field_scalars(rem)
        assert recombine(cof, ref.generators) + rem == probe
        assert gb.reduces_to_zero(probe) == rem.is_zero()


# -- the route of syzygy_generators against the augmented run ----------------

def assert_route_matches(f, order, route):
    """syzygy_generators(f, order) gives the (p, q) of the augmented run's
    relations among (-f_y, f_x, f), and makes an augmented run, its own with
    two tags, only when the route is not taken."""
    gens = [-f.diff("y"), f.diff("x"), f]
    rows = augmented_syzygies(gens, order)
    for row in rows:
        assert recombine(row.components, gens).is_zero()
    with augmented_runs() as runs:
        raw = syzygy_generators(f, order)
    assert raw.forms == [OneForm(*row.components[:2]) for row in rows]
    assert_field_scalars(*(w.P for w in raw.forms), *(w.Q for w in raw.forms))
    assert len(runs) == (0 if route else 1)


@st.composite
def drawn_curves(draw):
    """A polynomial over Q, Q(i) or the cubic field; half the time the
    product of two drawn polynomials, singular where they meet."""
    field = draw(st.sampled_from(FIELDS))
    f = draw(polys(field))
    if draw(st.booleans()):
        f = f * draw(polys(field))
    return f, TermOrder(draw(st.sampled_from(WEIGHTS[:3])))


@settings(max_examples=180, deadline=None)
@given(drawn_curves())
@example((Polynomial.variable("y", CUBIC) * CUBIC.scalar([0, 1, 0])
          + Polynomial.constant(1, CUBIC), TermOrder((2, 3))))
def test_koszul_route_matches_augmented_run(case):
    # the library path runs on the trivial forms, which span the tangent
    # module when <f, f_x, f_y> = (1); w*y + 1 over the cubic field has a
    # leading coefficient w that the check must normalize before dividing
    f, order = case
    if f.is_constant():
        return
    assert_route_matches(f, order, generates_one([f, f.diff("x"), f.diff("y")]))


@st.composite
def relation_triples(draw):
    """(a, b, m) over Q or Q(i) with every term of degree <= 3 and m != 0,
    and an order.  The rational oracle's three-column run is the slow side
    of the comparison, and its coefficients grow fast with the degree, so
    the draws stay small enough for a tier-1 run."""
    field = draw(st.sampled_from([QQ, GAUSS]))
    gens = []
    for k in range(3):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, 3))
            c = draw(scalars(field))
            if c:
                terms[(i, draw(st.integers(0, 3 - i)))] = c
        gens.append(Polynomial(field, terms) if terms or k < 2
                    else Polynomial.constant(1, field))
    return gens, TermOrder(draw(st.sampled_from(WEIGHTS[:3])))


@settings(max_examples=60, deadline=None)
@given(relation_triples())
@example(([_curve("2*y", None), _curve("3*x^2", None), _curve("x^3-y^2", None)],
          TermOrder((3, 2))))                        # (-f_y, f_x, f) of the cusp
@example(([Polynomial.zero(), Polynomial.zero(), _curve("x*y", None)], TermOrder()))
def test_two_tag_run_matches_the_projected_relations(case):
    # the relations among (a, b) modulo m, read off one run that tags only a
    # and b, are the reduced basis of the (a, b) columns of the relations
    # (a, b, c) among (a, b, m) on the rational oracle
    gens, order = case
    columns = [ModuleVector(row.components[:2]) for row in oracle.syzygies(gens, order)]
    ref = oracle.buchberger(columns, order)
    gb = groebner._relations(gens, order, 2)
    assert gb.generators == ref.generators
    assert gb.leading_terms() == [lt for _, lt in ref.rows]
    assert gb.order.rank == gb.rank == 2


@pytest.mark.parametrize("text,koszul", [
    ("x*y-1", True), ("x^5+y^5-x^2*y^2+3*x^3*y-1", True),
    ("x^5+y^5-x^2*y^2", False), ("x^7+y^7-x^2*y^2", False),
    ("(x^3-1)*(y^3-1)*(x^3-y^3)", False)])
def test_route_follows_the_unit_ideal(text, koszul):
    assert_route_matches(parse_polynomial(text), None, koszul)


@pytest.mark.parametrize("koszul", [True, False])
def test_zero_generator_on_either_route(koszul):
    # syzygies has one route, the augmented run, whether or not the inputs
    # generate (1)
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    zero, one = Polynomial.zero(), Polynomial.constant(1)
    gens = [x, zero, x + one if koszul else y]
    with augmented_runs() as runs:
        rows = syzygies(gens)
    assert rows == augmented_syzygies(gens)
    assert len(runs) == 1
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
    with augmented_runs() as runs:
        raw = syzygy_generators(f)
    assert not runs and len(raw) == 3
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

"""The raw, generation and minimal stages against their references
(tests/generation_oracle.py).

The library decides generation on an untracked basis and prunes on the
engine's vectors; the references track cofactors and prune on decoded
forms.  Verdicts, witnesses and minimal forms must be equal on every corpus
curve with a finite Jacobian quotient and on drawn tame curves over Q, Q(i)
and a cubic field, including the curves where the four forms do not
generate.

The raw set carries the reduced basis of its forms.  analyze takes it from
one rank-2 run on its candidate's forms at e <= 1, where they span the
tangent module, and from the augmented run otherwise, followed by a
generation run exactly when the reference says the candidate does not
generate.  Its basis must equal the projection to (p, q) of the basis of
the relations (p, q, c) among (-f_y, f_x, f), which the library no longer
computes, and, at e <= 1, the projected basis of the candidate's lifted
relations, the routes it replaced, on these curves and on the golden
inputs.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from curveforms import (QQ, GroebnerBasis, ModuleOrder, OneForm, Polynomial,
                        TermOrder, Weights, analyze, buchberger,
                        format_polynomial, minimal_generators, parse_polynomial,
                        syzygy_generators, tangent, verify_generation)
from curveforms.poly import field_from_minpoly
import generation_oracle as oracle
from conftest import tame_curves, through_origin
from record_golden import CASES
from test_kernel_oracle import CUBIC, augmented_syzygies
from test_milnor_oracle import CORPUS_CURVES

GAUSSIAN = field_from_minpoly("z^2+1")


def assert_matches_oracle(f, weights=(1, 1), allow_untame=True):
    """Returns whether the candidate of analyze generates the module, or
    None when analyze stops at a curve that is not tame."""
    order = TermOrder(Weights(*weights))
    verified, fallbacks, raws = [], [], []
    original_verify, original_relations = tangent.verify_generation, tangent._relations
    original_minimal = tangent.minimal_generators

    def recording(candidate, reference):
        verified.append(candidate)
        return original_verify(candidate, reference)

    def recording_relations(*args):
        fallbacks.append(args)
        return original_relations(*args)

    def recording_minimal(raw):
        raws.append(raw)
        return original_minimal(raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tangent, "verify_generation", recording)
        mp.setattr(tangent, "_relations", recording_relations)
        mp.setattr(tangent, "minimal_generators", recording_minimal)
        rep = analyze(f, Weights(*weights), allow_untame=allow_untame)
    if rep.generation is None:
        assert not rep.tame and not verified and not raws
        return None
    candidate = rep.four if rep.exponent else rep.trivial
    # the relation rows (p, q, c) of the fully tagged augmented run,
    # projected to (p, q), are the raw set of analyze and of the library path
    fx, fy = f.diff("x"), f.diff("y")
    rows = augmented_syzygies([-fy, fx, f], order)
    raw = syzygy_generators(f, order)
    assert raws[0].forms == raw.forms == [OneForm(*r.components[:2]) for r in rows]
    # each raw set carries the reduced basis of its forms, which is the
    # projected basis of those relations and, where the candidate's forms
    # span the module, of their lifted relations
    references = [buchberger(raw.forms, order),
                  oracle.projected(GroebnerBasis(rows, ModuleOrder(order, 3), f.field, 3), 2)]
    if rep.exponent <= 1:
        references.append(oracle.lifted_raw_basis(f, order, rep.omega, rep.theta))
    for basis in (raws[0].basis, raw.basis):
        for reference in references:
            assert basis.generators == reference.generators
            assert basis.leading_terms() == reference.leading_terms()
    mini = minimal_generators(raw)
    assert mini.forms == oracle.minimal_generators(raw, order).forms
    for cand, ref in [(candidate, raw), (raw, candidate), (mini, raw)]:
        verdict = verify_generation(cand, ref)
        assert (verdict.generates, verdict.witness) == oracle.verify_generation(cand, ref)[:2]
    generates, witness, _ = oracle.verify_generation(candidate, raw)
    assert rep.generation["generates"] == generates
    assert rep.generation["witness"] == (None if generates else {
        "P": format_polynomial(witness.P), "Q": format_polynomial(witness.Q)})
    # the route falls back exactly when the candidate does not generate
    assert len(fallbacks) == len(verified) == (0 if generates else 1)
    return generates


@pytest.mark.parametrize("text,weights,minpoly", CORPUS_CURVES,
                         ids=[c[0] for c in CORPUS_CURVES])
def test_corpus_curve_matches_oracle(text, weights, minpoly):
    field = field_from_minpoly(minpoly) if minpoly else QQ
    generates = assert_matches_oracle(parse_polynomial(text, field), weights)
    # the A'Campo curve is the corpus case with a witness
    assert generates == (text != "x^5+y^5-x^2*y^2")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_input_matches_oracle(name):
    text, weights, minpoly, allow_untame = CASES[name]
    field = field_from_minpoly(minpoly) if minpoly else QQ
    assert_matches_oracle(parse_polynomial(text, field), weights, allow_untame)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([QQ, GAUSSIAN, CUBIC])
       .flatmap(tame_curves)
       .flatmap(lambda f: st.sampled_from([f, through_origin(f)])),
       st.sampled_from([(1, 1), (2, 3), (3, 2)]))
@example(parse_polynomial("x*y-1"), (1, 1))
@example(parse_polynomial("x^5+y^5-x^2*y^2"), (1, 1))
@example(Polynomial.variable("y", CUBIC) * CUBIC.scalar([0, 1, 0])
         + Polynomial.constant(1, CUBIC), (2, 3))
def test_drawn_curves_match_oracle(f, weights):
    # smooth and singular: a drawn curve keeps or loses its constant and
    # linear terms; w*y + 1 over the cubic field has a leading coefficient
    # w that the engine must normalize before it divides by f
    assert_matches_oracle(f, weights)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([QQ, GAUSSIAN]).flatmap(
    lambda field: st.tuples(st.just(field), st.integers(1, 3), st.integers(1, 3))))
def test_drawn_acampo_curves_have_the_same_witness(args):
    # x^5 + a*y^5 - c*x^2*y^2: the singular point at 0 is not
    # quasi-homogeneous, so the four forms leave a witness
    field, a, c = args
    x, y = Polynomial.variable("x", field), Polynomial.variable("y", field)
    scalar = field.scalar([a] + [c] * (field.degree - 1))
    f = x ** 5 + scalar * y ** 5 - c * x ** 2 * y ** 2
    assert not assert_matches_oracle(f)


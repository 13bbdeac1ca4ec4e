"""The generation and minimal stages against their references
(tests/generation_oracle.py).

The library decides generation on an untracked basis and prunes on the
engine's vectors; the references track cofactors and prune on decoded
forms.  Verdicts, witnesses and minimal forms must be equal on every corpus
curve with a finite Jacobian quotient and on drawn tame curves over Q and
Q(i), including the curves where the four forms do not generate.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from curveforms import (QQ, Polynomial, TermOrder, Weights, analyze,
                        minimal_generators, parse_polynomial, syzygy_generators,
                        verify_generation)
from curveforms.poly import field_from_minpoly
import generation_oracle as oracle
from conftest import tame_curves
from test_milnor_oracle import CORPUS_CURVES

GAUSSIAN = field_from_minpoly("z^2+1")


def assert_matches_oracle(f, weights=(1, 1)):
    """Returns whether the candidate of analyze generates the module."""
    order = TermOrder(Weights(*weights))
    rep = analyze(f, Weights(*weights), allow_untame=True)
    candidate = rep.four if rep.exponent else rep.trivial
    raw = syzygy_generators(f, order)
    mini = minimal_generators(raw, order)
    assert mini.forms == oracle.minimal_generators(raw, order).forms
    for cand, ref in [(candidate, raw), (raw, candidate), (mini, raw)]:
        verdict = verify_generation(cand, ref)
        assert (verdict.generates, verdict.witness) == oracle.verify_generation(cand, ref)[:2]
    return rep.generation["generates"]


@pytest.mark.parametrize("text,weights,minpoly", CORPUS_CURVES,
                         ids=[c[0] for c in CORPUS_CURVES])
def test_corpus_curve_matches_oracle(text, weights, minpoly):
    field = field_from_minpoly(minpoly) if minpoly else QQ
    generates = assert_matches_oracle(parse_polynomial(text, field), weights)
    # the A'Campo curve is the corpus case with a witness
    assert generates == (text != "x^5+y^5-x^2*y^2")


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([QQ, GAUSSIAN]).flatmap(tame_curves))
@example(parse_polynomial("x^5+y^5-x^2*y^2"))
def test_drawn_curves_match_oracle(f):
    assert_matches_oracle(f)


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

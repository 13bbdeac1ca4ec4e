"""The assembled pipeline and its report document."""

import json

import pytest

from curveforms import (QQ, Weights, analyze, groebner, milnor,
                        parse_polynomial, tangent)
from curveforms.poly import field_from_minpoly


def test_circle_report_contents():
    rep = analyze(parse_polynomial("x*y-1"))
    assert rep.tame
    assert rep.mu == 1
    assert rep.exponent == 0
    assert str(rep.min_poly) == "t+1"
    assert rep.generation["candidate_kind"] == "trivial_smooth"
    assert rep.generation["generates"]
    assert len(rep.minimal) == 2
    assert rep.saito["free"]
    assert rep.kernel_condition is None
    assert rep.warnings == []


def test_acampo_report_contents():
    rep = analyze(parse_polynomial("x^5+y^5-x^2*y^2"))
    assert rep.mu == 16
    assert rep.tau == 10
    assert rep.to_dict()["tau"] == 10
    assert "tau = 10" in rep.to_text().splitlines()
    assert str(rep.min_poly) == "t^3+16/3125*t^2"
    assert rep.exponent == 2
    assert rep.kernel_condition is False
    assert not rep.generation["generates"]
    assert len(rep.minimal) == 3
    assert rep.saito is None  # three minimal generators, no pair to test
    assert rep.warnings == []


def _count_profiles(monkeypatch, text):
    calls = []
    original = milnor.jordan_profile

    def counting(op, factor, minimal=None):
        calls.append(str(factor))
        return original(op, factor, minimal)

    monkeypatch.setattr(milnor, "jordan_profile", counting)
    rep = analyze(parse_polynomial(text))
    return rep, calls


def test_profile_at_zero_reused_when_t_is_a_factor(monkeypatch):
    rep, calls = _count_profiles(monkeypatch, "x^5+y^5-x^2*y^2")
    assert sorted(calls) == ["t", "t+16/3125"]
    assert [str(jp.factor) for jp in rep.jordan] == ["t+16/3125", "t"]


def test_profile_at_zero_computed_when_t_is_not_a_factor(monkeypatch):
    # 0 and -1 are both simple roots of the minimal polynomial t^2+t
    rep, calls = _count_profiles(monkeypatch, "x^3+y^3-3*x*y")
    assert calls == ["t^2+t", "t"]
    assert rep.warnings == []


def test_not_tame_report():
    rep = analyze(parse_polynomial("x^2*y"))
    assert not rep.tame
    assert rep.mu is None
    assert rep.not_tame_reason


def test_quasihomogeneous_detection():
    rep = analyze(parse_polynomial("x^3+y^3"))
    assert rep.quasi_homogeneous is not None
    assert rep.quasi_homogeneous["saito_constant"] == "1"


def test_json_reproducible_and_round_trips():
    f = parse_polynomial("x^5+y^5-x^2*y^2")
    first = analyze(f).to_json()
    second = analyze(f).to_json()
    assert first == second

    doc = json.loads(first)
    assert doc["input"]["f"] == "x^5+y^5-x^2*y^2"
    assert "timings" not in doc
    # every polynomial string parses back to the exact object
    assert parse_polynomial(doc["input"]["f"]) == f
    assert parse_polynomial(doc["theta"]) == analyze(f).theta
    for row in doc["generators"]["minimal"]:
        parse_polynomial(row["P"])
        parse_polynomial(row["Q"])


def test_extension_field_report():
    field = field_from_minpoly("z^2+1")
    rep = analyze(parse_polynomial("x^2+y^2-1", field))
    doc = rep.to_dict()
    assert doc["input"]["field"] == {"kind": "extension",
                                     "minpoly": "z^2+1", "generator": "z"}


def test_weighted_analysis():
    f = parse_polynomial("y-x^4-x")
    rep = analyze(f, Weights(1, 4))
    assert rep.tame
    assert rep.mu == 0
    assert rep.exponent == 0
    assert len(rep.minimal) == 2


def test_text_rendering_mentions_key_facts():
    rep = analyze(parse_polynomial("x*y-1"))
    text = rep.to_text()
    assert "mu = 1" in text
    assert "minimal polynomial: t+1" in text
    assert "time" in text


def test_analyze_computes_tau_once(monkeypatch):
    f = parse_polynomial("x^5+y^5-x^2*y^2")
    ma = milnor.milnor_algebra(f)
    # quotient dimensions run the engine on the Jacobian basis's own vectors
    # and the normalized vector of the added class
    cores, normalized = [c for c, _, _ in ma.gb._cores], ma.gb.coding.normalized
    f_vec = milnor._coded(ma, f)[0]
    tau_seeds = cores + [normalized(f_vec, max(f_vec))]
    calls = []
    original = milnor._run_buchberger

    def counting(seeds, *args, **kwargs):
        calls.append(list(seeds))
        return original(seeds, *args, **kwargs)
    monkeypatch.setattr(milnor, "_run_buchberger", counting)
    rep = analyze(f)
    assert rep.tau == 10 and rep.kernel_condition is not None
    # one run for <f_x, f_y, f>, shared by the report, the first rank at the
    # root 0 and kernel_condition
    assert sum(seeds == tau_seeds for seeds in calls) == 1


def test_analyze_checks_tameness_once(monkeypatch):
    f = parse_polynomial("x^5+y^5-x^2*y^2")
    top_jacobian = milnor.jacobian(f.leading_form(Weights(1, 1)))
    calls = []
    original = milnor.buchberger

    def counting(gens, *args, **kwargs):
        calls.append(list(gens))
        return original(gens, *args, **kwargs)
    monkeypatch.setattr(milnor, "buchberger", counting)
    rep = analyze(f)
    assert rep.tame and rep.mu == 16
    # check_tame's basis of <g_x, g_y>, g the top form, is shared with
    # milnor_algebra instead of being computed again
    assert sum(gens == top_jacobian for gens in calls) == 1


@pytest.mark.parametrize("text, minpoly, augmented", [
    ("x*y-1", None, 1),             # the tracked Jacobian basis
    ("x^5+y^5-x^2*y^2", None, 2),   # ... and the syzygies of a singular curve
    ("x^4+2*y^4+x^2-x*y^2+2*x*y-3*y^3", "z^2+1", 2),
])
def test_analyze_tracks_and_decodes_only_what_it_reads(monkeypatch, text,
                                                       minpoly, augmented):
    # generation is decided on an untracked basis, and a basis is decoded to
    # field scalars only when its generators are read: here only the basis
    # that minimal_generators turns into the reported forms
    runs, bases = [], []
    original_run, original_buchberger = groebner._augmented_run, groebner.buchberger

    def recording_run(*args):
        runs.append(args)
        return original_run(*args)

    def recording_buchberger(*args, **kwargs):
        bases.append(original_buchberger(*args, **kwargs))
        return bases[-1]
    monkeypatch.setattr(groebner, "_augmented_run", recording_run)
    for module in (groebner, milnor, tangent):
        monkeypatch.setattr(module, "buchberger", recording_buchberger)
    fld = field_from_minpoly(minpoly) if minpoly else QQ
    analyze(parse_polynomial(text, fld))
    assert len(runs) == augmented
    decoded = [gb for gb in bases if "generators" in vars(gb)]
    assert len(bases) > 3 and len(decoded) == 1

"""The assembled pipeline and its report document."""

import json

import pytest

from curveforms import (QQ, ModuleVector, TermOrder, UniPoly, Weights,
                        analysis, analyze, groebner, milnor, parse_polynomial,
                        rational, tangent)
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

    def counting(op, factor):
        calls.append(str(factor))
        return original(op, factor)

    monkeypatch.setattr(milnor, "jordan_profile", counting)
    rep = analyze(parse_polynomial(text))
    return rep, calls


def test_profile_at_zero_reused_when_t_is_a_factor(monkeypatch):
    rep, calls = _count_profiles(monkeypatch, "x^5+y^5-x^2*y^2")
    assert sorted(calls) == ["t", "t+16/3125"]
    assert [str(jp.factor) for jp in rep.jordan] == ["t+16/3125", "t"]


def test_profile_at_zero_skipped_at_exponent_one(monkeypatch):
    # 0 and -1 are both simple roots of the minimal polynomial t^2+t; at
    # e = 1 every block at 0 has size 1, so no profile at t is needed
    rep, calls = _count_profiles(monkeypatch, "x^3+y^3-3*x*y")
    assert calls == ["t^2+t"]
    assert rep.warnings == []


def test_profile_at_zero_computed_when_t_is_not_a_factor(monkeypatch):
    # t shares a squarefree factor with another root of the same
    # multiplicity e >= 2; no low-degree curve shows one, so the split of
    # A'Campo's p = t^2 (t + 16/3125) is patched to the divisor t^2+c*t
    merged = milnor.CriticalFactor(UniPoly((0, rational(16, 3125), 1)), 1, ())
    monkeypatch.setattr(milnor, "critical_value_factors", lambda p: [merged])
    seen = []
    monkeypatch.setattr(analysis, "appendix_block_warning",
                        lambda profile: seen.append(profile.blocks))
    rep, calls = _count_profiles(monkeypatch, "x^5+y^5-x^2*y^2")
    assert calls == ["t^2+16/3125*t", "t"]
    assert seen == [{1: 9, 2: 1}]


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
    cores, normalized = [c for c, _ in ma.gb._cores], ma.gb.coding.normalized
    f_vec = ma.gb._reduce(f)[0]
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


TRACKED_CASES = [
    # (f, minimal polynomial, augmented runs, verify_generation calls,
    #  buchberger calls, runs on <f, f_x, f_y>)
    ("x*y-1", None, 0, 0, 3, 0),          # tau = 0 proves the unit ideal
    ("x^5+y^5-x^2*y^2", None, 2, 1, 3, 1),  # omega's membership and the fallback
    ("x^4+2*y^4+x^2-x*y^2+2*x*y-3*y^3", "z^2+1", 1, 0, 3, 1),  # omega's membership
    ("x^3+y^3+(2+z)*x*y-z", "z^2+1", 0, 0, 3, 0),
]


@pytest.mark.parametrize("text, minpoly, augmented, verified, built, on_f_runs",
                         TRACKED_CASES,
                         ids=[f"{t}-{m}-{a}" for t, m, a, _, _, _ in TRACKED_CASES])
def test_analyze_tracks_and_decodes_only_what_it_reads(monkeypatch, text,
                                                       minpoly, augmented,
                                                       verified, built,
                                                       on_f_runs):
    # the Jacobian basis is untracked and only omega's membership certificate
    # carries cofactors, in the tags of its augmented run, with no buchberger
    # call of its own; the relations come from the candidate's lifts, and
    # generation is decided by a run only when the candidate falls back to
    # the augmented run; the minimal stage prunes the raw set's basis, the
    # projection of the relation basis, without a run of its own, and the
    # reported forms are decoded from that projection, so no basis that
    # buchberger returns is decoded to field scalars
    fld = field_from_minpoly(minpoly) if minpoly else QQ
    f = parse_polynomial(text, fld)
    coding, order = groebner._coding(fld), groebner.ModuleOrder(TermOrder())

    def lines(seeds):
        return frozenset(frozenset(coding.normalized(v, max(v)).items()) for v in seeds)
    # the seeds of a run for <f, f_x, f_y>: those polynomials, or the
    # Jacobian basis and the class of f, as tjurina_number seeds its run
    ma = milnor.milnor_algebra(f)
    on_f = {lines(groebner._seeds([ModuleVector((p,)) for p in (f, f.diff("x"), f.diff("y"))],
                                  coding, order)),
            lines([c for c, _ in ma.gb._cores] + [ma.gb._reduce(f)[0]])}
    runs, bases, verifications, rank_one, pruning = [], [], [], [], []
    original_run, original_buchberger = groebner._augmented_run, groebner.buchberger
    original_verify, original_plain = tangent.verify_generation, groebner._run_buchberger
    original_minimal = tangent.minimal_generators

    def recording_run(*args):
        runs.append(args)
        return original_run(*args)

    def recording_buchberger(*args, **kwargs):
        bases.append(original_buchberger(*args, **kwargs))
        return bases[-1]

    def recording_verify(*args):
        verifications.append(args)
        return original_verify(*args)

    def recording_minimal(*args):
        before = len(bases)
        pruning.append(original_minimal(*args))
        assert len(bases) == before
        return pruning[-1]

    def recording_plain(seeds, run_order, coding):
        rows = original_plain(seeds, run_order, coding)
        if run_order.rank == 1:
            rank_one.append(lines(seeds))
        return rows
    monkeypatch.setattr(groebner, "_augmented_run", recording_run)
    for module in (groebner, milnor, tangent):
        monkeypatch.setattr(module, "buchberger", recording_buchberger)
    for module in (groebner, milnor):
        monkeypatch.setattr(module, "_run_buchberger", recording_plain)
    monkeypatch.setattr(tangent, "verify_generation", recording_verify)
    monkeypatch.setattr(tangent, "minimal_generators", recording_minimal)
    rep = analyze(f)
    assert len(runs) == augmented
    assert len(verifications) == verified
    # tjurina_number's run is the only one on <f, f_x, f_y>, and it is made
    # only at a positive exponent: at exponent 0 op is invertible, so tau = 0
    assert sum(seeds in on_f for seeds in rank_one) == on_f_runs
    assert len(bases) == built and len(pruning) == 1
    assert not [gb for gb in bases if "generators" in vars(gb)]
    assert rep.minimal == pruning[0].forms

"""The paper's theorem as an end-to-end oracle on analyze's reports.

Let e be the multiplicity of the root 0 of the minimal polynomial of
multiplication by f on V_f.  The trivial forms generate the tangent module
of a smooth curve (e = 0); for a singular one the four generators f dx,
f dy, df and omega generate exactly when (theta) = ker(op), and the
appendix's bound on the Jordan blocks at 0 makes that e = 1.  So every
report must have generation == (e <= 1), and kernel_condition == (e == 1)
wherever e >= 1.  The reports are the golden files, every report the
corpus builds, and the small-batch benchmark curves of three seeds.

analyze routes generation by e alone: at e <= 1 the ideal
I = <f, f_x, f_y, theta, P_w, Q_w> is (1) by the minimal polynomial, and
at e >= 2 the augmented run gives the relations.  Every singular report
here also gets the run analyze no longer makes: <f, f_x, f_y, theta> is
(1) at e = 1, and I is not (1) at e >= 2.

analyze reads its Saito constants without the public check, whose
hypotheses (both forms tangent, f reduced) its forms meet by construction.
Every report here gets that check too: a minimal pair is free with the
report's constant, and a quasi-homogeneous pair (dg, eta) has constant 1.

The paper also says T is free of rank 2.  A minimal triple proves it
through its one relation row: the row's entries generate (1), so T is
projective, hence free (Quillen-Suslin).  A set of four forms is not
checked.
"""

import glob
import importlib.util
import json
import os
import sys

import pytest

from curveforms import (QQ, OneForm, Weights, analysis, analyze, buchberger,
                        corpus, parse_polynomial, syzygies, tangent)
from curveforms.poly import field_from_minpoly
from record_golden import GOLDEN_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads():
    """bench/workloads.py, loaded by path (bench/ is no package); its
    dataclass needs the module registered while it runs."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def _parsed_f(doc):
    """The report's f over the report's field."""
    spec = doc["input"]["field"]
    field = (field_from_minpoly(spec["minpoly"], spec["generator"])
             if spec["kind"] == "extension" else QQ)
    return parse_polynomial(doc["input"]["f"], field)


def assert_unit_certificate(doc):
    """At e = 1, <f, f_x, f_y, theta> is (1); at e >= 2,
    <f, f_x, f_y, theta, P_w, Q_w> is not.  The polynomials are parsed
    back from the report document."""
    f = _parsed_f(doc)
    field = f.field
    gens = [f, f.diff("x"), f.diff("y"), parse_polynomial(doc["theta"], field)]
    if doc["exponent"] >= 2:
        gens += [parse_polynomial(doc["omega"][c], field) for c in "PQ"]
    unit = buchberger(gens).leading_terms() == [(0, 0, 0)]
    assert unit == (doc["exponent"] == 1), doc["input"]


def assert_theorem(doc):
    """generation and kernel_condition of one report document agree with
    its exponent, and so does the unit-ideal certificate; returns whether
    the report reached the Milnor stage."""
    if "exponent" not in doc:
        return False
    e = doc["exponent"]
    assert doc["generation"]["generates"] == (e <= 1), doc["input"]
    if e >= 1:
        assert doc["kernel_condition"] == (e == 1), doc["input"]
        assert_unit_certificate(doc)
    else:
        assert "kernel_condition" not in doc
    return True


def assert_saito(doc):
    """The public saito_check, on forms parsed back from the report, agrees
    with the report's Saito verdicts; returns whether it ran."""
    f, ran = _parsed_f(doc), False
    minimal = doc["generators"]["minimal"]
    if len(minimal) == 2:
        pair = [OneForm(*(parse_polynomial(w[c], f.field) for c in "PQ"))
                for w in minimal]
        result = tangent.saito_check(pair, f)
        assert result.free and doc["saito"]["free"], doc["input"]
        assert f.field.format_scalar(result.constant) == doc["saito"]["constant"]
        ran = True
    if "quasi_homogeneous" in doc:
        pair = tangent.quasihomogeneous_pair(f, Weights(*doc["input"]["weights"]))
        assert tangent.saito_check(pair, f).constant == f.field.one
        assert doc["quasi_homogeneous"]["saito_constant"] == "1"
        ran = True
    return ran


def assert_projective(doc):
    """A minimal set of three forms has one relation row (a_1, a_2, a_3), and
    its entries generate (1): T is then projective, hence free of rank 2 by
    Quillen-Suslin, as the paper's theorem says.  Returns the set's size."""
    f = _parsed_f(doc)
    minimal = [OneForm(*(parse_polynomial(w[c], f.field) for c in "PQ"))
               for w in doc["generators"]["minimal"]]
    if len(minimal) == 3:
        rows = syzygies(minimal)
        assert len(rows) == 1, doc["input"]
        unit = buchberger(list(rows[0].components)).leading_terms() == [(0, 0, 0)]
        assert unit, doc["input"]
    return len(minimal)


def test_golden_reports_obey_the_theorem():
    paths = [p for p in glob.glob(os.path.join(GOLDEN_DIR, "*.json"))
             if not p.endswith("corpus_checks.json")]
    checked = saito = three = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        checked += assert_theorem(doc)
        saito += assert_saito(doc)
        three += assert_projective(doc) == 3
    # five inputs (Lissajous, deltoid, rose, Riccati and the Q(i) cusp) are
    # not tame and stop before the Milnor stage; nine reports have a
    # minimal pair or a quasi-homogeneous block, twelve a minimal triple
    assert (len(paths), checked, saito, three) == (26, 21, 9, 12)


def test_corpus_reports_obey_the_theorem(monkeypatch):
    reports, original = [], analysis.analyze

    def recording(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]
    monkeypatch.setattr(analysis, "analyze", recording)
    corpus.run_corpus()
    assert reports
    assert all(assert_theorem(rep.to_dict()) for rep in reports)
    assert sum(assert_saito(rep.to_dict()) for rep in reports) == 4
    assert sum(assert_projective(rep.to_dict()) == 3 for rep in reports) == 2


@pytest.mark.parametrize("seed", [1, 5, 17])
def test_small_batch_reports_obey_the_theorem(seed):
    singular = saito = three = 0
    for case in _workloads().small_batch(seed):
        field = field_from_minpoly(case.minpoly) if case.minpoly else QQ
        doc = analyze(parse_polynomial(case.text, field),
                      allow_untame=case.allow_untame).to_dict()
        assert assert_theorem(doc)
        singular += doc["exponent"] >= 1
        saito += assert_saito(doc)
        three += assert_projective(doc) == 3
    assert singular  # the batch reaches the kernel condition
    assert saito  # and has minimal pairs
    assert three  # and minimal triples


@pytest.mark.parametrize("text, allow_untame", [
    ("(x^3-1)*(y^3-1)*(x^3-y^3)", True), ("x^3+y^3", False),
    ("x*y", False), ("x*y-1", False)])
def test_analyze_reads_its_saito_verdicts_without_the_checks(
        monkeypatch, text, allow_untame):
    # the minimal pair is tangent by its relation rows and f is reduced as
    # mu < oo; the quasi-homogeneous pair satisfies Euler's identity
    calls = []
    for name in ("is_tangent", "saito_check"):
        original = getattr(tangent, name)

        def recording(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(tangent, name, recording)
    rep = analyze(parse_polynomial(text), allow_untame=allow_untame)
    assert rep.saito is not None and rep.saito["free"]
    assert calls == []

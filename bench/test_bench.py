"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They check the inputs (seeded, tame), the output checks (a second seed
passes, a wrong fact is caught), the tracer (bindings restored, self times
add up) and that the printed metric names match BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def cf():
    return harness.load_package()


def test_same_seed_same_texts():
    first = [c.text for c in workloads.small_batch(7)]
    assert first == [c.text for c in workloads.small_batch(7)]
    assert first != [c.text for c in workloads.small_batch(8)]


def test_small_batch_mix():
    cases = workloads.small_batch(3)
    assert len(cases) == workloads.SMALL_BATCH_SIZE
    assert sum(c.minpoly is not None for c in cases) == len(cases) // 5
    leads = [c.text.split("+")[0] for c in cases]
    assert leads.count("x^3") == 2 * leads.count("x^4") == 100


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_curves_are_tame(cf, seed):
    for case in workloads.small_batch(seed):
        f = cf.parse_polynomial(case.text, harness.field_for(cf, case))
        assert cf.check_tame(f, cf.Weights(1, 1)).tame, case.text


def test_second_seed_passes_all_checks(cf):
    cases = workloads.small_batch(2)
    p = run.run_pass(cf, cases)
    attempted, failures = run.check("small-batch", 2, cases, [p])
    assert attempted == len(cases)
    assert failures == []


def test_timeout_counts_as_failure(cf, monkeypatch):
    monkeypatch.setattr(run, "CASE_TIMEOUT_S", 0.001)
    cases = workloads.milnor_linsneto()
    p = run.run_pass(cf, cases)
    assert p.errors[0].startswith("CaseTimeout")
    attempted, failures = run.check("milnor-linsneto", 1, cases, [p])
    assert (attempted, len(failures)) == (1, 1)


def test_default_seed_matches_references(cf):
    refs = checks.load_references()
    cases = workloads.small_batch(checks.DEFAULT_SEED)
    assert all(checks.reference_for(refs, "small-batch", checks.DEFAULT_SEED, c)
               for c in cases)
    assert checks.reference_for(refs, "small-batch", checks.DEFAULT_SEED + 1,
                                cases[0]) is None


def test_checks_catch_a_wrong_fact(cf):
    case = workloads.derlog_syzygy()[-1]        # Lins Neto, Saito constant 1
    got = harness.facts(cf, case, harness.execute(cf, case))
    refs = checks.load_references()
    entry = checks.reference_for(refs, "derlog-syzygy", 0, case)
    assert checks.compare_reference(entry, case, got) == []
    assert checks.sympy_problems(case, got) == []
    wrong = dict(got, saito_constant="2")
    assert checks.compare_reference(entry, case, wrong) == ["saito_constant"]
    assert checks.sympy_problems(case, wrong) == ["w0 ^ winf != c*f"]
    bent = dict(got, minimal=[[got["minimal"][0][0], "x"], got["minimal"][1]])
    assert "minimal form 0 is not tangent" in checks.sympy_problems(case, bent)


def test_sympy_check_catches_degenerate_forms(cf):
    case = workloads.small_batch(1)[0]
    got = harness.facts(cf, case, harness.execute(cf, case))
    assert checks.sympy_problems(case, got) == []
    empty = dict(got, minimal=[], saito_constant=None)
    assert checks.sympy_problems(case, empty) == ["0 minimal forms, fewer than two"]
    zero = dict(got, minimal=[["0", "0"]] + got["minimal"][1:])
    assert checks.sympy_problems(case, zero) == ["minimal form 0 is zero"]


def test_sympy_check_reads_the_input_curve(cf):
    # forms that are right for another curve fail against this case's text
    first, second = workloads.small_batch(1)[:2]
    got = harness.facts(cf, second, harness.execute(cf, second))
    assert checks.sympy_problems(second, got) == []
    assert checks.sympy_problems(first, got) != []


def test_sympy_check_over_gaussian_field(cf):
    case = next(c for c in workloads.small_batch(4) if c.minpoly)
    got = harness.facts(cf, case, harness.execute(cf, case))
    assert checks.sympy_problems(case, got) == []


def test_tracer_restores_every_binding(cf):
    def bindings():
        return (cf.groebner.buchberger, cf.tangent.buchberger, cf.milnor.buchberger,
                cf.buchberger, cf.Polynomial.__mul__, cf.Polynomial.__rmul__,
                cf.groebner._normal_form_core)
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install(cf)
    assert cf.tangent.buchberger is not before[1]
    assert cf.groebner._normal_form_core is not before[-1]
    assert cf.milnor.matrix_min_poly is cf.linalg.matrix_min_poly
    tracer.uninstall()
    assert bindings() == before


def test_tracer_counts_reductions_inside_runs(cf):
    case = workloads.derlog_syzygy()[0]
    tracer = tracing.Tracer()
    tracer.install(cf)
    try:
        tracer.run_curve(case.key, harness.execute, cf, case)
    finally:
        tracer.uninstall()
    reductions = tracer.counters[tracing.REDUCTIONS]
    # the public normal_form is a small share of the reductions; the
    # Buchberger and syzygy runs do the rest
    assert reductions > 10 * tracer.calls["groebner.GroebnerBasis.normal_form"]
    assert 0 < tracer.counters[tracing.ZERO_REDUCTIONS] < reductions


def _names(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_match_spec(trace, section):
    # a short mixed list covers both library paths in a few seconds
    cases = workloads.derlog_syzygy()[:1] + workloads.small_batch(1)[:3]
    result, _ = run.run("small-batch", 1, 0, trace, cases=cases)
    assert result["correct"] and result["failed"] == 0
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    assert printed == _names(SPEC[section])
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        # every top-level span is a curve, so the self times add up to the
        # traced pass's wall time, less the loop between curves
        assert values["trace.self_sum_s"] <= values["trace.wall_s"]
        assert values["trace.self_sum_s"] >= 0.95 * values["trace.wall_s"]


def test_compare_refuses_other_backend():
    record = {"workload": "small-batch", "trace": 0,
              "environment": {"backend": "fractions.Fraction"},
              "result": {"metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}}
    other = json.loads(json.dumps(record))
    other["result"]["metrics"]["wall_s"]["value"] = 1.0
    assert list(compare.rows(record, other)) == [("wall_s", 2.0, 1.0, 0.5, "s")]
    other["environment"]["backend"] = "gmpy2.mpq"
    with pytest.raises(compare.Incomparable):
        list(compare.rows(record, other))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Every corpus fixture must pass all of its recorded facts, and record
the same checks as the pinned list in tests/golden/corpus_checks.json."""

import json
import random

import pytest

from curveforms import QQ, corpus, milnor, parse_polynomial
from curveforms.linalg import Matrix
from dense_oracle import dense_operator, kernel_basis
from record_golden import CORPUS_CHECKS, corpus_checks


@pytest.mark.parametrize("name", list(corpus.FIXTURES))
def test_fixture(name):
    report = corpus.run_fixture(name)
    failures = [f"{c.name}: {c.detail}" for c in report.checks if not c.ok]
    assert not failures, "; ".join(failures)
    assert report.checks, "fixture recorded no checks"


def test_unknown_fixture_rejected():
    with pytest.raises(KeyError):
        corpus.run_corpus(["no_such_fixture"])


def test_full_corpus_runs_green():
    reports = corpus.run_corpus()
    assert len(reports) == len(corpus.FIXTURES)
    assert all(r.ok for r in reports)


def test_corpus_checks_match_the_pinned_list():
    with open(CORPUS_CHECKS, encoding="utf-8") as fh:
        assert corpus_checks() == json.load(fh)


def test_generation_failure_expectation_flag():
    assert corpus.FIXTURES["acampo"].expects_generation_failure
    assert not corpus.FIXTURES["circle"].expects_generation_failure


def test_acampo_rank_and_kernel_from_the_dense_matrix():
    # the fixture reads mu - tau and tau off the report; the dense matrix
    # of multiplication by f has the same rank and kernel dimension
    ma = milnor.milnor_algebra(parse_polynomial("x^5+y^5-x^2*y^2"))
    m = dense_operator(milnor.multiplication_operator(ma))
    assert m.rank() == 6
    assert len(kernel_basis(m)) == 10


def test_graph_kernel_matches_dense_on_the_fixture_rows(monkeypatch):
    seen = []
    original = corpus.constant_kernel

    def checked(rows):
        kernel = original(rows)
        assert kernel == kernel_basis(Matrix(QQ, rows))
        seen.append(rows)
        return kernel
    monkeypatch.setattr(corpus, "constant_kernel", checked)
    assert corpus.run_fixture("graph").ok
    assert seen


def test_graph_kernel_matches_dense_on_drawn_matrices():
    rng = random.Random(5)
    for _ in range(300):
        rows = [[QQ.from_int(rng.choice((0, 0, 1, -1, 2, 3, -4)))
                 for _ in range(rng.randint(1, 6))]]
        rows += [[QQ.from_int(rng.choice((0, 0, 1, -1, 2, 3, -4))) for _ in rows[0]]
                 for _ in range(rng.randint(0, 4))]
        assert corpus.constant_kernel(rows) == kernel_basis(Matrix(QQ, rows))

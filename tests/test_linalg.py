"""Exact matrices, univariate polynomials, squarefree decomposition."""

import random

import pytest

from curveforms import NotSquare, QQ, UniPoly, ZeroInput, rational
from curveforms.linalg import Matrix, matrix_min_poly
from conftest import recording_calls
from dense_oracle import apply, is_zero, kernel_basis


def _m(rows):
    return Matrix(QQ, [[QQ.from_int(a) if isinstance(a, int) else a
                        for a in row] for row in rows])


def test_rank_identity():
    assert Matrix.identity(QQ, 3).rank() == 3


def test_rank_zero_matrix():
    assert Matrix.zeros(QQ, 4, 4).rank() == 0


def test_rank_rectangular():
    assert _m([[1, 2, 3], [2, 4, 6]]).rank() == 1


def test_kernel_of_zero_matrix():
    basis = kernel_basis(Matrix.zeros(QQ, 2, 2))
    assert len(basis) == 2


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_kernel_vectors_annihilate():
    m = _m([[1, 2, 1], [2, 4, 2]])
    for vec in kernel_basis(m):
        assert all(QQ.is_zero(v) for v in apply(m, vec))
    assert len(kernel_basis(m)) == 3 - m.rank()


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _m([[rng.randint(-4, 4) for _ in range(cols)]
                for _ in range(rows)])
        kernel = kernel_basis(m)
        assert m.rank() + len(kernel) == cols
        for vec in kernel:
            assert all(QQ.is_zero(v) for v in apply(m, vec))


def test_eval_matrix_poly_identity_cases():
    m = _m([[1, 2], [3, 4]])
    t = UniPoly.t()
    assert t.eval_matrix(m).entries == m.entries
    p = matrix_min_poly(m)
    assert is_zero(p.eval_matrix(m))


def test_eval_matrix_poly_requires_square():
    with pytest.raises(NotSquare):
        UniPoly.t().eval_matrix(_m([[1, 2, 3], [4, 5, 6]]))


def test_min_poly_examples():
    assert matrix_min_poly(Matrix.identity(QQ, 3)) == UniPoly((-1, 1))
    assert matrix_min_poly(Matrix.zeros(QQ, 2, 2)) == UniPoly((0, 1))
    nilpotent = _m([[0, 1], [0, 0]])
    assert matrix_min_poly(nilpotent) == UniPoly((0, 0, 1))
    assert matrix_min_poly(Matrix.zeros(QQ, 0, 0)) == UniPoly.one()


def test_min_poly_is_monic_and_minimal():
    m = _m([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    p = matrix_min_poly(m)
    assert p.is_monic()
    assert p == UniPoly((6, -5, 1))  # (t-2)(t-3), not the characteristic cubic


def test_squarefree_simple():
    p = UniPoly((0, 0, 1)) * UniPoly((1, 1))  # t^2 (t+1)
    assert p.squarefree_decompose() == [(UniPoly((1, 1)), 1),
                                        (UniPoly((0, 1)), 2)]


def test_squarefree_perfect_square():
    p = UniPoly((1, 2, 1))  # (t+1)^2
    assert p.squarefree_decompose() == [(UniPoly((1, 1)), 2)]


def test_squarefree_reported_min_poly():
    p = UniPoly((0, 0, rational(16, 3125), 1))  # t^3 + (16/3125) t^2
    assert p.squarefree_decompose() == [
        (UniPoly((rational(16, 3125), 1)), 1),
        (UniPoly((0, 1)), 2),
    ]


def test_squarefree_input_stops_at_a_unit_gcd(monkeypatch):
    # gcd(p, p') = 1 proves p squarefree: one gcd and no exact division
    calls = recording_calls(monkeypatch, UniPoly, "gcd", "exact_div")
    p = UniPoly((rational(16, 3125), 0, 2)) * UniPoly((0, 1))  # 2t^3 + (16/3125)t
    assert p.squarefree_decompose() == [(p.monic(), 1)]
    assert calls == {"gcd": 1, "exact_div": 0}


def test_squarefree_zero_input():
    with pytest.raises(ZeroInput):
        UniPoly.zero().squarefree_decompose()


def test_squarefree_factors_are_coprime_and_squarefree():
    rng = random.Random(11)
    for _ in range(100):
        p = UniPoly((1,))
        for _ in range(rng.randint(1, 3)):
            root = rng.randint(-3, 3)
            mult = rng.randint(1, 3)
            for _ in range(mult):
                p = p * UniPoly((-root, 1))
        factors = p.squarefree_decompose()
        rebuilt = UniPoly((1,))
        for fac, mult in factors:
            assert fac.gcd(fac.derivative()).degree() == 0
            for _ in range(mult):
                rebuilt = rebuilt * fac
        assert rebuilt == p.monic()
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                assert factors[i][0].gcd(factors[j][0]).degree() == 0


def test_unipoly_divmod_round_trip():
    rng = random.Random(13)
    for _ in range(100):
        a = UniPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
        b = UniPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()

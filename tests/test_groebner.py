"""The Buchberger engine: bases, normal forms, membership, syzygies."""

import random

import pytest

from curveforms import (FieldMismatch, InvalidInput, InvariantViolation,
                        ModuleOrder, ModuleVector, NumberField, Polynomial, QQ,
                        RankMismatch, TermOrder, buchberger, membership,
                        parse_polynomial, recombine, syzygies)
from curveforms.groebner import _unpack
from curveforms.linalg import Matrix
from curveforms.milnor import standard_monomials
import rational_oracle as oracle
from dense_oracle import kernel_basis


def _p(text):
    return parse_polynomial(text)


def _gb_polys(gb):
    return sorted(str(v.components[0]) for v in gb.generators)


# -- bases ---------------------------------------------------------------------

def test_monomial_ideal_normalized():
    gb = buchberger([_p("2*x"), _p("2*y")])
    assert _gb_polys(gb) == ["x", "y"]


def test_jacobian_of_fermat_cubic():
    f = _p("x^3+y^3")
    gb = buchberger([f.diff("x"), f.diff("y")])
    assert _gb_polys(gb) == ["x^2", "y^2"]


def test_acampo_jacobian_has_sixteen_standard_monomials():
    f = _p("x^5+y^5-x^2*y^2")
    order = TermOrder()
    gb = buchberger([f.diff("x"), f.diff("y")], order)
    assert len(standard_monomials(gb, order)) == 16


def test_determinism():
    gens = [_p("x^2+y"), _p("x*y-1"), _p("y^3-x")]
    first = _gb_polys(buchberger(gens))
    second = _gb_polys(buchberger(list(reversed(gens))))
    assert first == second


# -- normal forms ----------------------------------------------------------------

def test_normal_form_in_ideal():
    gb = buchberger([_p("x"), _p("y")])
    assert gb.normal_form(_p("x^2")).is_zero()


def test_normal_form_constant_remainder():
    f = _p("x*y-1")
    gb = buchberger([f.diff("x"), f.diff("y")])
    rem = gb.normal_form(f)
    assert rem.components[0] == _p("-1")


def test_euler_identity_reduction():
    g = _p("x^3+y^3")
    gb = buchberger([g.diff("x"), g.diff("y")])
    assert gb.normal_form(g).is_zero()


def test_rank_mismatch():
    gb = buchberger([_p("x")])
    with pytest.raises(RankMismatch):
        gb.normal_form(ModuleVector((_p("x"), _p("y"))))


def test_field_mismatch():
    gauss = NumberField((1, 0, 1))
    with pytest.raises(FieldMismatch):
        buchberger([_p("x"), parse_polynomial("x", gauss)])


# -- membership -------------------------------------------------------------------

def test_membership_euler():
    g = _p("x^3+y^3")
    result = membership(g, [g.diff("x"), g.diff("y")])
    assert result.contained
    rebuilt = recombine(result.cofactors, [g.diff("x"), g.diff("y")])
    assert rebuilt.components[0] == g


def test_membership_negative():
    result = membership(_p("x*y-1"), [_p("y"), _p("x")])
    assert not result.contained
    assert result.remainder.components[0] == _p("-1")


# -- syzygies ---------------------------------------------------------------------

def test_syzygy_of_coprime_pair():
    gens = [_p("x"), _p("y")]
    syz = syzygies(gens)
    expected = ModuleVector((_p("y"), _p("-x")))
    assert membership(expected, syz).contained
    for row in syz:
        assert membership(row, [expected]).contained


def test_syzygy_of_equal_pair():
    gens = [_p("x"), _p("x")]
    syz = syzygies(gens)
    expected = ModuleVector((_p("1"), _p("-1")))
    assert membership(expected, syz).contained


def test_syzygy_relation_for_circle():
    f = _p("x*y-1")
    gens = [-f.diff("y"), f.diff("x"), f]
    for row in syzygies(gens):
        total = Polynomial.zero()
        for a, g in zip(row.components, gens):
            total = total + a * g
        assert total.is_zero()


def _random_poly(rng, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        c = rng.randint(-3, 3)
        if c:
            terms[mono] = QQ.from_int(c)
    return Polynomial(QQ, terms)


def _random_gens(rng):
    while True:
        gens = [_random_poly(rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            return gens


def test_normal_form_idempotent_many():
    rng = random.Random(101)
    for _ in range(120):
        gens = _random_gens(rng)
        gb = buchberger(gens)
        probe = _random_poly(rng, 3, 4)
        once = gb.normal_form(probe)
        twice = gb.normal_form(once)
        assert once == twice


def test_certificates_recombine_many():
    # the oracle's tracked division and transform, and membership's
    # certificate for the probe less its remainder, which equals the
    # oracle's cofactors rewritten on the inputs
    rng = random.Random(102)
    for _ in range(120):
        gens = _random_gens(rng)
        ref = oracle.buchberger(gens, track_cofactors=True)
        probe = _random_poly(rng, 3, 4)
        rem, cof = ref.normal_form(probe, track_cofactors=True)
        total = rem.components[0]
        for c, g in zip(cof, ref.generators):
            total = total + c * g.components[0]
        assert total == probe
        # transform rows reproduce the basis from the inputs exactly
        for row, basis_vec in zip(ref.transform, ref.generators):
            rebuilt = recombine(row, gens)
            assert rebuilt == basis_vec
        target = probe - rem.components[0]
        _, cof = ref.normal_form(target, track_cofactors=True)
        result = membership(target, gens)
        assert result.cofactors == ref.cofactors_on_inputs(cof)
        assert membership(probe, gens).contained == rem.is_zero()


def test_buchberger_criterion_on_output_many():
    rng = random.Random(103)
    for _ in range(110):
        gens = _random_gens(rng)
        gb = buchberger(gens)
        keyf = lambda t: oracle._key(gb.order, t)  # noqa: E731
        basis = [oracle._vec_core(v) for v in gb.generators]
        lts = [max(c, key=keyf) for c in basis]
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                if lts[i][0] != lts[j][0]:
                    continue
                s = oracle._spair_core(basis[i], lts[i], basis[j], lts[j])
                rem, _ = oracle.normal_form_core(s, basis, lts, keyf)
                assert not rem


def test_syzygy_soundness_many():
    rng = random.Random(104)
    for _ in range(120):
        gens = _random_gens(rng)
        for row in syzygies(gens):
            total = Polynomial.zero()
            for a, g in zip(row.components, gens):
                total = total + a * g
            assert total.is_zero()


def _brute_force_syzygies(gens, degree_cap):
    """Independent oracle: coefficient-matching linear algebra.

    Solves sum a_i g_i = 0 with deg(a_i) <= degree_cap over Q by building
    the exact linear system on the unknown coefficients of the a_i.
    """
    monos = [(i, j) for i in range(degree_cap + 1)
             for j in range(degree_cap + 1) if i + j <= degree_cap]
    cols = []
    target_monos = set()
    for g in gens:
        for (mi, mj) in monos:
            col = {}
            for (gi, gj), c in g.terms.items():
                key = (gi + mi, gj + mj)
                col[key] = col.get(key, QQ.zero) + c
            cols.append(col)
            target_monos.update(col)
    target_list = sorted(target_monos)
    matrix = Matrix(QQ, [[col.get(m, QQ.zero) for col in cols]
                         for m in target_list])
    out = []
    per_gen = len(monos)
    for vec in kernel_basis(matrix):
        comps = []
        for gidx in range(len(gens)):
            terms = {}
            for midx, mono in enumerate(monos):
                c = vec[gidx * per_gen + midx]
                if not QQ.is_zero(c):
                    terms[mono] = c
            comps.append(Polynomial(QQ, terms))
        out.append(ModuleVector(tuple(comps)))
    return out


def test_syzygy_completeness_against_brute_force():
    rng = random.Random(105)
    cases = 0
    while cases < 12:
        gens = [_random_poly(rng, 1, 2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if len(gens) < 2:
            continue
        cases += 1
        computed = syzygies(gens)
        for oracle_syz in _brute_force_syzygies(gens, 3):
            if not computed:
                # only the zero relation should exist then
                assert oracle_syz.is_zero()
                continue
            result = membership(oracle_syz, computed)
            assert result.contained
            assert recombine(result.cofactors, computed) == oracle_syz


def test_tracked_and_untracked_bases_coincide():
    rng = random.Random(106)
    for _ in range(60):
        gens = _random_gens(rng)
        plain = buchberger(gens)
        tracked = oracle.buchberger(gens, track_cofactors=True)
        assert plain.generators == tracked.generators


def test_rank_two_certificates_recombine():
    rng = random.Random(107)
    for _ in range(60):
        vecs = [ModuleVector((_random_poly(rng), _random_poly(rng)))
                for _ in range(2)]
        vecs = [v for v in vecs if not v.is_zero()]
        if not vecs:
            continue
        target = None
        for v in vecs:
            piece = _random_poly(rng, 1, 2) * v
            target = piece if target is None else target + piece
        if target is None or target.is_zero():
            continue
        result = membership(target, vecs)
        assert result.contained
        assert recombine(result.cofactors, vecs) == target


def test_projection_keeps_a_basis_with_its_leading_terms_in_range():
    # a basis whose leading terms all lie in position 0 projects to the
    # reduced basis of the first components; any other basis is refused
    rng = random.Random(109)
    kept = 0
    for _ in range(60):
        vecs = [ModuleVector((_random_poly(rng, 3), _random_poly(rng, 1)))
                for _ in range(rng.randint(1, 3))]
        vecs = [v for v in vecs if not v.components[0].is_zero()]
        if not vecs:
            continue
        gb = buchberger(vecs)
        if any(pos for pos, _, _ in gb.leading_terms()):
            with pytest.raises(InvariantViolation):
                gb.projected(1)
            continue
        kept += 1
        first = buchberger([v.components[0] for v in vecs])
        projected = gb.projected(1)
        assert projected.generators == first.generators
        assert projected.leading_terms() == first.leading_terms()
        assert projected.order.rank == projected.rank == 1
    assert kept > 10


def test_projection_refuses_a_leading_term_outside_the_rank():
    gb = buchberger([ModuleVector((_p("x"), _p("0"))), ModuleVector((_p("1"), _p("y")))])
    assert sorted(gb.leading_terms()) == [(0, 1, 0), (1, 0, 1)]
    with pytest.raises(InvariantViolation):
        gb.projected(1)


def test_module_vectors_and_orders():
    order = ModuleOrder(TermOrder(), rank=2)
    # term dominates position; lower position wins ties
    assert order.key((0, 1, 0)) > order.key((1, 0, 0))
    assert order.key((0, 0, 1)) > order.key((1, 0, 1))
    gens = [ModuleVector((_p("x"), _p("0"))),
            ModuleVector((_p("0"), _p("y")))]
    gb = buchberger(gens, order)
    assert len(gb) == 2


def test_packed_terms_follow_the_module_order():
    rng = random.Random(108)
    for a1, a2 in [(1, 1), (2, 3), (5, 1)]:
        order = ModuleOrder(TermOrder((a1, a2)), rank=3, elim=1)
        terms = {(rng.randint(0, 2), rng.randint(0, 9), rng.randint(0, 9))
                 for _ in range(200)}

        def tuple_key(t):
            pos, i, j = t
            return (pos < 1, i * a1 + j * a2, -j, -pos)
        assert sorted(terms, key=order.key) == sorted(terms, key=tuple_key)
        step = order.key((0, 2, 1)) - order.key((0, 0, 0))
        for pos, i, j in terms:
            assert _unpack(order.key((pos, i, j))) == (pos, i, j)
            assert order.key((pos, i + 2, j + 1)) == order.key((pos, i, j)) + step
    with pytest.raises(ValueError):
        ModuleOrder(TermOrder()).key((0, 1 << 32, 0))


def test_buchberger_rejects_no_generators():
    with pytest.raises(InvalidInput):
        buchberger([])


def test_syzygies_reject_no_generators():
    with pytest.raises(InvalidInput):
        syzygies([])


def test_buchberger_rejects_all_zero_generators():
    zero = Polynomial.zero()
    with pytest.raises(InvalidInput):
        buchberger([zero, zero])
    # a typed error that is still a ValueError
    assert issubclass(InvalidInput, ValueError)

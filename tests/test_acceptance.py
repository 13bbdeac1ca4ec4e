"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Expected wedge constants are re-derived here with the naive dict-polynomial
oracle (plain Fraction arithmetic, no library code) before being compared
against both the frozen fixture values and the engine's own results.
"""

import random
import time
from fractions import Fraction

from conftest import as_poly, nadd, nmul, nscale, nsub
from curveforms import (OneForm, Polynomial, QQ, UniPoly, Weights,
                        buchberger, exterior_derivative, jordan_profile,
                        membership, milnor_algebra, min_poly,
                        multiplication_operator, parse_polynomial, recombine,
                        saito_check, syzygies, wedge)
from curveforms import corpus
from curveforms.linalg import Matrix
from dense_oracle import apply, kernel_basis
import rational_oracle


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status} criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def _fixture(number, name, limit_seconds, description):
    rep = corpus.run_fixture(name)
    failures = "; ".join(f"{c.name}: {c.detail}" for c in rep.checks if not c.ok)
    _report(number, description,
            rep.ok and rep.seconds < limit_seconds,
            failures or f"{rep.seconds:.2f}s of {limit_seconds}s")
    return rep


def test_criterion_01_acampo():
    _fixture(1, "acampo", 10.0,
             "x^5+y^5-x^2*y^2: mu, minimal polynomial, Jordan data, "
             "kernel condition, generation failure")


def test_criterion_02_circle():
    _fixture(2, "circle", 1.0,
             "xy-1: smooth path, free pair, printed identities")


def test_criterion_03_circle_extension():
    _fixture(3, "circle_qi", 2.0,
             "x^2+y^2-1 over Q[z]/(z^2+1): transformed pair verified")


def test_criterion_04_quasihomogeneous_suite():
    _fixture(4, "quasihomog", 5.0,
             "Euler pairs generate; all blocks at 0 have size 1")


def test_criterion_05_lins_neto():
    rep = _fixture(5, "linsneto", 30.0,
                   "a=3 arrangement: pair free with constant -1, "
                   "four generators suffice")
    # oracle: (x^3-1)(y^3-1)(y^3-x^3) expands to -f, hence the constant -1
    x3 = {(3, 0): Fraction(1), (0, 0): Fraction(-1)}
    y3 = {(0, 3): Fraction(1), (0, 0): Fraction(-1)}
    flip = {(0, 3): Fraction(1), (3, 0): Fraction(-1)}
    oracle = nmul(nmul(x3, y3), flip)
    f = parse_polynomial("(x^3-1)*(y^3-1)*(x^3-y^3)")
    assert as_poly(oracle) == -f


def _oracle_wedge(p0, q0, pinf, qinf):
    return nsub(nmul(p0, qinf), nmul(q0, pinf))


def test_criterion_06_lissajous_and_deltoid():
    # Lissajous, a = -1
    p0 = {(1, 2): Fraction(-16), (1, 1): Fraction(8), (1, 0): Fraction(8)}
    q0 = {(2, 1): Fraction(12), (2, 0): Fraction(-6),
          (0, 1): Fraction(-6), (0, 0): Fraction(3)}
    pinf = {(2, 1): Fraction(-16), (0, 2): Fraction(8),
            (0, 1): Fraction(4), (0, 0): Fraction(-4)}
    qinf = {(3, 0): Fraction(12), (1, 1): Fraction(-6), (1, 0): Fraction(-9)}
    inner = {(2, 0): Fraction(2), (0, 0): Fraction(-1)}
    part1 = nscale(nmul(inner, inner), 2)
    twoy1 = {(0, 1): Fraction(2), (0, 0): Fraction(1)}
    ym1 = {(0, 1): Fraction(1), (0, 0): Fraction(-1)}
    f_oracle = nadd(part1, nmul(nmul(twoy1, twoy1), ym1))
    derived = _oracle_wedge(p0, q0, pinf, qinf)
    assert derived == nscale(f_oracle, corpus.LISSAJOUS_WEDGE_CONSTANT)

    # Deltoid, a = 1
    p0 = {(2, 0): Fraction(1), (0, 2): Fraction(-3),
          (1, 0): Fraction(6), (0, 0): Fraction(9)}
    q0 = {(1, 1): Fraction(4), (0, 1): Fraction(-6)}
    pinf = {(1, 1): Fraction(-4), (0, 1): Fraction(6)}
    qinf = {(2, 0): Fraction(3), (0, 2): Fraction(-1),
            (1, 0): Fraction(6), (0, 0): Fraction(-9)}
    r2 = {(2, 0): Fraction(1), (0, 2): Fraction(1)}
    f_oracle = nmul(r2, r2)
    f_oracle = nadd(f_oracle, nscale({(3, 0): Fraction(1),
                                      (1, 2): Fraction(-3)}, 8))
    f_oracle = nadd(f_oracle, nscale(r2, 18))
    f_oracle = nadd(f_oracle, {(0, 0): Fraction(-27)})
    derived = _oracle_wedge(p0, q0, pinf, qinf)
    assert derived == nscale(f_oracle, corpus.DELTOID_WEDGE_CONSTANT)

    t0 = time.perf_counter()
    lis = corpus.run_fixture("lissajous")
    t_lis = time.perf_counter() - t0
    t0 = time.perf_counter()
    delt = corpus.run_fixture("deltoid")
    t_delt = time.perf_counter() - t0
    _report(6, "Lissajous and deltoid pairs: tangent, wedge = c*f frozen",
            lis.ok and delt.ok and t_lis < 10 and t_delt < 10,
            f"{t_lis:.2f}s / {t_delt:.2f}s")


def test_criterion_07_rose():
    # oracle for the wedge constant of the rose pair
    p0 = {(3, 0): Fraction(8), (1, 2): Fraction(-1)}
    q0 = {(2, 1): Fraction(11), (0, 3): Fraction(2), (0, 1): Fraction(-1)}
    pinf = {(2, 1): Fraction(5), (0, 3): Fraction(-4), (0, 1): Fraction(2)}
    qinf = {(3, 0): Fraction(1), (1, 2): Fraction(10), (1, 0): Fraction(-1)}
    f_oracle = {(4, 0): Fraction(4), (2, 2): Fraction(8), (0, 4): Fraction(4),
                (6, 0): Fraction(-4), (4, 2): Fraction(-12),
                (2, 4): Fraction(-12), (0, 6): Fraction(-4),
                (0, 2): Fraction(-1)}
    derived = _oracle_wedge(p0, q0, pinf, qinf)
    assert derived == nscale(f_oracle, corpus.ROSE_WEDGE_CONSTANT)
    _fixture(7, "rose", 10.0,
             "rose k=1/2: wedge constant, first integral, pullbacks")


def test_criterion_08_graphs():
    _fixture(8, "graph", 10.0,
             "graphs of degree 4 and 5: two generators, degree pattern, "
             "wedge = c*f")


def test_criterion_09_riccati():
    _fixture(9, "riccati", 2.0,
             "x(x-1)(x+1): table pair free, Riccati form membership")


# -- criterion 10: engine property suites -------------------------------------


def _random_poly(rng, max_deg=2, max_terms=3, bound=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        c = rng.randint(-bound, bound)
        if c:
            terms[mono] = QQ.from_int(c)
    return Polynomial(QQ, terms)


def _random_gens(rng):
    while True:
        gens = [_random_poly(rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            return gens


def _suite_nf_idempotent(rng, cases):
    for _ in range(cases):
        gens = _random_gens(rng)
        gb = buchberger(gens)
        probe = _random_poly(rng, 3, 4)
        once = gb.normal_form(probe)
        assert gb.normal_form(once) == once


def _suite_spairs_reduce(rng, cases):
    for _ in range(cases):
        gens = _random_gens(rng)
        gb = buchberger(gens)
        keyf = lambda t: rational_oracle._key(gb.order, t)  # noqa: E731
        cores = [rational_oracle._vec_core(v) for v in gb.generators]
        lts = [max(c, key=keyf) for c in cores]
        for i in range(len(cores)):
            for j in range(i + 1, len(cores)):
                if lts[i][0] != lts[j][0]:
                    continue
                s = rational_oracle._spair_core(cores[i], lts[i], cores[j], lts[j])
                rem, _ = rational_oracle.normal_form_core(s, cores, lts, keyf)
                assert not rem


def _suite_syzygy_soundness(rng, cases):
    for _ in range(cases):
        gens = _random_gens(rng)
        for row in syzygies(gens):
            total = Polynomial.zero()
            for a, g in zip(row.components, gens):
                total = total + a * g
            assert total.is_zero()


def _suite_membership_certificates(rng, cases):
    for _ in range(cases):
        gens = _random_gens(rng)
        # build a guaranteed member and check the certificate recombines
        target = Polynomial.zero()
        for g in gens:
            target = target + _random_poly(rng, 1, 2) * g
        result = membership(target, gens)
        assert result.contained
        assert recombine(result.cofactors, gens).components[0] == target


def _suite_product_rule(rng, cases):
    for _ in range(cases):
        p = _random_poly(rng, 3, 4)
        q = _random_poly(rng, 3, 4)
        left = exterior_derivative(p * q)
        right = p * exterior_derivative(q) + q * exterior_derivative(p)
        assert left.P == right.P and left.Q == right.Q


def _suite_wedge_alternation(rng, cases):
    for _ in range(cases):
        u = OneForm(_random_poly(rng, 3, 3), _random_poly(rng, 3, 3))
        v = OneForm(_random_poly(rng, 3, 3), _random_poly(rng, 3, 3))
        assert wedge(u, u).is_zero()
        assert wedge(u, v).coeff == -wedge(v, u).coeff


def _suite_rank_nullity(rng, cases):
    for _ in range(cases):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix(QQ, [[QQ.from_int(rng.randint(-4, 4))
                         for _ in range(cols)] for _ in range(rows)])
        kern = kernel_basis(m)
        assert m.rank() + len(kern) == cols
        for vec in kern:
            assert all(QQ.is_zero(v) for v in apply(m, vec))


def test_criterion_10_property_suites():
    suites = [
        ("normal-form idempotence", _suite_nf_idempotent, 120),
        ("S-vectors reduce to zero", _suite_spairs_reduce, 110),
        ("syzygy soundness", _suite_syzygy_soundness, 120),
        ("membership certificates recombine", _suite_membership_certificates, 120),
        ("product rule", _suite_product_rule, 150),
        ("wedge alternation", _suite_wedge_alternation, 150),
        ("rank-nullity", _suite_rank_nullity, 120),
    ]
    t0 = time.perf_counter()
    for idx, (name, suite, cases) in enumerate(suites):
        suite(random.Random(4000 + idx), cases)
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{name} x{cases}" for name, _, cases in suites)
    _report(10, f"property suites ({detail})", elapsed < 30.0,
            f"{elapsed:.2f}s of 30s")


# -- criterion 11: block sizes at the eigenvalue 0 ------------------------------


def test_criterion_11_block_size_bound():
    profiles = []
    for text, weights, untame in [
        ("x^5+y^5-x^2*y^2", Weights(1, 1), False),
        ("x^3+y^3", Weights(1, 1), False),
        ("x^4+y^4", Weights(1, 1), False),
        ("x^2+y^3", Weights(3, 2), False),
        ("x*y", Weights(1, 1), False),
        ("(x^3-1)*(y^3-1)*(x^3-y^3)", Weights(1, 1), True),
    ]:
        f = parse_polynomial(text)
        ma = milnor_algebra(f, weights, allow_untame=untame)
        op = multiplication_operator(ma)
        if min_poly(op).root_multiplicity_at_zero() == 0:
            continue
        profiles.append((text, jordan_profile(op, UniPoly.t())))
    ok = True
    details = []
    for text, profile in profiles:
        sizes = set(profile.blocks)
        if profile.max_size() > 2 or sizes == {2}:
            ok = False
            details.append(f"{text}: {profile.blocks}")
    _report(11, "no block of size >= 3 at eigenvalue 0 and never all size 2",
            ok and profiles, "; ".join(details))

"""Worked curve examples with their expected facts, runnable as a
regression corpus from the CLI and reused by the acceptance tests.

Wedge constants for the classical curves were derived once with an
independent term-by-term expansion and are frozen here, and so are the
graph fixture's shaped pairs; the test suite re-derives both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import analysis, milnor, tangent
from .errors import NotTangent, UnknownFixture
from .field import QQ, Rational
from .groebner import membership, recombine
from .linalg import UniPoly
from .poly import (OneForm, Polynomial, TermOrder, Weights,
                   exterior_derivative, field_from_minpoly, parse_polynomial,
                   pullback, wedge)


@dataclass
class CheckResult:
    fixture: str
    name: str
    ok: bool
    detail: str = ""


@dataclass
class FixtureReport:
    name: str
    checks: list
    seconds: float

    @property
    def ok(self):
        return all(c.ok for c in self.checks)


class _Recorder:
    def __init__(self, fixture):
        self.fixture = fixture
        self.checks = []

    def check(self, name, ok, detail=""):
        self.checks.append(CheckResult(self.fixture, name, bool(ok),
                                       "" if ok else str(detail)))

    def equal(self, name, got, expected):
        self.check(name, got == expected, f"got {got}, expected {expected}")


def _pp(text, field=QQ):
    return parse_polynomial(text, field)


def _form(ptext, qtext, field=QQ):
    return OneForm(_pp(ptext, field), _pp(qtext, field))


def _tangent_pair(rec, f, w0, winf, name="pair_tangent"):
    """Records whether both forms are tangent, by saito_check's own test;
    the pair's freeness verdict, not free when they are not tangent."""
    try:
        s, tangent_pair = tangent.saito_check([w0, winf], f), True
    except NotTangent:
        s, tangent_pair = tangent.SaitoResult(False, None), False
    rec.check(name, tangent_pair)
    return s


def _mutual_generation(rec, name, left, right):
    fwd = tangent.verify_generation(left, right)
    bwd = tangent.verify_generation(right, left)
    rec.check(name, fwd.generates and bwd.generates,
              f"forward={fwd.generates} backward={bwd.generates}")


# ---------------------------------------------------------------------------
# fixtures


def run_circle(rec):
    f = _pp("x*y-1")
    rep = analysis.analyze(f)
    rec.check("tame", rep.tame)
    rec.equal("mu", rep.mu, 1)
    rec.check("smooth_path", rep.exponent == 0
              and rep.generation["candidate_kind"] == "trivial_smooth",
              rep.generation)
    rec.check("trivial_generates", rep.generation["generates"])
    rec.equal("minimal_count", len(rep.minimal), 2)
    rec.check("saito_minimal", rep.saito is not None and rep.saito["free"]
              and rep.saito["constant"] not in (None, "0"), rep.saito)
    rec.check("no_warnings", not rep.warnings, rep.warnings)
    w0 = _form("y^2", "1")
    winf = OneForm(f, Polynomial.zero())
    _mutual_generation(rec, "known_pair_mutual", rep.minimal, [w0, winf])
    s = tangent.saito_check([w0, winf], f)
    rec.check("known_pair_constant", s.free and s.constant == QQ.from_int(-1),
              s.constant)
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    df = exterior_derivative(f)
    rec.check("identity_df", x * w0 - y * winf == df)
    fdy = OneForm(Polynomial.zero(), f)
    rec.check("identity_fdy", f * w0 - (y * y) * winf == fdy)


def run_circle_qi(rec):
    K = field_from_minpoly("z^2+1")
    g = _pp("x^2+y^2-1", K)
    rep = analysis.analyze(g)
    rec.check("tame", rep.tame)
    rec.check("smooth_path", rep.exponent == 0)
    w0 = OneForm(_pp("(x^2-y^2+1)-2*x*y*z", K),
                 _pp("2*x*y+(x^2-y^2-1)*z", K))
    winf = OneForm(g, _pp("z", K) * g)
    s = _tangent_pair(rec, g, w0, winf)
    _mutual_generation(rec, "pair_vs_minimal", rep.minimal, [w0, winf])
    two_z = K.scalar((0, 2))
    rec.check("saito_constant_nonzero", s.free and bool(s.constant), s.free)
    rec.equal("saito_constant_value", s.constant, two_z)


QUASIHOMOG_ENTRIES = (
    ("x^3+y^3", Weights(1, 1)),
    ("x^4+y^4", Weights(1, 1)),
    ("x^2+y^3", Weights(3, 2)),
    ("x*y", Weights(1, 1)),
)


def run_quasihomog(rec):
    for text, weights in QUASIHOMOG_ENTRIES:
        tag = text.replace("*", "").replace("^", "")
        g = _pp(text)
        order = TermOrder(weights)
        dg, eta = tangent.quasihomogeneous_pair(g, weights)
        rec.check(f"{tag}_euler", wedge(dg, eta) == g)
        raw = tangent.syzygy_generators(g, order)
        rec.check(f"{tag}_pair_generates",
                  tangent.verify_generation([dg, eta], raw).generates)
        ma = milnor.milnor_algebra(g, weights)
        profile = milnor.jordan_profile(ma, UniPoly.t())
        rec.check(f"{tag}_blocks_size_one", set(profile.blocks) == {1},
                  profile.blocks)
        theta = milnor.theta_polynomial(ma)
        rec.check(f"{tag}_kernel_condition", milnor.kernel_condition(ma))
        four = tangent.four_generators(g, ma, theta)
        rec.check(f"{tag}_four_generates",
                  tangent.verify_generation(four, raw).generates)
        if text == "x^3+y^3":
            rec.equal("x3y3_theta", theta, Polynomial.constant(1))


ACAMPO_MIN_POLY = UniPoly((0, 0, Rational(16, 3125), 1))

ACAMPO_DERLOG = (
    ("25*x*y^3-5*x^3-4*y^2", "-25*x^2*y^2+6*x*y"),
    ("25*x^2*y^2-6*x*y", "-25*x^3*y+5*y^3+4*x^2"),
    ("5*x^3*y-2*y^3", "-5*x^4+3*x*y^2"),
)


def run_acampo(rec):
    f = _pp("x^5+y^5-x^2*y^2")
    rep = analysis.analyze(f)
    rec.check("tame", rep.tame)
    rec.equal("mu", rep.mu, 16)
    rec.equal("min_poly", rep.min_poly, ACAMPO_MIN_POLY)
    rec.equal("exponent", rep.exponent, 2)
    # the report profiles each Yun factor of min_poly: t and t+16/3125
    jordan = {str(jp.factor): jp.blocks for jp in rep.jordan}
    rec.equal("jordan_at_zero", jordan.get("t"), {1: 9, 2: 1})
    rec.equal("jordan_at_second_value", jordan.get("t+16/3125"), {1: 5})
    # multiplication by f has rank mu - tau and a kernel of dimension tau
    rec.equal("rank", rep.mu - rep.tau, 6)
    rec.equal("kernel_dim", rep.tau, 10)
    rec.equal("kernel_condition", rep.kernel_condition, False)
    theta = rep.theta
    omega = rep.omega
    rec.check("omega_identity",
              wedge(exterior_derivative(f), omega) == f * theta)
    rec.check("generation_fails", not rep.generation["generates"],
              rep.generation)
    rec.check("no_warnings", not rep.warnings, rep.warnings)
    rec.equal("minimal_count", len(rep.minimal), 3)
    derlog = [_form(ptext, qtext) for ptext, qtext in ACAMPO_DERLOG]
    for w in derlog:
        if not tangent.is_tangent(f, w):
            rec.check("derlog_tangent", False, "known generator not tangent")
            break
    else:
        rec.check("derlog_tangent", True)
    _mutual_generation(rec, "derlog_vs_minimal", rep.minimal, derlog)
    rec.check("omega_in_derlog", tangent.verify_generation(
        derlog, [omega]).generates)
    four = rep.four
    rec.check("derlog_form_outside_four",
              not membership(derlog[0], four).contained)


LINSNETO_PAIR = (("-(y^3-1)*x^2", "(x^3-1)*y^2"),
                 ("-(y^4-y)", "x^4-x"))


def run_linsneto(rec):
    f = _pp("(x^3-1)*(y^3-1)*(x^3-y^3)")
    ma = milnor.milnor_algebra(f, allow_untame=True)
    profile = milnor.jordan_profile(ma, UniPoly.t())
    rec.check("blocks_size_one_first", set(profile.blocks) == {1},
              profile.blocks)
    rep = analysis.analyze(f, allow_untame=True)
    rec.check("four_generates", rep.generation["generates"], rep.generation)
    rec.check("no_warnings", not rep.warnings, rep.warnings)
    w0 = _form(*LINSNETO_PAIR[0])
    winf = _form(*LINSNETO_PAIR[1])
    s = _tangent_pair(rec, f, w0, winf)
    rec.check("saito_constant", s.free and s.constant == QQ.from_int(-1),
              s.constant if s.free else "not free")
    rec.equal("minimal_count", len(rep.minimal), 2)


LISSAJOUS_WEDGE_CONSTANT = 12

def run_lissajous(rec):
    # a = -1 throughout
    f = _pp("2*(2*x^2-1)^2+(2*y+1)^2*(y-1)")
    w0 = _form("-16*x*y^2+8*x*y+8*x", "12*x^2*y-6*x^2-6*y+3")
    winf = _form("-16*x^2*y+8*y^2+4*y-4", "12*x^3-6*x*y-9*x")
    s = _tangent_pair(rec, f, w0, winf)
    rec.check("saito_free", s.free)
    rec.equal("wedge_constant", s.constant,
              QQ.from_int(LISSAJOUS_WEDGE_CONSTANT))


DELTOID_WEDGE_CONSTANT = 3

def run_deltoid(rec):
    # a = 1 throughout
    f = _pp("(x^2+y^2)^2+8*x*(x^2-3*y^2)+18*(x^2+y^2)-27")
    w0 = _form("x^2-3*y^2+6*x+9", "4*x*y-6*y")
    winf = _form("-4*x*y+6*y", "3*x^2-y^2+6*x-9")
    s = _tangent_pair(rec, f, w0, winf)
    rec.check("saito_free", s.free)
    rec.equal("wedge_constant", s.constant, QQ.from_int(DELTOID_WEDGE_CONSTANT))


ROSE_WEDGE_CONSTANT = -2

def run_rose(rec):
    f = _pp("4*x^4+8*x^2*y^2+4*y^4-4*x^6-12*x^4*y^2-12*x^2*y^4-4*y^6-y^2")
    w0 = _form("8*x^3-x*y^2", "11*x^2*y+2*y^3-y")
    winf = _form("5*x^2*y-4*y^3+2*y", "x^3+10*x*y^2-x")
    s = _tangent_pair(rec, f, w0, winf)
    rec.check("saito_free", s.free)
    rec.equal("wedge_constant", s.constant, QQ.from_int(ROSE_WEDGE_CONSTANT))
    numerator = _pp("(x^2+y^2-1/3)^3")
    denominator = _pp("36*x^2+9*y^2-4")
    differential = (denominator * exterior_derivative(numerator)
                    - numerator * exterior_derivative(denominator))
    rec.check("first_integral", wedge(differential, w0).is_zero())
    quotient_w0 = _form("8*x-y", "11*x+2*y-1")
    quotient_winf = _form("5*x*y-4*y^2+2*y", "x^2+10*x*y-x")
    px, py = _pp("x^2"), _pp("y^2")
    rec.check("pullback_w0", pullback(quotient_w0, px, py) == 2 * w0)
    rec.check("pullback_winf",
              pullback(quotient_winf, px, py) == _pp("2*x*y") * winf)


# fixed integer-coefficient polynomials for the graph fixture
GRAPH_POLYS = {
    4: "x^4+5*x^3+8*x^2-x-4",
    5: "x^5+7*x^4+2*x^3-8*x^2+7*x+1",
}


def graph_degree_pattern(d: int):
    """Expected x-degrees (a1, a2, a3) and (b1, b2, b3) of the shaped pair."""
    if d % 2 == 0:
        return (d // 2 - 2, d // 2, d // 2 - 1), (d // 2 - 1, d // 2, d // 2)
    return (((d - 3) // 2, (d - 1) // 2, (d - 1) // 2),
            ((d - 5) // 2, (d + 1) // 2, (d - 3) // 2))


# the shaped pair per degree, forms (y*a1 + a2) dx + a3 dy with the x-degrees
# of graph_degree_pattern(d): tangency forces a2 = -(fx*a1 + fx'*a3), the caps
# were solved once for a1 and a3, and the wedge constants are 11/4 and -176/5
GRAPH_PAIRS = {
    4: (("-11/4*x^2-23*x-4*y-59/4", "x+5/4"),
        ("-37/4*x^2-4*x*y+25*x+5*y+71/4", "x^2-9/4")),
    5: (("-2595/44*x^2-5*x*y+2605/22*x-2059/88*y+295/11", "x^2+535/88*x-43/88"),
        ("-176/5*x^3-162/5*x^2+252/5*x-5*y-24/5", "x+7/5")),
}


def _graph_degrees(w: OneForm):
    """x-degrees (a1, a2, a3) of w = (y*a1 + a2) dx + a3 dy (None for a zero
    part), or None when w has another shape."""
    if any(j > 1 for _, j in w.P.terms) or any(j for _, j in w.Q.terms):
        return None
    return tuple(max((i for (i, j) in terms if j == k), default=None)
                 for terms, k in ((w.P.terms, 1), (w.P.terms, 0), (w.Q.terms, 0)))


def run_graph(rec):
    for d, text in GRAPH_POLYS.items():
        f = Polynomial.variable("y") - _pp(text)
        weights = Weights(1, d)
        rep = analysis.analyze(f, weights)
        rec.check(f"d{d}_tame", rep.tame)
        rec.check(f"d{d}_smooth_path", rep.exponent == 0)
        rec.equal(f"d{d}_minimal_count", len(rep.minimal), 2)
        rec.check(f"d{d}_wedge_constant",
                  rep.saito is not None and rep.saito["free"]
                  and rep.saito["constant"] not in (None, "0"), rep.saito)
        rec.check(f"d{d}_no_warnings", not rep.warnings, rep.warnings)
        wa, wb = (_form(*pair) for pair in GRAPH_PAIRS[d])
        degrees = (_graph_degrees(wa), _graph_degrees(wb))
        rec.equal(f"d{d}_pattern_degrees", degrees, graph_degree_pattern(d))
        s = _tangent_pair(rec, f, wa, wb, f"d{d}_pattern_tangent")
        rec.check(f"d{d}_pattern_free", s.free and bool(s.constant))
        _mutual_generation(rec, f"d{d}_pattern_vs_minimal",
                           rep.minimal, [wa, wb])


def run_riccati(rec):
    f = _pp("x*(x-1)*(x+1)")
    w0 = OneForm(Polynomial.constant(1), Polynomial.zero())
    winf = OneForm(Polynomial.zero(), f)
    s = _tangent_pair(rec, f, w0, winf)
    rec.check("saito_free", s.free)
    rec.equal("wedge_is_f", wedge(w0, winf), f)
    riccati_form = _form("y^2+x", "x^3-x")
    result = membership(riccati_form, [w0, winf])
    rec.check("riccati_member", result.contained)
    if result.contained:
        rebuilt = recombine(result.cofactors, [w0, winf])
        rec.check("riccati_certificate", rebuilt == riccati_form)


@dataclass
class Fixture:
    name: str
    description: str
    runner: object
    expects_generation_failure: bool = False


FIXTURES = {
    fx.name: fx for fx in (
        Fixture("circle", "hyperbola xy = 1; smooth, freely generated",
                run_circle),
        Fixture("circle_qi", "unit circle over Q[z]/(z^2+1)", run_circle_qi),
        Fixture("quasihomog", "weighted-homogeneous suite", run_quasihomog),
        Fixture("acampo", "x^5+y^5-x^2*y^2; non-quasi-homogeneous origin",
                run_acampo, expects_generation_failure=True),
        Fixture("linsneto", "the a=3 line arrangement", run_linsneto),
        Fixture("lissajous", "Lissajous curve, a=-1", run_lissajous),
        Fixture("deltoid", "deltoid curve, a=1", run_deltoid),
        Fixture("rose", "rose with k=1/2", run_rose),
        Fixture("graph", "graphs y=f(x) of degrees 4 and 5", run_graph),
        Fixture("riccati", "union of vertical lines x(x-1)(x+1)=0",
                run_riccati),
    )
}


def run_fixture(name: str) -> FixtureReport:
    fixture = FIXTURES[name]
    rec = _Recorder(name)
    t0 = time.perf_counter()
    fixture.runner(rec)
    return FixtureReport(name, rec.checks, time.perf_counter() - t0)


def run_corpus(only=None):
    names = list(FIXTURES) if not only else list(only)
    for name in names:
        if name not in FIXTURES:
            raise UnknownFixture(f"unknown fixture {name!r}; "
                           f"known: {', '.join(FIXTURES)}")
    return [run_fixture(name) for name in names]

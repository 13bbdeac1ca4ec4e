"""Generating sets for the module of polynomial 1-forms leaving f = 0
invariant, i.e. all w = P dx + Q dy with df ^ w divisible by f.

A form is tangent exactly when f_x*Q - f_y*P lies in <f>, so the module is
the relations among (-f_y, f_x) modulo f, and its reduced basis is read off
one augmented run that tags only -f_y and f_x, or one run on forms that
span it (see syzygy_generators).  On top of that raw construction sit: the
kernel form built from a witness theta (f*theta = A*f_x + B*f_y gives
-B dx + A dy), generation verification by reduction to zero, greedy
irredundant generating sets, and K. Saito's criterion for freeness.

Each constructed form is certified once, by the identity that builds it:
a raw form by f dividing df ^ w, the kernel form by df ^ omega = theta*f,
and f dx, f dy, df by df ^ f dx = -f_y*f, df ^ f dy = f_x*f, df ^ df = 0.
is_tangent checks forms from outside these constructors by one untracked
division by f; omega reads its cofactors off the Milnor algebra's lifts.
saito_check proves a pair from outside tangent and f reduced, the
criterion's hypotheses; analyze's own pairs meet them by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .errors import (InvalidInput, InvariantViolation, NotHomogeneous,
                     NotInJacobian, NotSmooth, NotTangent, ZeroInput)
from . import groebner
from .field import Rational
from .groebner import GroebnerBasis, ModuleOrder, _relations, buchberger
from .milnor import MilnorAlgebra, jacobian, standard_monomials
from .poly import (ModuleVector, OneForm, Polynomial, TermOrder, Weights,
                   exterior_derivative, format_one_form, wedge)


def tangency_defect(f: Polynomial, w: OneForm) -> Polynomial:
    """Normal form of df ^ w modulo <f>; zero iff w is tangent.  [f] is
    already a Groebner basis of <f>, so this is one division."""
    if f.is_zero():
        raise ZeroInput("need a nonzero polynomial")
    gb = GroebnerBasis([ModuleVector((f,))], ModuleOrder(TermOrder()), f.field, 1)
    return gb.normal_form(wedge(exterior_derivative(f), w)).components[0]


def is_tangent(f: Polynomial, w: OneForm) -> bool:
    return tangency_defect(f, w).is_zero()


@dataclass
class GeneratorSet:
    kind: str  # trivial_smooth | four_generator | syzygy_raw | minimal
    forms: list
    f: Polynomial
    basis: Optional[GroebnerBasis] = dc_field(default=None, compare=False, repr=False)

    def __len__(self):
        return len(self.forms)


def syzygy_generators(f: Polynomial, order=None) -> GeneratorSet:
    """Raw generating set of the tangent module T: its reduced basis under
    ModuleOrder(order.base, 2).

    Let M be the span of a candidate's forms: f dx, f dy, df and, for a
    four_generators set, omega = P_w dx + Q_w dy with df ^ omega = theta*f.
    Let I = <f, f_x, f_y, theta, P_w, Q_w> (<f, f_x, f_y> without omega).
    A tangent w = p dx + q dy has c = (f_y*p - f_x*q)/f and
    lam = (p*Q_w - q*P_w)/f, and

        f*w     = p*f dx + q*f dy
        f_x*w   = p*df - c*f dy        f_y*w = q*df + c*f dx
        theta*w = lam*df - c*omega
        P_w*w   = p*omega - lam*f dy   Q_w*w = q*omega + lam*f dx

    lam is a polynomial: omega needs a finite Milnor number, which forces f
    to be reduced (a square factor g^2 makes f_x and f_y vanish on g = 0),
    and two forms tangent to a reduced curve are parallel along it, so f
    divides their wedge.  So I*T lies in M, and when I = (1), T = M: the
    reduced basis of T is one rank-2 run on the forms.  Else it is read off
    the augmented run of the relations among (-f_y, f_x) modulo f.  A
    reduced basis is unique, so both routes agree when I = (1), and none
    relies on the converse of K. Saito's criterion ("Theory of logarithmic
    differential forms and logarithmic vector fields", 1980; locally,
    I = (1) exactly when the candidate generates).  This path decides I = (1) by a run that stops at
    its first constant and takes the trivial forms; analyze proves it from
    the exponent e of the minimal polynomial at e <= 1."""
    if f.is_constant():
        raise ZeroInput("need a non-constant polynomial")
    unit = buchberger([f, f.diff("x"), f.diff("y")], order).leading_terms() == [(0, 0, 0)]
    return _raw_generators(f, order, trivial_forms(f) if unit else None)


def _raw_generators(f: Polynomial, order, forms=None) -> GeneratorSet:
    """The raw set: the reduced basis of <forms> when they span T, else that
    of the relations among (-f_y, f_x) modulo f, from one augmented run
    with two tags.  Each (p, q) is checked on engine vectors: f divides
    f_x*q - f_y*p."""
    gens = [-f.diff("y"), f.diff("x"), f]
    gb = buchberger(forms, order) if forms is not None else _relations(gens, order, 2)
    if not gb.annihilates(gens):
        raise InvariantViolation("relation does not certify tangency")
    return GeneratorSet("syzygy_raw", [OneForm(*v.components) for v in gb.generators], f, basis=gb)


def trivial_forms(f: Polynomial):
    zero = Polynomial.zero(f.field)
    return [OneForm(f, zero), OneForm(zero, f), exterior_derivative(f)]


def smooth_generators(f: Polynomial, curve_exponent: int) -> GeneratorSet:
    """For a smooth curve the trivial forms f dx, f dy, df generate."""
    if curve_exponent != 0:
        raise NotSmooth("0 is a critical value of f")
    return GeneratorSet("trivial_smooth", trivial_forms(f), f)


def omega_from_theta(f: Polynomial, ma: MilnorAlgebra,
                     theta: Polynomial) -> OneForm:
    """The kernel form omega = -B dx + A dy, f*theta = A*f_x + B*f_y, on engine
    vectors: theta | f_x, f_y coded on one scale, one reduction of -f*theta by
    ma.lifts to (0 | A, B) times mult, and df ^ omega = theta*f checked exactly."""
    if ma.f != f:
        raise InvalidInput("the Milnor algebra was built for another polynomial")
    coding, key = ma.gb.coding, ModuleOrder(ma.order, 3, elim=1).key
    (fv, fs), (vec, scale) = (coding.encode(groebner._vec_core(ModuleVector(v), key))
                              for v in ((f,), (theta, *jacobian(f))))
    [neg] = groebner._combinations([vec], fv, key, coding)
    rem, mult = groebner._normal_form_core(neg, *map(list, zip(*ma.lifts)), True, coding)
    if any(t & groebner._ELIM for t in rem):
        raise NotInJacobian("f*theta does not reduce to zero; bad theta")
    [acc] = groebner._combinations([rem], vec, key, coding)
    if coding.scaled(acc, scale.numerator) != coding.scaled(neg, scale.denominator * mult):
        raise InvariantViolation("wedge identity for the kernel form failed")
    a, b = groebner._core_vec(coding.decode(rem, fs * scale / mult), 2, f.field, 1).components
    return OneForm(-b, a)


def four_generators(f: Polynomial, ma: MilnorAlgebra,
                    theta: Polynomial) -> GeneratorSet:
    """f dx, f dy, df and the kernel form omega_from_theta builds from theta."""
    omega = omega_from_theta(f, ma, theta)
    return GeneratorSet("four_generator", trivial_forms(f) + [omega], f)


@dataclass
class GenerationResult:
    generates: bool
    witness: Optional[OneForm] = None     # first reference form left over

    def __bool__(self):
        return self.generates


def verify_generation(candidate, reference) -> GenerationResult:
    """Does <candidate> contain every reference form, i.e. reduce to zero
    against its reduced basis?  The witness is the first that does not."""
    cand_forms = candidate.forms if isinstance(candidate, GeneratorSet) else list(candidate)
    ref_forms = reference.forms if isinstance(reference, GeneratorSet) else list(reference)
    zero = bool(cand_forms) and all(w.is_zero() for w in cand_forms)
    gb = None if zero else buchberger(cand_forms)
    for w in ref_forms:
        if not (w.is_zero() if zero else gb.reduces_to_zero(w)):
            return GenerationResult(False, witness=w)
    return GenerationResult(True)


def minimal_generators(gens: GeneratorSet) -> GeneratorSet:
    """Greedy pruning of the basis of a syzygy_generators set, the reduced
    basis of the tangent module.  Removal goes from the largest candidate
    down, so low-degree generators survive; nothing in the result lies in
    the span of the rest."""
    if getattr(gens, "basis", None) is None:
        raise InvalidInput("minimal generators prune the basis of a syzygy_generators set")
    keys = [(w.total_degree(), format_one_form(w)) for w in gens.forms]
    ascending = sorted(range(len(gens)), key=keys.__getitem__)
    kept = gens.basis.irredundant(reversed(ascending))
    return GeneratorSet("minimal", [gens.forms[k] for k in ascending if k in kept], gens.f)


@dataclass
class SaitoResult:
    free: bool
    constant: Optional[object]  # scalar c with w0 ^ winf = c*f

    def __bool__(self):
        return self.free


def _saito_constant(w0: OneForm, winf: OneForm, f: Polynomial):
    """The nonzero scalar c with w0 ^ winf = c*f, or None.  The only
    candidate is c = wedge_m / f_m at one monomial m of the nonzero f."""
    coeff = wedge(w0, winf)
    m, fm = next(iter(f.terms.items()))
    c = coeff.terms.get(m, f.field.zero) / fm
    return None if f.field.is_zero(c) or coeff != f * c else c


def saito_check(pair: Sequence[OneForm], f: Polynomial) -> SaitoResult:
    """K. Saito's criterion: for a reduced f, two tangent forms generate the
    tangent module freely iff w0 ^ winf = c*f with c a nonzero constant.  A
    repeated factor g^2 of f makes g = 0 singular, so f is reduced exactly
    when K[x,y]/<f, f_x, f_y> is finite-dimensional; otherwise the
    criterion does not apply and InvalidInput is raised."""
    if len(pair) != 2 or not all(isinstance(w, OneForm) for w in pair):
        raise InvalidInput("the freeness test takes exactly two forms")
    for w in pair:
        if not is_tangent(f, w):
            raise NotTangent(f"not tangent to the curve: {format_one_form(w)}")
    if standard_monomials(buchberger([f, *jacobian(f)]), TermOrder()) is None:
        raise InvalidInput("the freeness test needs a reduced f (no repeated factor)")
    c = _saito_constant(*pair, f)
    return SaitoResult(c is not None, c)


def quasihomogeneous_pair(g: Polynomial, weights: Weights):
    """For weighted-homogeneous g: the pair (dg, eta) with
    eta = (alpha1*x dy - alpha2*y dx)/deg; dg ^ eta = g dx^dy by Euler."""
    if g.is_zero():
        raise ZeroInput("zero polynomial")
    weights = Weights.of(*weights)
    if not g.is_homogeneous(weights):
        raise NotHomogeneous("g is not homogeneous for these weights")
    d = g.weighted_degree(weights)
    if d <= 0:
        raise ZeroInput("constant polynomial")
    fld = g.field
    a1, a2 = weights
    eta = OneForm(
        Polynomial.term(fld.from_rational(Rational(-a2, d)), (0, 1), fld),
        Polynomial.term(fld.from_rational(Rational(a1, d)), (1, 0), fld))
    dg = exterior_derivative(g)
    if wedge(dg, eta) != g:
        raise InvariantViolation("Euler identity failed; weights are wrong")
    return dg, eta

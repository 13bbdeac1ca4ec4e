"""Generating sets for the module of polynomial 1-forms leaving f = 0
invariant, i.e. all w = P dx + Q dy with df ^ w divisible by f.

A form is tangent exactly when f_x*Q - f_y*P lies in <f>, so the module is
the projection to (P, Q) of the relations among (-f_y, f_x, f).  On top of
that raw construction sit: the distinguished 1-form built from a kernel
witness theta (f*theta = A*f_x + B*f_y gives -B dx + A dy), generation
verification by reduction to zero, greedy irredundant generating sets, and
the Saito wedge test for freeness.

Each constructed form is certified once, by the identity that builds it:
a raw form by its relation row, the kernel form by df ^ omega = theta*f, and
f dx, f dy, df by df ^ f dx = -f_y*f, df ^ f dy = f_x*f, df ^ df = 0.
is_tangent checks forms from outside these constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (InvalidInput, InvariantViolation, NotHomogeneous,
                     NotInJacobian, NotSmooth, NotTangent, ZeroInput)
from .field import Rational
from .groebner import GroebnerBasis, ModuleOrder, buchberger, syzygies
from .milnor import MilnorAlgebra
from .poly import (ModuleVector, OneForm, Polynomial, TermOrder, Weights,
                   exterior_derivative, format_one_form, wedge)


def divide(p: Polynomial, f: Polynomial):
    """(remainder, quotient) with p = quotient*f + remainder, the remainder
    reduced modulo <f>.  [f] is already a Groebner basis of <f>, so this is
    one division, not a Buchberger run."""
    gb = GroebnerBasis([ModuleVector((f,))], ModuleOrder(TermOrder()), f.field, 1)
    rem, (quotient,) = gb.normal_form(p, track_cofactors=True)
    return rem.components[0], quotient


def tangency_defect(f: Polynomial, w: OneForm) -> Polynomial:
    """Normal form of f_x*Q - f_y*P modulo <f>; zero iff w is tangent."""
    return divide(f.diff("x") * w.Q - f.diff("y") * w.P, f)[0]


def is_tangent(f: Polynomial, w: OneForm) -> bool:
    return tangency_defect(f, w).is_zero()


@dataclass
class GeneratorSet:
    kind: str  # trivial_smooth | four_generator | syzygy_raw | minimal
    forms: list
    f: Polynomial

    def __len__(self):
        return len(self.forms)

    def __str__(self):
        body = "; ".join(format_one_form(w) for w in self.forms)
        return f"<{self.kind}: {body}>"


def syzygy_generators(f: Polynomial, order=None) -> GeneratorSet:
    """Raw generating set of the full tangent module via relations among
    (-f_y, f_x, f).  Each relation (p, q, c) is checked exactly, and
    q*f_x - p*f_y + c*f = 0 certifies (p, q) tangent; c is discarded."""
    if f.is_constant():
        raise ZeroInput("need a non-constant polynomial")
    fx, fy = f.diff("x"), f.diff("y")
    rels = syzygies([-fy, fx, f], order)
    forms = []
    for rel in rels:
        p, q, c = rel.components
        if not (q * fx - p * fy + c * f).is_zero():
            raise InvariantViolation("relation does not certify tangency")
        if not (p.is_zero() and q.is_zero()):
            forms.append(OneForm(p, q))
    return GeneratorSet("syzygy_raw", forms, f)


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
    """The distinguished tangent form: write f*theta = A*f_x + B*f_y via
    tracked division, then return omega = -B dx + A dy.  The cofactors are
    checked exactly, df ^ omega = theta*f, which certifies omega tangent."""
    rem, cof = ma.gb.normal_form(f * theta, track_cofactors=True)
    if not rem.is_zero():
        raise NotInJacobian("f*theta does not reduce to zero; bad theta")
    a, b = ma.gb.cofactors_on_inputs(cof)
    omega = OneForm(-b, a)
    if wedge(exterior_derivative(f), omega).coeff != f * theta:
        raise InvariantViolation("wedge identity for the kernel form failed")
    return omega


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


def minimal_generators(gens: GeneratorSet, order=None) -> GeneratorSet:
    """Greedy pruning of an inter-reduced basis of the module.

    Candidates are the reduced Groebner basis elements; removal is attempted
    from the largest candidate down, so low-degree generators survive.  The
    result is irredundant: nothing in it lies in the span of the rest.
    """
    if not gens.forms:
        raise ZeroInput("empty generating set")
    gb = buchberger(gens.forms, order)
    forms = [OneForm(*v.components) for v in gb.generators]
    keys = [(w.total_degree(), format_one_form(w)) for w in forms]
    ascending = sorted(range(len(forms)), key=keys.__getitem__)
    kept = gb.irredundant(reversed(ascending))
    return GeneratorSet("minimal", [forms[k] for k in ascending if k in kept], gens.f)


@dataclass
class SaitoResult:
    free: bool
    constant: Optional[object]  # scalar c with w0 ^ winf = c * f dx^dy
    pair: Optional[tuple]

    def __bool__(self):
        return self.free


def saito_check(pair: Sequence[OneForm], f: Polynomial) -> SaitoResult:
    """Freeness test: the pair generates freely iff its wedge is a nonzero
    constant multiple of f."""
    if len(pair) != 2 or not all(isinstance(w, OneForm) for w in pair):
        raise InvalidInput("the freeness test takes exactly two forms")
    w0, winf = pair
    for w in (w0, winf):
        if not is_tangent(f, w):
            raise NotTangent(f"not tangent to the curve: {format_one_form(w)}")
    coeff = wedge(w0, winf).coeff
    if coeff.is_zero():
        return SaitoResult(False, None, None)
    rem, quotient = divide(coeff, f)
    if not rem.is_zero() or not quotient.is_constant():
        return SaitoResult(False, None, None)
    return SaitoResult(True, quotient.constant_value(), (w0, winf))


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
    if wedge(dg, eta).coeff != g:
        raise InvariantViolation("Euler identity failed; weights are wrong")
    return dg, eta

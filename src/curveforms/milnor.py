"""Jacobian quotient of a curve polynomial and multiplication by f.

V = K[x,y]/<f_x, f_y> with a standard-monomial basis, the multiplication-by-f
operator, its minimal polynomial, the multiplicity of the root 0, and
Jordan block sizes recovered from rank sequences.

V is a unital commutative algebra, so nothing here needs the mu x mu matrix
or its powers.  The minimal polynomial p of multiplication by f is the
annihilator of the class [1], read off the Krylov sequence [1], [f],
[f^2], ... (Wiedemann 1986).  The classes [f^k], k < deg p, that this passes
are cached on the algebra with p, so every class h(f) with deg h < deg p,
theta = q(f) among them, is their combination with the coefficients of h.
The operator op, multiplication by f, is fixed by V and f, so every
function here takes the MilnorAlgebra itself.
Multiplication by a class g has the ideal (g) of V as its image, so its rank
is mu - dim K[x,y]/<f_x, f_y, g>, a count of standard monomials; rank
sequences and the Tjurina number tau = dim K[x,y]/<f_x, f_y, f> are
quotient dimensions.  All of it runs in the Groebner engine's integer
coding of the field: a class is a coded vector with one rational scale, f
times a class is one product with the coded class of f and one reduction
by the Jacobian basis, and the engine's reduction finds the Krylov
dependence.  The class of f is reduced once per algebra.  Field scalars
appear only in the results.

The minimal polynomial p fixes five facts that need no further run: op is
invertible exactly when t does not divide p, so tau = 0 at exponent 0; p is
squarefree when gcd(p, p') = 1; h(op)^k has the rank of gcd(p, h^k)(op),
so the ranks at h stop falling once gcd(p, h^k) stops growing, and
p(op) = 0 has ranks mu, 0; (theta) = ker(op) exactly when
dim ker(op^e) = e*tau at p = t^e * r, r(0) != 0, always so at e = 1; and
I = (1) at e <= 1, for I = <f, f_x, f_y> (with theta at e = 1): tau = 0 at
e = 0, and at e = 1, with p = t*r and r = r(0) + t*s, theta = r(f) mod
<f_x, f_y>, so r(0) = theta - (theta - r(f)) - f*s(f) lies in I.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional

from .errors import (FactorNotDividing, InvariantViolation, NotFiniteDimensional,
                     NotTame, SmoothCurve, ZeroInput)
from . import groebner
from .groebner import (_ELIM, GroebnerBasis, ModuleOrder, _core_vec, _run_buchberger,
                       _unpack, buchberger)
from .linalg import UniPoly
# the dense reference stays bound here: bench/test_bench.py reads
# milnor.matrix_min_poly when it checks the tracer's bindings
from .linalg import matrix_min_poly  # noqa: F401
from .poly import ModuleVector, Polynomial, TermOrder, Weights


@dataclass(frozen=True)
class TameResult:
    tame: bool
    leading: Polynomial
    reason: Optional[str] = None
    g_dimension: Optional[int] = None

    def __bool__(self):
        return self.tame


def jacobian(f: Polynomial):
    return [f.diff("x"), f.diff("y")]


def _jacobian_basis(f: Polynomial, order: TermOrder) -> GroebnerBasis:
    gens = jacobian(f)
    if all(g.is_zero() for g in gens):
        raise ZeroInput("constant polynomial has no Jacobian ideal")
    return buchberger(gens, order)


def standard_monomials(gb, order: TermOrder):
    """Monomials outside the leading-term ideal of gb (a GroebnerBasis or
    its list of leading terms), sorted ascending.

    Returns None when the quotient is infinite-dimensional, i.e. when the
    leading terms contain no pure power of x or none of y.
    """
    lts = [(i, j) for (_, i, j) in (gb if isinstance(gb, list) else gb.leading_terms())]
    bound_x = min((i for i, j in lts if j == 0), default=None)
    bound_y = min((j for i, j in lts if i == 0), default=None)
    if bound_x is None or bound_y is None:
        return None
    basis = []
    for i in range(bound_x):
        for j in range(bound_y):
            if not any(a <= i and b <= j for a, b in lts):
                basis.append((i, j))
    basis.sort(key=order.key)
    return basis


def check_tame(f: Polynomial, weights: Weights) -> TameResult:
    """Tame iff the top weighted-homogeneous part has a finite quotient."""
    if f.is_constant():
        raise ZeroInput("need a nonzero, non-constant polynomial")
    weights = Weights.of(*weights)
    g = f.leading_form(weights)  # of positive weighted degree, so not constant
    order = TermOrder(weights)
    gb = _jacobian_basis(g, order)
    basis = standard_monomials(gb, order)
    if basis is None:
        return TameResult(False, g,
                          "top-form Jacobian quotient is infinite-dimensional")
    return TameResult(True, g, None, len(basis))


@dataclass
class MilnorAlgebra:
    """Basis data for V = K[x,y]/<f_x, f_y>; lifts, built on first read, are the
    rows (g | a), g != 0, of the augmented run on (f_x, f_y) (see membership)."""

    f: Polynomial
    weights: Weights
    order: TermOrder
    gb: GroebnerBasis           # of the Jacobian ideal
    basis: list                 # standard monomials, ascending
    mu: int
    tame: bool
    g_dimension: Optional[int] = None
    top_degree: int = 0         # 2d - 2*alpha1 - 2*alpha2
    unique_top: Optional[bool] = None
    _rows: dict = dc_field(default_factory=dict, repr=False, compare=False)

    @property
    def field(self):
        return self.f.field

    # the coded class (vector, scale) of f, reduced once; basis code -> index
    f_class = cached_property(lambda self: self.gb._reduce(self.f))
    codes = cached_property(lambda self: {self.gb.order.key((0,) + m): k
                                          for k, m in enumerate(self.basis)})
    # the minimal polynomial p of multiplication by f and the pairs
    # (w_k, scale_k), [f^k] = scale_k * w_k
    krylov = cached_property(lambda self: _krylov(self))
    lifts = cached_property(lambda self: [row for row in groebner._augmented_run(
        [ModuleVector((g,)) for g in jacobian(self.f)], 1, self.field, self.gb.order)
        if row[1] & _ELIM])


def milnor_algebra(f: Polynomial, weights: Weights = Weights(1, 1), *,
                   allow_untame: bool = False,
                   tame_res: Optional[TameResult] = None) -> MilnorAlgebra:
    """Build V_f.  Requires a finite-dimensional quotient; by default also a
    tame f (pass allow_untame for inputs that are finite-dimensional anyway).
    A caller that already ran check_tame(f, weights) passes its result."""
    weights = Weights.of(*weights)
    if tame_res is None:
        tame_res = check_tame(f, weights)
    if not tame_res.tame and not allow_untame:
        raise NotTame(tame_res.reason)
    order = TermOrder(weights)
    gb = _jacobian_basis(f, order)
    basis = standard_monomials(gb, order)
    if basis is None:
        raise NotFiniteDimensional(
            "the Jacobian quotient of f is infinite-dimensional")
    mu = len(basis)
    if tame_res.tame and tame_res.g_dimension != mu:
        raise InvariantViolation(
            f"dim V_f = {mu} but dim V_g = {tame_res.g_dimension}")
    a1, a2 = weights
    top = 2 * f.weighted_degree(weights) - 2 * a1 - 2 * a2
    unique_top = None
    if tame_res.tame and mu > 0:
        at_top = [m for m in basis if m[0] * a1 + m[1] * a2 == top]
        above = [m for m in basis if m[0] * a1 + m[1] * a2 > top]
        unique_top = len(at_top) == 1 and not above
    return MilnorAlgebra(f=f, weights=weights, order=order, gb=gb,
                         basis=basis, mu=mu, tame=tame_res.tame,
                         g_dimension=tame_res.g_dimension, top_degree=top,
                         unique_top=unique_top)


def _algebra_of(ma) -> MilnorAlgebra:
    if not isinstance(ma, MilnorAlgebra):
        raise TypeError("expected the MilnorAlgebra built by milnor_algebra")
    return ma


def multiplication_operator(ma: MilnorAlgebra) -> MilnorAlgebra:
    """[P] -> [f*P] is fixed by V_f and f, so the algebra is the operator."""
    return _algebra_of(ma)


def _times(ma: MilnorAlgebra, vec) -> tuple:
    """[f] times the coded class vec as (vector, scale): the product of vec
    with the coded class of f, reduced once by the Jacobian basis."""
    coding, (fvec, fscale) = ma.gb.coding, ma.f_class
    one, prod = ma.gb.order.key((0, 0, 0)), {}
    for t, c in vec.items():
        coding.subtract(prod, c, fvec, None, t - one)
    rem, mult = groebner._normal_form_core(prod, *zip(*ma.gb._cores), True, coding)
    if any(s not in ma.codes for s in rem):
        raise InvariantViolation("normal form left the standard-monomial span")
    return coding.scaled(rem, -1), fscale / mult


def _class_of(ma: MilnorAlgebra, h: UniPoly):
    """[h(f)] for deg h < deg p as (vector, scale): the Krylov combination
    sum h_i * scale_i * w_i, summed on the coding of -h_i * scale_i."""
    coding, krylov = ma.gb.coding, ma.krylov[1]
    neg, s = coding.encode({i: -c * krylov[i][1] for i, c in enumerate(h.coeffs) if c})
    acc = {}
    for i, c in neg.items():
        coding.subtract(acc, c, krylov[i][0], None, 0)
    g = coding.content(0, [acc]) or 1
    return coding.divided(acc, g), s * g


def _quotient_rows(ma: MilnorAlgebra, g) -> list:
    """Reduced basis rows of <f_x, f_y, g> for a nonzero coded g in normal
    form, by a run seeded with the Jacobian basis's engine vectors, once per
    line of g: tau and the first rank at the root 0 share the line of [f]."""
    g = ma.gb.coding.normalized(g, max(g))
    line = frozenset(g.items())
    if line not in ma._rows:
        ma._rows[line] = _run_buchberger([c for c, _ in ma.gb._cores] + [g],
                                         ma.gb.order, ma.gb.coding)
    return ma._rows[line]


def _quotient_dimension(ma: MilnorAlgebra, g) -> int:
    """dim K[x,y]/<f_x, f_y, g> = dim V_f/(g) for a coded class g."""
    if not g:
        return ma.mu
    rows = _quotient_rows(ma, g)
    return len(standard_monomials([_unpack(t) for _, t in rows], ma.order))


def tjurina_number(ma: MilnorAlgebra) -> int:
    """tau = dim K[x,y]/<f_x, f_y, f>; multiplication by f has rank mu - tau."""
    return _quotient_dimension(ma, _algebra_of(ma).f_class[0])


def _krylov(ma: MilnorAlgebra) -> tuple:
    """The body of ma.krylov: the annihilator p of [1] in the Krylov
    sequence [1], [f], [f^2], ..., and the pairs (w_k, scale_k).

    [f^k] = scale_k * w_k, w_{k+1} = f*w_k less its content.  The kernel
    reduces w_k, its coordinates at positions 0 .. mu-1 and a unit tag at
    mu + k, against the earlier ones; the first whose coordinates vanish
    leaves the dependence in its tags."""
    coding, key = ma.gb.coding, ModuleOrder(TermOrder()).key
    at = {t: key((k, 0, 0)) for t, k in ma.codes.items()}
    one = coding.encode({0: ma.field.one})[0][0]
    w, scale = ma.gb._reduce(Polynomial.constant(1, ma.field))
    basis, lts, krylov = [], [], []
    for k in range(ma.mu + 1):
        vec = {at[t]: c for t, c in w.items()}
        vec[key((ma.mu + k, 0, 0))] = one
        rem, _ = groebner._normal_form_core(vec, basis, lts, False, coding)
        lt = max(rem)
        if _unpack(lt)[0] >= ma.mu:
            tags = coding.decode(rem, 1)
            scales = [s for _, s in krylov] + [scale]
            p = UniPoly([tags.get(key((ma.mu + i, 0, 0)), ma.field.zero) * (1 / s)
                         for i, s in enumerate(scales)], ma.field).monic()
            return p, krylov
        krylov.append((w, scale))
        basis.append(coding.normalized(rem, lt))
        lts.append(lt)
        w, s = _times(ma, w)
        g = coding.content(0, [w]) or 1
        w, scale = coding.divided(w, g), scale * s * g
    raise InvariantViolation("the Krylov vectors admit no linear dependence")


def min_poly(ma: MilnorAlgebra) -> UniPoly:
    """Monic minimal polynomial of multiplication by f, read off the Krylov
    sequence of [1] on first use and cached on the algebra."""
    return _algebra_of(ma).krylov[0]


def exponent(p: UniPoly) -> int:
    """Multiplicity of the root 0; 0 means the curve is smooth."""
    return p.root_multiplicity_at_zero()


@dataclass(frozen=True)
class CriticalFactor:
    factor: UniPoly
    multiplicity: int
    roots: tuple  # explicit scalars for degree-1 factors, else empty


def critical_value_factors(p: UniPoly):
    """Squarefree decomposition with the linear factors solved explicitly
    (a monic t + c0 has the root -c0)."""
    return [CriticalFactor(f, m, (-f.coeffs[0],) if f.degree() == 1 else ())
            for f, m in p.squarefree_decompose()]


@dataclass(frozen=True)
class JordanProfile:
    factor: UniPoly
    blocks: dict  # size -> count, aggregated over the roots of the factor


def blocks_from_ranks(ranks) -> dict:
    """Jordan block counts {size: count} from the ranks r_0 = n, r_1, ...
    of h(A)^k, up to where they stop falling: r_{k-1} - r_k blocks have
    size >= k."""
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
    counts = {k: at_least[k - 1] - at_least[k] for k in range(1, len(at_least))}
    return {size: count for size, count in counts.items() if count}


def jordan_profile(ma: MilnorAlgebra, factor: UniPoly) -> JordanProfile:
    """Block sizes at the roots of ``factor`` from the rank sequence of
    h(op)^k, h = factor.

    p(op) = 0 for the minimal polynomial p, so ker a(op) = ker gcd(a, p)(op)
    and h(op)^k has the rank of d_k(op), d_k = gcd(p, h^k) =
    d_{k-1} * gcd(p/d_{k-1}, h): mu - dim K[x,y]/<f_x, f_y, d_k(f)>, or 0
    once d_k = p.  The ranks fall strictly exactly while d_k grows, so the
    sequence stops when gcd(p/d_k, h) = 1."""
    p = _algebra_of(ma).krylov[0]
    if factor == p:
        return JordanProfile(factor, blocks_from_ranks([ma.mu, 0]))
    if not (p % factor).is_zero():
        raise FactorNotDividing(
            f"{factor} does not divide the minimal polynomial {p}")
    ranks, d = [ma.mu], factor.monic()
    while d != p:
        ranks.append(ma.mu - _quotient_dimension(ma, _class_of(ma, d)[0]))
        step = p.exact_div(d).gcd(factor)
        if step.degree() == 0:
            break
        d = d * step
    else:
        ranks.append(0)
    return JordanProfile(factor, blocks_from_ranks(ranks))


def theta_polynomial(ma: MilnorAlgebra) -> Polynomial:
    """Degree-bounded representative of q(f) in V_f, where p(t) = t*q(t).

    The Krylov combination of q, never an expansion of q(f); one product
    with f certifies f*theta in the Jacobian ideal."""
    p = _algebra_of(ma).krylov[0]
    if exponent(p) < 1:
        raise SmoothCurve("0 is not a critical value; no kernel witness exists")
    vec, scale = _class_of(ma, p.shift_down(1))
    theta = _core_vec(ma.gb.coding.decode(vec, scale), 1, ma.field).components[0]
    if theta.is_zero():
        raise InvariantViolation("q(f) vanished in V_f; minimal polynomial wrong")
    if _times(ma, vec)[0]:
        raise InvariantViolation("f*theta is not in the Jacobian ideal")
    return theta


def kernel_condition(ma: MilnorAlgebra) -> bool:
    """True iff the ideal (theta) of V_f, theta = q(f), p = t*q, is ker(op).

    Write p = t^e * r, r(0) != 0.  (theta) = im q(op), q = t^(e-1) r: r(op)
    is invertible on the generalised 0-eigenspace and q(op) kills the
    others, so (theta) has one dimension per Jordan block of size e at 0,
    and ker(op) one per block at 0, tau in all.  The blocks at 0 have size
    at most e and sizes summing to dim ker(op^e), so the condition is
    dim ker(op^e) = e*tau, true at e = 1.  ker(op^e) is V_f when p = t^e,
    else of dimension dim V_f/([f^e]): one run, on the class of t^e."""
    p = _algebra_of(ma).krylov[0]
    e = exponent(p)
    if e < 1:
        raise SmoothCurve("0 is not a critical value; no kernel condition")
    if e == 1:
        return True
    power = UniPoly([0] * e + [1], ma.field)
    kernel_dim = ma.mu if power == p else _quotient_dimension(ma, _class_of(ma, power)[0])
    return kernel_dim == e * tjurina_number(ma)

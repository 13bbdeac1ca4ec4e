"""Jacobian quotient of a curve polynomial and multiplication by f.

V = K[x,y]/<f_x, f_y> with a standard-monomial basis, the matrix of the
multiplication-by-f operator, its minimal polynomial, the multiplicity of
the root 0, and Jordan block sizes recovered from rank sequences.

V is a unital commutative algebra, so nothing here needs powers of the
mu x mu matrix.  The minimal polynomial of multiplication by f is the
annihilator of the class [1], read off the Krylov sequence [1], [f],
[f^2], ... (Wiedemann 1986).  Multiplication by a class g has the ideal
(g) of V as its image, so its rank is mu - dim K[x,y]/<f_x, f_y, g>, a
count of standard monomials; rank sequences and the Tjurina number
tau = dim K[x,y]/<f_x, f_y, f> are quotient dimensions.  All of it runs in
the Groebner engine's integer coding of the field: the operator is an
integer matrix over one denominator, a class a coded vector with one
rational scale, and the engine's reduction finds the Krylov dependence.
Field scalars appear only in the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import lcm
from typing import Optional

from .errors import (FactorNotDividing, InvariantViolation, NotFiniteDimensional,
                     NotInKernel, NotTame, SmoothCurve, ZeroInput)
from . import groebner
from .field import Rational
from .groebner import (GroebnerBasis, ModuleOrder, _core_vec, _run_buchberger,
                       _unpack, buchberger)
from .linalg import Matrix, UniPoly
# the dense reference stays bound here: bench/test_bench.py reads
# milnor.matrix_min_poly when it checks the tracer's bindings
from .linalg import matrix_min_poly  # noqa: F401
from .poly import Polynomial, TermOrder, Weights


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


def _jacobian_basis(f: Polynomial, order: TermOrder, track=False) -> GroebnerBasis:
    gens = jacobian(f)
    if all(g.is_zero() for g in gens):
        raise ZeroInput("constant polynomial has no Jacobian ideal")
    return buchberger(gens, order, track_cofactors=track)


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
    if f.is_zero() or f.is_constant():
        raise ZeroInput("need a nonzero, non-constant polynomial")
    weights = Weights.of(*weights)
    g = f.leading_form(weights)
    order = TermOrder(weights)
    if g.diff("x").is_zero() and g.diff("y").is_zero():
        raise ZeroInput("leading form is constant")
    gb = _jacobian_basis(g, order)
    basis = standard_monomials(gb, order)
    if basis is None:
        return TameResult(False, g,
                          "top-form Jacobian quotient is infinite-dimensional")
    return TameResult(True, g, None, len(basis))


@dataclass
class MilnorAlgebra:
    """Basis data for V = K[x,y]/<f_x, f_y>."""

    f: Polynomial
    weights: Weights
    order: TermOrder
    d: int                      # weighted degree of f
    gb: GroebnerBasis           # of the Jacobian ideal, with cofactors
    basis: list                 # standard monomials, ascending
    mu: int
    tame: bool
    g_dimension: Optional[int] = None
    top_degree: int = 0         # 2d - 2*alpha1 - 2*alpha2
    unique_top: Optional[bool] = None
    _dims: dict = dc_field(default_factory=dict, repr=False, compare=False)

    @property
    def field(self):
        return self.f.field


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
    gb = _jacobian_basis(f, order, track=True)
    basis = standard_monomials(gb, order)
    if basis is None:
        raise NotFiniteDimensional(
            "the Jacobian quotient of f is infinite-dimensional")
    mu = len(basis)
    if tame_res.tame and tame_res.g_dimension != mu:
        raise InvariantViolation(
            f"dim V_f = {mu} but dim V_g = {tame_res.g_dimension}")
    a1, a2 = weights
    d = f.weighted_degree(weights)
    top = 2 * d - 2 * a1 - 2 * a2
    unique_top = None
    if tame_res.tame and mu > 0:
        at_top = [m for m in basis if m[0] * a1 + m[1] * a2 == top]
        above = [m for m in basis if m[0] * a1 + m[1] * a2 > top]
        unique_top = len(at_top) == 1 and not above
    ma = MilnorAlgebra(f=f, weights=weights, order=order, d=d, gb=gb,
                       basis=basis, mu=mu, tame=tame_res.tame,
                       g_dimension=tame_res.g_dimension, top_degree=top,
                       unique_top=unique_top)
    return ma


class MultiplicationOperator(Matrix):
    """Multiplication by f on V_f, together with the algebra it acts on:
    ``columns`` maps the packed code of each basis monomial m to the coded
    coordinates of den * f*m.  The Matrix entries are decoded on first use."""

    __slots__ = ("algebra", "columns", "den", "_entries")

    def __init__(self, algebra: MilnorAlgebra, columns: dict, den: int):
        self.field, self.rows, self.cols = algebra.field, algebra.mu, algebra.mu
        self.algebra, self.columns, self.den, self._entries = algebra, columns, den, None

    @property
    def entries(self):
        if self._entries is None:
            decode, zero = self.algebra.gb.coding.decode, self.field.zero
            cols = [decode(c, Rational(1, self.den)) for c in self.columns.values()]
            self._entries = [[c.get(t, zero) for c in cols] for t in self.columns]
        return self._entries


def multiplication_operator(ma: MilnorAlgebra) -> MultiplicationOperator:
    """Matrix of [P] -> [f*P]: column m is the kernel's remainder of m times
    the coded class of f, and the columns share one denominator."""
    gb, key = ma.gb, ma.gb.order.key
    fvec, scale = _coded(ma, ma.f)
    basis = [c for c, _, _ in gb._cores], [t for _, t, _ in gb._cores]
    rems = {}
    for m in ma.basis:
        shift = key((0,) + m) - key((0, 0, 0))
        rems[key((0,) + m)] = groebner._normal_form_core(
            {t + shift: c for t, c in fvec.items()}, *basis, None, False, gb.coding)
    if any(t not in rems for rem, _ in rems.values() for t in rem):
        raise InvariantViolation("normal form left the standard-monomial span")
    common = lcm(*(mult for _, (mult, _) in rems.values()))
    scale /= common
    columns = {t: gb.coding.scaled(rem, int(scale.numerator) * (common // mult))
               for t, (rem, (mult, _)) in rems.items()}
    return MultiplicationOperator(ma, columns, int(scale.denominator))


def _algebra_of(op) -> MilnorAlgebra:
    if not isinstance(op, MultiplicationOperator):
        raise TypeError("expected the operator built by multiplication_operator")
    return op.algebra


def _coded(ma: MilnorAlgebra, p: Polynomial):
    """(vector, scale) with [p] = scale * vector, a coded engine vector."""
    scale, rem, (mult, _) = ma.gb._reduce(p, False)
    return rem, scale / mult


def _times(op: MultiplicationOperator, vec) -> dict:
    """op.den * op applied to the coded vector vec, coded."""
    coding, out = op.algebra.gb.coding, {}
    for t, c in vec.items():
        coding.subtract(out, c, op.columns[t], None, 0)
    return coding.scaled(out, -1)


def _apply_poly(h: UniPoly, op: MultiplicationOperator, vec, scale=1):
    """h(op) applied to scale * vec, as (vector, scale).  With op = N/D and
    h = s*H on the coding, D^n * h(op) = sum H_i * D^(n-i) * N^i, summed by
    Horner's rule; the coding of -h lets each step subtract."""
    coding = op.algebra.gb.coding
    neg, s = coding.encode({i: -c for i, c in enumerate(h.coeffs) if c})
    acc, dvec = {}, vec
    for i in reversed(range(len(h.coeffs))):
        acc = _times(op, acc)
        if i in neg:
            coding.subtract(acc, neg[i], dvec, None, 0)
        dvec = coding.scaled(dvec, op.den)
    g = coding.content(0, [acc]) or 1
    return coding.divided(acc, g), scale * s * g / op.den ** h.degree()


def _quotient_dimension(ma: MilnorAlgebra, g) -> int:
    """dim V_f/(g) = dim K[x,y]/<f_x, f_y, g> for a coded g in normal form,
    by a run seeded with the Jacobian basis's engine vectors, once per line
    of g: tau and the first rank at the root 0 share the line of [f]."""
    if not g:
        return ma.mu
    g = ma.gb.coding.normalized(g, max(g))
    line = frozenset(g.items())
    if line not in ma._dims:
        rows = _run_buchberger([c for c, _, _ in ma.gb._cores] + [g],
                               ma.gb.order, ma.gb.coding)
        ma._dims[line] = len(standard_monomials([_unpack(t) for _, t in rows],
                                                ma.order))
    return ma._dims[line]


def tjurina_number(ma: MilnorAlgebra) -> int:
    """tau = dim K[x,y]/<f_x, f_y, f>; multiplication by f has rank mu - tau."""
    return _quotient_dimension(ma, _coded(ma, ma.f)[0])


def min_poly(op: MultiplicationOperator) -> UniPoly:
    """Monic minimal polynomial of the multiplication operator: the
    annihilator of [1] in the Krylov sequence [1], [f], [f^2], ...

    [f^k] = scale_k * w_k, w_{k+1} = op.den * op(w_k) / content.  The kernel
    reduces w_k, its coordinates at positions 0 .. mu-1 and a unit tag at
    mu + k, against the earlier ones; the first whose coordinates vanish
    leaves the dependence in its tags."""
    ma = _algebra_of(op)
    coding, key = ma.gb.coding, ModuleOrder(TermOrder()).key
    at = {t: key((k, 0, 0)) for k, t in enumerate(op.columns)}
    one = coding.encode({0: ma.field.one})[0][0]
    w, scale = _coded(ma, Polynomial.constant(1, ma.field))
    basis, lts, scales = [], [], []
    for k in range(ma.mu + 1):
        vec = {at[t]: c for t, c in w.items()}
        vec[key((ma.mu + k, 0, 0))] = one
        rem, _ = groebner._normal_form_core(vec, basis, lts, None, None, coding)
        lt = max(rem)
        scales.append(scale)
        if _unpack(lt)[0] >= ma.mu:
            tags = coding.decode(rem, 1)
            return UniPoly([tags.get(key((ma.mu + i, 0, 0)), ma.field.zero) * (1 / s)
                            for i, s in enumerate(scales)], ma.field).monic()
        basis.append(coding.normalized(rem, lt))
        lts.append(lt)
        w = _times(op, w)
        g = coding.content(0, [w]) or 1
        w, scale = coding.divided(w, g), scale * g / op.den
    raise InvariantViolation("the Krylov vectors admit no linear dependence")


def exponent(p: UniPoly) -> int:
    """Multiplicity of the root 0; 0 means the curve is smooth."""
    if p.is_zero():
        raise ZeroInput("zero polynomial")
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

    def total_dimension(self) -> int:
        return sum(size * count for size, count in self.blocks.items())

    def max_size(self) -> int:
        return max(self.blocks, default=0)


def blocks_from_ranks(ranks) -> dict:
    """Jordan block counts {size: count} from the rank sequence r_0 = n,
    r_1, ..., r_m = r_{m-1} of h(A)^k: r_{k-1} - r_k blocks have size >= k."""
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
    counts = {k: at_least[k - 1] - at_least[k] for k in range(1, len(at_least))}
    return {size: count for size, count in counts.items() if count}


def jordan_profile(op: MultiplicationOperator, factor: UniPoly,
                   minimal: Optional[UniPoly] = None) -> JordanProfile:
    """Block sizes at the roots of ``factor`` from the rank sequence of
    factor(op)^k.  factor(op)^k is multiplication by g_k = factor(f)^k, so
    its rank is mu - dim K[x,y]/<f_x, f_y, g_k>; the coordinates of g_k
    come from applying factor(op) to those of g_{k-1}."""
    ma = _algebra_of(op)
    if minimal is None:
        minimal = min_poly(op)
    if not (minimal % factor).is_zero():
        raise FactorNotDividing(
            f"{factor} does not divide the minimal polynomial {minimal}")
    ranks = [ma.mu]
    vec, _ = _coded(ma, Polynomial.constant(1, ma.field))
    while len(ranks) == 1 or ranks[-1] != ranks[-2]:
        vec, _ = _apply_poly(factor, op, vec)
        ranks.append(ma.mu - _quotient_dimension(ma, vec))
    return JordanProfile(factor, blocks_from_ranks(ranks))


def theta_polynomial(ma: MilnorAlgebra, op: MultiplicationOperator,
                     minimal: Optional[UniPoly] = None) -> Polynomial:
    """Degree-bounded representative of q(f) in V_f, where p(t) = t*q(t).

    Computed as q(op) applied to the coordinates of [1], never by expanding
    q(f) symbolically."""
    if minimal is None:
        minimal = min_poly(op)
    if exponent(minimal) < 1:
        raise SmoothCurve("0 is not a critical value; no kernel witness exists")
    vec, scale = _apply_poly(minimal.shift_down(1), op,
                             *_coded(ma, Polynomial.constant(1, ma.field)))
    theta = _core_vec(ma.gb.coding.decode(vec, scale), 1, ma.field).components[0]
    if theta.is_zero():
        raise InvariantViolation("q(f) vanished in V_f; minimal polynomial wrong")
    if not ma.gb.reduces_to_zero(ma.f * theta):
        raise InvariantViolation("f*theta is not in the Jacobian ideal")
    return theta


def kernel_condition(ma: MilnorAlgebra, op: MultiplicationOperator,
                     theta: Polynomial) -> bool:
    """True iff the classes theta*b, b over the basis, span ker(op).

    They span the ideal (theta) of V_f, of dimension mu - dim V_f/(theta),
    inside ker(op), whose dimension is mu - rank(op) = tau."""
    tvec, _ = _coded(ma, theta)
    if _times(op, tvec):
        raise NotInKernel("theta is not annihilated by multiplication by f")
    span_dim = ma.mu - _quotient_dimension(ma, tvec)
    return span_dim == tjurina_number(ma)

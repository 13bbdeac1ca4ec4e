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
tau = dim K[x,y]/<f_x, f_y, f> are quotient dimensions.  The dense
routines of `linalg` are kept as the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .errors import (FactorNotDividing, InvariantViolation, NotFiniteDimensional,
                     NotInKernel, NotTame, SmoothCurve, ZeroInput)
from .groebner import GroebnerBasis, buchberger
from .linalg import Matrix, UniPoly, sequence_annihilator
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
    gens = [g for g in jacobian(f)]
    if all(g.is_zero() for g in gens):
        raise ZeroInput("constant polynomial has no Jacobian ideal")
    return buchberger(gens, order, track_cofactors=track)


def standard_monomials(gb: GroebnerBasis, order: TermOrder):
    """Monomials outside the leading-term ideal, sorted ascending.

    Returns None when the quotient is infinite-dimensional, i.e. when the
    leading terms contain no pure power of x or none of y.
    """
    lts = [(i, j) for (_, i, j) in gb.leading_terms()]
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
    _index: dict = dc_field(default_factory=dict, repr=False)

    @property
    def field(self):
        return self.f.field

    def coordinates(self, p: Polynomial):
        """Coordinate vector of the class of p in the monomial basis."""
        rem = self.gb.normal_form(p)
        vec = [self.field.zero] * self.mu
        for mono, c in rem.components[0].terms.items():
            idx = self._index.get(mono)
            if idx is None:
                raise InvariantViolation(
                    f"normal form left the standard-monomial span: {mono}")
            vec[idx] = c
        return vec

    def from_coordinates(self, vec) -> Polynomial:
        terms = {m: c for m, c in zip(self.basis, vec)
                 if not self.field.is_zero(c)}
        return Polynomial(self.field, terms)


def milnor_algebra(f: Polynomial, weights: Weights = Weights(1, 1), *,
                   allow_untame: bool = False) -> MilnorAlgebra:
    """Build V_f.  Requires a finite-dimensional quotient; by default also a
    tame f (pass allow_untame for inputs that are finite-dimensional anyway)."""
    weights = Weights.of(*weights)
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
    ma._index.update({m: k for k, m in enumerate(basis)})
    return ma


class MultiplicationOperator(Matrix):
    """Matrix of multiplication by f on V_f, together with the algebra it
    acts on; the Milnor routines read their data from ``algebra``."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: MilnorAlgebra, entries):
        super().__init__(algebra.field, entries)
        self.algebra = algebra


def multiplication_operator(ma: MilnorAlgebra) -> MultiplicationOperator:
    """Matrix of [P] -> [f*P]; column i holds the coordinates of f*basis_i."""
    columns = [ma.coordinates(ma.f * Polynomial.term(ma.field.one, m, ma.field))
               for m in ma.basis]
    return MultiplicationOperator(
        ma, [[col[r] for col in columns] for r in range(ma.mu)])


def _algebra_of(op) -> MilnorAlgebra:
    if not isinstance(op, MultiplicationOperator):
        raise TypeError("expected the operator built by multiplication_operator")
    return op.algebra


def _unit_coordinates(ma: MilnorAlgebra):
    return ma.coordinates(Polynomial.constant(1, ma.field))


def _apply_poly(h: UniPoly, op: Matrix, vec):
    """h(op) applied to vec, by Horner's rule in op.apply."""
    out = [op.field.zero] * len(vec)
    for c in reversed(h.coeffs):
        out = [a + c * b for a, b in zip(op.apply(out), vec)]
    return out


def _quotient_dimension(ma: MilnorAlgebra, g) -> int:
    """dim V_f/(g) = dim K[x,y]/<f_x, f_y, g> for g in normal form."""
    if g.is_zero():
        return ma.mu
    gb = buchberger(list(ma.gb.generators) + [g], ma.order)
    return len(standard_monomials(gb, ma.order))


def tjurina_number(ma: MilnorAlgebra) -> int:
    """tau = dim K[x,y]/<f_x, f_y, f>; multiplication by f has rank mu - tau."""
    return _quotient_dimension(ma, ma.gb.normal_form(ma.f))


def _krylov(op: Matrix, vec):
    """vec, op(vec), op^2(vec), ..., op^n(vec) for n = op.rows."""
    for _ in range(op.rows + 1):
        yield vec
        vec = op.apply(vec)


def min_poly(op: MultiplicationOperator) -> UniPoly:
    """Monic minimal polynomial of the multiplication operator: the
    annihilator of [1] in the Krylov sequence [1], [f], [f^2], ..."""
    unit = _unit_coordinates(_algebra_of(op))
    return sequence_annihilator(op.field, _krylov(op, unit))


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
    """Squarefree decomposition with the linear factors solved explicitly."""
    out = []
    for factor, mult in p.squarefree_decompose():
        roots = ()
        if factor.degree() == 1:
            roots = (-factor.coeffs[0],)  # factor is monic: t + c0
        out.append(CriticalFactor(factor, mult, roots))
    return out


@dataclass(frozen=True)
class JordanProfile:
    factor: UniPoly
    blocks: dict  # size -> count, aggregated over the roots of the factor

    def total_dimension(self) -> int:
        return sum(size * count for size, count in self.blocks.items())

    def block_count(self) -> int:
        return sum(self.blocks.values())

    def max_size(self) -> int:
        return max(self.blocks, default=0)


def blocks_from_ranks(ranks) -> dict:
    """Jordan block counts {size: count} from the rank sequence r_0 = n,
    r_1, ..., r_m = r_{m-1} of h(A)^k: r_{k-1} - r_k blocks have size >= k."""
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    blocks = {}
    for size in range(1, len(at_least) + 1):
        ge_here = at_least[size - 1]
        ge_next = at_least[size] if size < len(at_least) else 0
        count = ge_here - ge_next
        if count:
            blocks[size] = count
    return blocks


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
    vec = _unit_coordinates(ma)
    while True:
        vec = _apply_poly(factor, op, vec)
        ranks.append(ma.mu - _quotient_dimension(ma, ma.from_coordinates(vec)))
        if ranks[-1] == ranks[-2]:
            break
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
    q = minimal.shift_down(1)
    theta = ma.from_coordinates(_apply_poly(q, op, _unit_coordinates(ma)))
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
    tvec = ma.coordinates(theta)
    if any(not ma.field.is_zero(c) for c in op.apply(tvec)):
        raise NotInKernel("theta is not annihilated by multiplication by f")
    span_dim = ma.mu - _quotient_dimension(ma, ma.from_coordinates(tvec))
    return span_dim == tjurina_number(ma)

"""Dense and rational references for the Milnor layer.

The first bodies are the original dense algorithms: Jordan data from ranks
of explicit matrix powers (Horner evaluation in matrix products, Bareiss
rank) and the kernel condition from the rank of the spanning matrix.  The
rest are the earlier field-scalar forms of the algebra's own algorithms:
the Krylov minimal polynomial by an echelon solve over the field, Horner's
rule on coordinate vectors, Euclid's gcd and Yun's squarefree split, and
quotient dimensions from public Buchberger runs.  The library runs the same
algorithms on the engine's integer coding; the tests compare them.
"""

from curveforms import Matrix, Polynomial, buchberger, matrix_min_poly
from curveforms.errors import (FactorNotDividing, InvariantViolation,
                               NotInKernel, SmoothCurve)
from curveforms.linalg import sequence_annihilator
from curveforms.milnor import (CriticalFactor, JordanProfile,
                               blocks_from_ranks, standard_monomials)


def coordinates(ma, p):
    """Coordinate vector of the class of p in the monomial basis."""
    rem = ma.gb.normal_form(p)
    vec = [ma.field.zero] * ma.mu
    index = {m: k for k, m in enumerate(ma.basis)}
    for mono, c in rem.components[0].terms.items():
        vec[index[mono]] = c
    return vec


def from_coordinates(ma, vec):
    return Polynomial(ma.field, dict(zip(ma.basis, vec)))


def dense_jordan_profile(op, factor, minimal=None):
    """Block sizes at the roots of ``factor`` from the rank sequence of the
    matrices factor(op)^k."""
    if minimal is None:
        minimal = matrix_min_poly(op)
    if not (minimal % factor).is_zero():
        raise FactorNotDividing(
            f"{factor} does not divide the minimal polynomial {minimal}")
    h = factor.eval_matrix(op)
    ranks = [op.rows]
    power = h
    while True:
        r = power.rank()
        ranks.append(r)
        if r == ranks[-2]:
            break
        power = power * h
    return JordanProfile(factor, blocks_from_ranks(ranks))


def dense_kernel_condition(ma, op, theta):
    """True iff the classes theta*b, b over the basis, span ker(op)."""
    tvec = coordinates(ma, theta)
    if any(not ma.field.is_zero(c) for c in op.apply(tvec)):
        raise NotInKernel("theta is not annihilated by multiplication by f")
    columns = [coordinates(ma, theta * Polynomial.term(ma.field.one, m, ma.field))
               for m in ma.basis]
    span = Matrix(ma.field, [[col[r] for col in columns] for r in range(ma.mu)])
    kernel_dim = ma.mu - op.rank()
    return span.rank() == kernel_dim


# -- field-scalar forms of the algebra's algorithms ---------------------------

def krylov_min_poly(op):
    """Annihilator of [1] in the Krylov sequence [1], [f], [f^2], ..., by an
    echelon solve over the field."""
    def krylov(vec):
        for _ in range(op.rows + 1):
            yield vec
            vec = op.apply(vec)

    unit = coordinates(op.algebra, Polynomial.constant(1, op.field))
    return sequence_annihilator(op.field, krylov(unit))


def horner_apply(h, op, vec):
    """h(op) applied to vec, by Horner's rule in op.apply."""
    out = [op.field.zero] * len(vec)
    for c in reversed(h.coeffs):
        out = [a + c * b for a, b in zip(op.apply(out), vec)]
    return out


def quotient_dimension(ma, g):
    """dim K[x,y]/<f_x, f_y, g> from a public Buchberger run."""
    if g.is_zero():
        return ma.mu
    gb = buchberger(list(ma.gb.generators) + [g], ma.order)
    return len(standard_monomials(gb, ma.order))


def tjurina_number(ma):
    return quotient_dimension(ma, ma.gb.normal_form(ma.f))


def jordan_profile(op, factor):
    """Block sizes from the rank sequence of factor(op)^k, each rank a
    quotient dimension of factor(f)^k."""
    ma = op.algebra
    ranks = [ma.mu]
    vec = coordinates(ma, Polynomial.constant(1, ma.field))
    while True:
        vec = horner_apply(factor, op, vec)
        ranks.append(ma.mu - quotient_dimension(ma, from_coordinates(ma, vec)))
        if ranks[-1] == ranks[-2]:
            break
    return JordanProfile(factor, blocks_from_ranks(ranks))


def theta_polynomial(ma, op, minimal):
    """q(op) applied to [1], where minimal = t*q(t)."""
    if minimal.root_multiplicity_at_zero() < 1:
        raise SmoothCurve("0 is not a critical value; no kernel witness exists")
    unit = coordinates(ma, Polynomial.constant(1, ma.field))
    theta = from_coordinates(ma, horner_apply(minimal.shift_down(1), op, unit))
    if theta.is_zero():
        raise InvariantViolation("q(f) vanished in V_f")
    return theta


def euclid_gcd(a, b):
    """Monic gcd by Euclid's algorithm over the field."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def yun_squarefree(p):
    """Yun's algorithm on euclid_gcd; (monic squarefree factor, multiplicity)."""
    p = p.monic()
    if p.degree() == 0:
        return []
    out = []
    g = euclid_gcd(p, p.derivative())
    w = p.exact_div(g)
    y = p.derivative().exact_div(g)
    z = y - w.derivative()
    i = 1
    while w.degree() > 0:
        gi = euclid_gcd(w, z)
        if gi.degree() > 0:
            out.append((gi, i))
        w = w.exact_div(gi)
        y = z.exact_div(gi)
        z = y - w.derivative()
        i += 1
    return out


def critical_value_factors(p):
    return [CriticalFactor(f, m, (-f.coeffs[0],) if f.degree() == 1 else ())
            for f, m in yun_squarefree(p)]

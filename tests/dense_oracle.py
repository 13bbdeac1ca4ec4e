"""Dense reference for the Milnor layer.

The bodies below are the original dense algorithms: Jordan data from ranks
of explicit matrix powers (Horner evaluation in matrix products, Bareiss
rank) and the kernel condition from the rank of the spanning matrix.  The
library computes the same data from the algebra; the tests compare the two.
"""

from curveforms import Matrix, Polynomial, matrix_min_poly
from curveforms.errors import FactorNotDividing, NotInKernel
from curveforms.milnor import JordanProfile, blocks_from_ranks


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
    tvec = ma.coordinates(theta)
    if any(not ma.field.is_zero(c) for c in op.apply(tvec)):
        raise NotInKernel("theta is not annihilated by multiplication by f")
    columns = [ma.coordinates(theta * Polynomial.term(ma.field.one, m, ma.field))
               for m in ma.basis]
    span = Matrix.from_columns(ma.field, columns)
    kernel_dim = ma.mu - op.rank()
    return span.rank() == kernel_dim

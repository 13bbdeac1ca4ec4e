"""Dense and rational references for the Milnor layer.

The first bodies are the dense toolkit that the library no longer carries:
the matrix of the multiplication operator decoded from its coded columns,
reduced row echelon form, kernels, matrix-vector products, Jordan data from
ranks of explicit matrix powers (Horner evaluation in matrix products,
Bareiss rank) and the kernel condition from the rank of the spanning
matrix.  The rest are the earlier field-scalar forms of the algebra's own
algorithms: the Krylov minimal polynomial by an echelon solve over the
field, Horner's rule on coordinate vectors, Euclid's gcd, long division and
Yun's squarefree split, and quotient dimensions from public Buchberger
runs.  The library runs the same algorithms on the engine's integer coding;
the tests compare them.
"""

from curveforms import Polynomial, Rational, UniPoly, buchberger
from curveforms.errors import (FactorNotDividing, InvariantViolation,
                               NotInKernel, SmoothCurve)
from curveforms.linalg import Matrix, matrix_min_poly, sequence_annihilator
from curveforms.milnor import (CriticalFactor, JordanProfile,
                               blocks_from_ranks, standard_monomials)


def dense_operator(op):
    """The matrix of a MultiplicationOperator: column m holds the decoded
    coordinates of f*m, op.columns / op.den."""
    ma = op.algebra
    decode, zero = ma.gb.coding.decode, ma.field.zero
    cols = [decode(c, Rational(1, op.den)) for c in op.columns.values()]
    return Matrix(ma.field, [[c.get(t, zero) for c in cols] for t in op.columns])


def rref(m):
    """Reduced row echelon form of a Matrix; returns (rows, pivot columns)."""
    rows = [list(row) for row in m.entries]
    zero = m.field.is_zero
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pivot_row = next((k for k in range(r, m.rows) if not zero(rows[k][c])), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for k in range(m.rows):
            if k != r and not zero(rows[k][c]):
                factor = rows[k][c]
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def kernel_basis(m):
    """Exact basis of the null space, one vector per free column (1 there,
    0 at the other free columns); length = cols - rank."""
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [m.field.zero] * m.cols
        vec[fc] = m.field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def apply(m, vec):
    """Matrix-vector product; zero coordinates and entries are skipped."""
    if len(vec) != m.cols:
        raise ValueError("dimension mismatch")
    zero = m.field.is_zero
    support = [(j, v) for j, v in enumerate(vec) if not zero(v)]
    out = []
    for row in m.entries:
        s = m.field.zero
        for j, v in support:
            if not zero(row[j]):
                s = s + row[j] * v
        out.append(s)
    return out


def is_zero(m):
    return all(m.field.is_zero(a) for row in m.entries for a in row)


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


def monic_divisors(p):
    """The monic divisors of positive degree that are products of powers of
    the squarefree factors of p."""
    divisors = [UniPoly.one(p.field)]
    for fac, mult in p.squarefree_decompose():
        powers = [UniPoly.one(p.field)]
        for _ in range(mult):
            powers.append(powers[-1] * fac)
        divisors = [d * q for d in divisors for q in powers]
    return [d for d in divisors if d.degree() > 0]


def dense_jordan_profile(m, factor, minimal=None):
    """Block sizes at the roots of ``factor`` from the rank sequence of the
    matrices factor(m)^k."""
    if minimal is None:
        minimal = matrix_min_poly(m)
    if not (minimal % factor).is_zero():
        raise FactorNotDividing(
            f"{factor} does not divide the minimal polynomial {minimal}")
    h = factor.eval_matrix(m)
    ranks = [m.rows]
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
    dense = dense_operator(op)
    tvec = coordinates(ma, theta)
    if any(not ma.field.is_zero(c) for c in apply(dense, tvec)):
        raise NotInKernel("theta is not annihilated by multiplication by f")
    columns = [coordinates(ma, theta * Polynomial.term(ma.field.one, m, ma.field))
               for m in ma.basis]
    span = Matrix(ma.field, [[col[r] for col in columns] for r in range(ma.mu)])
    kernel_dim = ma.mu - dense.rank()
    return span.rank() == kernel_dim


# -- field-scalar forms of the algebra's algorithms ---------------------------

def krylov_min_poly(op):
    """Annihilator of [1] in the Krylov sequence [1], [f], [f^2], ..., by an
    echelon solve over the field."""
    m, ma = dense_operator(op), op.algebra

    def krylov(vec):
        for _ in range(ma.mu + 1):
            yield vec
            vec = apply(m, vec)

    unit = coordinates(ma, Polynomial.constant(1, ma.field))
    return sequence_annihilator(ma.field, krylov(unit))


def horner_apply(h, m, vec):
    """h(m) applied to vec, by Horner's rule in matrix-vector products."""
    out = [m.field.zero] * len(vec)
    for c in reversed(h.coeffs):
        out = [a + c * b for a, b in zip(apply(m, out), vec)]
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
    ma, m = op.algebra, dense_operator(op)
    ranks = [ma.mu]
    vec = coordinates(ma, Polynomial.constant(1, ma.field))
    while True:
        vec = horner_apply(factor, m, vec)
        ranks.append(ma.mu - quotient_dimension(ma, from_coordinates(ma, vec)))
        if ranks[-1] == ranks[-2]:
            break
    return JordanProfile(factor, blocks_from_ranks(ranks))


def theta_polynomial(ma, op, minimal):
    """q(op) applied to [1], where minimal = t*q(t)."""
    if minimal.root_multiplicity_at_zero() < 1:
        raise SmoothCurve("0 is not a critical value; no kernel witness exists")
    unit = coordinates(ma, Polynomial.constant(1, ma.field))
    theta = from_coordinates(ma, horner_apply(minimal.shift_down(1),
                                              dense_operator(op), unit))
    if theta.is_zero():
        raise InvariantViolation("q(f) vanished in V_f")
    return theta


def euclid_gcd(a, b):
    """Monic gcd by Euclid's algorithm over the field."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def field_exact_div(a, b):
    """Quotient of an exact division by long division over the field."""
    q, r = a.divmod(b)
    if not r.is_zero():
        raise ValueError("division is not exact")
    return q


def yun_squarefree(p):
    """Yun's algorithm on euclid_gcd and field_exact_div; (monic squarefree
    factor, multiplicity)."""
    p = p.monic()
    if p.degree() == 0:
        return []
    out = []
    g = euclid_gcd(p, p.derivative())
    w = field_exact_div(p, g)
    y = field_exact_div(p.derivative(), g)
    z = y - w.derivative()
    i = 1
    while w.degree() > 0:
        gi = euclid_gcd(w, z)
        if gi.degree() > 0:
            out.append((gi, i))
        w = field_exact_div(w, gi)
        y = field_exact_div(z, gi)
        z = y - w.derivative()
        i += 1
    return out


def critical_value_factors(p):
    return [CriticalFactor(f, m, (-f.coeffs[0],) if f.degree() == 1 else ())
            for f, m in yun_squarefree(p)]

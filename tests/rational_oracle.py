"""The Groebner kernel as it was before terms were packed: vectors are dicts
keyed by (position, i, j) tuples, coefficients stay in the field (Rationals
over Q), every basis vector is monic and the sort key is a tuple.

It is the oracle the packed, fraction-free engine is compared with.  A
reduced Groebner basis under a fixed order is unique, and that covers the
augmented basis with its tag rows, so bases, transforms and syzygy rows must
come out equal.  Both kernels divide by the first basis element whose
leading term divides the current leading term, so normal forms and
cofactors must be equal too.
"""

from curveforms import ModuleOrder, ModuleVector, Polynomial
from curveforms.groebner import _prepare


def _key(order, term):
    pos, i, j = term
    a1, a2 = order.base.weights
    return (1 if pos < order.elim else 0, i * a1 + j * a2, -j, -pos)


def _vec_core(mv):
    return {(pos, i, j): c for pos, p in enumerate(mv.components)
            for (i, j), c in p.terms.items()}


def _core_vec(core, rank, field, start=0):
    comp_terms = [dict() for _ in range(rank)]
    for (pos, i, j), c in core.items():
        if start <= pos < start + rank:
            comp_terms[pos - start][(i, j)] = c
    return ModuleVector(tuple(Polynomial(field, t) for t in comp_terms))


def _monic(core, lt):
    lc = core[lt]
    if lc == 1:
        return core
    inv = 1 / lc
    return {t: c * inv for t, c in core.items()}


def normal_form_core(vec, basis, lts, keyf, track=False):
    """Divide vec by the monic basis; returns (remainder, cofactor dicts)."""
    v = dict(vec)
    rem = {}
    cof = [dict() for _ in basis] if track else None
    while v:
        t = max(v, key=keyf)
        c = v.pop(t)
        pos, i, j = t
        for idx, (gpos, gi, gj) in enumerate(lts):
            if gpos == pos and gi <= i and gj <= j:
                mi, mj = i - gi, j - gj
                for (p2, a, b), gc in basis[idx].items():
                    if (p2, a, b) == lts[idx]:
                        continue
                    key2 = (p2, a + mi, b + mj)
                    s = v.get(key2)
                    s = -(c * gc) if s is None else s - c * gc
                    if s:
                        v[key2] = s
                    else:
                        v.pop(key2, None)
                if track:
                    prev = cof[idx].get((mi, mj))
                    cof[idx][(mi, mj)] = c if prev is None else prev + c
                break
        else:
            rem[t] = c
    return rem, cof


def _spair_core(g1, lt1, g2, lt2):
    pos, i1, j1 = lt1
    _, i2, j2 = lt2
    li, lj = max(i1, i2), max(j1, j2)
    out = {(p, a + li - i1, b + lj - j1): c for (p, a, b), c in g1.items()}
    for (p, a, b), c in g2.items():
        t = (p, a + li - i2, b + lj - j2)
        s = out.get(t)
        s = -c if s is None else s - c
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


def run_buchberger(seeds, order):
    """Reduced basis: list of (monic core, leading term), ascending."""
    keyf = lambda t: _key(order, t)  # noqa: E731
    rank1 = order.rank == 1
    G, lts, pairs = [], [], {}

    def lcm_term(t1, t2):
        return (t1[0], max(t1[1], t2[1]), max(t1[2], t2[2]))

    def divides(t1, t2):
        return t1[0] == t2[0] and t1[1] <= t2[1] and t1[2] <= t2[2]

    def update(new_core, new_lt):
        k = len(G)
        for (i, j) in list(pairs):
            lij = pairs[(i, j)]
            if (divides(new_lt, lij)
                    and lcm_term(lts[i], new_lt) != lij
                    and lcm_term(lts[j], new_lt) != lij):
                del pairs[(i, j)]
        cand = {}
        for i in range(k):
            if lts[i][0] == new_lt[0]:
                cand.setdefault(lcm_term(lts[i], new_lt), []).append(i)
        kept = []
        for L in sorted(cand, key=keyf):
            if not any(divides(Lk, L) for Lk in kept):
                kept.append(L)
        for L in kept:
            members = cand[L]
            if rank1 and any(
                    lts[i][1] + new_lt[1] == L[1] and lts[i][2] + new_lt[2] == L[2]
                    for i in members):
                continue
            pairs[(min(members), k)] = L
        G.append(new_core)
        lts.append(new_lt)

    def insert(core):
        rem, _ = normal_form_core(core, G, lts, keyf)
        if rem:
            lt = max(rem, key=keyf)
            update(_monic(rem, lt), lt)

    for core in sorted(seeds, key=lambda d: keyf(max(d, key=keyf))):
        insert(core)
    while pairs:
        (i, j) = min(pairs, key=lambda p: (keyf(pairs[p]), p))
        del pairs[(i, j)]
        insert(_spair_core(G[i], lts[i], G[j], lts[j]))

    kept = []
    for k in sorted(range(len(G)), key=lambda k: keyf(lts[k])):
        if not any(divides(lts[m], lts[k]) for m in kept):
            kept.append(k)
    basis = [G[k] for k in kept]
    blts = [lts[k] for k in kept]
    for k in range(len(basis)):
        rem, _ = normal_form_core(basis[k], basis[:k] + basis[k + 1:],
                                  blts[:k] + blts[k + 1:], keyf)
        basis[k] = _monic(rem, blts[k])
    return list(zip(basis, blts))


class OracleBasis:
    """The reduced basis, its transform (with tracking) and normal forms."""

    def __init__(self, rows, order, field, rank, transform=None):
        self.rows, self.order, self.field, self.rank = rows, order, field, rank
        self.generators = [_core_vec(core, rank, field) for core, _ in rows]
        self.transform = transform

    def normal_form(self, v, track_cofactors=False):
        rem, cof = normal_form_core(
            _vec_core(ModuleVector.wrap(v)), [c for c, _ in self.rows],
            [lt for _, lt in self.rows], lambda t: _key(self.order, t),
            track=track_cofactors)
        remainder = _core_vec(rem, self.rank, self.field)
        if not track_cofactors:
            return remainder
        return remainder, [Polynomial(self.field, d) for d in cof]


def _augmented(vecs, rank, field, order):
    s = len(vecs)
    aug = ModuleOrder(order.base, rank + s, elim=rank)
    seeds = []
    for k, v in enumerate(vecs):
        core = _vec_core(v)
        core[(rank + k, 0, 0)] = field.one
        seeds.append(core)
    basis_rows, syzygy_rows = [], []
    for core, lt in run_buchberger(seeds, aug):
        first = {t: c for t, c in core.items() if t[0] < rank}
        if first:
            tags = _core_vec(core, s, field, start=rank)
            basis_rows.append((first, lt, list(tags.components)))
        else:
            syzygy_rows.append(_core_vec(core, s, field, start=rank))
    return basis_rows, syzygy_rows


def buchberger(gens, order=None, track_cofactors=False):
    vecs, rank, field, order = _prepare(gens, order)
    if not track_cofactors:
        seeds = [_vec_core(v) for v in vecs if not v.is_zero()]
        return OracleBasis(run_buchberger(seeds, order), order, field, rank)
    rows, _ = _augmented(vecs, rank, field, order)
    return OracleBasis([(c, lt) for c, lt, _ in rows], order.restricted(rank),
                       field, rank, [tags for _, _, tags in rows])


def syzygies(gens, order=None):
    vecs, rank, field, order = _prepare(gens, order)
    return _augmented(vecs, rank, field, order)[1]

"""Buchberger Groebner bases for ideals in K[x,y] and submodules of K[x,y]^r.

One engine covers everything.  Cofactor transforms come from an augmented
run: each generator g_k is extended with a unit tag e_k and the basis is
computed under an order that eliminates the original block, so output rows
with a surviving first block form a basis of the module (their tags
expressing them in the inputs), while rows with a zero first block are
exactly the syzygies.  Syzygies come from that run only when the inputs are
not polynomials generating (1); for those (a smooth affine curve's
-f_y, f_x, f) a tag-free run proves the unit ideal and the relations are
the reduced basis of the Koszul rows, which carry no Bezout cofactors.

Terms are packed: ModuleOrder.key codes a term (pos, i, j) as one int whose
integer order is the module order, so a leading term is a plain max() and
multiplying by a monomial adds a constant to every code.  Engine vectors are
integral, with an int per term over Q and an int tuple of the field's integer
coding over an extension, and a reduction step is fraction-free,
v <- a*v - b*m*g with the gcd cofactors (a, b) of the two leading
coefficients; a normalized leading coefficient is a positive rational
integer, so a is an int.  One loop serves both, with the field's helpers
chosen once per run.  Monic vectors appear only at the public boundary.

_normal_form_core does every reduction.  Every Buchberger and syzygy run and
GroebnerBasis.normal_form look it up as a module global at call time, and
the first item of its result is empty exactly when the remainder is zero,
so wrapping it counts reductions and reductions to zero.

Pair pruning uses the Gebauer-Moeller rules.  The coprime-leading-term
criterion is only valid for ideals, so it is applied solely in rank 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import sub
from types import SimpleNamespace
from typing import Optional

from .errors import InvalidInput, RankMismatch
from .field import ExtElement, Rational, check_same_field
from .poly import ModuleVector, Polynomial, TermOrder


class ModuleOrder:
    """Term-over-position order, ties to the lowest index; the first ``elim``
    positions, when set, dominate everything else (block elimination).
    ``key`` packs a term (pos, i, j) into an int ordered like the terms."""

    __slots__ = ("base", "rank", "elim")

    def __init__(self, base: TermOrder, rank: int = 1, elim: int = 0):
        self.base = base
        self.rank = rank
        self.elim = elim

    def key(self, term):
        pos, i, j = term
        a1, a2 = self.base.weights
        deg = i * a1 + j * a2
        if deg > _MASK or pos > _PMASK:
            raise InvalidInput(f"term {term} is outside the packed term range")
        return ((_ELIM if pos < self.elim else 0) | deg << _S_DEG
                | (_MASK - j) << _S_J | (_PMASK - pos) << _S_POS | i)

    def restricted(self, rank: int) -> "ModuleOrder":
        return ModuleOrder(self.base, rank, 0)

    def __repr__(self):
        return f"ModuleOrder({self.base!r}, rank={self.rank}, elim={self.elim})"


# bit fields of a packed term, low to high: i, -pos, -j, weighted degree,
# elimination flag; exponents and weighted degrees stay below 2^32
_MASK, _PMASK = (1 << 32) - 1, (1 << 16) - 1
_S_POS, _S_J, _S_DEG, _ELIM = 32, 48, 80, 1 << 112


def _unpack(t):
    return (_PMASK - (t >> _S_POS & _PMASK), t & _MASK, _MASK - (t >> _S_J & _MASK))


# ---------------------------------------------------------------------------
# the engine: vectors are dicts from packed terms to coefficients


def _vec_core(mv: ModuleVector, key=None):
    """Terms of mv keyed by (pos, i, j), or packed with ``key``."""
    out = {}
    for pos, p in enumerate(mv.components):
        for (i, j), c in p.terms.items():
            out[(pos, i, j) if key is None else key((pos, i, j))] = c
    return out


def _packed(core, key):
    return {key(t): c for t, c in core.items()}


def _core_vec(core, rank, field, start: int = 0) -> ModuleVector:
    """ModuleVector of positions start .. start+rank-1 of a packed vector."""
    comp_terms = [dict() for _ in range(rank)]
    for t, c in core.items():
        pos, i, j = _unpack(t)
        if start <= pos < start + rank:
            comp_terms[pos - start][(i, j)] = c
    return ModuleVector(tuple(Polynomial(field, t) for t in comp_terms))


def _integral(core):
    """(vector, scale) with core == scale * vector, a primitive integer vector."""
    den = lcm(*(int(c.denominator) for c in core.values()))
    ints = {t: int(c.numerator) * (den // int(c.denominator))
            for t, c in core.items()}
    g = gcd(*ints.values()) or 1
    return {t: c // g for t, c in ints.items()}, Rational(g, den)


def _normalized(v, lt):
    """Primitive with a positive leading coefficient."""
    g = gcd(*v.values()) if v[lt] > 0 else -gcd(*v.values())
    return v if g == 1 else {t: c // g for t, c in v.items()}


def _cross(c, d):
    """(a, b) with a*c == b*d: the gcd cofactors over the integers, (1, c)
    against a monic d."""
    if d == 1:
        return 1, c
    g = gcd(c, d)
    return d // g, c // g


def _subtract(v, b, g, lead, shift):
    """v -= b * m * g in place, leaving out the leading term of g, which the
    caller cancels; m is the monomial whose code shift is ``shift``."""
    if b == 1:
        tail = [(s, c) for s, c in g.items() if s != lead]
    else:
        tail = [(s, b * c) for s, c in g.items() if s != lead]
    for s, c in tail:
        s += shift
        x = v.get(s)
        if x is None:
            v[s] = -c
        else:
            x -= c
            if x:
                v[s] = x
            else:
                del v[s]


# The engine's scalars over Q: ints.  A normalized vector is primitive with a
# positive leading coefficient, which ``lead`` reads as an int.
_INTEGERS = SimpleNamespace(
    encode=_integral, normalized=_normalized, cross=_cross, subtract=_subtract,
    decode=lambda d, s: {k: Rational(c * s.numerator, s.denominator) for k, c in d.items()},
    lead=lambda c: c, scaled=lambda d, a: {s: c * a for s, c in d.items()},
    divided=lambda d, g: {s: c // g for s, c in d.items()},
    content=lambda mult, dicts: gcd(mult, *(c for d in dicts for c in d.values())))


def _coding(field):
    """The engine's scalars for field: over Q[z]/(m) the int tuples
    ExtElement.nums; normalized scales a vector so its lc is a positive int."""
    if field.degree == 1:
        return _INTEGERS
    mul, zero = field.mul_ints, field.zero.nums

    def content(mult, dicts):
        return gcd(mult, *(x for d in dicts for c in d.values() for x in c))

    def divided(d, g):
        return d if g == 1 else {s: tuple(x // g for x in c) for s, c in d.items()}

    def encode(core):
        den = lcm(*(c.den for c in core.values()))
        ints = {t: tuple(x * (den // c.den) for x in c.nums) for t, c in core.items()}
        g = content(0, [ints]) or 1
        return divided(ints, g), Rational(g, den)

    def normalized(v, lt):
        if any(v[lt][1:]):
            u = field.inv(ExtElement(field, v[lt])).nums
            v = {t: mul(u, c) for t, c in v.items()}
        g = content(0, [v])
        return divided(v, g if v[lt][0] > 0 else -g)

    def cross(c, d):
        g = gcd(d[0], *c)
        return d[0] // g, tuple(x // g for x in c)

    def subtract(v, b, g, lead, shift):
        for s, c in g.items():
            if s != lead:
                x = tuple(map(sub, v.pop(s + shift, zero), mul(b, c)))
                if any(x):
                    v[s + shift] = x

    return SimpleNamespace(
        encode=encode, normalized=normalized, cross=cross, subtract=subtract,
        content=content, divided=divided, lead=lambda c: c[0],
        decode=lambda d, s: {k: ExtElement(field, c) * s for k, c in d.items()},
        scaled=lambda d, a: {s: tuple(x * a for x in c) for s, c in d.items()})


def _public(core, lt, coding):
    """The monic multiple of a normalized engine vector, in field scalars."""
    return coding.decode(core, Rational(1, coding.lead(core[lt])))


def _normal_form_core(vec, basis, lts, key=None, track=False, coding=_INTEGERS):
    """Divide vec by the basis (leading codes lts): (remainder, (mult, cof))
    with mult a positive integer and, with track, cof the monomial dicts
    (else None) such that

        mult * vec == remainder + sum(cof[k][m] * m * basis[k]).

    With track None only the remainder counts, up to a positive factor.
    Each step cancels the leading term of v against the first basis element
    whose leading term divides it, v <- a*v - b*m*g with (a, b) from
    coding.cross.  After every few steps that scaled v its content is
    removed: all of it with track None, else the part shared with mult.
    The vectors hold the scalars of ``coding``.  With
    ``key`` they are keyed by (pos, i, j), as _vec_core builds them, and lts
    are such tuples; they are packed with it first.
    """
    if key is not None:
        vec, basis = _packed(vec, key), [_packed(g, key) for g in basis]
        lts = [key(t) for t in lts]
    cross, subtract, scaled = coding.cross, coding.subtract, coding.scaled
    heads = [_unpack(t) for t in lts]
    v, rem, mult, grown = dict(vec), {}, 1, 0
    cof = [{} for _ in basis] if track else []
    while v:
        t = max(v)
        pos, i, j = _unpack(t)
        for k, (gpos, gi, gj) in enumerate(heads):
            if gpos == pos and gi <= i and gj <= j:
                break
        else:
            rem[t] = v.pop(t)
            continue
        a, b = cross(v.pop(t), basis[k][lts[k]])
        if a != 1:
            v, rem, *cof = (scaled(d, a) for d in (v, rem, *cof))
            mult, grown = mult * a, grown + 1
        subtract(v, b, basis[k], lts[k], t - lts[k])
        if track:  # t only falls, so each (k, m) comes once
            cof[k][(i - gi, j - gj)] = b
        if grown > 3:
            div = coding.content(0 if track is None else mult, (v, rem, *cof))
            if div > 1:
                v, rem, *cof = (coding.divided(d, div) for d in (v, rem, *cof))
                mult //= div
            grown = 0
    if key is not None:
        rem = {_unpack(t): c for t, c in rem.items()}
    return rem, (mult, cof if track else None)


def _spair_core(g1, lt1, g2, lt2, key=None, coding=_INTEGERS):
    """S-vector a*m1*g1 - b*m2*g2, (a, b) from coding.cross, of two vectors
    whose leading terms lt1, lt2 (tuples) lie in one position.  The vectors
    are packed with ``key``; without it they are keyed by (pos, i, j), as
    _vec_core builds them, and any packing serves: an S-vector does not
    depend on the order."""
    tuples = key is None
    if tuples:
        key = ModuleOrder(TermOrder()).key
        g1, g2 = _packed(g1, key), _packed(g2, key)
    t1, t2 = key(lt1), key(lt2)
    lcm_code = key((lt1[0], max(lt1[1], lt2[1]), max(lt1[2], lt2[2])))
    a, b = coding.cross(g1[t1], g2[t2])
    out = {s + lcm_code - t1: c for s, c in g1.items() if s != t1}
    out = out if a == 1 else coding.scaled(out, a)
    coding.subtract(out, b, g2, t2, lcm_code - t2)
    return {_unpack(t): c for t, c in out.items()} if tuples else out


def _run_buchberger(seeds, order: ModuleOrder, coding):
    """Reduced Groebner basis of the module generated by the seed vectors
    (engine vectors in the scalars of ``coding``, see its encode).

    Returns a list of (vector, leading code), normalized, sorted by leading
    term ascending.  Normal selection strategy; deterministic throughout.
    """
    keyf = order.key
    rank1 = order.rank == 1

    G, codes, lts = [], [], []

    def lcm_term(t1, t2):
        return (t1[0], max(t1[1], t2[1]), max(t1[2], t2[2]))

    def divides(t1, t2):
        return t1[0] == t2[0] and t1[1] <= t2[1] and t1[2] <= t2[2]

    pairs = {}  # (i, j) -> (lcm code, lcm term)

    def update(new_core, new_code):
        """Gebauer-Moeller pair update for the arrival of a new element."""
        k = len(G)
        new_lt = _unpack(new_code)
        # drop old pairs strictly dominated by the newcomer
        for (i, j) in list(pairs):
            lij = pairs[(i, j)][1]
            if (divides(new_lt, lij)
                    and lcm_term(lts[i], new_lt) != lij
                    and lcm_term(lts[j], new_lt) != lij):
                del pairs[(i, j)]
        # group candidate pairs by their lcm and keep only minimal lcms
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
                continue  # coprime leading monomials; ideal case only
            pairs[(min(members), k)] = (keyf(L), L)
        G.append(new_core)
        codes.append(new_code)
        lts.append(new_lt)

    def insert(v):
        rem, _ = _normal_form_core(v, G, codes, track=None, coding=coding)
        if rem:
            t = max(rem)
            update(coding.normalized(rem, t), t)

    for core in sorted(seeds, key=max):
        insert(core)
    while pairs:
        (i, j) = min(pairs, key=lambda p: (pairs[p][0], p))
        del pairs[(i, j)]
        insert(_spair_core(G[i], lts[i], G[j], lts[j], keyf, coding))

    # minimalize: drop elements whose leading term another one divides
    kept = []
    for k in sorted(range(len(G)), key=codes.__getitem__):
        if not any(divides(lts[m], lts[k]) for m in kept):
            kept.append(k)
    basis = [G[k] for k in kept]
    bcodes = [codes[k] for k in kept]

    # tail-reduce each element against all the others
    for k in range(len(basis)):
        rem, _ = _normal_form_core(basis[k], basis[:k] + basis[k + 1:],
                                   bcodes[:k] + bcodes[k + 1:], None, None, coding)
        basis[k] = coding.normalized(rem, bcodes[k])

    return list(zip(basis, bcodes))


# ---------------------------------------------------------------------------
# public layer


@dataclass(frozen=True)
class Membership:
    contained: bool
    cofactors: Optional[list]  # Polynomials indexed like the generators
    remainder: Optional[ModuleVector] = None

    def __bool__(self):
        return self.contained


class GroebnerBasis:
    """Reduced basis plus (optionally) the transform back to the inputs.

    ``_cores`` holds the engine's form of each generator: (vector, leading
    code, lam) with vector == lam * generator.  Everything but
    ``generators`` works on them; those are decoded on first read."""

    def __init__(self, generators, order, field, rank, transform=None, cores=None):
        self.order = order
        self.field = field
        self.rank = rank
        self.transform = transform
        coding = self.coding = _coding(field)
        if cores is None:
            self.generators, cores = list(generators), []
            for g in self.generators:
                public = _vec_core(g, order.key)
                t = max(public)
                core = coding.normalized(coding.encode(public)[0], t)
                cores.append((core, t, field.inv(public[t]) * coding.lead(core[t])))
        self._cores = cores

    @cached_property
    def generators(self):
        return [_core_vec(_public(core, t, self.coding), self.rank, self.field)
                for core, t, _ in self._cores]

    def __len__(self):
        return len(self._cores)

    def leading_terms(self):
        return [_unpack(t) for _, t, _ in self._cores]

    def _reduce(self, v, track):
        """(scale, remainder, (mult, cofactors)) of the engine vector v / scale."""
        v = ModuleVector.wrap(v)
        if v.rank != self.rank:
            raise RankMismatch(f"rank {v.rank} against a rank-{self.rank} basis")
        core, scale = self.coding.encode(_vec_core(v, self.order.key))
        rem, tracked = _normal_form_core(
            core, [c for c, _, _ in self._cores], [t for _, t, _ in self._cores],
            None, track, self.coding)
        return scale, rem, tracked

    def normal_form(self, v, track_cofactors: bool = False):
        """Remainder of v; with tracking also the cofactors against the basis."""
        scale, rem, (mult, cof) = self._reduce(v, track_cofactors)
        s = scale if mult == 1 else scale / mult
        remainder = _core_vec(self.coding.decode(rem, s), self.rank, self.field)
        if not track_cofactors:
            return remainder
        return remainder, [Polynomial(self.field, self.coding.decode(d, lam * s))
                           for d, (_, _, lam) in zip(cof, self._cores)]

    def reduces_to_zero(self, v) -> bool:
        _, rem, _ = self._reduce(v, False)
        return not rem

    def irredundant(self, candidates) -> set:
        """Indices of the generators kept by greedy pruning: each candidate in
        turn goes if a run on the engine vectors of the rest generates it."""
        vecs, kept = [core for core, _, _ in self._cores], set(range(len(self)))
        for k in candidates:
            if len(kept) == 1:
                break
            rows = _run_buchberger([vecs[m] for m in kept - {k}], self.order, self.coding)
            if not _normal_form_core(vecs[k], [v for v, _ in rows], [t for _, t in rows],
                                     None, None, self.coding)[0]:
                kept.remove(k)
        return kept

    def cofactors_on_inputs(self, basis_cofactors):
        """Rewrite basis cofactors as cofactors on the original generators."""
        if self.transform is None:
            raise InvalidInput("basis was computed without cofactor tracking")
        n_inputs = len(self.transform[0]) if self.transform else 0
        out = [Polynomial.zero(self.field) for _ in range(n_inputs)]
        for c, row in zip(basis_cofactors, self.transform):
            if c.is_zero():
                continue
            for idx, t in enumerate(row):
                if not t.is_zero():
                    out[idx] = out[idx] + c * t
        return out


def _prepare(gens, order):
    vecs = [ModuleVector.wrap(g) for g in gens]
    if not vecs:
        raise InvalidInput("need at least one generator")
    rank = vecs[0].rank
    for v in vecs[1:]:
        if v.rank != rank:
            raise RankMismatch("generators of unequal rank")
        check_same_field(vecs[0].field, v.field)
    field = vecs[0].field
    if order is None:
        order = ModuleOrder(TermOrder(), rank)
    elif isinstance(order, TermOrder):
        order = ModuleOrder(order, rank)
    return vecs, rank, field, order


def _seeds(vecs, coding, order):
    """Engine vectors of the nonzero vecs."""
    return [coding.encode(_vec_core(v, order.key))[0]
            for v in vecs if not v.is_zero()]


def buchberger(gens, order=None, track_cofactors: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of the module generated by ``gens``.

    With ``track_cofactors`` the result carries a transform matrix with
    basis[k] == sum(transform[k][i] * gens[i]) exactly.
    """
    vecs, rank, field, order = _prepare(gens, order)
    coding = _coding(field)
    if not track_cofactors:
        seeds = _seeds(vecs, coding, order)
        if not seeds:
            raise InvalidInput("all generators are zero")
        rows = [(core, t, None) for core, t in _run_buchberger(seeds, order, coding)]
    else:
        rows, _ = _augmented_run(vecs, rank, field, order)
        order = order.restricted(rank)
    cores = [(core, t, Rational(coding.lead(core[t]))) for core, t, _ in rows]
    transform = [tags for _, _, tags in rows] if track_cofactors else None
    return GroebnerBasis(None, order, field, rank, transform, cores)


def _augmented_run(vecs, rank, field, order):
    """Shared augmented computation.

    Returns (basis_rows, syzygy_rows): basis_rows are (vector, leading code,
    tag polys) for elements with a nonzero original block, packed for the
    restricted order; syzygy_rows are rank-s ModuleVectors spanning all
    relations among the inputs.
    """
    s = len(vecs)
    aug_order = ModuleOrder(order.base, rank + s, elim=rank)
    coding = _coding(field)
    seeds = []
    for k, v in enumerate(vecs):
        core = _vec_core(v, aug_order.key)
        core[aug_order.key((rank + k, 0, 0))] = field.one
        seeds.append(coding.encode(core)[0])
    basis_rows, syzygy_rows = [], []
    for core, lt in _run_buchberger(seeds, aug_order, coding):
        public = _public(core, lt, coding)
        if lt & _ELIM:
            # the first block; dropping the flag packs it for order.restricted
            first = {t - _ELIM: c for t, c in core.items() if t & _ELIM}
            tags = _core_vec(public, s, field, start=rank)
            basis_rows.append((coding.normalized(first, lt - _ELIM), lt - _ELIM,
                               list(tags.components)))
        else:
            syzygy_rows.append(_core_vec(public, s, field, start=rank))
    return basis_rows, syzygy_rows


def syzygies(gens, order=None):
    """Generators of the relation module {(a_i) : sum a_i * gens_i = 0}: its
    reduced Groebner basis under ModuleOrder(order.base, len(gens)).

    When rank-1 inputs g_1..g_s generate (1), which a tag-free run decides,
    the relations are generated by the Koszul rows
    k_ij = g_j*e_i - g_i*e_j: if sum a_j*g_j = 1 and sum r_i*g_i = 0, then
    r = sum_ij r_i*a_j*k_ij.  The augmented run orders its tag positions like
    ModuleOrder(base, s) and a reduced basis is unique, so both routes give
    the same rows; only a proper ideal or a module needs the augmented run.
    """
    vecs, rank, field, order = _prepare(gens, order)
    if rank == 1:
        coding = _coding(field)
        unit = _run_buchberger(_seeds(vecs, coding, order), order, coding)
        if len(unit) == 1 and _unpack(unit[0][1]) == (0, 0, 0):
            return _koszul_syzygies([v.components[0] for v in vecs], field, order)
    _, syz = _augmented_run(vecs, rank, field, order)
    return syz


def _koszul_syzygies(polys, field, order):
    """Reduced basis of the module of the Koszul rows of polys."""
    s = len(polys)
    syz_order = ModuleOrder(order.base, s)
    zero = Polynomial.zero(field)
    rows = []
    for i, j in combinations(range(s), 2):
        row = [zero] * s
        row[i], row[j] = polys[j], -polys[i]
        rows.append(ModuleVector(tuple(row)))
    coding = _coding(field)
    seeds = _seeds(rows, coding, syz_order)
    return [_core_vec(_public(core, t, coding), s, field)
            for core, t in _run_buchberger(seeds, syz_order, coding)]


def membership(v, gens, order=None) -> Membership:
    """Decide v in <gens>; on success the certificate recombines exactly."""
    vecs, rank, field, order = _prepare(gens, order)
    v = ModuleVector.wrap(v)
    if v.rank != rank:
        raise RankMismatch("query rank differs from the generators")
    gb = buchberger(vecs, order, track_cofactors=True)
    remainder, cof = gb.normal_form(v, track_cofactors=True)
    if not remainder.is_zero():
        return Membership(False, None, remainder)
    return Membership(True, gb.cofactors_on_inputs(cof))


def recombine(cofactors, gens) -> ModuleVector:
    """sum cofactors[i] * gens[i]; used to verify certificates exactly."""
    vecs = [ModuleVector.wrap(g) for g in gens]
    out = None
    for c, g in zip(cofactors, vecs):
        out = c * g if out is None else out + c * g
    return out

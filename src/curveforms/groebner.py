"""Buchberger Groebner bases for ideals in K[x,y] and submodules of K[x,y]^r.

One engine covers everything.  Cofactors live only in the tag positions of
an augmented run: each generator g_k is extended with a unit tag e_k and the
basis is computed under an order that eliminates the original block, so
output rows with a surviving first block form a basis of the module (their
tags expressing them in the inputs), while rows with a zero first block are
exactly the syzygies.  A run that tags only the first generators reads the
relations among them modulo the rest the same way, which is how the tangent
module is computed.  membership reduces (v | 0) by the first kind of row
once and reads the cofactors off the tags of the remainder.  A caller that
knows generators of a module (the forms that span the tangent module) takes
its reduced basis from a plain run instead, and annihilates checks each row
on the engine vectors.

Terms are packed: ModuleOrder.key codes a term (pos, i, j) as one int whose
integer order is the module order, so a leading term is a plain max() and
multiplying by a monomial adds a constant to every code.  Engine vectors are
integral, with an int per term over Q and an int tuple of the field's integer
coding over an extension, and a reduction step is fraction-free,
v <- a*v - b*m*g with the gcd cofactors (a, b) of the two leading
coefficients; a normalized leading coefficient is a positive rational
integer, so a is an int.  One loop serves both, with the field's helpers
chosen once per run.  Monic vectors appear only at the public boundary.

_normal_form_core does every reduction.  Every Buchberger and syzygy run,
membership and GroebnerBasis.normal_form look it up as a module global at
call time, and the first item of its result is empty exactly when the
remainder is zero, so wrapping it counts reductions and reductions to zero.

Pair pruning uses the Gebauer-Moeller rules.  The coprime-leading-term
criterion is only valid for ideals, so it is applied solely in rank 1, and
so is the exit at a first constant remainder, which proves the ideal (1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


def _vec_core(mv: ModuleVector, key):
    """Terms of mv packed with ``key``."""
    out = {}
    for pos, p in enumerate(mv.components):
        for (i, j), c in p.terms.items():
            out[key((pos, i, j))] = c
    return out


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


def _normal_form_core(vec, basis, lts, exact, coding):
    """Divide vec by the basis (leading codes lts): (remainder, mult) with
    mult a positive integer and some cofactors such that

        mult * vec == remainder + sum(cof[k][m] * m * basis[k]).

    Without ``exact`` only the remainder counts, up to a positive factor.
    Each step cancels the leading term of v against the first basis element
    whose leading term divides it, v <- a*v - b*m*g with (a, b) from
    coding.cross.  After every few steps that scaled v its content is
    removed: all of it without exact, else the part shared with mult.  The
    vectors hold the scalars of ``coding``.
    """
    cross, subtract, scaled = coding.cross, coding.subtract, coding.scaled
    heads = [_unpack(t) for t in lts]
    v, rem, mult, grown = dict(vec), {}, 1, 0
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
            v, rem = scaled(v, a), scaled(rem, a)
            mult, grown = mult * a, grown + 1
        subtract(v, b, basis[k], lts[k], t - lts[k])
        if grown > 3:
            div = coding.content(mult if exact else 0, (v, rem))
            if div > 1:
                v, rem = coding.divided(v, div), coding.divided(rem, div)
                mult //= div
            grown = 0
    return rem, mult


def _spair_core(g1, t1, g2, t2, lcm_code, coding):
    """S-vector a*m1*g1 - b*m2*g2, (a, b) from coding.cross, of two vectors
    whose leading codes t1, t2 lie in one position; m_k is the monomial whose
    code shift is lcm_code - t_k."""
    a, b = coding.cross(g1[t1], g2[t2])
    out = {s + lcm_code - t1: c for s, c in g1.items() if s != t1}
    out = out if a == 1 else coding.scaled(out, a)
    coding.subtract(out, b, g2, t2, lcm_code - t2)
    return out


def _run_buchberger(seeds, order: ModuleOrder, coding):
    """Reduced Groebner basis of the module generated by the seed vectors
    (engine vectors in the scalars of ``coding``, see its encode).

    Returns a list of (vector, leading code), normalized, sorted by leading
    term ascending.  Normal selection strategy; an elimination run selects by
    sugar first, which keeps a tagged run off cofactors of high degree.

    In rank 1 it returns at the first constant remainder, of a seed or an
    S-vector: the ideal is then (1), every later S-vector would reduce to
    zero and minimalization would drop every other element, so the full run
    returns that row alone.  A unit in one position is not a whole module.
    """
    keyf = order.key
    rank1 = order.rank == 1
    unit = keyf((0, 0, 0)) if rank1 else None

    G, codes, lts = [], [], []

    def lcm_term(t1, t2):
        return (t1[0], max(t1[1], t2[1]), max(t1[2], t2[2]))

    def divides(t1, t2):
        return t1[0] == t2[0] and t1[1] <= t2[1] and t1[2] <= t2[2]

    pairs = {}  # (i, j) -> (sugar, lcm code, lcm term)
    sugars, by_sugar = [], order.elim > 0

    def deg(code):
        return code >> _S_DEG & _MASK

    def update(new_core, new_code, sugar):
        """Gebauer-Moeller pair update for the arrival of a new element."""
        k = len(G)
        new_lt = _unpack(new_code)
        # drop old pairs strictly dominated by the newcomer
        for (i, j) in list(pairs):
            lij = pairs[(i, j)][2]
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
            i, code = min(members), keyf(L)
            pairs[(i, k)] = (deg(code) + max(sugars[i] - deg(codes[i]), sugar - deg(new_code)), code, L)
        G.append(new_core)
        sugars.append(sugar)
        codes.append(new_code)
        lts.append(new_lt)

    def vectors():
        for v in sorted(seeds, key=max):
            yield v, max(map(deg, v))
        while pairs:
            (i, j) = min(pairs, key=lambda p: (pairs[p][:2] if by_sugar else pairs[p][1], p))
            sugar, lcm_code, _ = pairs.pop((i, j))
            yield _spair_core(G[i], codes[i], G[j], codes[j], lcm_code, coding), sugar

    for v, sugar in vectors():
        rem, _ = _normal_form_core(v, G, codes, False, coding)
        if rem:
            t = max(rem)
            if t == unit:
                return [(coding.normalized(rem, t), t)]
            update(coding.normalized(rem, t), t, sugar)

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
                                   bcodes[:k] + bcodes[k + 1:], False, coding)
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
    """A reduced basis.

    ``_cores`` holds the engine's form of each generator: (vector, leading
    code), the vector a normalized multiple of the generator.  Everything
    but ``generators`` works on them; those are decoded on first read."""

    def __init__(self, generators, order, field, rank, cores=None):
        self.order = order
        self.field = field
        self.rank = rank
        coding = self.coding = _coding(field)
        if cores is None:
            self.generators, cores = list(generators), []
            for g in self.generators:
                core = coding.encode(_vec_core(g, order.key))[0]
                t = max(core)
                cores.append((coding.normalized(core, t), t))
        self._cores = cores

    @cached_property
    def generators(self):
        return [_core_vec(_public(core, t, self.coding), self.rank, self.field)
                for core, t in self._cores]

    def __len__(self):
        return len(self._cores)

    def leading_terms(self):
        return [_unpack(t) for _, t in self._cores]

    def _reduce(self, v):
        """(vector, scale): the remainder of v is scale * vector, an engine vector."""
        v = ModuleVector.wrap(v)
        if v.rank != self.rank:
            raise RankMismatch(f"rank {v.rank} against a rank-{self.rank} basis")
        check_same_field(self.field, v.field)
        core, scale = self.coding.encode(_vec_core(v, self.order.key))
        rem, mult = _normal_form_core(core, [c for c, _ in self._cores],
                                      [t for _, t in self._cores], True, self.coding)
        return rem, scale if mult == 1 else scale / mult

    def normal_form(self, v):
        """Remainder of v."""
        rem, scale = self._reduce(v)
        return _core_vec(self.coding.decode(rem, scale), self.rank, self.field)

    def reduces_to_zero(self, v) -> bool:
        return not self._reduce(v)[0]

    def annihilates(self, gens) -> bool:
        """Is every generator (a_k) a relation among the first rank polynomials
        of gens modulo the last: does gens[-1] divide sum a_k * gens[k]?  Each
        sum, from _combinations, reduces to zero against the coded gens[-1];
        a zero gens[-1] divides only a zero sum, so it reduces by nothing."""
        if len(gens) != self.rank + 1:
            raise RankMismatch(f"rank {self.rank} takes {self.rank + 1} polynomials, not {len(gens)}")
        key, coding = self.order.key, self.coding
        coded = coding.encode(_vec_core(ModuleVector(tuple(gens[:-1])), key))[0]
        # coded and normalized, as the engine divides by it
        modulus = GroebnerBasis([ModuleVector(gens[-1:])], self.order, self.field,
                                1)._cores if gens[-1] else []
        divisors, lts = [d for d, _ in modulus], [t for _, t in modulus]
        return not any(_normal_form_core(acc, divisors, lts, False, coding)[0] for acc
                       in _combinations((core for core, _ in self._cores), coded, key, coding))

    def irredundant(self, candidates) -> set:
        """Indices of the generators kept by greedy pruning: each candidate in
        turn goes if a run on the engine vectors of the rest generates it."""
        vecs, kept = [core for core, _ in self._cores], set(range(len(self)))
        for k in candidates:
            if len(kept) == 1:
                break
            rows = _run_buchberger([vecs[m] for m in kept - {k}], self.order, self.coding)
            if not _normal_form_core(vecs[k], [v for v, _ in rows], [t for _, t in rows],
                                     False, self.coding)[0]:
                kept.remove(k)
        return kept


def _combinations(rows, gens, key, coding):
    """-sum a_k * g_k at position 0 for each row; a_k, g_k at position k of row, gens."""
    shifted = {}
    for t, c in gens.items():
        pos, i, j = _unpack(t)
        shifted.setdefault(pos, {})[key((0, i, j)) - key((pos, 0, 0))] = c
    for row in rows:
        acc = {}
        for t, c in row.items():
            coding.subtract(acc, c, shifted.get(_unpack(t)[0], {}), None, t)
        yield acc


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


def buchberger(gens, order=None) -> GroebnerBasis:
    """Reduced Groebner basis of the module generated by ``gens``."""
    vecs, rank, field, order = _prepare(gens, order)
    coding = _coding(field)
    seeds = _seeds(vecs, coding, order)
    if not seeds:
        raise InvalidInput("all generators are zero")
    return GroebnerBasis(None, order, field, rank, _run_buchberger(seeds, order, coding))


def _augmented_run(vecs, rank, field, order, tagged=None):
    """Reduced basis rows (vector, leading code) of the vectors (vecs[k] | e_k)
    for the first ``tagged`` vecs (all by default) and (vecs[k] | 0) for the
    rest, under the order on rank + tagged positions that eliminates the
    first rank, each block ordered by order.base.  Every row (g | a) has
    g == sum a_k * vecs[k] plus an element of <vecs[tagged:]>.  The rows
    whose leading code carries _ELIM are those with g != 0, and their g form
    a basis of <vecs>; the a of the others span the relations among
    vecs[:tagged] modulo <vecs[tagged:]>."""
    tagged = len(vecs) if tagged is None else tagged
    aug_order = ModuleOrder(order.base, rank + tagged, elim=rank)
    coding = _coding(field)
    seeds = []
    for k, v in enumerate(vecs):
        core = _vec_core(v, aug_order.key)
        if k < tagged:
            core[aug_order.key((rank + k, 0, 0))] = field.one
        seeds.append(coding.encode(core)[0])
    return _run_buchberger(seeds, aug_order, coding)


def _relations(gens, order=None, tagged=None) -> GroebnerBasis:
    """Reduced basis, under ModuleOrder(order.base, tagged), of the relations
    (a_k) with sum a_k * gens_k in <gens[tagged:]>: the tag blocks of the
    augmented run's rows with a zero first block.  The run orders its tag
    block like that order, positions shifted by the rank of gens, so moving
    a row adds rank << _S_POS to every code."""
    vecs, rank, field, order = _prepare(gens, order)
    tagged = len(vecs) if tagged is None else tagged
    shift = rank << _S_POS
    cores = [({s + shift: c for s, c in core.items()}, t + shift)
             for core, t in _augmented_run(vecs, rank, field, order, tagged)
             if not t & _ELIM]
    return GroebnerBasis(None, ModuleOrder(order.base, tagged), field, tagged, cores)


def syzygies(gens, order=None):
    """Generators of the relation module {(a_i) : sum a_i * gens_i = 0}: its
    reduced Groebner basis under ModuleOrder(order.base, len(gens))."""
    return _relations(gens, order).generators


def membership(v, gens, order=None) -> Membership:
    """Decide v in <gens>; on success the certificate recombines exactly.

    One reduction of (v | 0) against the augmented rows (g | a) with a
    flagged leading code leaves (r | -a) with mult * v == r + sum a_i * gens_i.
    The terms of the first block carry the flag, so they lead while any
    remain and every step picks the divisor that the division by the basis
    of first blocks under ModuleOrder(order.base, rank) would: r / mult is
    the normal form of v, and a / mult its cofactors on the inputs."""
    vecs, rank, field, order = _prepare(gens, order)
    v = ModuleVector.wrap(v)
    if v.rank != rank:
        raise RankMismatch("query rank differs from the generators")
    check_same_field(field, v.field)
    coding = _coding(field)
    rows = [row for row in _augmented_run(vecs, rank, field, order) if row[1] & _ELIM]
    key = ModuleOrder(order.base, rank + len(vecs), elim=rank).key
    core, scale = coding.encode(_vec_core(v, key))
    rem, mult = _normal_form_core(core, [c for c, _ in rows], [t for _, t in rows],
                                  True, coding)
    remainder = _core_vec(coding.decode(rem, scale / mult), rank, field)
    if not remainder.is_zero():
        return Membership(False, None, remainder)
    tags = _core_vec(coding.decode(rem, -scale / mult), len(vecs), field, start=rank)
    return Membership(True, list(tags.components))


def recombine(cofactors, gens) -> ModuleVector:
    """sum cofactors[i] * gens[i]; used to verify certificates exactly."""
    terms = [c * ModuleVector.wrap(g) for c, g in zip(cofactors, gens)]
    return sum(terms[1:], terms[0]) if terms else None

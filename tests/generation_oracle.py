"""Reference raw, generation and minimal stages on field scalars.

The library takes its raw set from one rank-2 run on forms that span the
tangent module, decides generation on an untracked basis and prunes a basis
on the engine's integer vectors.  These are the earlier bodies they
replace: the raw basis from the candidate's forms lifted to relations
(p, q, c) among (-f_y, f_x, f), each row checked exactly, then projected to
(p, q) by ``projected``, built here from public generators since the
library reads (p, q) directly as relations among (-f_y, f_x) modulo f;
generation decided by cofactor-tracked normal forms, each success
row checked by recombination; and greedy pruning by public Buchberger runs
on decoded forms.  The tracked normal forms are the rational oracle's
(tests/rational_oracle.py), since the engine tracks no cofactors outside
membership; the rest uses only the public Groebner layer.
"""

from curveforms import (GeneratorSet, GroebnerBasis, InvariantViolation,
                        ModuleOrder, ModuleVector, OneForm, Polynomial,
                        buchberger, format_one_form, recombine)
import rational_oracle


def projected(gb, rank):
    """The first ``rank`` positions, under ModuleOrder(base, rank), of a basis
    without an elimination block whose leading terms all lie there.  A
    standard representation puts every element's leading term at a basis
    leading term, so the projection is injective and keeps leading terms,
    and the projected generators, which lose only tail terms, are reduced."""
    for pos, i, j in gb.leading_terms():
        if pos >= rank:
            raise InvariantViolation(f"leading term {(pos, i, j)} beyond rank {rank}")
    return GroebnerBasis([ModuleVector(g.components[:rank]) for g in gb.generators],
                         ModuleOrder(gb.order.base, rank), gb.field, rank)


def lifted_raw_basis(f, order=None, omega=None, theta=None):
    """The projection to (p, q) of the reduced basis of the lifts
    f dx -> (f, 0, f_y), f dy -> (0, f, -f_x), df -> (f_x, f_y, 0) and,
    given a kernel form with df ^ omega = theta*f, omega -> (P, Q, -theta).
    It is the reduced basis of the tangent module when
    <f, f_x, f_y> (with omega also theta, P, Q) is (1)."""
    fx, fy, zero = f.diff("x"), f.diff("y"), Polynomial.zero(f.field)
    lifts = [(f, zero, fy), (zero, f, -fx), (fx, fy, zero)]
    if omega is not None:
        lifts.append((omega.P, omega.Q, -theta))
    rels = buchberger([ModuleVector(r) for r in lifts], order)
    for row in rels.generators:
        assert recombine(row.components, [-fy, fx, f]).is_zero()
    return projected(rels, 2)


def _forms(gens):
    return gens.forms if isinstance(gens, GeneratorSet) else list(gens)


def verify_generation(candidate, reference):
    """(generates, witness, certificates), the witness the first reference
    form outside <candidate>; every certificate row is checked to recombine
    to its reference form."""
    cand_forms, ref_forms = _forms(candidate), _forms(reference)
    gb = rational_oracle.buchberger(cand_forms, track_cofactors=True)
    rows = []
    for w in ref_forms:
        rem, cof = gb.normal_form(w, track_cofactors=True)
        if not rem.is_zero():
            return False, w, None
        rows.append(gb.cofactors_on_inputs(cof))
        assert recombine(rows[-1], cand_forms) == w
    return True, None, rows


def minimal_generators(gens, order=None):
    """Greedy pruning of the reduced basis, largest candidate first, each
    step a Buchberger run on the decoded forms of the rest."""
    gb = buchberger(gens.forms, order)
    kept = [OneForm(*v.components) for v in gb.generators]
    for w in sorted(kept, key=lambda u: (u.total_degree(), format_one_form(u)),
                    reverse=True):
        if len(kept) == 1:
            break
        rest = [u for u in kept if u is not w]
        if buchberger(rest, order).reduces_to_zero(w):
            kept = rest
    kept.sort(key=lambda u: (u.total_degree(), format_one_form(u)))
    return GeneratorSet("minimal", kept, gens.f)

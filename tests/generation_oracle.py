"""Reference generation and minimal stages on field scalars.

The library decides generation on an untracked basis and prunes a basis on
the engine's integer vectors.  These are the earlier bodies they replace:
generation decided by cofactor-tracked normal forms, each success row
checked by recombination, and greedy pruning by public Buchberger runs on
decoded forms.  Both use only the public Groebner layer.
"""

from curveforms import (GeneratorSet, OneForm, buchberger, format_one_form,
                        recombine)


def _forms(gens):
    return gens.forms if isinstance(gens, GeneratorSet) else list(gens)


def verify_generation(candidate, reference):
    """(generates, witness, certificates), the witness the first reference
    form outside <candidate>; every certificate row is checked to recombine
    to its reference form."""
    cand_forms, ref_forms = _forms(candidate), _forms(reference)
    gb = buchberger(cand_forms, track_cofactors=True)
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

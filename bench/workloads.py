"""Inputs of the benchmark workloads.

Every workload is a list of `Case`s.  A case names one curve and the
library path that runs on it; the runner parses the text inside the timed
region, so parsing counts as work.  `milnor-linsneto` and `derlog-syzygy`
are fixed sets; `small-batch` is drawn from a seeded generator and depends
on nothing but the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

LINS_NETO = "(x^3-1)*(y^3-1)*(x^3-y^3)"
GAUSS_MINPOLY = "z^2+1"

SMALL_BATCH_SIZE = 150
SMALL_BATCH_DEGREES = (3, 3, 4)
DESIGN_SEED = 0
SMALL_BATCH_EXT_EVERY = 5     # one curve in five is over Q(i)
SMALL_COEFFS = (1, 2, 3, -1, -2, -3)


@dataclass(frozen=True)
class Case:
    key: str                  # stable identifier, used to look up references
    text: str                 # polynomial in the curveforms grammar
    path: str                 # "analyze" (full pipeline) or "derlog" (library path)
    minpoly: Optional[str] = None   # field generator's minimal polynomial, or Q
    allow_untame: bool = False


def milnor_linsneto():
    return [Case("linsneto-3", LINS_NETO, "analyze", allow_untame=True)]


def derlog_syzygy():
    # n = 6 and n = 9 of the deformed family do not finish within minutes
    # (the syzygy run's coefficients blow up); sweep.py records them as
    # timeouts, and a benchmark run has to end within its time limit.
    cases = [Case(f"deformed-{n}", f"x^{n}+y^{n}-x^2*y^2+3*x^3*y-1", "derlog")
             for n in (5, 7, 8)]
    cases += [Case(f"acampo-{n}", f"x^{n}+y^{n}-x^2*y^2", "derlog") for n in (5, 7)]
    cases.append(Case("linsneto-3", LINS_NETO, "derlog"))
    return cases


def _monomial(i: int, j: int) -> str:
    parts = [f"{v}^{e}" if e > 1 else v for v, e in (("x", i), ("y", j)) if e]
    return "*".join(parts)


def small_design():
    """The fixed part of `small-batch`: per slot the degree d, the lower
    monomials and the field.

    Degrees cycle 3, 3, 4, so the median curve time falls among the degree-3
    curves instead of in the gap between the two degrees; the number of
    lower terms cycles through 1..4 and every fifth curve is over Q(i).
    The monomials are drawn once, with DESIGN_SEED: how generic a support
    is decides most of a curve's cost, so drawing them per seed made the
    batch's time depend on the seed as much as on the program."""
    rng = random.Random(DESIGN_SEED)
    design = []
    for k in range(SMALL_BATCH_SIZE):
        d = SMALL_BATCH_DEGREES[k % len(SMALL_BATCH_DEGREES)]
        n_lower = 1 + (k // len(SMALL_BATCH_DEGREES)) % 4
        lower = [(i, j) for i in range(d) for j in range(d - i)]
        support = sorted(rng.sample(lower, n_lower), reverse=True)
        design.append((d, support, k % SMALL_BATCH_EXT_EVERY == 0))
    return design


def small_curve(rng: random.Random, index: int, d: int, support, ext: bool) -> Case:
    """x^d + c*y^d plus one term per monomial of `support` (all of total
    degree < d), coefficients drawn from +-{1, 2, 3}; `ext` puts the curve
    over Q[z]/(z^2+1).

    The leading form x^d + c*y^d has no repeated factor, so every curve is
    tame for the weights (1, 1) whatever the lower terms are.
    """
    terms = [f"x^{d}", f"({rng.choice(SMALL_COEFFS)})*y^{d}"]
    for i, j in support:
        coeff = f"({rng.choice(SMALL_COEFFS)})"
        terms.append(f"{coeff}*{_monomial(i, j)}" if i or j else coeff)
    return Case(f"small-{index:03d}", "+".join(terms), "analyze",
                minpoly=GAUSS_MINPOLY if ext else None)


def small_batch(seed: int):
    """SMALL_BATCH_SIZE curves on the fixed design; the seed draws every
    coefficient and the order of the curves."""
    rng = random.Random(seed)
    design = small_design()
    rng.shuffle(design)
    return [small_curve(rng, k, *slot) for k, slot in enumerate(design)]


WORKLOADS = {
    "milnor-linsneto": lambda seed: milnor_linsneto(),
    "derlog-syzygy": lambda seed: derlog_syzygy(),
    "small-batch": small_batch,
}


def make_cases(workload: str, seed: int):
    return WORKLOADS[workload](seed)

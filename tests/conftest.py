"""Shared strategies and an independent naive-polynomial oracle.

The oracle works on plain {(i, j): Fraction} dicts with stdlib arithmetic
so that derived expected values never travel through the code under test.
"""

from fractions import Fraction

import hypothesis.strategies as st

from curveforms import QQ, Polynomial


# -- naive dict-polynomial oracle -------------------------------------------

def nmul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


def nadd(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def nsub(a, b):
    return nadd(a, {k: -v for k, v in b.items()})


def nscale(a, c):
    c = Fraction(c)
    return {k: v * c for k, v in a.items() if v * c}


def ndiff(a, var):
    out = {}
    for (i, j), c in a.items():
        if var == "x" and i:
            out[(i - 1, j)] = c * i
        if var == "y" and j:
            out[(i, j - 1)] = c * j
    return out


def as_poly(naive):
    """Lift an oracle dict into the library representation for comparison."""
    return Polynomial(QQ, {m: QQ.from_rational(c) for m, c in naive.items()})


def poly_dict(p):
    """Dump a library polynomial into oracle representation."""
    return {m: Fraction(c.numerator, c.denominator)
            for m, c in p.terms.items()}


# -- hypothesis strategies ---------------------------------------------------

@st.composite
def polynomials(draw, max_degree=3, max_terms=4, coeff_bound=5,
                nonzero=False):
    n = draw(st.integers(1 if nonzero else 0, max_terms))
    terms = {}
    for _ in range(n):
        mono = (draw(st.integers(0, max_degree)),
                draw(st.integers(0, max_degree)))
        coeff = draw(st.integers(-coeff_bound, coeff_bound))
        if coeff:
            terms[mono] = QQ.from_int(coeff)
    p = Polynomial(QQ, terms)
    if nonzero and p.is_zero():
        p = Polynomial(QQ, {(1, 0): QQ.one})
    return p


@st.composite
def tame_curves(draw, field):
    """x^d + c*y^d plus up to four terms of lower degree, c != 0, so the top
    form has the finite quotient K[x,y]/<x^(d-1), y^(d-1)>."""
    small = st.integers(-3, 3)
    degree = len(field.coeffs(field.one))

    def scalar(nonzero=False):
        coords = draw(st.lists(small, min_size=degree, max_size=degree)
                      .filter(lambda c: any(c) or not nonzero))
        return field.scalar(coords)

    d = draw(st.sampled_from([3, 4]))
    terms = {(d, 0): field.one, (0, d): scalar(nonzero=True)}
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, d - 1))
        terms[(i, draw(st.integers(0, d - 1 - i)))] = scalar()
    return Polynomial(field, terms)


def through_origin(f):
    """f without its constant and linear terms: f = 0 is singular at 0."""
    return Polynomial(f.field, {m: c for m, c in f.terms.items() if sum(m) >= 2})


def recording_calls(monkeypatch, owner, *names):
    """Count the calls of the named functions or methods of ``owner`` (a
    module or a class); returns the live {name: count} dict."""
    calls = {name: 0 for name in names}
    for name in names:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    return calls

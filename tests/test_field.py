"""Scalar arithmetic over Q and simple extensions."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import curveforms
from curveforms import (DivisionByZero, FieldMismatch, NumberField, QQ,
                        parse_scalar, rational)


GAUSS = NumberField((1, 0, 1))          # z^2 + 1
GOLDEN = NumberField((-1, -1, 1))       # z^2 - z - 1


def test_rational_addition():
    assert rational(1, 2) + rational(1, 3) == rational(5, 6)


def test_rational_canonical_form():
    r = rational(-4, -6)
    assert r.numerator == 2 and r.denominator == 3


def test_gauss_generator_square():
    z = GAUSS.generator
    assert z * z == GAUSS.from_int(-1)


def test_golden_generator_square():
    z = GOLDEN.generator
    assert z * z == z + GOLDEN.one


def test_rational_inverse():
    assert QQ.inv(rational(2, 3)) == rational(3, 2)


def test_gauss_inverse_of_generator():
    z = GAUSS.generator
    inv = GAUSS.inv(z)
    assert z * inv == GAUSS.one
    assert inv == -z  # z^2 = -1 forces 1/z = -z


def test_golden_inverse_of_generator():
    z = GOLDEN.generator
    inv = GOLDEN.inv(z)
    assert z * inv == GOLDEN.one
    assert inv == z - GOLDEN.one  # z(z-1) = z^2 - z = 1


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        QQ.inv(QQ.zero)
    with pytest.raises(DivisionByZero):
        GAUSS.inv(GAUSS.zero)


def test_division_by_zero_scalar():
    with pytest.raises(ZeroDivisionError):
        GAUSS.one / GAUSS.zero


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        GAUSS.generator + GOLDEN.generator


def test_minpoly_validation():
    with pytest.raises(ValueError):
        NumberField((1, 1))        # degree 1
    with pytest.raises(ValueError):
        NumberField((1, 0, 2))     # not monic
    with pytest.raises(ValueError):
        NumberField((1, 2, 1))     # (z+1)^2 not squarefree


def test_reducible_minpoly_flagged_on_inversion():
    # z^2 - 1 is squarefree but reducible; z - 1 is a zero divisor
    field = NumberField((-1, 0, 1))
    bad = field.generator - field.one
    with pytest.raises(DivisionByZero):
        field.inv(bad)


@pytest.mark.parametrize("text,field", [
    ("5/6", QQ),
    ("-7", QQ),
    ("0", QQ),
    ("3/2*z+1", GAUSS),
    ("-z", GAUSS),
    ("z^2+z", NumberField((1, 1, 0, 1))),
])
def test_scalar_print_parse_round_trip(text, field):
    value = parse_scalar(text, field)
    assert parse_scalar(field.format_scalar(value), field) == value


scalars_q = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _gauss(fr_pair):
    return GAUSS.scalar([rational(f.numerator, f.denominator)
                         for f in fr_pair])


pairs = st.tuples(scalars_q, scalars_q)


@settings(max_examples=150, deadline=None)
@given(pairs, pairs, pairs)
def test_extension_field_axioms(a, b, c):
    x, y, z = _gauss(a), _gauss(b), _gauss(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if x:
        assert x * GAUSS.inv(x) == GAUSS.one


@settings(max_examples=150, deadline=None)
@given(pairs)
def test_extension_round_trip(a):
    x = _gauss(a)
    assert parse_scalar(GAUSS.format_scalar(x), GAUSS) == x


def test_embed_float():
    phi = 1.618033988749895
    z = GOLDEN.generator
    value = z * z + z  # = 2z + 1
    assert abs(GOLDEN.embed_float(value, phi) - (2 * phi + 1)) < 1e-12


def test_embed_float_requires_embedding():
    from curveforms import MissingEmbedding
    with pytest.raises(MissingEmbedding):
        GAUSS.embed_float(GAUSS.generator)
    assert GAUSS.embed_float(GAUSS.from_int(3)) == 3.0


REIMPORT_SCRIPT = """
import gc, sys

def reimport():
    for name in [n for n in sys.modules if n.split(".")[0] == "curveforms"]:
        del sys.modules[name]
    import curveforms

def live_classes():
    gc.collect()
    return sum(1 for o in gc.get_objects()
               if isinstance(o, type) and o.__module__.startswith("curveforms"))

reimport()
before = live_classes()
for _ in range(20):
    reimport()
print(before, live_classes())
"""


def test_reimport_releases_old_modules():
    # a typing.Union of package classes is cached by typing and would pin
    # every earlier copy of the module; run apart from this process's imports
    src = os.path.dirname(os.path.dirname(curveforms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", REIMPORT_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    before, after = map(int, out.stdout.split())
    assert after <= before

"""Per-layer spans recorded from outside the package.

`Tracer.install` wraps the public functions that the benchmark reports on.
Every wrapped call records a span (name, start, end, parent, curve id) in
memory; self time is the span's duration minus the time its child spans
cover.  The package binds several functions by name at import
(`from .groebner import buchberger` in `milnor` and `tangent`, the
re-exports in `curveforms/__init__`), so every module-level binding of an
original function is replaced, not only the defining module's.

The reduction helper `groebner._normal_form_core` is not public, but it
does the work of every Buchberger and syzygy run, which look it up as a
module global.  It runs too often for a span per call, so it is wrapped
with counters only: every reduction, and every one whose remainder is zero.

Nothing is wrapped until `install` runs, and `uninstall` restores every
binding, so an untraced pass runs the package's own code only.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, qualified name) -> layer name used in the metrics.  Special
# methods are reported under their operator name: Matrix.__mul__ is
# "linalg.Matrix.mul".
TRACED = [
    ("analysis", "analyze"),
    ("milnor", "milnor_algebra"),
    ("milnor", "multiplication_operator"),
    ("milnor", "min_poly"),
    ("milnor", "jordan_profile"),
    ("milnor", "theta_polynomial"),
    ("milnor", "kernel_condition"),
    ("linalg", "matrix_min_poly"),
    ("linalg", "Matrix.rank"),
    ("linalg", "Matrix.__mul__"),
    ("linalg", "UniPoly.eval_matrix"),
    ("linalg", "UniPoly.squarefree_decompose"),
    ("groebner", "buchberger"),
    ("groebner", "syzygies"),
    ("groebner", "membership"),
    ("groebner", "GroebnerBasis.normal_form"),
    ("tangent", "syzygy_generators"),
    ("tangent", "verify_generation"),
    ("tangent", "minimal_generators"),
    ("tangent", "saito_check"),
    ("tangent", "is_tangent"),
    ("tangent", "omega_from_theta"),
    ("poly", "parse_polynomial"),
    ("poly", "Polynomial.__mul__"),
    ("field", "ExtElement.__mul__"),
    ("field", "NumberField.inv"),
]

CURVE_SPAN = "bench.curve"      # one top-level span around each curve
INSPECT_SPAN = "bench.inspect"  # the tracer's own reading of results
REDUCTIONS = "groebner.reductions"            # _normal_form_core calls
ZERO_REDUCTIONS = "groebner.reductions.zero"  # ... with a zero remainder


def layer_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.replace('__', '')}"


def coeff_bits(c) -> int:
    """Bit size of a scalar: the larger of numerator and denominator, over
    every coordinate of an extension element."""
    parts = getattr(c, "coeffs", (c,))
    return max(max(p.numerator.bit_length(), p.denominator.bit_length())
               for p in parts)


def _vectors_bits(vectors) -> int:
    return max((coeff_bits(c) for v in vectors for p in v.components
                for c in p.terms.values()), default=0)


class Tracer:
    """Span recorder; one instance per traced pass set."""

    def __init__(self):
        self.names = []          # span name id -> name
        self._ids = {}
        self.spans = []          # (name id, start, end, parent index, curve)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.curve = None
        self._stack = []         # [span index, time covered by children]
        self._patched = []       # (owner, attribute, original)
        self.progress = None     # called with the name of each span opened
                                 # at depth <= 2 (the sweep's progress lines)

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        if self.progress is not None and len(self._stack) <= 2:
            self.progress(name)
        start = perf_counter()
        self.spans.append((self._name_id(name), start, None, parent, self.curve))
        self._stack.append([len(self.spans) - 1, 0.0])

    def exit(self):
        end = perf_counter()
        index, covered = self._stack.pop()
        nid, start, _, parent, curve = self.spans[index]
        self.spans[index] = (nid, start, end, parent, curve)
        duration = end - start
        name = self.names[nid]
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def call(self, name, fn, args, kwargs, inspect=None):
        self.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.exit()
        if inspect is not None:
            self.enter(INSPECT_SPAN)
            try:
                inspect(self, result)
            finally:
                self.exit()
        return result

    def run_curve(self, curve_id, fn, *args):
        """Run one curve's work under a top-level span."""
        self.curve = curve_id
        try:
            return self.call(CURVE_SPAN, fn, args, {})
        finally:
            self.curve = None

    # -- wrapping ------------------------------------------------------------

    def install(self, package):
        """Wrap every traced function at every binding in the package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for module_name, qualname in TRACED:
            module = getattr(package, module_name)
            name = layer_name(module_name, qualname)
            inspect = INSPECTORS.get(name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapper = self._wrapper(name, original, inspect)
                # aliases such as `__rmul__ = __mul__` share the original
                for alias, value in list(owner.__dict__.items()):
                    if value is original:
                        self._patch(owner, alias, wrapper)
            else:
                original = getattr(module, qualname)
                wrapper = self._wrapper(name, original, inspect)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, alias, wrapper)
        self._count_reductions(package.groebner)

    def _count_reductions(self, groebner):
        original = groebner._normal_form_core
        counters = self.counters

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counters[REDUCTIONS] += 1
            counters[ZERO_REDUCTIONS] += not result[0]
            return result
        self._patch(groebner, "_normal_form_core", counted)

    def _wrapper(self, name, original, inspect):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, inspect)
        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_sum(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path):
        """One JSON object per line: name, start, end, parent, curve."""
        with open(path, "w") as out:
            for nid, start, end, parent, curve in self.spans:
                out.write(json.dumps({"name": self.names[nid], "start": start,
                                      "end": end, "parent": parent,
                                      "curve": curve}) + "\n")


# -- result inspection: counts read from what the layer returned ------------

def _inspect_buchberger(tracer, gb):
    tracer.maxima["groebner.basis_len.max"] = max(
        tracer.maxima["groebner.basis_len.max"], len(gb))
    tracer.maxima["groebner.out_coeff_bits.max"] = max(
        tracer.maxima["groebner.out_coeff_bits.max"], _vectors_bits(gb.generators))


def _inspect_syzygies(tracer, rows):
    tracer.maxima["groebner.out_coeff_bits.max"] = max(
        tracer.maxima["groebner.out_coeff_bits.max"], _vectors_bits(rows))


def _inspect_milnor_algebra(tracer, ma):
    tracer.maxima["milnor.mu.max"] = max(tracer.maxima["milnor.mu.max"], ma.mu)


INSPECTORS = {
    "groebner.buchberger": _inspect_buchberger,
    "groebner.syzygies": _inspect_syzygies,
    "milnor.milnor_algebra": _inspect_milnor_algebra,
}

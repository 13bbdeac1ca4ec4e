"""What every benchmark entry point shares: loading the package from the
checkout's `src/`, the environment record, running one case through the
public library functions, and reading the named facts out of its result.
"""

from __future__ import annotations

import importlib
import os
import platform
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = "curveforms"


class PackageMissing(RuntimeError):
    """The checkout holds no importable curveforms source tree."""


def load_package(fresh: bool = False):
    """Import curveforms from the checkout's own `src/` and nowhere else.

    With `fresh`, every curveforms module is dropped from `sys.modules`
    first, so the import runs the modules' code again (set-up timing)."""
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        raise PackageMissing(f"no {PACKAGE} package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if fresh:
        for name in [n for n in sys.modules
                     if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
    cf = importlib.import_module(PACKAGE)
    where = os.path.dirname(os.path.abspath(cf.__file__))
    if where != os.path.join(SRC, PACKAGE):
        raise PackageMissing(f"{PACKAGE} was imported from {where}, not {SRC}")
    return cf


def environment(cf) -> dict:
    """Recorded with every result; results of different backends are not
    comparable."""
    rational = cf.field.Rational
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": f"{rational.__module__}.{rational.__name__}",
        "nproc": os.cpu_count(),
    }


def field_for(cf, case):
    return cf.poly.field_from_minpoly(case.minpoly) if case.minpoly else cf.QQ


def execute(cf, case):
    """The timed work of one case, through the public library functions.

    `analyze` runs the whole pipeline; `derlog` is the library path
    syzygy_generators -> minimal_generators -> saito_check."""
    f = cf.poly.parse_polynomial(case.text, field_for(cf, case))
    if case.path == "analyze":
        return cf.analysis.analyze(f, allow_untame=case.allow_untame)
    raw = cf.tangent.syzygy_generators(f)
    pair = cf.tangent.minimal_generators(raw)
    saito = cf.tangent.saito_check(pair.forms, f) if len(pair) == 2 else None
    return f, raw, pair, saito


def _forms(cf, forms):
    fmt = cf.poly.format_polynomial
    return [[fmt(w.P), fmt(w.Q)] for w in forms]


def facts(cf, case, output) -> dict:
    """Named facts of one result, compared field by field with references;
    a later report key (say the Tjurina number) changes none of them."""
    if case.path == "analyze":
        doc = output.to_dict()
        saito = doc.get("saito") or {}
        return {
            "tame": doc["tame"],
            "mu": doc.get("mu"),
            "min_poly": doc.get("min_poly"),
            "jordan": doc.get("jordan"),
            "kernel_condition": doc.get("kernel_condition"),
            "generates": (doc.get("generation") or {}).get("generates"),
            "minimal": [[w["P"], w["Q"]] for w in doc["generators"]["minimal"]],
            "saito_constant": saito.get("constant"),
        }
    f, raw, pair, saito = output
    return {
        "syzygy_count": len(raw),
        "minimal": _forms(cf, pair.forms),
        "saito_constant": (f.field.format_scalar(saito.constant)
                           if saito is not None and saito.free else None),
    }


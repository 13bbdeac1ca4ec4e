"""Output checks, run outside the timed region.

Two independent checks:

* references: named facts recorded by `record_references.py` are compared
  field by field.  They exist for the fixed workloads and, on
  `small-batch`, for the default seed only;
* sympy: on every workload and seed, the curve is read from the input
  text, not from the package; there must be at least two minimal forms,
  none of them zero, every one P dx + Q dy must satisfy
  f | f_x*Q - f_y*P, and a reported Saito constant c must satisfy
  w0 ^ winf = c*f.
"""

from __future__ import annotations

import json
import os

from harness import BENCH_DIR

REFERENCE_FILE = os.path.join(BENCH_DIR, "references.json")
DEFAULT_SEED = 1
SEEDED = {"small-batch"}        # workloads whose inputs depend on the seed


def load_references() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def reference_for(refs: dict, workload: str, seed: int, case):
    """The recorded entry {"text", "facts"} for a case, or None when the
    workload has no references for this seed."""
    if workload in SEEDED and seed != refs["seed"]:
        return None
    return refs["workloads"].get(workload, {}).get(case.key)


def compare_reference(entry, case, got: dict) -> list:
    """Names of the facts that differ from the reference."""
    if entry is None:
        return []
    if entry["text"] != case.text:
        return ["input text"]
    return [name for name, want in entry["facts"].items() if got.get(name) != want]


def _sympy_expr(text: str, gaussian: bool):
    import sympy
    names = {"x": sympy.Symbol("x"), "y": sympy.Symbol("y")}
    if gaussian:
        names["z"] = sympy.I
    return sympy.sympify(text.replace("^", "**"), locals=names)


def sympy_problems(case, got: dict) -> list:
    """Independent check of the minimal forms and the Saito constant
    against the input curve `case.text`."""
    import sympy
    if case.minpoly not in (None, "z^2+1"):
        raise ValueError(f"no sympy model for the field {case.minpoly}")
    gaussian = case.minpoly is not None
    domain = sympy.QQ_I if gaussian else sympy.QQ
    x, y = sympy.symbols("x y")
    f = sympy.expand(_sympy_expr(case.text, gaussian))
    fx, fy = sympy.diff(f, x), sympy.diff(f, y)
    problems = []
    forms = [(_sympy_expr(p, gaussian), _sympy_expr(q, gaussian))
             for p, q in got["minimal"]]
    if len(forms) < 2:
        problems.append(f"{len(forms)} minimal forms, fewer than two")
    for k, (p, q) in enumerate(forms):
        if p == 0 and q == 0:
            problems.append(f"minimal form {k} is zero")
            continue
        defect = sympy.expand(fx * q - fy * p)
        if defect != 0 and sympy.div(defect, f, x, y, domain=domain)[1] != 0:
            problems.append(f"minimal form {k} is not tangent")
    constant = got["saito_constant"]
    if constant is not None:
        if len(forms) != 2:
            problems.append("Saito constant without a pair")
        else:
            (p0, q0), (p1, q1) = forms
            c = _sympy_expr(constant, gaussian)
            if c == 0 or sympy.expand(p0 * q1 - q0 * p1 - c * f) != 0:
                problems.append("w0 ^ winf != c*f")
    return problems

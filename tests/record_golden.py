"""Record the golden canonical reports that test_golden.py compares against.

    PYTHONPATH=src python3 tests/record_golden.py

Writes ``analyze(...).to_json() + "\\n"`` -- exactly what
``curveforms analyze --json`` writes -- for every case below into
tests/golden/<name>.json.  Record only from a commit whose reports are
trusted: every later run must reproduce these files byte for byte.
"""

from __future__ import annotations

import os
import sys

from curveforms import QQ, Weights, analyze, parse_polynomial
from curveforms.corpus import GRAPH_POLYS
from curveforms.poly import field_from_minpoly

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# name -> (polynomial, weights, minimal polynomial or None, allow_untame)
CASES = {
    "hyperbola": ("x*y-1", (1, 1), None, False),
    "circle_qi": ("x^2+y^2-1", (1, 1), "z^2+1", False),
    "cusp_qi": ("x^2+y^3+z*x*y", (1, 1), "z^2+1", False),
    "fermat3": ("x^3+y^3", (1, 1), None, False),
    "fermat4": ("x^4+y^4", (1, 1), None, False),
    "node": ("x*y", (1, 1), None, False),
    "cusp_w32": ("x^2+y^3", (3, 2), None, False),
    "acampo5": ("x^5+y^5-x^2*y^2", (1, 1), None, False),
    "linsneto3": ("(x^3-1)*(y^3-1)*(x^3-y^3)", (1, 1), None, True),
    "linsneto4": ("(x^4-1)*(y^4-1)*(x^4-y^4)", (1, 1), None, True),
    "lissajous": ("2*(2*x^2-1)^2+(2*y+1)^2*(y-1)", (1, 1), None, False),
    "deltoid": ("(x^2+y^2)^2+8*x*(x^2-3*y^2)+18*(x^2+y^2)-27", (1, 1), None,
                False),
    "rose": ("4*x^4+8*x^2*y^2+4*y^4-4*x^6-12*x^4*y^2-12*x^2*y^4-4*y^6-y^2",
             (1, 1), None, False),
    "graph4": (f"y-({GRAPH_POLYS[4]})", (1, 4), None, False),
    "graph5": (f"y-({GRAPH_POLYS[5]})", (1, 5), None, False),
    "riccati": ("x*(x-1)*(x+1)", (1, 1), None, False),
    "deformed5": ("x^5+y^5-x^2*y^2+3*x^3*y-1", (1, 1), None, False),
    # compound extension coefficients in f, the forms and the min. polynomial
    "smooth_qi": ("x^3+y^3+(2+z)*x*y-z", (1, 1), "z^2+1", False),
    # a cubic field whose minimal polynomial has a non-integral coefficient
    "quartic_cubic": ("x^4+(z^2-1)*y^4+z*x*y^2-x+1", (1, 1), "z^3+1/3*z-2",
                      False),
    # a degree-9 minimal polynomial with 17-digit rational coefficients
    "quartic9": ("x^4+3*y^4+x^2*y+2*x+2*y^3+3*y", (1, 1), None, False),
    # tau = 1 over Q(i), so the report carries theta and omega
    "quartic_qi": ("x^4+2*y^4+x^2-x*y^2+2*x*y-3*y^3", (1, 1), "z^2+1", False),
    # mu = 36, a minimal polynomial of degree 26
    "deformed7": ("x^7+y^7-x^2*y^2+3*x^3*y-1", (1, 1), None, False),
}


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def report_json(name: str) -> str:
    """One case's report, as `curveforms analyze --json` writes it."""
    text, weights, minpoly, allow_untame = CASES[name]
    f = parse_polynomial(text, field_from_minpoly(minpoly) if minpoly else QQ)
    report = analyze(f, Weights(*weights), allow_untame=allow_untame)
    return report.to_json() + "\n"


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in CASES:
        with open(golden_path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(report_json(name))
    print(f"wrote {len(CASES)} reports to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

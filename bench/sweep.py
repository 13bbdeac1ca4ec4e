"""One-shot scaling sweep over the three ROADMAP families, with a cap.

    python3 bench/sweep.py [--out bench/results/sweep.json]

Not part of the repeated benchmark runs and not gated.  Every case runs
in its own child process (single thread) under the tracer; the child
prints a progress line as each top-level call starts and one JSON line at
the end.  A case that has not finished after CAP_S seconds is killed and
written as "timeout" with the last call it had entered, so a known slow
case shows up instead of hanging the sweep.

Families (the path is the one the family stresses):
  linsneto   (x^a-1)*(y^a-1)*(x^a-y^a), a = 2..4, full `analyze`
  acampo     x^n+y^n-x^2*y^2,           n = 5..9, full `analyze`
  deformed   x^n+y^n-x^2*y^2+3*x^3*y-1, n = 5..9, syzygy_generators ->
             minimal_generators -> saito_check
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import harness
import tracing
from workloads import Case

FAMILIES = {
    "linsneto": (range(2, 5), "(x^{k}-1)*(y^{k}-1)*(x^{k}-y^{k})", "analyze"),
    "acampo": (range(5, 10), "x^{k}+y^{k}-x^2*y^2", "analyze"),
    "deformed": (range(5, 10), "x^{k}+y^{k}-x^2*y^2+3*x^3*y-1", "derlog"),
}
TOP_LAYERS = 6   # self-time entries kept per case
CAP_S = 60.0     # wall-clock cap per case


def family_case(family: str, k: int) -> Case:
    _, template, path = FAMILIES[family]
    return Case(f"{family}-{k}", template.format(k=k), path,
                allow_untame=family == "linsneto")


def child(family: str, k: int) -> int:
    """Run one case traced; progress lines first, the result line last."""
    cf = harness.load_package()
    case = family_case(family, k)
    tracer = tracing.Tracer()
    tracer.progress = lambda name: print(f"enter {name}", flush=True)
    tracer.install(cf)
    t0 = time.perf_counter()
    out = tracer.run_curve(case.key, harness.execute, cf, case)
    wall = time.perf_counter() - t0
    tracer.uninstall()
    top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:TOP_LAYERS]
    doc = {"status": "ok", "traced_wall_s": wall,
           "facts": harness.facts(cf, case, out),
           "self_s": {name: round(s, 4) for name, s in top},
           "groebner.out_coeff_bits.max": tracer.maxima["groebner.out_coeff_bits.max"]}
    if case.path == "analyze":
        doc["mu"] = out.mu
        doc["stages_s"] = {s: round(dt, 4) for s, dt in out.timings.items()}
    print(json.dumps(doc), flush=True)
    return 0


def run_case(family: str, k: int) -> dict:
    """Run a case in a child process; kill it after CAP_S seconds."""
    case = family_case(family, k)
    entry = {"family": family, "k": k, "f": case.text, "path": case.path}
    cmd = [sys.executable, os.path.abspath(__file__), "--child", family, str(k)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, err = proc.communicate(timeout=CAP_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            entered = [ln[6:] for ln in out.splitlines() if ln.startswith("enter ")]
            entry.update(status="timeout", cap_s=CAP_S,
                         last_entered=entered[-1] if entered else None)
            return entry
    entry["child_wall_s"] = round(time.perf_counter() - t0, 3)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        entry.update(status="error", stderr=err.strip().splitlines()[-1:])
        return entry
    entry.update(json.loads(lines[-1]))
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the sweep here (JSON)")
    ap.add_argument("--child", nargs=2, metavar=("FAMILY", "K"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args.child[0], int(args.child[1]))
    cf = harness.load_package()
    doc = {"environment": harness.environment(cf), "cap_s": CAP_S, "cases": []}
    for family, (ks, _, _) in FAMILIES.items():
        for k in ks:
            entry = run_case(family, k)
            doc["cases"].append(entry)
            shown = entry.get("traced_wall_s", entry["status"])
            print(f"{family} {k}: {shown}", flush=True)
    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

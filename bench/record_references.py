"""Record the reference facts that checks.py compares against.

    python3 bench/record_references.py

Runs one untraced pass of every workload (`small-batch` with the default
seed) and writes bench/references.json.  Record only from a commit whose
outputs are trusted: every later run is compared with these facts.
"""

from __future__ import annotations

import json
import sys

import checks
import harness
import run
import workloads


def main() -> int:
    cf = harness.load_package()
    doc = {"seed": checks.DEFAULT_SEED,
           "backend": harness.environment(cf)["backend"], "workloads": {}}
    for workload in sorted(workloads.WORKLOADS):
        cases = workloads.make_cases(workload, checks.DEFAULT_SEED)
        p = run.run_pass(cf, cases)
        bad = [f"{c.key}: {e}" for c, e in zip(cases, p.errors) if e]
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        doc["workloads"][workload] = {
            c.key: {"text": c.text, "facts": got} for c, got in zip(cases, p.facts)}
        print(f"{workload}: {len(cases)} cases in {p.wall:.2f} s")
    with open(checks.REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two saved benchmark results (`run.py --out`).

    python3 bench/compare.py BEFORE.json AFTER.json

Prints each metric of both results with the ratio after/before.  Refuses
(exit 2) to compare results of different workloads, trace modes or scalar
backends: a Fraction number and an mpq number measure different programs.
"""

from __future__ import annotations

import json
import sys


class Incomparable(ValueError):
    """The two results do not measure the same thing."""


def comparable(before: dict, after: dict):
    for key in ("workload", "trace"):
        if before[key] != after[key]:
            raise Incomparable(f"{key} differs: {before[key]} vs {after[key]}")
    b, a = before["environment"]["backend"], after["environment"]["backend"]
    if b != a:
        raise Incomparable(f"scalar backends differ: {b} vs {a}")


def rows(before: dict, after: dict):
    comparable(before, after)
    mb, ma = before["result"]["metrics"], after["result"]["metrics"]
    for name in mb:
        if name in ma:
            vb, va = mb[name]["value"], ma[name]["value"]
            yield name, vb, va, (va / vb if vb else None), mb[name]["unit"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as fb, open(argv[1]) as fa:
        before, after = json.load(fb), json.load(fa)
    try:
        table = list(rows(before, after))
    except Incomparable as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    for name, vb, va, ratio, unit in table:
        shown = "-" if ratio is None else f"{ratio:.3f}"
        print(f"{name:44s} {vb:12.6g} {va:12.6g} {unit:6s} x{shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

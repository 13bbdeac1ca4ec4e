"""Command-line front end.

Commands: analyze, generators, jordan, plot, corpus.  Exit codes: 0 on
success, 1 on bad input (a `CurveFormsError`) or an output path that cannot
be written (an `OSError`), 2 when the polynomial is not tame, 3 on an
internal invariant violation or any other unexpected error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import analysis, corpus, plotting
from .errors import CurveFormsError, InvariantViolation
from .field import QQ
from .poly import (Weights, field_from_minpoly, format_one_form,
                   parse_polynomial)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_TAME = 2
EXIT_INVARIANT = 3


def _add_input_flags(sub):
    sub.add_argument("-f", "--poly", required=True, metavar="POLY",
                     help="curve polynomial in x and y, e.g. 'x^3+y^3'")
    sub.add_argument("--weights", nargs=2, type=int, default=(1, 1),
                     metavar=("A1", "A2"), help="weights of x and y")
    sub.add_argument("--minpoly", metavar="UNIPOLY",
                     help="work over Q[z]/(minpoly), e.g. 'z^2+1'")


def _parse_input(args):
    fld = field_from_minpoly(args.minpoly) if args.minpoly else QQ
    f = parse_polynomial(args.poly, fld)
    return f, Weights.of(*args.weights)


def _emit(args, report, text):
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
    print(text)


def _run_analysis(args):
    f, weights = _parse_input(args)
    return analysis.analyze(f, weights)


def cmd_analyze(args) -> int:
    report = _run_analysis(args)
    _emit(args, report, report.to_text())
    if not report.tame:
        return EXIT_NOT_TAME
    return EXIT_OK


def cmd_generators(args) -> int:
    report = _run_analysis(args)
    if not report.tame:
        print(f"not tame: {report.not_tame_reason}")
        return EXIT_NOT_TAME
    lines = []
    for kind, forms in (("trivial", report.trivial),
                        ("four", report.four),
                        ("minimal", report.minimal)):
        if forms is None:
            lines.append(f"{kind}: not applicable (smooth curve)")
            continue
        lines.append(f"{kind} ({len(forms)}):")
        for w in forms:
            lines.append(f"  {format_one_form(w)}")
    _emit(args, report, "\n".join(lines))
    return EXIT_OK


def cmd_jordan(args) -> int:
    report = _run_analysis(args)
    if not report.tame:
        print(f"not tame: {report.not_tame_reason}")
        return EXIT_NOT_TAME
    lines = [f"minimal polynomial: {report.min_poly}",
             f"exponent: {report.exponent}"]
    for jp in report.jordan:
        blocks = ", ".join(f"{count} x size {size}"
                           for size, count in sorted(jp.blocks.items()))
        lines.append(f"factor {jp.factor}: {blocks}")
    _emit(args, report, "\n".join(lines))
    return EXIT_OK


def cmd_plot(args) -> int:
    f, _ = _parse_input(args)
    svg = plotting.plot_svg(f, window=args.window, grid=args.grid,
                            embedding=args.embed)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(svg + "\n")
        print(f"wrote {args.svg}")
    else:
        print(svg)
    return EXIT_OK


def cmd_corpus(args) -> int:
    only = args.only or None
    reports = corpus.run_corpus(only)
    width = max(len(r.name) for r in reports)
    failed = 0
    for rep in reports:
        good = sum(1 for c in rep.checks if c.ok)
        status = "ok" if rep.ok else "FAIL"
        print(f"{rep.name:<{width}}  {good:>2}/{len(rep.checks):<2} checks  "
              f"{rep.seconds:7.2f}s  {status}")
        for check in rep.checks:
            if not check.ok:
                failed += 1
                print(f"    FAIL {check.name}: {check.detail}")
    if args.expect_generation_failure:
        flagged = [corpus.FIXTURES[r.name].expects_generation_failure
                   for r in reports]
        if not any(flagged):
            print("no selected fixture expects a generation failure")
            return EXIT_INPUT
    if args.json:
        doc = [{"fixture": r.name, "seconds": round(r.seconds, 3),
                "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                           for c in r.checks]} for r in reports]
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(f"{sum(1 for r in reports if r.ok)}/{len(reports)} fixtures passed")
    return EXIT_OK if failed == 0 else EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveforms",
        description="exact 1-forms tangent to a plane algebraic curve")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline report")
    _add_input_flags(p)
    p.add_argument("--json", metavar="PATH", help="also write a JSON report")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generators", help="print the generating sets")
    _add_input_flags(p)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("jordan", help="print Jordan profiles per factor")
    _add_input_flags(p)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_jordan)

    p = sub.add_parser("plot", help="render the real locus as SVG")
    _add_input_flags(p)
    p.add_argument("--svg", metavar="PATH", help="output file (default stdout)")
    p.add_argument("--window", type=float, default=1.5, metavar="R",
                   help="plot on [-R, R]^2")
    p.add_argument("--grid", type=int, default=200, metavar="N",
                   help="cells per axis (at most 2000)")
    p.add_argument("--embed", type=float, default=None, metavar="VALUE",
                   help="numeric value of the field generator")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("corpus", help="run the example corpus")
    p.add_argument("--only", action="append", metavar="NAME",
                   help="run a single fixture (repeatable)")
    p.add_argument("--expect-generation-failure", action="store_true",
                   help="require a selected fixture whose expected fact is a "
                        "generation failure")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (CurveFormsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # not a documented input error, so a bug
        traceback.print_exc()
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the curveforms pipeline: one workload, one seed, one run.

    python3 bench/run.py --workload small-batch --seed 1 --seconds 25 --trace 0

Run from the repository root (or any checkout of it); the package is
imported from the checkout's `src/`.  The run is a single process, single
thread, closed loop: each curve starts only after the previous one has
finished.  It

1. runs passes over the workload's curve set until `--seconds` have gone
   by (at least one pass), timing every curve;
2. sets up SETUPS_PER_PASS times before every pass (fresh import, input
   generation, one warm-up `analyze("x*y-1")`) and reports the median as
   `setup_s`;
3. checks every output outside the timed region (see checks.py); a curve
   that raised, timed out or failed a check counts as failed;
4. prints a summary and, as its last line, one JSON object with the keys
   correct, attempted, failed and metrics.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json.
With `--trace 1` untraced and traced passes alternate and the metrics are
the per-layer ones: calls and self time of every wrapped public function
(tracing.py), counts read from their results, the stage timings of
`AnalysisReport.timings`, and `trace_overhead` = traced over untraced
`wall_s`.  `--spans PATH` writes the traced spans as JSON lines and
`--out PATH` the full result with its environment record (compare.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import checks
import harness
import tracing
import workloads

SETUPS_PER_PASS = 8
WARMUP_CURVE = "x*y-1"
CASE_TIMEOUT_S = 60
STAGES = ("tame", "milnor", "forms", "generation", "minimal")


class CaseTimeout(Exception):
    """One case ran longer than CASE_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise CaseTimeout(f"no result within {CASE_TIMEOUT_S} s")


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    times: list = field(default_factory=list)
    facts: list = field(default_factory=list)     # per case, None on error
    errors: list = field(default_factory=list)    # per case, None on success
    stages: dict = field(default_factory=dict)    # stage -> seconds in pass


def setup(workload: str, seed: int):
    """Fresh import, input generation and one warm-up call.  The garbage
    that earlier passes and set-ups left is collected before the clock
    starts, so it is not counted as set-up."""
    gc.collect()
    t0 = perf_counter()
    cf = harness.load_package(fresh=True)
    cases = workloads.make_cases(workload, seed)
    cf.analysis.analyze(cf.poly.parse_polynomial(WARMUP_CURVE))
    return cf, cases, perf_counter() - t0


def run_pass(cf, cases, tracer=None) -> Pass:
    """One closed-loop pass over the cases; results are read afterwards."""
    outputs, p = [], Pass(traced=tracer is not None)
    signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    for case in cases:
        signal.setitimer(signal.ITIMER_REAL, CASE_TIMEOUT_S)
        t0 = perf_counter()
        try:
            if tracer is None:
                out = harness.execute(cf, case)
            else:
                out = tracer.run_curve(case.key, harness.execute, cf, case)
            err = None
        except Exception as exc:  # a failing curve is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        p.times.append(perf_counter() - t0)
        outputs.append(out)
        p.errors.append(err)
    p.wall = perf_counter() - start
    for case, out in zip(cases, outputs):
        p.facts.append(None if out is None else harness.facts(cf, case, out))
        if case.path == "analyze" and out is not None:
            for stage, dt in out.timings.items():
                p.stages[stage] = p.stages.get(stage, 0.0) + dt
    return p


def measure(workload: str, seed: int, seconds: float, trace: bool, cases=None):
    """Passes until `seconds` are used; with `trace`, untraced and traced
    passes alternate, starting untraced, and there is one of each at least.

    Every pass starts from SETUPS_PER_PASS fresh set-ups, so nothing one
    pass leaves in the package's modules helps the next, and the set-up
    times are sampled across the whole run.  Returns the last package
    loaded, the cases, the passes, the tracer and the set-up times."""
    passes, setups, tracer = [], [], tracing.Tracer() if trace else None
    start = perf_counter()
    while True:
        for _ in range(SETUPS_PER_PASS):
            cf, generated, dt = setup(workload, seed)
            setups.append(dt)
        todo = generated if cases is None else cases
        if trace and len(passes) % 2 == 1:
            tracer.install(cf)
            try:
                passes.append(run_pass(cf, todo, tracer))
            finally:
                tracer.uninstall()
        else:
            passes.append(run_pass(cf, todo))
        enough = not trace or len(passes) >= 2
        if enough and perf_counter() - start >= seconds:
            return cf, todo, passes, tracer, setups


def check(workload: str, seed: int, cases, passes):
    """(attempted, failures): every case of every pass is one attempt."""
    refs = checks.load_references()
    sympy_cache = {}
    attempted, failures = 0, []
    for k, p in enumerate(passes):
        for case, got, err in zip(cases, p.facts, p.errors):
            attempted += 1
            if err is not None:
                failures.append(f"pass {k} {case.key}: {err}")
                continue
            entry = checks.reference_for(refs, workload, seed, case)
            wrong = checks.compare_reference(entry, case, got)
            key = (case, json.dumps(got, sort_keys=True))
            if key not in sympy_cache:
                sympy_cache[key] = checks.sympy_problems(case, got)
            wrong += sympy_cache[key]
            if wrong:
                failures.append(f"pass {k} {case.key}: {', '.join(wrong)}")
    return attempted, failures


def percentile(values, q: int) -> float:
    """The q-th percentile as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def curve_times(passes) -> list:
    """Each curve's time: its median over the passes of the run."""
    return [statistics.median(ts) for ts in zip(*(p.times for p in passes))]


def end_to_end(passes, setups, peak_rss_mb, attempted, n_failed) -> dict:
    """{name: (value, unit)}; the percentiles run over the curves."""
    times = curve_times(passes)
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "curve_s.p50": (statistics.median(times), "s"),
        "curve_s.p90": (percentile(times, 90), "s"),
        "ok_ratio": (1 - n_failed / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(passes, tracer) -> dict:
    """{name: (value, unit)}, per pass: call counts and self times averaged
    over the traced passes, stage timings the median over the untraced ones."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    out = {}
    for stage in STAGES:
        out[f"analysis.stage.{stage}_s"] = (
            statistics.median(p.stages.get(stage, 0.0) for p in plain), "s")
    for module, qualname in tracing.TRACED:
        name = tracing.layer_name(module, qualname)
        out[f"{name}.calls"] = (tracer.calls[name] / n, "count")
        out[f"{name}.self_s"] = (tracer.self_s[name] / n, "s")
    for name in (tracing.CURVE_SPAN, tracing.INSPECT_SPAN):
        out[f"{name}.self_s"] = (tracer.self_s[name] / n, "s")
    reductions = tracer.counters[tracing.REDUCTIONS]
    zeros = tracer.counters[tracing.ZERO_REDUCTIONS]
    out["groebner.reductions"] = (reductions / n, "count")
    out["groebner.normal_form.zero_ratio"] = (
        zeros / reductions if reductions else 0.0, "ratio")
    out["groebner.basis_len.max"] = (tracer.maxima["groebner.basis_len.max"], "count")
    out["groebner.out_coeff_bits.max"] = (
        tracer.maxima["groebner.out_coeff_bits.max"], "bits")
    out["milnor.mu.max"] = (tracer.maxima["milnor.mu.max"], "count")
    traced_wall = statistics.median(p.wall for p in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.self_sum_s"] = (tracer.self_sum() / n, "s")
    out["trace_overhead"] = (
        traced_wall / statistics.median(p.wall for p in plain), "ratio")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, cases=None,
        spans_path=None):
    """One benchmark run; returns (result line, full record)."""
    cf, cases, passes, tracer, setups = measure(workload, seed, seconds, trace, cases)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spans_path and tracer is not None:
        tracer.write_spans(spans_path)
    attempted, failures = check(workload, seed, cases, passes)
    if trace:
        values = per_layer(passes, tracer)
    else:
        values = end_to_end(passes, setups, peak_rss_mb, attempted, len(failures))
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": harness.environment(cf),
              "passes": [{"traced": p.traced, "wall_s": p.wall} for p in passes],
              "curves_per_pass": len(cases), "failures": failures,
              "setups": len(setups),
              "result": result}
    return result, record


def summary(record) -> list:
    lines = [f"# environment {json.dumps(record['environment'], sort_keys=True)}",
             f"# workload {record['workload']} seed {record['seed']}: "
             f"{len(record['passes'])} passes of {record['curves_per_pass']} curves, "
             f"pass walls " + ", ".join(f"{p['wall_s']:.3f}s" + ("*" if p["traced"] else "")
                                        for p in record["passes"])]
    result = record["result"]
    if not record["trace"]:
        lines.append(f"# curve_s percentiles over {record['curves_per_pass']} curves, "
                     f"each the median of its {len(record['passes'])} passes; "
                     f"setup_s the median of {record['setups']} set-ups")
    lines.append(f"# failed {result['failed']} of {result['attempted']} attempted "
                 f"(failed_ratio {result['failed'] / result['attempted']:.4f})")
    lines += [f"# failure: {f}" for f in record["failures"][:20]]
    for name, m in result["metrics"].items():
        lines.append(f"# {name:44s} {m['value']:.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced spans here (JSON lines)")
    ap.add_argument("--out", help="write the full result record here (JSON)")
    args = ap.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), spans_path=args.spans)
    except harness.PackageMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
    print("\n".join(summary(record)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qdlab benchmark: one workload, one seed, one process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --case K   # replay a case

Run it from the root of a checkout; it imports qdlab from ``src/`` of that
checkout and nothing else.  The load is a closed loop with a single client
and no threads: the next case starts when the previous one has finished.  The
machine it was written for has 2 vCPUs shared with other jobs, so a second
worker would measure contention between tenants rather than qdlab, and
qdlab's exact arithmetic is pure Python, which a second thread could not run
in parallel anyway.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The
line before it is ``{"report": ...}``: run environment, workload properties
and every failed case with the command that replays it.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "spans"   # traced runs write their spans here

IMPORT_REPS = 9
SETUP_REPS = 3
TAIL_BEYOND = 10
MAX_FAILURES_SHOWN = 20

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# The machine this benchmark was written on changes speed by up to 2x,
# within seconds as well as over tens of minutes.  A fixed pure-Python loop
# that shares no code with qdlab is timed between cases, at most every
# REFERENCE_EVERY_S, and between the steps of a set-up.  Each case or step is
# divided by its slowdown: the mean time of the samples just before and just
# after it, over REFERENCE_S.  The unscaled end-to-end values are in the
# report line under "wall".  See README.md.
REFERENCE_S = 0.015  # s, about the loop's median on the reference machine
REFERENCE_EVERY_S = 0.5  # s between reference samples

# The time of an import in a fresh interpreter swings with the machine too,
# but not in step with the reference loop.  It is scaled instead by the time
# of importing a stdlib package that qdlab does not use, in a fresh
# interpreter just before and just after.
IMPORT_REFERENCE = "asyncio"
IMPORT_REFERENCE_S = 0.05  # s, about its import time on the reference machine

IMPORT_PROBE = ("import time; t = time.perf_counter(); import {}; "
                "print(time.perf_counter() - t)")


def per_layer_units(span_names):
    units = {}
    for name in span_names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update({
        "homology.reps": "count",
        "homology.repeat_key_frac": "ratio",
        "delaunay.flips": "count",
        "deformation.affine_deform.flip_frac": "ratio",
        "bench.cases_per_s": "1/s",
        "bench.case_wall.s": "s",
        "bench.own.s": "s",
        "trace.spans": "count",
    })
    return units


def import_seconds(module="qdlab"):
    """Wall time of ``import module`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(module)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


# an 18 x 36 integer matrix [A | I] for the reference elimination
_REF_N = 18
_REF_MATRIX = [[(37 * i * i + 11 * j + 5 * i * j) % 9 - 4 for j in range(_REF_N)]
               + [int(i == j) for j in range(_REF_N)] for i in range(_REF_N)]


def reference_seconds():
    """Wall time of the fixed reference loop: exact Fraction Gauss-Jordan
    elimination of _REF_MATRIX, the kind of arithmetic qdlab spends its
    time in, written here so that it shares no code with qdlab.

    The garbage collector is off while it runs: the loop makes no cycles, and
    a collection would scan qdlab's heap, so a run holding more memory would
    read as a slower machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _reference_loop()
    finally:
        if enabled:
            gc.enable()


def _reference_loop():
    t = perf_counter()
    rows = [[Fraction(x) for x in row] for row in _REF_MATRIX]
    for col in range(_REF_N):
        piv = next((r for r in range(col, _REF_N) if rows[r][col]), None)
        if piv is None:
            continue
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(_REF_N):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return perf_counter() - t


def timed_import(reps):
    """(scaled seconds, raw): the median over ``reps`` imports of qdlab, each
    in a fresh interpreter and divided by the mean time of the reference
    import just before and after it, times IMPORT_REFERENCE_S."""
    own, ref = [], [import_seconds(IMPORT_REFERENCE)]
    for _ in range(reps):
        own.append(import_seconds())
        ref.append(import_seconds(IMPORT_REFERENCE))
    scaled = [t / ((a + b) / 2) * IMPORT_REFERENCE_S
              for t, a, b in zip(own, ref, ref[1:])]
    return statistics.median(scaled), {"qdlab_s": own, "reference_s": ref}


def timed_setup(wl, reps):
    """(context, scaled seconds, raw): the median over ``reps`` set-ups of
    the workload.  The set-up calls ``tick()`` after each of its steps.
    There a reference sample is taken, outside the timing, and each step is
    divided by the slowdown that the samples just before and after it give.
    A step lasts up to two seconds, and the machine's speed changes within
    that."""
    scaled, raw = [], []
    for _ in range(reps):
        steps, refs = [], [reference_seconds()]
        start = perf_counter()

        def tick():
            nonlocal start
            steps.append(perf_counter() - start)
            refs.append(reference_seconds())
            start = perf_counter()

        ctx = wl.setup(tick)
        tick()
        raw.append(sum(steps))
        scaled.append(sum(t * 2 * REFERENCE_S / (a + b)
                          for t, a, b in zip(steps, refs, refs[1:])))
    return ctx, statistics.median(scaled), {"workload_s": raw,
                                            "workload_scaled_s": scaled}


def by_stratum(cases, durations):
    strata = defaultdict(list)
    for (_, kind, label, _), dt in zip(cases, durations):
        strata[kind, label].append(dt)
    return strata


def p50(strata):
    """Median case time, stratified: each case counts with the median time
    of its stratum, one (query kind, surface) pair.

    Every block of the plan holds each stratum in the same share.  When the
    mix has a gap at its middle (four surfaces of very different cost), the
    plain median of all cases is the mean of the two extremes on either side
    of the gap, and it jumps with each run's slowest cheap case and fastest
    dear one.  The stratified median moves only with the stratum medians.
    """
    return statistics.median(statistics.median(v) for v in strata.values()
                             for _ in v)


def tail(durations):
    """(value, percentile, samples beyond): the highest percentile, by
    nearest rank, with TAIL_BEYOND samples beyond it; the maximum when there
    are not that many samples."""
    xs = sorted(durations)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND          # 1-based rank with exactly TAIL_BEYOND above
    return xs[k - 1], 100.0 * k / n, TAIL_BEYOND


def environment(args):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 process, no threads",
    }


def _count(strata, part):
    out = Counter()
    for key, v in strata.items():
        out[key[part]] += len(v)
    return dict(sorted(out.items()))


def _where(exc):
    frames = traceback.extract_tb(exc.__traceback__)
    if not frames:
        return "?"
    f = frames[-1]
    return f"{Path(f.filename).name}:{f.lineno}"


def run(workload, seed, seconds, trace, setup_reps=SETUP_REPS,
        import_reps=IMPORT_REPS, only_case=None, spans_out=None):
    """Set up, run the timed loop, and return (result, report).  A traced run
    writes its spans to ``spans_out`` when that is given."""
    from probe import CASE_SPAN, Probe, span_names
    from workloads import WORKLOADS, InvariantFailed

    wl = WORKLOADS[workload]
    import_s, import_raw = timed_import(import_reps)
    ctx, setup_s, setup_raw = timed_setup(wl, setup_reps)
    gc.collect()

    probe = Probe(trace)
    durations, failures = [], []
    cases = []   # (index, kind, label, index in ref of the last sample before it)
    ref = [reference_seconds()]
    ref_spent = 0.0
    with probe:
        t0 = last_ref = perf_counter()
        for block in wl.plan(seed):
            if only_case is not None:
                block = [c for c in block if c[0] == only_case]
            for index, kind, label in block:
                rng = wl.case_rng(seed, index)
                probe.case = index
                reason = None
                t = perf_counter()
                try:
                    with probe.span(CASE_SPAN):
                        wl.case(ctx, kind, label, rng, probe)
                except InvariantFailed as exc:
                    reason = str(exc)
                except Exception as exc:  # fails this case only; the loop goes on
                    reason = f"unexpected {type(exc).__name__}: {exc} ({_where(exc)})"
                durations.append(perf_counter() - t)
                cases.append((index, kind, label, len(ref) - 1))
                if reason is not None:
                    failures.append({
                        "workload": workload, "seed": seed, "case": index,
                        "kind": kind, "label": label, "reason": reason,
                        "replay": (f"python3 perfbench/run.py --workload {workload}"
                                   f" --seed {seed} --case {index}"),
                    })
                if perf_counter() - last_ref >= REFERENCE_EVERY_S:
                    ref.append(reference_seconds())
                    ref_spent += ref[-1]
                    last_ref = perf_counter()
            if block and (only_case is not None or perf_counter() - t0 >= seconds):
                break
        elapsed = perf_counter() - t0 - ref_spent
    ref.append(reference_seconds())

    # each case is divided by the slowdown of the samples just before and
    # after it, and so are the spans inside it
    slowdown = {index: (ref[b] + ref[b + 1]) / (2 * REFERENCE_S)
                for index, _, _, b in cases}
    scaled = [dt / slowdown[c[0]] for dt, c in zip(durations, cases)]
    strata = by_stratum(cases, scaled)

    attempted = len(durations)
    passed = attempted - len(failures)
    tail_s, tail_pct, tail_beyond = tail(scaled)
    report = {
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "elapsed_s": elapsed,
        "cases_per_label": _count(strata, 1),
        "cases_per_kind": _count(strata, 0),
        "case_p50_ms_per_stratum": {f"{k}/{label}": 1e3 * statistics.median(v)
                                    for (k, label), v in sorted(strata.items())},
        "case_tail": {"percentile": tail_pct, "samples": attempted,
                      "beyond": tail_beyond},
        "homology.homology_data.calls": probe.homology_calls,
        "homology.repeat_key_frac": probe.repeat_key_frac(),
        "deformation.affine_deform.attempts": probe.deform_attempts,
        "deformation.affine_deform.flip_frac": probe.flip_frac(),
        "setup": {"import_scaled_s": import_s, "workload_scaled_s": setup_s,
                  "import": import_raw, "workload": setup_raw},
        "speed": {"slowdown": statistics.median(slowdown.values()),
                  "reference_s": statistics.median(ref), "samples": len(ref)},
        "failures": failures[:MAX_FAILURES_SHOWN],
    }

    if not trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": import_s + setup_s,
            "cases_per_s": passed / sum(scaled),
            "case_p50_ms": 1e3 * p50(strata),
            "case_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": rss,
        }
        units = END_TO_END
        report["wall"] = {
            "setup_s": (statistics.median(import_raw["qdlab_s"])
                        + statistics.median(setup_raw["workload_s"])),
            "cases_per_s": passed / elapsed,
            "case_p50_ms": 1e3 * p50(by_stratum(cases, durations)),
            "case_tail_ms": 1e3 * tail(durations)[0],
            "peak_rss_mb": rss,
        }
    else:
        stats = probe.layer_stats(slowdown)
        case_wall = sum(scaled)
        metrics = {}
        for name in span_names():
            calls, busy = stats.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.s"] = busy
        metrics.update({
            "homology.reps": probe.homology_reps,
            "homology.repeat_key_frac": probe.repeat_key_frac(),
            "delaunay.flips": probe.delaunay_flips,
            "deformation.affine_deform.flip_frac": probe.flip_frac(),
            "bench.cases_per_s": passed / case_wall,
            "bench.case_wall.s": case_wall,
            "bench.own.s": stats.get(CASE_SPAN, (0, 0.0))[1],
            "trace.spans": len(probe.spans),
        })
        units = per_layer_units(span_names())
        if spans_out is not None:
            probe.write_spans(spans_out)
            report["spans_file"] = str(spans_out.relative_to(ROOT))
        report["self_time_share"] = {
            name: busy / case_wall
            for name, (_, busy) in sorted(stats.items(), key=lambda kv: -kv[1][1])}

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, report


def main(argv=None):
    sys.path.insert(0, str(SRC))
    try:
        import qdlab
        from workloads import WORKLOADS
    except ImportError as exc:
        print(json.dumps({"error": "cannot import qdlab from src/",
                          "detail": str(exc)}), file=sys.stderr)
        return 2
    if Path(qdlab.__file__).resolve().parent.parent != SRC.resolve():
        print(json.dumps({"error": "qdlab imported from outside this checkout",
                          "detail": qdlab.__file__}), file=sys.stderr)
        return 2

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--case", type=int, default=None,
                    help="run only this case index (replay a failure)")
    args = ap.parse_args(argv)
    if args.case is not None and args.case < 0:
        ap.error("--case must be >= 0")

    result, report = run(args.workload, args.seed, args.seconds, args.trace,
                         setup_reps=1 if args.case is not None else SETUP_REPS,
                         import_reps=1 if args.case is not None else IMPORT_REPS,
                         only_case=args.case,
                         spans_out=SPANS_DIR / f"{args.workload}-{args.seed}.jsonl")
    print(json.dumps({"report": {"env": environment(args), **report}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

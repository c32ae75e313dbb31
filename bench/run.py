"""Benchmark runner: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of the working directory.  One process, one caller, closed loop:
each call starts when the previous one has returned.  BLAS threads are
pinned to 1.

Every timed call is preceded by a fixed reference loop, and the call's
time is scaled to the speed at which that loop takes ``REF_NOMINAL_S``
(see ``reference_seconds``).  ``--trace 0`` measures the end-to-end
metrics.  ``--trace 1`` runs the workload's fixed rounds once untraced
and once under the tracer and reports the per-layer metrics.  The line
before the result is a detail record (per-kind figures, the named
figures, unscaled times, the output digest); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

BENCH = Path(__file__).resolve().parent
# The checkout under test: the working directory, as the benchmark is
# run from the root of a checkout.  record.py runs this file from other
# checkouts to compare two commits with the same benchmark code.
ROOT = Path.cwd()
SRC = ROOT / "src"

# Set-up probes before and after the timed loop, so that their median
# does not hang on one moment of a shared machine.
SETUP_PROBES = 4
# Every untraced run times at least this many calls, so the detail
# line's p90 has ten samples above it.
MIN_OPS = 100
OUT_DIR = BENCH / "out"

# The reference loop: plane rotations on an 8x8 list of floats, the inner
# loop of the pure-Python cyclic Jacobi that dominates symcone's time.
# The shared machine this benchmark was built on switches between speed
# states up to 1.8x apart, for seconds to minutes; a raw call time moves
# with them, while its ratio to this loop, timed next to it, stays within
# about 5 %.  Times are scaled to REF_NOMINAL_S, a round figure near the
# loop's time (0.32-0.40 ms) in that machine's fast state (2 vCPUs of an
# Intel Xeon); it is a constant, so it cancels in every comparison.
REF_SIZE = 8
REF_SWEEPS = 6
REF_MATRIX = [[(3.0 if i == j else 0.0) + 1.0 / (1 + i + j) for j in range(REF_SIZE)]
              for i in range(REF_SIZE)]
REF_NOMINAL_S = 0.0004
# Calls on each side of a call whose reference times set its scale.
REF_WINDOW = 2


def _reference_loop() -> float:
    a = [row[:] for row in REF_MATRIX]
    c, s = 0.8, 0.6
    for _ in range(REF_SWEEPS):
        for p in range(REF_SIZE - 1):
            ap = a[p]
            for q in range(p + 1, REF_SIZE):
                aq = a[q]
                for k in range(REF_SIZE):
                    ak = a[k]
                    akp = ak[p]
                    akq = ak[q]
                    ak[p] = c * akp - s * akq
                    ak[q] = s * akp + c * akq
                for k in range(REF_SIZE):
                    apk = ap[k]
                    aqk = aq[k]
                    ap[k] = c * apk - s * aqk
                    aq[k] = s * apk + c * aqk
    return a[0][0]


def reference_seconds() -> float:
    """The faster of two timings of the reference loop, so that a single
    interrupt does not set the scale."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        _reference_loop()
        best = min(best, perf_counter() - start)
    return best


class Record(NamedTuple):
    op: object
    seconds: float
    ref: float
    outcome: object


def scaled_seconds(records) -> list[float]:
    """Each call's time at the reference speed, taking the median of the
    reference times of the REF_WINDOW calls on each side."""
    refs = [r.ref for r in records]
    return [r.seconds * REF_NOMINAL_S
            / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, r in enumerate(records)]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, as numpy's default."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import and build the inputs, then exit")
    return parser.parse_args(argv)


def import_package():
    if not (SRC / "symcone" / "__init__.py").is_file():
        sys.exit(f"error: no symcone source at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import symcone

    if Path(symcone.__file__).resolve().parent != SRC.resolve() / "symcone":
        sys.exit(f"error: imported symcone from {symcone.__file__}, not from {SRC}")
    import workloads

    return workloads


def probe_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from process start to inputs ready, in fresh processes:
    scaled to the reference speed, and as measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = reference_seconds()
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            sys.exit(f"error: set-up probe exited {code}")
        ref = statistics.median([before, reference_seconds(), reference_seconds()])
        scaled.append(elapsed * REF_NOMINAL_S / ref)
        raw.append(elapsed)
    return scaled, raw


def run_ops(ops, records, tracer=None):
    """Time the reference loop and each call, then check the call's
    output; append one record per op."""
    for op in ops:
        ref = reference_seconds()
        error = result = None
        start = perf_counter()
        try:
            if tracer is None:
                result = op.call()
            else:
                result = tracer.run_op(len(records), op.tag, op.call)
        except Exception as exc:  # a raised error is a failed operation
            error = exc
        seconds = perf_counter() - start
        records.append(Record(op, seconds, ref, op.check(result, error)))


def run_traced(ops, records, tracer) -> tuple[float, float]:
    """Each call once untraced and once traced, alternating which goes
    first; the traced calls are the ones recorded.  Returns the untraced
    and traced totals, each call scaled by its own reference time."""
    untraced = traced = 0.0
    for i, op in enumerate(ops):
        plain = []
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.install()
                try:
                    run_ops([op], records, tracer)
                finally:
                    tracer.remove()
            else:
                run_ops([op], plain)
        untraced += plain[0].seconds * REF_NOMINAL_S / plain[0].ref
        traced += records[-1].seconds * REF_NOMINAL_S / records[-1].ref
    return untraced, traced


def run_for(pool, workload, seconds, records) -> tuple[float, int]:
    """Whole rounds until the time, the call count and the fixed rounds are met."""
    start = perf_counter()
    rounds = 0
    while (rounds < workload.fixed_rounds or len(records) < MIN_OPS
           or perf_counter() - start < seconds):
        run_ops(pool[rounds % len(pool)], records)
        rounds += 1
    return perf_counter() - start, rounds


def digest(records, fixed_ops: int) -> str:
    h = hashlib.sha256()
    for r in records[:fixed_ops]:
        h.update(r.outcome.digest)
    return h.hexdigest()


# Units of the named figures of the detail line.
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio",
         "solve_per_s": "1/s", "solve_p50_ms": "ms", "solve_p90_ms": "ms",
         "distance_per_s": "1/s", "check_samples_per_s": "1/s", "stall_ratio": "ratio"}


def summarize(records, seconds: list[float]) -> dict:
    """Latency percentiles, per-kind figures and rates for the detail
    line, from the given per-call times."""
    kinds = {}
    for r, s in zip(records, seconds):
        k = kinds.setdefault(f"{r.op.kind}:{r.op.tag}",
                             {"n": 0, "failed": 0, "stalled": 0, "ms": []})
        k["n"] += 1
        k["failed"] += r.outcome.failed
        k["stalled"] += r.outcome.stalled_converged
        k["ms"].append(s * 1e3)
    latencies = [s * 1e3 for s in seconds]
    solves = [s * 1e3 for r, s in zip(records, seconds)
              if r.op.kind in ("solve", "bushell")]

    def rate(kinds_wanted):
        """Work units per second spent in calls of these kinds."""
        chosen = [(r.op, s) for r, s in zip(records, seconds) if r.op.kind in kinds_wanted]
        busy = sum(s for _, s in chosen)
        return sum(op.units for op, _ in chosen) / busy if busy else None

    return {
        "calls": len(records),
        "op_p50_ms": percentile(latencies, 0.5),
        "op_p75_ms": percentile(latencies, 0.75),
        "op_p90_ms": percentile(latencies, 0.9),
        "fail_ratio": sum(r.outcome.failed for r in records) / len(records),
        "stall_ratio": sum(r.outcome.stalled_converged for r in records) / len(records),
        "solve_per_s": rate({"solve", "bushell"}),
        "solve_p50_ms": percentile(solves, 0.5) if solves else None,
        "solve_p90_ms": percentile(solves, 0.9) if solves else None,
        "distance_per_s": rate({"distance"}),
        "check_samples_per_s": rate({"check"}),
        "by_kind": {
            name: {"n": k["n"], "failed": k["failed"], "stalled": k["stalled"],
                   "total_s": sum(k["ms"]) / 1e3,
                   "p50_ms": percentile(k["ms"], 0.5)}
            for name, k in sorted(kinds.items())
        },
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the run and the set-up probes it starts, so that a call,
    # the reference loop that scales it and a probe meet the same CPU's load.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    if args.setup_probe:
        workloads.build_pool(workload, args.seed, size)
        print("ready", flush=True)
        return 0

    pool = workloads.build_pool(workload, args.seed, size)
    fixed_ops = sum(len(pool[i]) for i in range(workload.fixed_rounds))
    records = []
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size}

    if args.trace == 0:
        setup_scaled, setup_raw = probe_setup(args)
        wall, rounds = run_for(pool, workload, args.seconds, records)
        more_scaled, more_raw = probe_setup(args)
        setup_s = statistics.median(setup_scaled + more_scaled)
        summary = summarize(records, scaled_seconds(records))
        summary.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        raw = summarize(records, [r.seconds for r in records])
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_scaled_ms": (summary["op_p50_ms"], "ms"),
            "op_p75_scaled_ms": (summary["op_p75_ms"], "ms"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        }
        named = ("setup_s", "peak_rss_mb", "fail_ratio") + workload.named
        detail.update(
            rounds=rounds, wall_s=wall, summary=summary,
            named={n: {"value": summary[n], "unit": UNITS[n]} for n in named},
            unscaled={"setup_s": statistics.median(setup_raw + more_raw),
                      "op_p50_ms": raw["op_p50_ms"], "op_p75_ms": raw["op_p75_ms"],
                      "op_p90_ms": raw["op_p90_ms"],
                      "ref_ms": statistics.median(r.ref for r in records) * 1e3})
    else:
        import numpy as np
        import tracing

        tracer = tracing.Tracer()
        fixed = [op for ops in pool[:workload.fixed_rounds] for op in ops]
        untraced_s, traced_s = run_traced(fixed, records, tracer)
        table = tracer.layer_table(np.array([REF_NOMINAL_S / r.ref for r in records]))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans_path)
        metrics = per_layer_metrics(table, tracer, records, traced_s / untraced_s)
        defects = []
        run_ops(workloads.known_defect_ops(args.workload), defects)
        detail.update(rounds=workload.fixed_rounds, untraced_s=untraced_s,
                      traced_s=traced_s, spans_file=str(spans_path.relative_to(BENCH)),
                      layers=table,
                      known_defects={r.op.label: r.outcome.error or "passes"
                                     for r in defects})

    wrong = sum(r.outcome.wrong for r in records)
    failed = sum(r.outcome.failed for r in records)
    errors = {}
    for r in records:
        if r.outcome.failed:
            seen = errors.setdefault(r.outcome.error, {"count": 0, "first": r.op.label})
            seen["count"] += 1
    detail.update(digest=digest(records, fixed_ops), digest_ops=fixed_ops,
                  checks_run={kind: sum(r.op.kind == kind for r in records)
                              for kind in sorted({r.op.kind for r in records})},
                  wrong=wrong, errors=errors)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def per_layer_metrics(table, tracer, records, overhead: float) -> dict:
    metrics = {
        "algebra.element.count": (table["algebra.element"]["calls"], "count"),
        "algebra.element.self_ms": (table["algebra.element"]["self_ms"], "ms"),
    }
    for layer in ("algebra.decompose", "algebra.eigvals", "algebra.power",
                  "algebra.quad", "algebra.product", "metric.distance",
                  "transforms.apply", "transforms.sample"):
        metrics[f"{layer}.calls"] = (table[layer]["calls"], "count")
        metrics[f"{layer}.self_ms"] = (table[layer]["self_ms"], "ms")
    metrics["metric.oracle.self_ms"] = (table["metric.oracle"]["self_ms"], "ms")
    metrics["rng.draws"] = (tracer.draws, "count")
    metrics["rng.self_ms"] = (table["rng"]["self_ms"], "ms")
    metrics["solver.solve.self_ms"] = (table["solver.solve"]["self_ms"], "ms")
    metrics["solver.iterations"] = (sum(r.outcome.iterations for r in records), "count")
    metrics["solver.stalled_converged"] = (
        sum(r.outcome.stalled_converged for r in records), "count")
    for name in ("axioms", "contraction", "isometry", "bounds", "oracle"):
        metrics[f"suites.{name}.self_ms"] = (table[f"suites.{name}"]["self_ms"], "ms")
    metrics["cli.self_ms"] = (table["cli"]["self_ms"], "ms")
    metrics["trace.spans"] = (len(tracer.name), "count")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())

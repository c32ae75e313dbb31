"""Summarise a result set written by ``record.py``.

    python3 bench/compare.py bench/results/NAME.json

For each side (source checkout) and each workload it prints the medians,
quartiles and spreads of the end-to-end metrics of BENCHMARK.json, and
the named figures of the detail line.  For a set recorded with two roots
(old, then new) it also judges every workload and end-to-end metric on
the pairs of runs with the same seed, which ``record.py`` ran one after
the other:

* unresolved - the spread (quartile distance over median) of either side
  exceeds the bound, and not every new run beats every old run;
* worse      - the new median is worse than the old by more than the bound;
* better     - the new run wins at least 9 in 10 pairs, ties counting for
  neither, and the new median is better by more than the old side's
  spread;
* unchanged  - otherwise.

It also says whether the output digests of equal seeds agree, and prints
the per-layer metrics of the traced runs side by side.  Only a set whose
two sides were recorded together is judged: two sets recorded apart met
different machine conditions.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Share of the pairs the new side must win to be called better.
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def runs_of(result_set, side, workload, trace=0) -> dict[int, dict]:
    """The runs of one side and workload, by seed."""
    return {run["seed"]: run for run in result_set["runs"]
            if run["side"] == side and run["workload"] == workload
            and run["trace"] == trace}


def metric_value(run, name):
    return run["result"]["metrics"][name]["value"]


def detail_value(run, name):
    return run["detail"]["named"].get(name, {}).get("value")


def verdict(pairs, bound: float, better: str) -> tuple[str, int]:
    """The verdict on (old, new) pairs, and the number of pairs new won."""
    sign = 1.0 if better == "higher" else -1.0
    old = [a for a, _ in pairs]
    new = [b for _, b in pairs]
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    if max(spread(old), spread(new)) > bound:
        if min(sign * v for v in new) > max(sign * v for v in old):
            return "better", wins
        return "unresolved", wins
    m_old, m_new = statistics.median(old), statistics.median(new)
    change = sign * (m_new - m_old) / abs(m_old)
    if change < -bound:
        return "worse", wins
    if wins >= WIN_SHARE * len(pairs) and change > spread(old):
        return "better", wins
    return "unchanged", wins


def workloads_of(result_set):
    return list(dict.fromkeys(run["workload"] for run in result_set["runs"]))


def fmt(values) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:11.5g} [{q1:.5g}, {q3:.5g}]"


def describe(result_set, side, spec, out) -> None:
    print(f"side {side}: {result_set['sides'][side]['commit']}", file=out)
    bounded = {m["name"] for m in spec["end_to_end"]}
    for workload in workloads_of(result_set):
        runs = list(runs_of(result_set, side, workload).values())
        print(f" {workload}  ({len(runs)} runs)", file=out)
        for m in spec["end_to_end"]:
            values = [metric_value(r, m["name"]) for r in runs]
            print(f"  {m['name']:<22}{fmt(values)}  spread {spread(values):.3f}"
                  f"  bound {m['bound']}", file=out)
        named = dict.fromkeys(n for r in runs for n in r["detail"]["named"])
        for name in (n for n in named if n not in bounded):
            values = [v for v in (detail_value(r, name) for r in runs) if v is not None]
            if values:
                print(f"  {name:<22}{fmt(values)}  spread {spread(values):.3f}"
                      "  (detail)", file=out)


def judge(result_set, spec, out) -> None:
    print("paired: side 0 (old) -> side 1 (new)", file=out)
    for workload in workloads_of(result_set):
        old_runs, new_runs = (runs_of(result_set, s, workload) for s in (0, 1))
        seeds = sorted(set(old_runs) & set(new_runs))
        print(f" {workload}  ({len(seeds)} pairs)", file=out)
        for m in spec["end_to_end"]:
            pairs = [(metric_value(old_runs[s], m["name"]),
                      metric_value(new_runs[s], m["name"])) for s in seeds]
            result, wins = verdict(pairs, m["bound"], m["better"])
            print(f"  {m['name']:<22}{fmt([a for a, _ in pairs])} ->"
                  f"{fmt([b for _, b in pairs])}  new wins {wins}/{len(pairs)}  "
                  f"{result}", file=out)
        same = sum(old_runs[s]["detail"]["digest"] == new_runs[s]["detail"]["digest"]
                   for s in seeds)
        print(f"  digests equal for {same} of {len(seeds)} seeds", file=out)
        old_traced, new_traced = (runs_of(result_set, s, workload, trace=1)
                                  for s in (0, 1))
        for seed in sorted(set(old_traced) & set(new_traced)):
            print(f"  traced seed {seed}:", file=out)
            for m in spec["per_layer"]:
                a = metric_value(old_traced[seed], m["name"])
                b = metric_value(new_traced[seed], m["name"])
                print(f"   {m['name']:<28}{a:14.6g} -> {b:<14.6g} {m['unit']}", file=out)


def report(result_set, out=sys.stdout) -> None:
    spec = json.loads(BENCHMARK.read_text())
    for side in range(len(result_set["sides"])):
        describe(result_set, side, spec, out)
    if len(result_set["sides"]) == 2:
        judge(result_set, spec, out)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    report(json.loads(Path(argv[0]).read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

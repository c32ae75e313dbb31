"""Smoke test of the benchmark at tiny sizes (a few seconds per workload).

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json with ``--size tiny``, untraced and
traced, and checks that the result line holds exactly the declared
metrics, that the outputs are correct and that every output check of the
workload ran.  It also checks that the benchmark fails, without a result
line, in a directory that holds only BENCHMARK.json and the benchmark,
and that the comparator gives the expected verdicts on made-up pairs.
The file name keeps it out of pytest's collection, and so out of tier-1.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import compare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# The op kinds, and so the output checks, each workload must exercise.
EXPECTED_CHECKS = {
    "solve": {"solve", "bushell"},
    "check": {"check"},
    "sym-large": {"bushell", "distance"},
}


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, text=True, capture_output=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            names = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != names:
                problems.append(f"{where}: metrics {got} != declared {names}")
            missing = EXPECTED_CHECKS[workload] - set(detail["checks_run"])
            if missing:
                problems.append(f"{where}: output checks not run: {sorted(missing)}")
            print(f"{where}: ok, {result['attempted']} calls, "
                  f"{result['failed']} failed", flush=True)

    # The comparator on made-up pairs: equal runs are unchanged, a 20 %
    # gain on every pair is better, a 50 % loss is worse.
    base = [10.0 + 0.1 * i for i in range(10)]
    for factor, expected in ((1.0, "unchanged"), (0.8, "better"), (1.5, "worse")):
        got, _ = compare.verdict([(v, v * factor) for v in base], 0.25, "lower")
        if got != expected:
            problems.append(f"compare.verdict at x{factor}: {got}, not {expected}")

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
        proc = run(Path(tmp), spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark did not fail without the source tree")
        else:
            print("without src/: fails as it should", flush=True)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

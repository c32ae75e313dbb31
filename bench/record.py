"""Run the benchmark over several seeds and write one result set.

    python3 bench/record.py --out bench/results/NAME.json ROOT
    python3 bench/record.py --out bench/results/NAME.json OLD_ROOT NEW_ROOT

Each ROOT is a source checkout (it holds ``src/symcone``); the benchmark
code is always this directory's.  Every workload of BENCHMARK.json runs
for its ``run_seconds`` once per seed untraced (``--trace 0``) and once
per trace seed traced (``--trace 1``), one run at a time, each in its own
process.  With two roots the runs alternate between them seed by seed,
on the same seeds, and which root goes first alternates too, so that
``compare.py`` can judge pairs taken under the same machine conditions.
The result set records the environment (commit of each root, Python and
numpy versions, CPU count and model, BLAS thread pinning) and every
run's detail and result lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

import compare

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def commit_of(root: Path) -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": "OPENBLAS/OMP/MKL_NUM_THREADS=1, set by bench/run.py",
    }


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, text=True, capture_output=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    spec = json.loads(compare.BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="1")
    parser.add_argument("--out", required=True)
    parser.add_argument("roots", nargs="+", type=Path, metavar="ROOT")
    args = parser.parse_args(argv)
    if len(args.roots) > 2:
        parser.error("give one root, or two to compare")
    for root in args.roots:
        if not (root / "src" / "symcone" / "__init__.py").is_file():
            parser.error(f"{root} is not a source checkout: no src/symcone")

    seconds = spec["run_seconds"]
    result_set = {"environment": environment(), "seconds": seconds,
                  "seeds": seed_list(args.seeds),
                  "sides": [{"commit": commit_of(root)} for root in args.roots],
                  "runs": []}
    sides = list(range(len(args.roots)))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            for k, seed in enumerate(seed_list(seeds) if seeds else []):
                for side in (sides if k % 2 == 0 else sides[::-1]):
                    run = run_once(args.roots[side], workload, seed, seconds, trace)
                    run.update(side=side, workload=workload, seed=seed, trace=trace)
                    result_set["runs"].append(run)
                    res = run["result"]
                    print(f"{workload} side={side} seed={seed} trace={trace} "
                          f"correct={res['correct']} attempted={res['attempted']} "
                          f"failed={res['failed']}", flush=True)
                    Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n")
    compare.report(result_set)
    return 0


if __name__ == "__main__":
    sys.exit(main())

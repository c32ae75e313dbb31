"""Inputs, operations and output checks of the three benchmark workloads.

A workload is a list of rounds; a round is a fixed, stratified list of
operations, so every round has the same composition and only the random
values differ.  Each operation is one call into symcone's public API (or
``symcone.cli.main``) plus a check of its output that uses numpy and
LAPACK as the oracle.  Calls go through module attributes
(``solver.solve``, ``metric.distance``, ...) so the tracer in
``tracing.py`` sees them.

``run.py`` puts ``src/`` on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from symcone import algebra, cli, metric, solver, transforms
from symcone.errors import NonConvergence
from symcone.rng import SplitMix64

# The solver's acceptance bound on the relative residual.
RESIDUAL_BOUND = 1e-10
# Direct numpy check of t'At = A^2.
BUSHELL_BOUND = 1e-10
# Relative agreement of a Hilbert distance with np.linalg.eigvalsh.
DISTANCE_RTOL = 1e-9

# The p of the solves, by factor spread of the words: e^{+-0.5} are the
# tests' "mild" words, e^{+-2} the realistic conditioning on which the stop
# rule stalls.  At e^{+-2} p = -2 is left out: there the seed code's sym:6
# stalls end with residuals up to 1.6e-9, above RESIDUAL_BOUND, at log
# conditions from 13.5 up (see known_defect_ops).
SOLVE_PS = {0.5: (-3.0, -2.0, 1.5, 2.0, 3.0), 2.0: (-3.0, 1.5, 2.0, 3.0)}
# Candidate words drawn per solve slot; see _stratified_words.
CANDIDATES = 4
# Largest log condition number (see _log_condition) of a solve word.  It
# binds only on the e^{+-2} words, whose log condition reaches 24.  On the
# seed code, some sym:6 words above it make solves leave the cone
# (NotInCone, seen at 19.2); known_defect_ops keeps reproducing that
# outside the timed workloads.  The stalls that reach the bound, which the
# stop-rule work is about, happen at every conditioning.
MAX_LOG_CONDITION = 15.0
SUITE_NAMES = ("axioms", "contraction", "isometry", "bounds", "oracle")
# Suite runs left out of the check mix: on the seed code about 1 in 300
# seeds of the isometry suite on sym:6 draws a word whose isometry slack
# exceeds the suite's 1e-8 (see known_defect_ops).
CHECK_EXCLUDED = {("isometry", "sym:6")}

# Sizes per workload; "tiny" is the smoke test's.
SIZES = {
    "full": {
        "solve_algebras": ("orthant:8", "sym:6", "spin:10"),
        "bushell_small": 3,
        "check_algebras": ("orthant:8", "sym:6", "spin:10"),
        "check_samples": 10,
        "large_solves": (12, 12, 12, 20),
        "large_distance": 20,
        "large_distances_per_solve": 8,
    },
    "tiny": {
        "solve_algebras": ("orthant:3", "sym:3", "spin:3"),
        "bushell_small": 2,
        "check_algebras": ("orthant:3", "sym:2", "spin:3"),
        "check_samples": 2,
        "large_solves": (4, 5),
        "large_distance": 5,
        "large_distances_per_solve": 2,
    },
}


@dataclass
class Outcome:
    """What one operation produced, after its output check."""

    failed: bool = False
    wrong: bool = False
    error: str | None = None
    digest: bytes = b""
    iterations: int = 0
    # NonConvergence whose partial report already meets RESIDUAL_BOUND.
    stalled_converged: bool = False


@dataclass
class Op:
    """One call into symcone: ``call`` is timed, ``check`` is not."""

    kind: str
    tag: str
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], Outcome]
    # Units of work in the call: suite samples for a check, else 1.
    units: int = 1
    # Where the op sits in the pool, to reproduce a failure from the seed.
    label: str = ""


def descriptor(tag: str) -> algebra.AlgebraDescriptor:
    kind, param = tag.split(":")
    return algebra.AlgebraDescriptor(kind, int(param))


def _packed(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _congruence_matrix(r: int, rng: SplitMix64, sigma: float) -> np.ndarray:
    """Random t with singular values log-uniform in [e^-sigma, e^sigma]."""
    svals = np.array([rng.log_uniform(math.exp(-sigma), math.exp(sigma))
                      for _ in range(r)])
    return rng.rotation(r) @ np.diag(svals) @ rng.rotation(r)


def _word(d: algebra.AlgebraDescriptor, rng: SplitMix64, sigma: float, length: int,
          max_log_condition: float = MAX_LOG_CONDITION):
    """random_word with factors in e^{+-sigma}, redrawn until it has
    `length` factors, a Quad or Congruence among them and a log condition
    of at most `max_log_condition`.  Words of only scalars and
    permutations fix the identity direction and would be one-step solves."""
    while True:
        word = transforms.random_word(d, rng, max_len=length,
                                      lo=math.exp(-sigma), hi=math.exp(sigma))
        if (len(word.factors) == length
                and any(isinstance(f, (transforms.Quad, transforms.Congruence))
                        for f in word.factors)
                and _log_condition(word) <= max_log_condition):
            return word


def _log_condition(word) -> float:
    """Log of the condition number of the word's action: the sum over its
    factors of 2 log(lmax/lmin) for Quad(a) and 2 log(smax/smin) for
    Congruence(t).  Computed with numpy, so that the inputs do not depend
    on the code under test."""
    total = 0.0
    for f in word.factors:
        if isinstance(f, transforms.Quad):
            c = f.a.coords
            if f.a.algebra.kind == algebra.SYM:
                eigs = np.linalg.eigvalsh(c)
            elif f.a.algebra.kind == algebra.ORTHANT:
                eigs = c
            else:
                nrm = np.linalg.norm(c[1:])
                eigs = np.array([c[0] - nrm, c[0] + nrm])
            total += 2.0 * math.log(eigs.max() / eigs.min())
        elif isinstance(f, transforms.Congruence):
            svals = np.linalg.svd(f.t, compute_uv=False)
            total += 2.0 * math.log(svals[0] / svals[-1])
    return total


def _stratified_words(d, rng: SplitMix64, sigma: float, index: int, slots: int):
    """`slots` words stratified on their conditioning: draw CANDIDATES
    words per slot, with lengths 1, 2, 3 in turn, sort them by
    _log_condition and take the middle word of each block of CANDIDATES.

    The conditioning sets how many Banach iterations a solve takes and
    whether it stalls.  With one independent word per slot the number of
    stalls in a run, and so the run's p90, varied about 20 % from seed to
    seed; stratified, every round holds the same spread of conditioning,
    from random_word's own distribution.  Which slot gets the hardest
    word rotates from round to round."""
    candidates = [_word(d, rng, sigma, 1 + (index + k) % 3)
                  for k in range(CANDIDATES * slots)]
    candidates.sort(key=_log_condition)
    chosen = candidates[CANDIDATES // 2::CANDIDATES]
    shift = index % slots
    return chosen[shift:] + chosen[:shift]


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------

def _final_report(report, error: BaseException | None):
    """The report a solve produced: its return value, or the partial
    report a NonConvergence carries (None for any other error)."""
    if error is None:
        return report
    return getattr(error, "report", None) if isinstance(error, NonConvergence) else None


def _solve_outcome(report, error: BaseException | None) -> Outcome:
    """Shared by solve and Bushell ops.  A solve passes when its solution
    meets RESIDUAL_BOUND.  That includes a NonConvergence whose partial
    report meets it: the stop rule stalled at its noise floor after the
    answer was reached.  Such a stall takes its full 500 iterations in the
    timed call and is counted as stalled_converged, not as failed."""
    final = _final_report(report, error)
    if final is None:
        return Outcome(failed=True, error=type(error).__name__)
    out = Outcome(iterations=final.iterations, digest=final.solution.coords.tobytes())
    if error is not None:
        if final.residual <= RESIDUAL_BOUND:
            out.stalled_converged = True
        else:
            out.failed = True
            out.error = f"{type(error).__name__}, residual {final.residual:.3e}"
    elif not (report.converged and report.residual <= RESIDUAL_BOUND):
        out.failed = out.wrong = True
        out.error = f"residual {report.residual:.3e}"
    return out


def solve_op(word, p: float, tag: str, label: str) -> Op:
    cfg = solver.SolveConfig(p=p)
    return Op("solve", tag, lambda: solver.solve(word, cfg), _solve_outcome,
              label=label)


def bushell_op(t: np.ndarray, tag: str, label: str) -> Op:
    def check(report, error):
        out = _solve_outcome(report, error)
        if out.failed:
            return out
        a = _final_report(report, error).solution.coords
        square = a @ a
        gap = np.max(np.abs(t.T @ a @ t - square)) / (1.0 + np.max(np.abs(square)))
        definite = np.array_equal(a, a.T) and np.linalg.eigvalsh(a)[0] > 0.0
        if not (gap <= BUSHELL_BOUND and definite):
            out.failed = out.wrong = True
            out.error = f"t'At - A^2 gap {gap:.3e}, definite={definite}"
        return out

    return Op("bushell", tag, lambda: solver.solve_bushell(t, 1), check, label=label)


def distance_op(x, y, tag: str, label: str) -> Op:
    def check(rep, error):
        if error is not None:
            return Outcome(failed=True, error=type(error).__name__)
        out = Outcome(digest=_packed(rep.lambda_max, rep.lambda_min, rep.distance))
        # Eigenvalues of P(y^-1/2)x are those of the congruence L^-1 x L^-T.
        linv = np.linalg.inv(np.linalg.cholesky(y.coords))
        z = linv @ x.coords @ linv.T
        eigs = np.linalg.eigvalsh(0.5 * (z + z.T))
        ref = (eigs[-1], eigs[0], math.log(eigs[-1] / eigs[0]))
        got = (rep.lambda_max, rep.lambda_min, rep.distance)
        if any(abs(g - r) > DISTANCE_RTOL * abs(r) for g, r in zip(got, ref)):
            out.failed = out.wrong = True
            out.error = f"distance {rep.distance!r} vs eigvalsh {ref[2]!r}"
        return out

    return Op("distance", tag, lambda: metric.distance(x, y), check, label=label)


def check_op(suite: str, tag: str, samples: int, seed: int) -> Op:
    argv = ["check", suite, "--algebra", tag, "--samples", str(samples),
            "--seed", str(seed)]

    def call():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(result, error):
        if error is not None:
            return Outcome(failed=True, error=type(error).__name__)
        code, text, err = result
        where = f"check {suite} {tag} --seed {seed}"
        if code == 6:
            failing = [c["name"] for c in json.loads(text)["checks"] if not c["passed"]]
            return Outcome(failed=True, error=f"{where}: exit 6, failed {failing}")
        if code != 0:
            return Outcome(failed=True, error=f"{where}: exit {code}: {err.strip()[:200]}")
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return Outcome(failed=True, wrong=True, error=f"{where}: bad JSON: {exc}")
        slacks = [c["worst_slack"] for c in report["checks"]]
        out = Outcome(digest=_packed(*(math.nan if s is None else s for s in slacks)))
        if report.get("passed") is not True:
            out.failed = out.wrong = True
            out.error = f"{where}: exit 0 without passed: true"
        return out

    return Op("check", tag, call, check, units=samples, label=" ".join(argv))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def solve_round(index: int, rng: SplitMix64, size: dict) -> list[Op]:
    """One word per family x spread x p, plus one Bushell solve."""
    ops = []
    for tag in size["solve_algebras"]:
        d = descriptor(tag)
        for sigma, ps in SOLVE_PS.items():
            words = _stratified_words(d, rng, sigma, index, len(ps))
            for p, word in zip(ps, words):
                label = (f"round {index} slot {len(ops)}: {tag} e^+-{sigma} p={p} "
                         f"len={len(word.factors)}")
                ops.append(solve_op(word, p, tag, label))
    r = size["bushell_small"]
    ops.append(bushell_op(_congruence_matrix(r, rng, 0.5), f"sym:{r}",
                          f"round {index} slot {len(ops)}: bushell sym:{r}"))
    return ops


def check_round(index: int, rng: SplitMix64, size: dict) -> list[Op]:
    """Every suite on every algebra but CHECK_EXCLUDED, each with its own
    suite seed."""
    return [check_op(suite, tag, size["check_samples"], rng.integer(1 << 31))
            for tag in size["check_algebras"] for suite in SUITE_NAMES
            if (suite, tag) not in CHECK_EXCLUDED]


def sym_large_round(index: int, rng: SplitMix64, size: dict) -> list[Op]:
    """Bushell solves at large r, each followed by a few distances at the
    largest r.  With the full sizes the distances are 32 of the 36 calls,
    so p50 and p75 fall well inside the distance times and not on the
    step up to the Bushell solves."""
    r = size["large_distance"]
    d = descriptor(f"sym:{r}")
    ops = []
    for rs in size["large_solves"]:
        ops.append(bushell_op(_congruence_matrix(rs, rng, 0.5), f"sym:{rs}",
                              f"round {index} slot {len(ops)}: bushell sym:{rs}"))
        for _ in range(size["large_distances_per_solve"]):
            x = transforms.random_cone_element(d, rng)
            y = transforms.random_cone_element(d, rng)
            ops.append(distance_op(x, y, f"sym:{r}",
                                   f"round {index} slot {len(ops)}: distance sym:{r}"))
    return ops


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[int, SplitMix64, dict], list[Op]]
    # Rounds generated in set-up; the run cycles through them.
    pool_rounds: int
    # Rounds every run completes first: the traced run times exactly these,
    # and the output digest covers exactly these.
    fixed_rounds: int
    # Workload-specific figures of the detail line, beside set-up time,
    # peak memory and fail ratio.
    named: tuple[str, ...]


WORKLOADS = {
    "solve": Workload(solve_round, pool_rounds=12, fixed_rounds=2,
                      named=("solve_per_s", "solve_p50_ms", "solve_p90_ms",
                             "stall_ratio")),
    "check": Workload(check_round, pool_rounds=40, fixed_rounds=2,
                      named=("check_samples_per_s",)),
    "sym-large": Workload(sym_large_round, pool_rounds=8, fixed_rounds=1,
                          named=("solve_per_s", "distance_per_s")),
}


def build_pool(workload: Workload, seed: int, size: dict) -> list[list[Op]]:
    rng = SplitMix64(seed)
    return [workload.make_round(i, rng, size) for i in range(workload.pool_rounds)]


def known_defect_ops(workload: str) -> list[Op]:
    """Inputs kept out of a workload because the seed code fails on them
    (MAX_LOG_CONDITION, CHECK_EXCLUDED).  The traced run calls them after
    the workload, untimed and outside attempted/failed, and reports
    whether each still fails, so that the defects stay in view."""
    sym6 = descriptor("sym:6")

    def uncapped(seed: int):
        return _word(sym6, SplitMix64(seed), 2.0, 3, max_log_condition=math.inf)

    if workload == "solve":
        return [
            solve_op(uncapped(1), -2.0, "sym:6",
                     "solve p=-2 on the e^+-2 sym:6 word of SplitMix64(1), "
                     "log condition 17.1: stalls with residual 3.7e-10"),
            solve_op(uncapped(57), 1.5, "sym:6",
                     "solve p=1.5 on the e^+-2 sym:6 word of SplitMix64(57), "
                     "log condition 19.2: NotInCone"),
        ]
    if workload == "check":
        return [check_op("isometry", "sym:6", 10, 1736065177),
                check_op("isometry", "sym:6", 10, 1811472829)]
    return []

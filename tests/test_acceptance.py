"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines as they complete.
"""

import math
import time

import numpy as np
import pytest

import symcone as sc
from symcone import suites
from symcone.rng import SplitMix64
from symcone.transforms import random_cone_element

from conftest import ACCEPTANCE_ALGEBRAS, banach_iteration_bound, el, mild_word

SOLVE_PS = (-3.0, -2.0, 1.5, 2.0, 3.0)


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. metric axioms
# ---------------------------------------------------------------------------

def test_criterion_1_metric_axioms():
    t0 = time.perf_counter()
    worst = {}
    ok = True
    for descriptor in ACCEPTANCE_ALGEBRAS:
        res = suites.axioms_suite(descriptor, 1000, 101)
        by_name = {c.name: c for c in res.checks}
        for name, limit in (("metric_symmetry", 1e-10),
                            ("metric_triangle", 1e-9),
                            ("metric_projectivity", 1e-10)):
            check = by_name[name]
            assert check.limit == limit
            ok = ok and check.passed
            key = f"{descriptor.kind}:{name.split('_')[1]}"
            worst[key] = check.worst
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _verdict("1 metric axioms (1000 pairs/triples per algebra)", ok,
             f"{detail}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    ok = True
    details = []
    for descriptor in ACCEPTANCE_ALGEBRAS:
        res = suites.oracle_suite(descriptor, 200, 202)
        by_name = {c.name: c for c in res.checks}
        bis = by_name["bisection_matches_lambda_max"]
        ok = ok and bis.count == 200 and bis.worst <= 1e-7
        details.append(f"{descriptor.kind} bisect={bis.worst:.1e}")
        if descriptor.kind == "orthant":
            exact = by_name["orthant_ratio_closed_form"]
            ok = ok and exact.worst <= 1e-12
            details.append(f"orthant exact={exact.worst:.1e}")
    _verdict("2 oracle equivalence (200 pairs per algebra)", ok,
             ", ".join(details))


# ---------------------------------------------------------------------------
# 3. contraction theorem
# ---------------------------------------------------------------------------

def test_criterion_3_contraction():
    ok = True
    worst_excess = -math.inf
    for descriptor in ACCEPTANCE_ALGEBRAS:
        res = suites.contraction_suite(descriptor, 1000, 303)
        for check in res.checks:
            ok = ok and check.worst <= 1e-9
            worst_excess = max(worst_excess, check.worst)
    o2 = sc.orthant(2)
    x = el(o2, [1, 16])
    y = el(o2, [1, 1])
    ratio = (sc.distance(sc.power(x, 0.5), sc.power(y, 0.5)).distance
             / sc.distance(x, y).distance)
    pair_ok = abs(ratio - 0.5) <= 1e-12
    ok = ok and pair_ok
    _verdict("3 power-map contraction (1000 pairs per algebra, 7 exponents)",
             ok, f"worst ratio excess={worst_excess:.1e}, "
                 f"shared-frame ratio={ratio:.15f}")


# ---------------------------------------------------------------------------
# 4. isometries
# ---------------------------------------------------------------------------

def test_criterion_4_isometries():
    ok = True
    worst = -math.inf
    for descriptor in ACCEPTANCE_ALGEBRAS:
        res = suites.isometry_suite(descriptor, 500, 404)
        for check in res.checks:
            ok = ok and check.worst <= 1e-8
            worst = max(worst, check.worst)
    _verdict("4 isometries (words and inversion, 500 pairs per algebra)", ok,
             f"worst |ratio-1|={worst:.1e}")


# ---------------------------------------------------------------------------
# 5. norm-metric bounds
# ---------------------------------------------------------------------------

def test_criterion_5_norm_metric_bounds():
    ok = True
    details = []
    for descriptor in ACCEPTANCE_ALGEBRAS:
        res = suites.bounds_suite(descriptor, 1000, 505)
        upper, lower = res.checks
        ok = ok and upper.passed and lower.passed and lower.count > 0
        details.append(f"{descriptor.kind} up={upper.worst:.1e} "
                       f"low={lower.worst:.1e}({lower.count})")
    _verdict("5 norm-metric bounds (1000 normalized pairs per algebra)", ok,
             ", ".join(details))


# ---------------------------------------------------------------------------
# 6 + 9. main theorem reproduction and per-step contraction factor
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def theorem_runs():
    runs = []
    t0 = time.perf_counter()
    for descriptor in ACCEPTANCE_ALGEBRAS:
        rng = SplitMix64(606)
        for i in range(50):
            p = SOLVE_PS[i % len(SOLVE_PS)]
            word = mild_word(descriptor, rng)
            cfg = sc.SolveConfig(p=p)
            rep = sc.solve(word, cfg)
            start = random_cone_element(descriptor, rng)
            rep2 = sc.solve(word, sc.SolveConfig(p=p, initial=start))
            runs.append((descriptor, p, cfg, rep, rep2))
    return runs, time.perf_counter() - t0


def test_criterion_6_main_theorem(theorem_runs):
    runs, elapsed = theorem_runs
    ok = len(runs) == 150
    worst_res = 0.0
    worst_gap = 0.0
    for descriptor, p, cfg, rep, rep2 in runs:
        ok = ok and rep.converged and rep2.converged
        ok = ok and rep.residual <= 1e-10 and rep2.residual <= 1e-10
        worst_res = max(worst_res, rep.residual, rep2.residual)
        if rep.distance_trace:
            bound = banach_iteration_bound(rep.distance_trace[0], p, cfg.tol)
            ok = ok and rep.iterations <= bound + 2
        gap = sc.spectral_norm(rep.solution - rep2.solution) / (
            1 + sc.spectral_norm(rep.solution))
        ok = ok and gap <= 1e-8
        worst_gap = max(worst_gap, gap)
    ok = ok and elapsed < 60.0
    _verdict("6 main theorem (50 instances per algebra, p in {-3,-2,1.5,2,3})",
             ok, f"worst residual={worst_res:.1e}, worst start-gap={worst_gap:.1e}, "
                 f"{elapsed:.1f}s")


def test_criterion_9_per_step_contraction(theorem_runs):
    runs, _ = theorem_runs
    ok = True
    worst = -math.inf
    for _, p, _, rep, rep2 in runs:
        for r in (rep, rep2):
            if r.converged:
                excess = r.contraction_estimate - 1.0 / abs(p)
                ok = ok and 0.0 <= r.contraction_estimate <= 1.0 / abs(p) + 1e-3
                worst = max(worst, excess)
    _verdict("9 fitted contraction factor within 1/|p| + 1e-3", ok,
             f"worst excess={worst:.1e}")


# ---------------------------------------------------------------------------
# 7. Bushell equation
# ---------------------------------------------------------------------------

def test_criterion_7_bushell():
    rng = SplitMix64(707)
    t = rng.normal_matrix(3, 3)
    assert np.max(np.abs(t - t.T)) > 1e-2
    assert np.max(np.abs(t.T @ t - np.eye(3))) > 1e-2
    t0 = time.perf_counter()
    rep = sc.solve_bushell(t, 1)
    elapsed = time.perf_counter() - t0
    a = rep.solution.coords
    residual = np.max(np.abs(t.T @ a @ t - a @ a)) / (1 + np.max(np.abs(a @ a)))
    eigs = np.linalg.eigvalsh(a)
    spd = bool(eigs[0] > 0) and np.max(np.abs(a - a.T)) == 0.0
    diag_rep = sc.solve_bushell(np.diag([2.0, 3.0]), 1, tol=1e-14)
    diag_err = np.max(np.abs(diag_rep.solution.coords - np.diag([4.0, 9.0])))
    ok = (residual <= 1e-10 and elapsed < 1.0 and spd and diag_err <= 1e-12)
    _verdict("7 Bushell equation t'At = A^2", ok,
             f"residual={residual:.1e}, diag err={diag_err:.1e}, "
             f"{elapsed * 1000:.0f}ms")


# ---------------------------------------------------------------------------
# 8. closed-form orthant solve
# ---------------------------------------------------------------------------

def test_criterion_8_orthant_closed_form():
    d = np.array([0.5, 1.3, 2.0, 3.7])
    o4 = sc.orthant(4)
    word = sc.AutomorphismWord(o4, (sc.Quad(el(o4, np.sqrt(d))),))
    ok = True
    worst = 0.0
    for p in (2.0, 3.0, -2.0):
        rep = sc.solve(word, sc.SolveConfig(p=p))
        expected = d ** (1.0 / (p - 1.0))
        err = float(np.max(np.abs(rep.solution.coords - expected)))
        ok = ok and err <= 1e-10 and rep.converged
        worst = max(worst, err)
    _verdict("8 closed-form orthant solve x_i = d_i^(1/(p-1))", ok,
             f"worst coordinate error={worst:.1e}")

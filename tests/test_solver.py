import math

import numpy as np
import pytest

import symcone as sc
from symcone import algebra, metric, solver, transforms
from symcone.errors import NonConvergence, NotInCone, SingularMatrix
from symcone.rng import SplitMix64
from symcone.transforms import random_cone_element

from conftest import (
    banach_iteration_bound,
    count_jacobi,
    el,
    element_loop_solve,
    inverse_word,
    mild_word,
)

O2 = sc.orthant(2)


def test_config_validation():
    with pytest.raises(ValueError):
        sc.SolveConfig(p=0.5)
    with pytest.raises(ValueError):
        sc.SolveConfig(p=1.0)
    with pytest.raises(ValueError):
        sc.SolveConfig(p=-1.0)
    with pytest.raises(ValueError):
        sc.SolveConfig(p=2.0, tol=0.0)
    for max_iter in (0, -1, 2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="max_iter"):
            sc.SolveConfig(p=2.0, max_iter=max_iter)
    for p in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            sc.SolveConfig(p=p)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError):
            sc.SolveConfig(p=2.0, tol=tol)
    # Only real numbers, never a bool, a string or None.
    for p in ("3", True, None):
        with pytest.raises(ValueError, match="p="):
            sc.SolveConfig(p=p)
    for tol in ("1e-12", None, True):
        with pytest.raises(ValueError, match="tol"):
            sc.SolveConfig(p=2.0, tol=tol)
    for initial in ("x", [1.0, 1.0], np.ones(2)):
        with pytest.raises(ValueError, match="initial"):
            sc.SolveConfig(p=2.0, initial=initial)
    assert sc.SolveConfig(p=3, tol=1).tol == 1
    assert sc.SolveConfig(p=np.float64(2.0), max_iter=np.int64(5)).max_iter == 5


def test_identity_map_p2():
    rep = sc.solve(sc.AutomorphismWord(O2, ()), sc.SolveConfig(p=2.0))
    np.testing.assert_allclose(rep.solution.coords, [1, 1], atol=1e-12)
    assert rep.iterations <= 2
    assert rep.converged


def test_identity_map_p_minus2(small_algebra):
    rep = sc.solve(sc.AutomorphismWord(small_algebra, ()), sc.SolveConfig(p=-2.0))
    e = small_algebra.identity()
    assert sc.spectral_norm(rep.solution - e) <= 1e-10
    assert rep.converged


def test_orthant_diagonal_closed_form():
    # g(x) = (4 x1, 9 x2) realized as P((2,3)); fixed point of g(x) = x^2
    # solves d_i x_i = x_i^2 componentwise.
    g = sc.AutomorphismWord(O2, (sc.Quad(el(O2, [2, 3])),))
    rep = sc.solve(g, sc.SolveConfig(p=2.0))
    np.testing.assert_allclose(rep.solution.coords, [4, 9], rtol=1e-10)
    assert rep.residual <= 1e-10
    assert rep.converged


@pytest.mark.parametrize("p", [2.0, 3.0, -2.0])
def test_orthant_closed_form_all_p(p):
    d = np.array([0.8, 1.7, 2.6])
    o3 = sc.orthant(3)
    g = sc.AutomorphismWord(o3, (sc.Quad(el(o3, np.sqrt(d))),))
    rep = sc.solve(g, sc.SolveConfig(p=p))
    expected = d ** (1.0 / (p - 1.0))
    assert np.max(np.abs(rep.solution.coords - expected)) <= 1e-10 * (
        1 + np.max(expected))


def test_initial_point_must_be_interior():
    with pytest.raises(NotInCone):
        sc.solve(sc.AutomorphismWord(O2, ()),
                 sc.SolveConfig(p=2.0, initial=el(O2, [1, 0])))
    with pytest.raises(sc.AlgebraMismatch):
        sc.solve(sc.AutomorphismWord(O2, ()),
                 sc.SolveConfig(p=2.0, initial=el(sc.orthant(3), [1, 1, 1])))


def test_iteration_runs_two_eigensolves(monkeypatch):
    # g(x)'s decomposition and the spectrum of the step; the norm of
    # g(x)^{1/p} comes from the decomposition, and a step of exactly 0.0
    # (x_next equal to x byte for byte, as for the scalar word) needs no
    # eigensolve.
    calls = count_jacobi(monkeypatch)
    s4 = sc.sym_matrix(4)
    for word in (mild_word(s4, SplitMix64(31)), sc.AutomorphismWord(s4, (sc.Scalar(4.0),))):
        calls.clear()
        rep = sc.solve(word, sc.SolveConfig(p=2.0, tol=1e-10))
        # Outside the loop: the initial point's cone test, then u's
        # decomposition, |g(u)| and the residual's |g(a) - a^p|; |u^p|, a^p
        # and |a^p| come from u's decomposition.
        zero_steps = rep.distance_trace.count(0.0)
        assert len(calls) == 2 * rep.iterations + 4 - zero_steps
        assert calls.count(True) == rep.iterations + 1
    assert zero_steps == 1


def test_exact_fixed_point_records_a_zero_step(small_algebra):
    # g(e) = 4e, and 4^(1/2) = 2 is exact: the first iterate is e again,
    # byte for byte, so the step is d(e, e) = 0 exactly.
    for word in (sc.AutomorphismWord(small_algebra, ()),
                 sc.AutomorphismWord(small_algebra, (sc.Scalar(4.0),))):
        rep = sc.solve(word, sc.SolveConfig(p=2.0))
        assert rep.distance_trace == (0.0,)
        assert rep.contraction_estimate == 0.0


def test_zero_step_from_a_fixed_point_off_the_identity():
    # P(a)x = x^2 at x = a^2; with powers of two every operation is exact,
    # so the iterate started at a^2 / |a^2| comes back byte for byte.
    a = [1.0, 0.5, 0.25]
    for d, coords in ((sc.orthant(3), lambda v: v), (sc.sym_matrix(3), np.diag)):
        g = sc.AutomorphismWord(d, (sc.Quad(el(d, coords(a))),))
        start = el(d, coords(np.square(a)))
        rep = sc.solve(g, sc.SolveConfig(p=2.0, initial=start))
        assert rep.distance_trace == (0.0,)
        assert rep.solution.coords.tobytes() == start.coords.tobytes()


@pytest.mark.parametrize("descriptor", [sc.orthant(8), sc.sym_matrix(6), sc.spin_factor(10)],
                         ids=["orthant8", "sym6", "spin10"])
def test_steps_match_the_distance(monkeypatch, descriptor):
    # Each step, read from the decomposition of g(x_k), is the Hilbert
    # distance d(x_k, x_{k+1}) that metric.distance computes with its own
    # factorisation, to within 1e-13.  The iterates are the arguments of
    # the word's applications: x_0 .. x_{n-1} in the loop, then u = x_n
    # and the solution in the rescaling.
    apply_coords = transforms._apply_coords
    iterates = []

    def recorded(g, x):
        iterates.append(x)
        return apply_coords(g, x)

    monkeypatch.setattr(transforms, "_apply_coords", recorded)
    rng = SplitMix64(67)
    for p in (-3.0, -2.0, 1.5, 2.0, 3.0):
        g = mild_word(descriptor, rng)
        iterates.clear()
        rep = sc.solve(g, sc.SolveConfig(p=p))
        assert len(iterates) == rep.iterations + 2
        for k, step in enumerate(rep.distance_trace):
            x, x_next = (sc.Element(descriptor, c) for c in iterates[k:k + 2])
            assert abs(step - metric.distance(x, x_next).distance) <= 1e-13


def test_step_breakdown_is_not_in_cone(monkeypatch):
    # A step spectrum with a non-positive least eigenvalue, between two
    # iterates that are in the cone, raises NotInCone naming the step, not
    # the ValueError of math.log.  A quad with one entry negated forces it.
    kernel = algebra._KERNELS["orthant"]
    flip = np.array([1.0, 1.0, -1.0])
    monkeypatch.setitem(algebra._KERNELS, "orthant",
                        kernel._replace(quad=lambda a, x: flip * kernel.quad(a, x)))
    o3 = sc.orthant(3)
    g = sc.AutomorphismWord(o3, (sc.Scalar(2.0),))
    with pytest.raises(NotInCone, match="step 1: .* both iterates"):
        sc.solve(g, sc.SolveConfig(p=2.0, initial=el(o3, [1.0, 2.0, 3.0])))


def _outcome(solve, g, cfg):
    """(kind, report fields as bytes) of one solve, a NonConvergence's
    partial report included."""
    try:
        rep, kind = solve(g, cfg), "solved"
    except NonConvergence as exc:
        rep, kind = exc.report, "stalled"
    return (kind, rep.solution.coords.tobytes(), rep.iterations,
            np.array(rep.distance_trace).tobytes(),
            np.float64(rep.residual).tobytes(),
            np.float64(rep.contraction_estimate).tobytes(), rep.converged)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
@pytest.mark.parametrize("descriptor", [sc.orthant(8), sc.sym_matrix(6), sc.spin_factor(10)],
                         ids=["orthant8", "sym6", "spin10"])
def test_solve_matches_the_element_loop(descriptor, sigma):
    # The raw-coordinate loop reproduces the Element loop bit for bit, on
    # solves that converge, that stall at the noise floor (sym:6 at
    # sigma = 2, p = 1.5) and that run out of iterations.
    rng = SplitMix64(61 + int(4 * sigma))
    for p in (-3.0, -2.0, 1.5, 2.0, 3.0):
        g = mild_word(descriptor, rng, sigma)
        # Scalars and permutations alone are solved in one step.
        while not any(isinstance(f, (sc.Quad, sc.Congruence)) for f in g.factors):
            g = mild_word(descriptor, rng, sigma)
        for cfg in (sc.SolveConfig(p=p), sc.SolveConfig(p=p, max_iter=3)):
            assert _outcome(sc.solve, g, cfg) == _outcome(element_loop_solve, g, cfg)


def test_bushell_matches_the_element_loop():
    t = SplitMix64(63).normal_matrix(3, 3)
    word = sc.AutomorphismWord(sc.sym_matrix(3), (sc.Congruence(t),))
    cfg = sc.SolveConfig(p=2.0)
    assert _outcome(lambda g, c: sc.solve_bushell(t, 1), word, cfg) == _outcome(
        element_loop_solve, word, cfg)


def test_element_constructions_do_not_grow_with_iterations(monkeypatch):
    counts = []
    post_init = sc.Element.__post_init__

    def counted(self):
        counts[-1] += 1
        post_init(self)

    word = mild_word(sc.sym_matrix(4), SplitMix64(65))
    monkeypatch.setattr(sc.Element, "__post_init__", counted)
    iterations = []
    for tol in (1e-3, 1e-8, 1e-12):
        counts.append(0)
        iterations.append(sc.solve(word, sc.SolveConfig(p=2.0, tol=tol)).iterations)
    assert iterations[0] < iterations[1] < iterations[2]
    # The identity, its normalisation and u; then g(u), a, a^p, g(a) and
    # g(a) - a^p in the rescaling.
    assert counts == [8, 8, 8]


def test_iterate_leaving_the_cone_is_named(monkeypatch):
    monkeypatch.setattr(transforms, "_apply_coords", lambda g, x: -1.0 * x)
    with pytest.raises(NotInCone, match="an iterate left the open cone") as info:
        sc.solve(sc.AutomorphismWord(O2, ()), sc.SolveConfig(p=2.0))
    assert isinstance(info.value.__cause__, NotInCone)


def test_non_convergence_carries_report():
    g = sc.AutomorphismWord(O2, (sc.Quad(el(O2, [2, 3])),))
    with pytest.raises(NonConvergence) as info:
        sc.solve(g, sc.SolveConfig(p=2.0, max_iter=1))
    rep = info.value.report
    assert rep is not None
    assert not rep.converged
    assert rep.iterations == 1
    assert len(rep.distance_trace) == 1


def test_consecutive_ratio_bound(small_algebra):
    # The ratio check needs steps well above the fp noise of the computed
    # distance (~eps * conditioning), so it only applies above 1e-6.
    rng = SplitMix64(41)
    checked = 0
    for p in (1.5, 2.0, 3.0, -2.0, -3.0):
        for _ in range(4):
            g = mild_word(small_algebra, rng)
            rep = sc.solve(g, sc.SolveConfig(p=p))
            trace = rep.distance_trace
            for prev, nxt in zip(trace, trace[1:]):
                if prev > 1e-6:
                    assert nxt / prev <= 1.0 / abs(p) + 1e-6
                    checked += 1
    assert checked >= 20


def test_a_priori_iteration_bound(small_algebra):
    rng = SplitMix64(43)
    for p in (1.5, 2.0, 3.0, -2.0):
        g = mild_word(small_algebra, rng)
        cfg = sc.SolveConfig(p=p)
        rep = sc.solve(g, cfg)
        bound = banach_iteration_bound(rep.distance_trace[0], p, cfg.tol)
        assert rep.iterations <= bound


def test_uniqueness_from_two_starts(small_algebra):
    rng = SplitMix64(45)
    for p in (2.0, -2.0, 3.0):
        for _ in range(5):
            g = mild_word(small_algebra, rng)
            rep1 = sc.solve(g, sc.SolveConfig(p=p))
            start = random_cone_element(small_algebra, rng)
            rep2 = sc.solve(g, sc.SolveConfig(p=p, initial=start))
            gap = sc.spectral_norm(rep1.solution - rep2.solution)
            assert gap <= 1e-8 * (1 + sc.spectral_norm(rep1.solution))


def test_solution_interior_and_residual(small_algebra):
    rng = SplitMix64(47)
    g = mild_word(small_algebra, rng)
    cfg = sc.SolveConfig(p=2.0)
    rep = sc.solve(g, cfg)
    assert sc.in_cone(rep.solution)
    assert rep.residual <= 1e2 * cfg.tol
    assert rep.distance_trace[-1] <= cfg.tol * (1 - 1 / abs(cfg.p))


def test_iterates_are_cauchy_and_limit_interior(small_algebra):
    # trace is geometric-summable and the normalized limit stays interior
    rng = SplitMix64(49)
    g = mild_word(small_algebra, rng)
    rep = sc.solve(g, sc.SolveConfig(p=2.0))
    trace = rep.distance_trace
    tail = sum(trace[k] for k in range(1, len(trace)))
    assert tail <= trace[0] * (0.5 / (1 - 0.5)) + 1e-9
    u = sc.normalize(rep.solution)
    assert sc.lambda_min(u) > 0.0
    assert abs(sc.spectral_norm(u) - 1.0) <= 1e-12


def test_geometric_ratio_matches_polyfit(small_algebra):
    rng = SplitMix64(59)
    traces = [sc.solve(mild_word(small_algebra, rng), sc.SolveConfig(p=p)).distance_trace
              for p in (2.0, -3.0, 1.5)]
    traces += [[rng.log_uniform(1e-12, 1.0) for _ in range(2 + k)] for k in range(20)]
    traces.append([0.3, 0.0, 0.1, 0.0, 0.02])
    for trace in traces:
        logs = [(k, math.log(d)) for k, d in enumerate(trace) if d > 0.0]
        if len(logs) < 2:
            continue
        ks, ys = zip(*logs)
        want = math.exp(np.polyfit(ks, ys, 1)[0])
        assert abs(solver._fit_geometric_ratio(trace) - want) <= 1e-12 * want


def test_geometric_ratio_of_a_geometric_trace():
    for ratio in (0.5, 1.0 / 3.0, 0.9):
        trace = [0.7 * ratio ** k for k in range(30)]
        assert solver._fit_geometric_ratio(trace) == pytest.approx(ratio, rel=1e-14)
    assert solver._fit_geometric_ratio([0.5]) == 0.0
    assert solver._fit_geometric_ratio([0.5, 0.0, 0.0]) == 0.0


def test_contraction_estimate_range(small_algebra):
    rng = SplitMix64(51)
    for p in (2.0, 3.0, -2.0):
        g = mild_word(small_algebra, rng)
        rep = sc.solve(g, sc.SolveConfig(p=p))
        assert 0.0 <= rep.contraction_estimate <= 1.0 / abs(p) + 1e-3


# ---------------------------------------------------------------------------
# corollary form h(a^p) = a, solved as g(a) = a^p with g = h^{-1}
# ---------------------------------------------------------------------------

def solve_corollary(h, p):
    """The solution a of h(a^p) = a and its residual in that equation."""
    cfg = sc.SolveConfig(p=p)
    a = sc.solve(inverse_word(h), cfg).solution
    residual = sc.spectral_norm(sc.apply(h, sc.power(a, p)) - a) / (
        1.0 + sc.spectral_norm(a))
    assert residual <= 1e2 * cfg.tol
    return a, residual


def test_corollary_identity(small_algebra):
    for p in (2.0, -2.0, 1.5):
        a, _ = solve_corollary(sc.AutomorphismWord(small_algebra, ()), p)
        e = small_algebra.identity()
        assert sc.spectral_norm(a - e) <= 1e-10


def test_corollary_orthant_closed_form():
    # h(x) = (x1/4, x2/9); h(a^2) = a forces a_i^2 d_i = a_i, so a = (4, 9).
    h = sc.AutomorphismWord(O2, (sc.Quad(el(O2, [0.5, 1 / 3])),))
    a, residual = solve_corollary(h, 2.0)
    np.testing.assert_allclose(a.coords, [4, 9], rtol=1e-9)
    back = sc.apply(h, sc.power(a, 2.0))
    assert sc.spectral_norm(back - a) <= 1e-10 * (1 + sc.spectral_norm(a))
    assert residual <= 1e-10


def test_corollary_random_sym():
    s3 = sc.sym_matrix(3)
    rng = SplitMix64(53)
    for _ in range(5):
        h = mild_word(s3, rng)
        a, residual = solve_corollary(h, 3.0)
        assert residual <= 1e-10
        lhs = sc.apply(h, sc.power(a, 3.0))
        gap = sc.spectral_norm(lhs - a)
        assert gap <= 1e-9 * (1 + sc.spectral_norm(a))


# ---------------------------------------------------------------------------
# Bushell's equation t' A t = A^(2^k)
# ---------------------------------------------------------------------------

def test_bushell_identity():
    rep = sc.solve_bushell(np.eye(3), 1)
    np.testing.assert_allclose(rep.solution.coords, np.eye(3), atol=1e-10)


def test_bushell_diagonal():
    rep = sc.solve_bushell(np.diag([2.0, 3.0]), 1, tol=1e-14)
    np.testing.assert_allclose(rep.solution.coords, np.diag([4.0, 9.0]),
                               atol=1e-12)


def test_bushell_generic_r3():
    rng = SplitMix64(55)
    t = rng.normal_matrix(3, 3)
    assert abs(np.linalg.det(t)) > 1e-6
    assert np.max(np.abs(t - t.T)) > 1e-3          # not symmetric
    assert np.max(np.abs(t.T @ t - np.eye(3))) > 1e-3  # not orthogonal
    rep = sc.solve_bushell(t, 1)
    a = rep.solution.coords
    lhs = t.T @ a @ t
    rhs = a @ a
    assert np.max(np.abs(lhs - rhs)) / (1 + np.max(np.abs(rhs))) <= 1e-10
    assert sc.in_cone(rep.solution)
    # unique: a second start lands on the same matrix
    start = random_cone_element(sc.sym_matrix(3), rng)
    rep2 = sc.solve_bushell(t, 1, initial=start)
    assert sc.spectral_norm(rep2.solution - rep.solution) <= 1e-8 * (
        1 + sc.spectral_norm(rep.solution))


def test_bushell_k2():
    rng = SplitMix64(57)
    t = rng.normal_matrix(2, 2)
    rep = sc.solve_bushell(t, 2)
    a = rep.solution.coords
    lhs = t.T @ a @ t
    rhs = np.linalg.matrix_power(a, 4)
    assert np.max(np.abs(lhs - rhs)) / (1 + np.max(np.abs(rhs))) <= 1e-10


def test_bushell_singularity_test_is_scale_invariant():
    # det(0.2 I) = 1e-14 at order 20, yet the matrix is perfectly conditioned.
    rep = sc.solve_bushell(0.2 * np.eye(20), 1)
    np.testing.assert_allclose(rep.solution.coords, 0.04 * np.eye(20), rtol=1e-12,
                               atol=1e-14)
    with pytest.raises(SingularMatrix):
        sc.solve_bushell(1e-3 * np.outer([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]), 1)


@pytest.mark.parametrize("t", [np.diag([5.0] + [1.0] * 19), np.diag([100.0] + [1.0] * 7)])
def test_bushell_accepts_well_conditioned_t(t):
    rep = sc.solve_bushell(t, 1)
    # t' A t = A^2 with diagonal t has the solution A = t^2.
    np.testing.assert_allclose(rep.solution.coords, t @ t, rtol=1e-10)


def test_power_norm_keeps_a_nan_at_the_low_end():
    assert math.isnan(solver._power_norm(np.power([2.0, math.nan], 2.0)))
    assert solver._power_norm(np.power([2.0, 0.5], -1.0)) == 2.0


@pytest.mark.parametrize("k", [62, 200, 1023])
def test_bushell_scale_overflow_is_not_a_solution(k):
    # lambda_max(u) = 1 + eps, so |u^p| overflows for p = 2^k above about
    # 3e18, and the scale beta = (|g(u)| / |u^p|)^(1/(p-1)) came out 0: the
    # zero matrix was returned with residual 0 as a converged solution.
    with pytest.raises(NonConvergence, match="over- or underflows") as info:
        sc.solve_bushell([[1.2, 0.1], [0.0, 0.9]], k)
    assert info.value.report is None


def test_solution_scale_overflow_is_not_a_raw_error():
    # a = 4^(1/(p-1)) e overflows; the power raised OverflowError.
    g = sc.AutomorphismWord(O2, (sc.Scalar(4.0),))
    with pytest.raises(NonConvergence, match="over- or underflows"):
        sc.solve(g, sc.SolveConfig(p=1.0001))


def test_bushell_refuses_k_beyond_the_float_range():
    # 2^1024 is not a float: float(2 ** k) raised OverflowError.
    with pytest.raises(ValueError, match="2\\^k"):
        sc.solve_bushell(np.eye(2), 1024)
    with pytest.raises(ValueError):
        sc.solve_bushell(np.eye(2), 10**6)


def test_bushell_rejects_singular():
    with pytest.raises(SingularMatrix):
        sc.solve_bushell(np.zeros((2, 2)), 1)
    with pytest.raises(SingularMatrix):
        sc.solve_bushell(np.ones((2, 3)), 1)
    with pytest.raises(ValueError):
        sc.solve_bushell(np.eye(2), 0)

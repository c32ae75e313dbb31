import hashlib
import math
import re
import warnings

import numpy as np
import pytest

import symcone as sc
from symcone import algebra, metric, solver, transforms
from symcone.errors import NonConvergence, NotInCone, SingularMatrix
from symcone.rng import SplitMix64
from symcone.transforms import random_cone_element

from conftest import (
    OVERFLOWING_EIGENVALUE,
    REPORT_DIGESTS,
    assert_report_keeps_its_bits,
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


@pytest.mark.parametrize("descriptor, coords", [
    (sc.orthant(3), [math.inf, 1.0, 1.0]),
    (sc.spin_factor(3), [math.inf, 1.0, 0.0]),
    (sc.sym_matrix(2), np.diag([math.inf, 1.0])),
], ids=["orthant3", "spin3", "sym2"])
def test_solve_names_a_non_finite_initial_point(descriptor, coords):
    # The orthant and spin solves warned "invalid value encountered in
    # multiply" and blamed an overflowing g(x); the sym one raised the
    # Jacobi's "needs finite entries".
    g = sc.AutomorphismWord(descriptor, (sc.Scalar(2.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotInCone, match="initial point has a NaN or infinite coordinate"):
            sc.solve(g, sc.SolveConfig(p=2.0, initial=el(descriptor, coords)))


@pytest.mark.parametrize("descriptor, coords", [
    (sc.orthant(3), [1e308, 1e308, 1e-308]),
    (sc.sym_matrix(2), np.diag([1e308, 1e-308])),
], ids=["orthant3", "sym2"])
def test_solve_names_an_initial_point_whose_scaling_underflows(descriptor, coords):
    # Scaled to spectral norm 1 the least eigenvalue became 0, and the solve
    # blamed the map: "an iterate left the open cone".
    g = sc.AutomorphismWord(descriptor, (sc.Scalar(2.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotInCone, match="initial point cannot be scaled to spectral "
                                            "norm 1: its least eigenvalue 1e-308 underflows"):
            sc.solve(g, sc.SolveConfig(p=2.0, initial=el(descriptor, coords)))


def test_solve_names_an_initial_point_whose_largest_eigenvalue_overflows():
    # Its coordinates are finite, but x0 + ||xbar|| is not; the error said
    # that the least eigenvalue 5e+307 underflows to 0 at the scale 1/inf.
    g = sc.AutomorphismWord(sc.spin_factor(3), (sc.Scalar(2.0),))
    x0 = el(sc.spin_factor(3), [1.5e308, 1e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotInCone, match="initial point cannot be scaled to spectral "
                                            "norm 1: its largest eigenvalue overflows"):
            sc.solve(g, sc.SolveConfig(p=2.0, initial=x0))


def test_a_converged_iteration_with_a_large_residual_does_not_converge():
    # One exact step (0.0), then a residual of 1.160e-16 above 100 * tol.
    g = sc.AutomorphismWord(O2, (sc.Scalar(2.0),))
    with pytest.raises(NonConvergence) as info:
        sc.solve(g, sc.SolveConfig(p=3.0, tol=1e-19))
    assert str(info.value) == ("iteration converged but the residual 1.160e-16 "
                               "exceeds 1.000e-17")
    rep = info.value.report
    assert (rep.iterations, rep.distance_trace, rep.converged) == (1, (0.0,), False)
    assert rep.residual > 1e2 * 1e-19


# sha256 of the solves below, recorded before solve checked its initial
# point for non-finite coordinates and for a scaling that underflows.
WELL_SCALED_INITIAL_DIGEST = "db45346868ae195ff21c6a5d727cf1e4c52cce03fc64ad8b9f7ba2f9abaa6e7d"


def test_solves_from_well_scaled_initial_points_keep_their_bits():
    digest = hashlib.sha256()
    rng = SplitMix64(131)
    for descriptor in (sc.orthant(8), sc.sym_matrix(6), sc.spin_factor(10)):
        g = mild_word(descriptor, rng)
        for scale in (1e-200, 1e-3, 1.0, 1e5, 1e200):
            x0 = scale * random_cone_element(descriptor, rng)
            for p in (-2.0, 2.0):
                cfg = sc.SolveConfig(p=p, initial=x0)
                digest.update(repr(_outcome(sc.solve, g, cfg)).encode())
    assert digest.hexdigest() == WELL_SCALED_INITIAL_DIGEST


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
    # the ValueError of math.log, on every family.  A fixed-point step whose
    # least eigenvalue is negated forces it.
    starts = {algebra.ORTHANT: (3, [1.0, 2.0, 3.0]),
              algebra.SYM: (3, np.diag([1.0, 2.0, 3.0])),
              algebra.SPIN: (3, [3.0, 1.0, 0.5])}
    for kind, (param, coords) in starts.items():
        kernel = algebra._KERNELS[kind]

        def flipped(*args, step=kernel.fixed_point_step):
            x_next, (high, low), basis = step(*args)
            return x_next, (high, -low), basis

        monkeypatch.setitem(algebra._KERNELS, kind, kernel._replace(fixed_point_step=flipped))
        descriptor = sc.AlgebraDescriptor(kind, param)  # made after the patch
        g = sc.AutomorphismWord(descriptor, (sc.Scalar(2.0),))
        with pytest.raises(NotInCone, match="step 1: .* both iterates"):
            sc.solve(g, sc.SolveConfig(p=2.0, initial=el(descriptor, coords)))


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


def _outcome_or_cone_error(solve, g, cfg):
    """_outcome, or the messages of an iterate that left the cone (as some
    e^+-2 words do at p = +-1.05) and of the error that caused it."""
    try:
        return _outcome(solve, g, cfg)
    except NotInCone as exc:
        return ("left the cone", str(exc), str(exc.__cause__))


@pytest.mark.parametrize("sigma", [0.5, 2.0])
@pytest.mark.parametrize("descriptor", [sc.orthant(8), sc.sym_matrix(6), sc.spin_factor(10),
                                        sc.orthant(3), sc.spin_factor(2), sc.spin_factor(3)],
                         ids=["orthant8", "sym6", "spin10", "orthant3", "spin2", "spin3"])
def test_solve_matches_the_element_loop(descriptor, sigma):
    # The kernel's fixed-point step reproduces the Element loop bit for bit,
    # on solves that converge, that stall at the noise floor (sym:6 at
    # sigma = 2, p = 1.5) and that run out of iterations (p = +-1.05).
    rng = SplitMix64(61 + int(4 * sigma))
    for p in (-3.0, -2.0, 1.5, 2.0, 3.0, -1.05, 1.05):
        g = mild_word(descriptor, rng, sigma)
        # Scalars and permutations alone are solved in one step.
        while not any(isinstance(f, (sc.Quad, sc.Congruence)) for f in g.factors):
            g = mild_word(descriptor, rng, sigma)
        for cfg in (sc.SolveConfig(p=p), sc.SolveConfig(p=p, max_iter=3)):
            assert _outcome_or_cone_error(sc.solve, g, cfg) == _outcome_or_cone_error(
                element_loop_solve, g, cfg)


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


@pytest.mark.parametrize("p", [2.0, -2.0])
@pytest.mark.parametrize("descriptor", [sc.orthant(3), sc.sym_matrix(3), sc.spin_factor(3)],
                         ids=["orthant3", "sym3", "spin3"])
def test_overflowing_map_is_named_non_convergence(descriptor, p):
    # g = 1e300 * 1e300 sends every point to infinity.  The first step ended
    # in "y is not in the open cone" (orthant and spin at p = 2), in a
    # ZeroDivisionError (at p = -2) and in the Jacobi's "needs finite
    # entries" (sym).  RuntimeWarnings are errors in the tests, so none may
    # escape either.
    g = sc.AutomorphismWord(descriptor, (sc.Scalar(1e300), sc.Scalar(1e300)))
    with pytest.raises(NonConvergence, match="^iteration 1: g\\(x\\) overflows") as info:
        sc.solve(g, sc.SolveConfig(p=p))
    assert info.value.report is None


@pytest.mark.parametrize("p", [2.0, -2.0])
def test_an_overflowing_eigenvalue_of_g_x_is_named_non_convergence(p):
    # g(e) = t^T t has finite entries and the eigenvalue 2.25e308.  With
    # the Jacobi's unrotated diagonal, p = -2 "converged" to a residual of
    # 1.818 and p = 2 ended in a RuntimeWarning.
    t = np.linalg.cholesky(OVERFLOWING_EIGENVALUE).T
    g = sc.AutomorphismWord(sc.sym_matrix(3), (sc.Congruence(t),))
    with pytest.raises(NonConvergence, match="^iteration 1: g\\(x\\) overflows: .* eigenvalue"):
        sc.solve(g, sc.SolveConfig(p=p))


def test_an_overflowing_power_of_the_solution_is_named():
    # u = e in one zero step, then beta = 2.25e300 and a^2 = 5e600: the
    # power warned "overflow encountered in power" and the residual read NaN.
    spin = sc.spin_factor(3)
    g = sc.AutomorphismWord(spin, (sc.Scalar(1e300), sc.Quad(el(spin, [1.5, 0.0, 0.0]))))
    with pytest.raises(NonConvergence, match="a\\^p of the solution .* overflows at p = 2"):
        sc.solve(g, sc.SolveConfig(p=2.0))


def test_overflow_is_named_at_the_iteration_it_happens():
    # With a = (10, 9.9, 0), on whose frame c1, c2 g = 1e306 P(a) scales by
    # about 396 and 0.01, the start 0.001 c1 + c2 has a finite image, and
    # the next iterate, about c1 + 0.16 c2, an infinite one.
    spin = sc.spin_factor(3)
    g = sc.AutomorphismWord(spin, (sc.Scalar(1e306), sc.Quad(el(spin, [10.0, 9.9, 0.0]))))
    with pytest.raises(NonConvergence, match="^iteration 2: g\\(x\\) overflows: .* inf"):
        sc.solve(g, sc.SolveConfig(p=2.0, initial=el(spin, [0.5005, -0.4995, 0.0])))


_LEAVES = re.escape("x_next = g(x)^(1/p) / |g(x)^(1/p)| leaves the float range")
_STEP_OVERFLOWS = re.escape("P(x_next^(-1/2))x overflows")


@pytest.mark.parametrize("descriptor, a, p, message", [
    (O2, [1.0, 1e-160], -1.01, _LEAVES),
    (O2, [1.0, 1e-160], 1.01, _STEP_OVERFLOWS),
    (sc.sym_matrix(2), np.diag([1.0, 1e-160]), -1.01, _LEAVES),
    (sc.sym_matrix(2), np.diag([1.0, 1e-160]), 1.01, _STEP_OVERFLOWS),
    (sc.spin_factor(3), [1e-160, 0.0, 0.0], -1.01, _LEAVES),
    (sc.spin_factor(3), [1e-160, 0.0, 0.0], 1.01, _LEAVES),
], ids=["orthant-neg", "orthant-pos", "sym-neg", "sym-pos", "spin-neg", "spin-pos"])
def test_a_step_that_leaves_the_float_range_is_named_non_convergence(descriptor, a, p,
                                                                    message):
    # g(e) = P(a)e has the eigenvalue 1e-320 (on spin, twice), whose root
    # 1e-320^(1/p) overflows at p = -1.01, so the root scale is inf and
    # x_next holds 0 and NaN; at p = 1.01 a root of 1e-316.8 beside 1
    # leaves P(x_next^(-1/2))x = x / x_next an entry past the float range
    # (on spin both roots are 1e-316.8, and the scale 1/1e-316.8 is inf).
    # Orthant at p = -1.01 warned "divide by zero" and blamed y with
    # NotInCone, sym raised the Jacobi's "needs finite entries" (after a
    # warning at p = -1.01), and spin and orthant at p = 1.01 blamed the
    # map or y with NotInCone.
    g = sc.AutomorphismWord(descriptor, (sc.Quad(el(descriptor, a)),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match=f"^iteration 1: {message}") as info:
            sc.solve(g, sc.SolveConfig(p=p))
    assert info.value.report is None


def test_the_spin_step_names_an_overflowing_step_spectrum():
    # No spin iterate reaches it: with x on the unit sphere, x_next's least
    # eigenvalue would have to be below 1e-308, which spin coordinates near
    # 1 cannot hold.  An x far off the sphere forces it, with the warnings
    # off as in solve's loop.
    step = sc.spin_factor(3).kernel.fixed_point_step
    gx, x = np.array([1.0, 0.5, 0.0]), np.array([1.5e308, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match=f"^{_STEP_OVERFLOWS}"):
            step(gx, x, 0.5, None)


def test_solve_bushell_refuses_a_non_finite_t():
    # The singularity test leaves a non-finite t to the congruence's check.
    for bad in (math.nan, math.inf):
        t = np.array([[1.0, bad], [0.0, 1.0]])
        assert not transforms.numerically_singular(t)
        with pytest.raises(sc.InvalidGenerator, match="non-finite entries"):
            sc.solve_bushell(t, 1)


def _budget_needed(message):
    return float(re.search(r"about ([0-9.]+) iterations", message).group(1))


def test_non_convergence_names_the_iteration_budget():
    # The two orthant:8 words of SplitMix64(3) that a solve cannot finish in
    # one step need about 650 iterations at p = +-1.05; the budget of 500,
    # and the estimate from the first step, say so.
    rng = SplitMix64(3)
    words = [mild_word(sc.orthant(8), rng) for _ in range(6)]
    words = [g for g in words if any(isinstance(f, sc.Quad) for f in g.factors)]
    checked = 0
    for g in words:
        for p in (1.05, -1.05):
            try:
                needed = sc.solve(g, sc.SolveConfig(p=p, max_iter=3000)).iterations
            except NonConvergence:
                continue
            with pytest.raises(NonConvergence, match="^no convergence in 500 iterations") as info:
                sc.solve(g, sc.SolveConfig(p=p))
            message = str(info.value)
            assert "more than the budget" in message
            assert abs(_budget_needed(message) - needed) <= 0.01 * needed
            checked += 1
    assert checked == 4


def test_non_convergence_names_a_stall():
    # A sym:6 solve that stalls at its noise floor: the rate would have met
    # the stop rule well within the budget.
    g = mild_word(sc.sym_matrix(6), SplitMix64(81), 2.0)
    with pytest.raises(NonConvergence, match="^no convergence in 500 iterations") as info:
        sc.solve(g, sc.SolveConfig(p=1.5))
    message = str(info.value)
    assert "the steps stopped shrinking at the rate q = 1/|p| = 0.6667" in message
    assert _budget_needed(message) < 500


def test_budget_note_wording():
    assert "about 3.0 iterations, 1.0 more than the budget" in solver._budget_note(
        1.0, 2.0, 0.25, 2)
    assert "stopped shrinking" in solver._budget_note(1.0, 2.0, 0.25, 3)
    assert "about inf iterations" in solver._budget_note(math.inf, 2.0, 0.25, 500)


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


def test_bushell_solves_a_large_well_conditioned_t():
    # kappa(t) = 2.4.  Each factor's output used to be re-checked as user
    # input, and an iterate's t' x t, 1e-12 off symmetric in relative
    # terms, was refused as "matrix coordinates are not symmetric"; t / 10
    # solved.
    t = 100.0 * SplitMix64(126).normal_matrix(4, 4)
    rep = sc.solve_bushell(t, 1)
    assert rep.converged and rep.iterations == 41
    a = rep.solution.coords
    assert np.max(np.abs(t.T @ a @ t - a @ a)) <= 1e-10 * np.max(np.abs(a @ a))


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


def test_bushell_refuses_a_k_that_is_not_an_integer():
    # int(k) raised OverflowError on inf and TypeError on None, and True
    # ran as k = 1.
    for k in (math.inf, -math.inf, math.nan, None, True, False, 2.5, "3", 1j):
        with pytest.raises(ValueError, match="k must be an integer"):
            sc.solve_bushell(np.eye(2), k)
    want = sc.solve_bushell(np.diag([2.0, 3.0]), 1).solution.coords
    for k in (1.0, np.int64(1)):
        assert sc.solve_bushell(np.diag([2.0, 3.0]), k).solution.coords.tobytes() == want.tobytes()


def test_bushell_rejects_singular():
    with pytest.raises(SingularMatrix):
        sc.solve_bushell(np.zeros((2, 2)), 1)
    with pytest.raises(SingularMatrix):
        sc.solve_bushell(np.ones((2, 3)), 1)
    with pytest.raises(ValueError):
        sc.solve_bushell(np.eye(2), 0)


# ---------------------------------------------------------------------------
# the sym eigenvector basis carried from one iteration to the next
# ---------------------------------------------------------------------------

def _record_sym_steps(monkeypatch):
    """Patch the sym kernel so that each fixed-point step appends [g(x), the
    basis it starts from, its decomposition of g(x)]: the eigenvalues, the
    frame and the eigenvector columns it hands on.  Descriptors made after
    this call use the patched kernel."""
    step = algebra._sym_fixed_point_step
    eigenpairs = algebra._sym_eigenpairs
    calls = []

    def recorded_step(gx, x, e, basis=None):
        calls.append([gx, basis, None])
        return step(gx, x, e, basis)

    def recorded_eigenpairs(m, start=None):
        out = eigenpairs(m, start)
        if calls and calls[-1][2] is None:  # the step's own decomposition
            calls[-1][2] = out
        return out

    monkeypatch.setattr(algebra, "_sym_eigenpairs", recorded_eigenpairs)
    monkeypatch.setitem(algebra._KERNELS, algebra.SYM,
                        algebra._KERNELS[algebra.SYM]._replace(fixed_point_step=recorded_step))
    return calls


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_warm_decomposition_agrees_with_the_cold_one(monkeypatch, sigma):
    # Each decomposition of g(x_k) that starts from the previous columns V
    # has the eigenvalues and the matrix V diag(l) V^T of a cold Jacobi,
    # to within 1e-13 * |g(x_k)|.
    calls = _record_sym_steps(monkeypatch)
    s6 = sc.sym_matrix(6)
    rng = SplitMix64(83 + int(sigma))
    for p in (-3.0, -2.0, 1.5, 2.0, 3.0):
        g = mild_word(s6, rng, sigma)
        try:
            sc.solve(g, sc.SolveConfig(p=p, max_iter=60))
        except NonConvergence:
            pass
    warm = [(gx, eigs, basis) for gx, start, (eigs, _, basis) in calls if start is not None]
    assert len(warm) >= 100
    for x, eigs, basis in warm:
        diag, vecs = algebra._jacobi(x, np.eye(6))
        order = algebra._descending_order(diag)
        bound = 1e-13 * float(np.max(np.abs(diag)))
        assert np.max(np.abs(eigs - diag[order])) <= bound
        assert np.max(np.abs((basis * eigs) @ basis.T - (vecs * diag) @ vecs.T)) <= bound


def test_carried_basis_stays_orthogonal_through_a_stall(monkeypatch):
    # A sym:6 solve whose steps stall near 5e-3 at a solution of condition
    # number 3.7e9 runs its 500 iterations, each rotating the same basis.
    calls = _record_sym_steps(monkeypatch)
    s6 = sc.sym_matrix(6)
    g = mild_word(s6, SplitMix64(81), 2.0)
    with pytest.raises(NonConvergence) as info:
        sc.solve(g, sc.SolveConfig(p=1.5))
    assert info.value.report.iterations == len(calls) == 500
    _, start, (_, _, basis) = calls[-1]  # the last iteration's
    assert start is not None
    assert np.max(np.abs(basis.T @ basis - np.eye(6))) <= 1e-12


# sha256 of the outcomes below, recorded before the sym solver carried its
# eigenvector basis from one iteration to the next.  The orthant and spin
# kernels have no basis to carry, and their solves keep every bit.
ORTHANT_SPIN_DIGESTS = {
    "orthant": "174d30e590b14fd2fac84c4810441fdc6ee293f71b340ed6e0b12dc71a6d7419",
    "spin": "cacf7dd42dd44bfba43b68c741dfed159fc6cd729fece98dbe5f6311b0dcfc33",
}


@pytest.mark.parametrize("descriptor", [sc.orthant(8), sc.spin_factor(10)],
                         ids=["orthant8", "spin10"])
def test_orthant_and_spin_solves_keep_their_bits(descriptor):
    digest = hashlib.sha256()
    rng = SplitMix64(73)
    for sigma in (0.5, 2.0):
        for p in (-3.0, -2.0, 1.5, 2.0, 3.0):
            g = mild_word(descriptor, rng, sigma)
            while not any(isinstance(f, sc.Quad) for f in g.factors):
                g = mild_word(descriptor, rng, sigma)
            for cfg in (sc.SolveConfig(p=p), sc.SolveConfig(p=p, max_iter=3)):
                digest.update(repr(_outcome(sc.solve, g, cfg)).encode())
    assert digest.hexdigest() == ORTHANT_SPIN_DIGESTS[descriptor.kind]


# sha256 of sym outputs, recorded before the Jacobi rotation kept its
# matrix as one flat list and read and wrote only its upper triangle:
# solves that carry an eigenvector basis, and a Bushell solve at a large
# rank.
SYM_SOLVE_DIGESTS = {
    2.0: "123f967274117cf5c86502535723237de88bb7661a38860f77a47d295d08c64f",
    -2.0: "263fd234ac1ef02d411a94bb8fc40f34526705dc0bb798c63b175f631b0b36b3",
}
SYM_BUSHELL_DIGEST = "acf9e91315512807eac1c83bd668e43733e0e17fe0192cc2d7c7cd96d4c16b68"


@pytest.mark.parametrize("p", sorted(SYM_SOLVE_DIGESTS))
def test_sym_solves_keep_their_bits(p):
    rng = SplitMix64(83)
    g = mild_word(sc.sym_matrix(6), rng, 2.0)
    while not any(isinstance(f, (sc.Quad, sc.Congruence)) for f in g.factors):
        g = mild_word(sc.sym_matrix(6), rng, 2.0)
    outcome = _outcome(sc.solve, g, sc.SolveConfig(p=p))
    assert hashlib.sha256(repr(outcome).encode()).hexdigest() == SYM_SOLVE_DIGESTS[p]


# The runs of the table in three tests: the sym:6 checks, the other checks
# and the runs on a map.json; test_cli runs the rest.
_SUITE_RUNS = [(tag, run.split()[1]) for tag, run in REPORT_DIGESTS
               if run.startswith("check") and "map.json" not in run]


@pytest.mark.parametrize("suite", [suite for tag, suite in _SUITE_RUNS if tag == "sym:6"])
def test_sym_check_reports_keep_their_bits(suite, capsys, monkeypatch, tmp_path):
    assert_report_keeps_its_bits("sym:6", f"check {suite}", capsys, monkeypatch, tmp_path)


@pytest.mark.parametrize("tag, suite", [key for key in _SUITE_RUNS if key[0] != "sym:6"])
def test_orthant_and_spin_check_reports_keep_their_bits(tag, suite, capsys, monkeypatch,
                                                       tmp_path):
    assert_report_keeps_its_bits(tag, f"check {suite}", capsys, monkeypatch, tmp_path)


@pytest.mark.parametrize("tag, run", [key for key in REPORT_DIGESTS if "map.json" in key[1]])
def test_reports_of_a_user_map_keep_their_bits(tag, run, capsys, monkeypatch, tmp_path):
    assert_report_keeps_its_bits(tag, run, capsys, monkeypatch, tmp_path)


def test_sym_bushell_keeps_its_bits():
    t = SplitMix64(127).normal_matrix(12, 12)
    outcome = _outcome(lambda g, cfg: sc.solve_bushell(t, 1), None, None)
    assert outcome[0] == "solved"
    assert hashlib.sha256(repr(outcome).encode()).hexdigest() == SYM_BUSHELL_DIGEST

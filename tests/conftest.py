import ctypes
import glob
import math
import os

import numpy as np
import pytest

import symcone as sc
from symcone import algebra, metric, solver
from symcone.errors import NonConvergence, NotInCone
from symcone.transforms import random_word


def _openblas_core() -> str:
    """The kernel that numpy's bundled scipy-openblas picked for this CPU
    (DYNAMIC_ARCH builds pick one at load time, or take OPENBLAS_CORETYPE),
    or "unknown"."""
    root = os.path.dirname(np.__file__)
    for path in (glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
                 + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _cpu_has_avx512f() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            flags = next(line for line in fh if line.startswith("flags")).split()
    except (OSError, StopIteration):
        return "unknown"
    return "yes" if "avx512f" in flags else "no"


def pytest_report_header():
    # The sha256 pins hold the bits of one BLAS kernel: under another one
    # (OPENBLAS_CORETYPE=Haswell or Sandybridge on an AVX-512 machine) some
    # of them fail on their digests alone.
    return f"OpenBLAS core: {_openblas_core()}; CPU avx512f: {_cpu_has_avx512f()}"


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the header, so the line goes at the end instead.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header())


def el(descriptor, values):
    return sc.Element(descriptor, np.asarray(values, dtype=float))


def count_jacobi(monkeypatch):
    """Record, for every Jacobi eigensolve from now on, whether it was given
    a start basis, that is, whether it computes eigenvectors."""
    calls = []
    jacobi = algebra._jacobi

    def counted(matrix, start=None):
        calls.append(start is not None)
        return jacobi(matrix, start)

    monkeypatch.setattr(algebra, "_jacobi", counted)
    return calls


def three_product_quad(a, x):
    """Reference P(a)x = 2 a o (a o x) - (a o a) o x, from the Jordan product."""
    return 2.0 * sc.product(a, sc.product(a, x)) - sc.product(sc.product(a, a), x)


def rayleigh_loop(x, y, samples, rng):
    """Reference Rayleigh ratios (x|c)/(y|c): one ``unit_vector`` per
    sample and BLAS products, v^T x v / v^T y v over c = v v^T on sym and
    (x0 + <xbar, u>) / (y0 + <ybar, u>) over c = (1, u)/2 on spin."""
    xc, yc = x.coords, y.coords
    ratios = []
    for _ in range(samples):
        if x.algebra.kind == algebra.SYM:
            v = rng.unit_vector(xc.shape[0])
            ratios.append(float(v @ xc @ v) / float(v @ yc @ v))
        else:
            u = rng.unit_vector(xc.shape[0] - 1)
            num = float(xc[0]) + float(np.dot(xc[1:], u))
            den = float(yc[0]) + float(np.dot(yc[1:], u))
            ratios.append(num / den)
    return np.array(ratios)


def element_bisection(x, y, tol):
    """Reference order bisection for M(x, y): one Element for lam*y - x at
    each step, bracketed by [0, tr(x) / l_min(y) + 1]."""
    lo = 0.0
    hi = sc.tr(x) / sc.lambda_min(y) + 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if sc.lambda_min(mid * y - x) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class ZeroedNormals(sc.SplitMix64):
    """SplitMix64 whose normals at stream positions [start, stop) read 0.0,
    or are multiplied by scale if one is given; every other draw is the
    plain generator's.  The hook is ``_normal_list``, through which every
    normal is drawn."""

    def __init__(self, seed, start, stop, scale=0.0):
        super().__init__(seed)
        self.zeroed = range(start, stop)
        self.scale = scale
        self.drawn = 0

    def _normal_list(self, n):
        out = super()._normal_list(n)
        for i in range(len(out)):
            if self.drawn + i in self.zeroed:
                out[i] = out[i] * self.scale if self.scale else 0.0
        self.drawn += len(out)
        return out


def spin_point_loop(n, rng, lo, hi, shape=()):
    """Reference spin random points, drawn one at a time: two
    ``log_uniform`` draws, then n - 1 normals divided by their
    ``np.linalg.norm``, redrawn while that norm is at most 1e-12."""
    points = np.empty((math.prod(shape), n))
    for point in points:
        lam1 = rng.log_uniform(lo, hi)
        lam2 = rng.log_uniform(lo, hi)
        while True:
            v = rng.normals(n - 1)
            norm = float(np.linalg.norm(v))
            if norm > 1e-12:
                break
        point[0] = 0.5 * (lam1 + lam2)
        point[1:] = 0.5 * (lam1 - lam2) * (v / norm)
    return points.reshape(shape + (n,))


# 8e307 (J + 0.1 I) / 1.1 with J all ones: finite entries 8e307 and about
# 7.27e307, and eigenvalues about 7.3e306 (twice) and 2.25e308, beyond the
# float range.
OVERFLOWING_EIGENVALUE = 8e307 * (np.ones((3, 3)) + 0.1 * np.eye(3)) / 1.1


def contraction_loop(map_fn, descriptor, samples, seed, label="map"):
    """Reference measure_contraction: one sample at a time, two Elements,
    two distances, two map images and their distance per sample, with the
    running max and min; ``measured`` counts the pairs not skipped."""
    rng = sc.SplitMix64(seed)
    max_ratio = 0.0
    min_ratio = math.inf
    measured = 0
    for _ in range(samples):
        x = sc.random_cone_element(descriptor, rng)
        y = sc.random_cone_element(descriptor, rng)
        dxy = sc.distance(x, y).distance
        if dxy < 1e-8:
            continue
        measured += 1
        try:
            dfxy = sc.distance(map_fn(x), map_fn(y)).distance
        except NotInCone as exc:
            raise sc.MapLeftCone(f"{label} sent a cone point out of the cone") from exc
        ratio = dfxy / dxy
        max_ratio = max(max_ratio, ratio)
        min_ratio = min(min_ratio, ratio)
    if min_ratio is math.inf:
        min_ratio = 0.0
    return sc.ContractionReport(samples, max_ratio, min_ratio, label, measured)


def frame_loop_power(eigenvalues, frame, p):
    """Reference sum_j l_j^p c_j: an ordered loop over the frame's rows."""
    coords = np.zeros(frame[0].shape)
    for lam, c in zip(np.power(eigenvalues, p), frame):
        coords += lam * c
    return coords


def element_apply(word, x):
    """Reference word action: one Element per factor, left to right."""
    out = x
    for f in word.factors:
        if isinstance(f, sc.Scalar):
            out = out * f.mu
        elif isinstance(f, sc.Quad):
            out = algebra.quad(f.a, out)
        elif isinstance(f, sc.Congruence):
            out = sc.Element(word.algebra, f.t.T @ out.coords @ f.t)
        else:
            out = sc.Element(word.algebra, out.coords[list(f.sigma)])
    return out


def sym_congruence(v, x):
    """v^T x v, averaged with its transpose."""
    m = v.T @ x @ v
    return (m + m.T) / 2.0


def warm_decompose(x, basis):
    """Reference sym decomposition of x started from the eigenvector columns
    ``basis`` of a previous one (cold when None): Jacobi on basis^T x basis,
    with its rotations applied to basis.  Returns the decomposition and its
    columns, both in descending eigenvalue order."""
    m = x.coords if basis is None else sym_congruence(basis, x.coords)
    diag, vecs = algebra._jacobi(m, np.eye(m.shape[0]) if basis is None else basis)
    order = np.argsort(-diag, kind="stable")
    basis = vecs[:, order]
    frame = np.array([np.outer(v, v) for v in basis.T])
    return algebra.SpectralDecomposition(x.algebra, diag[order], frame), basis


def element_loop_solve(g, cfg):
    """Reference solve: the Banach loop on Elements, through the public
    decomposition, quad and eigenvalues, with powers taken on the
    decomposition's frame (``_require_power_domain``, then ``_frame_sum``
    of the powers) and the word applied by ``element_apply``; the rescaling
    after the loop is the solver's own.

    On orthant and spin, the step is log(l_max / l_min) of
    P(x_next^(-1/2)) x, with x_next^(-1/2) built on the frame of g(x) from
    x_next's eigenvalues mu_j.  On sym, g(x) is decomposed by
    ``warm_decompose`` from the previous iteration's columns V, and the step
    is log(l_max / l_min) of D^(-1/2) (V^T x V) D^(-1/2) with D = diag(mu_j),
    which is similar to P(x_next^(-1/2)) x.  The step is exactly 0.0, with
    no eigensolve, when x_next equals x byte for byte."""
    p = cfg.p
    sym = g.algebra.kind == algebra.SYM
    x = cfg.initial if cfg.initial is not None else g.algebra.identity()
    x = algebra.normalize(x)
    threshold = cfg.tol * (1.0 - 1.0 / abs(p))
    trace = []
    converged = False
    basis = None
    for _ in range(cfg.max_iter):
        if sym:
            dec, basis = warm_decompose(element_apply(g, x), basis)
        else:
            dec = algebra.spectral_decompose(element_apply(g, x))
        try:
            algebra._require_power_domain(dec.eigenvalues, 1.0 / p)
        except NotInCone as exc:
            raise NotInCone(
                "an iterate left the open cone: the supplied map does not "
                "preserve it") from exc
        root = sc.Element(
            g.algebra, algebra._frame_sum(np.power(dec.eigenvalues, 1.0 / p), dec.frame_coords))
        scale = 1.0 / solver._power_norm(np.power(dec.eigenvalues, 1.0 / p))
        x_next = root * scale
        if x_next.coords.tobytes() == x.coords.tobytes():
            step = 0.0
        else:
            mu = np.power(dec.eigenvalues, 1.0 / p) * scale
            if sym:
                d = np.power(mu, -0.5)
                rel = algebra.eigenvalues(sc.Element(
                    g.algebra, sym_congruence(basis, x.coords) * np.outer(d, d)))
            else:
                algebra._require_power_domain(mu, -0.5)
                x_next_root = sc.Element(
                    g.algebra, algebra._frame_sum(np.power(mu, -0.5), dec.frame_coords))
                rel = algebra.eigenvalues(algebra.quad(x_next_root, x))
            if not rel[-1] > 0.0:
                metric.lambda_extremes(x, x_next)
                raise NotInCone("reference step left the open cone")
            step = math.log(float(rel[0]) / float(rel[-1]))
        trace.append(step)
        x = x_next
        if step <= threshold:
            converged = True
            break
    a, res = solver._rescale_to_solution(g, x, p)
    report = solver.SolveReport(
        solution=a,
        iterations=len(trace),
        distance_trace=tuple(trace),
        residual=res,
        contraction_estimate=solver._fit_geometric_ratio(trace),
        converged=converged and res <= 1e2 * cfg.tol,
    )
    if not report.converged:
        raise NonConvergence("reference solve did not converge", report=report)
    return report


def mild_word(descriptor, rng, sigma=0.5):
    """Random word with conditioning bounded for fixed-point instances.

    The solver's distance-based stop rule needs the computed Hilbert step
    to resolve tol*(1 - 1/|p|); the step's fp noise grows with the
    conditioning of the fixed point, which p = 1.5 amplifies as the 4th
    power of the word's stretch.  Factors stay within e^{+/-sigma}.
    """
    return random_word(descriptor, rng, lo=math.exp(-sigma), hi=math.exp(sigma))


def banach_iteration_bound(first_step, p, tol):
    """A-priori iteration count of the solver's stop rule, from its first step.

    Each step is at most 1/|p| times the one before, so the rule
    d_k <= tol * (1 - 1/|p|) holds once |p|^k reaches first_step over that
    threshold.
    """
    threshold = tol * (1.0 - 1.0 / abs(p))
    if first_step <= threshold:
        return 2
    return math.ceil(math.log(first_step / threshold) / math.log(abs(p))) + 2


def inverse_word(word):
    """The word of the inverse map: each factor inverted, in reverse order.

    A congruence factor is inverted by LAPACK, which serves as an oracle
    here; the package itself has no inverse word.
    """
    inv = []
    for f in reversed(word.factors):
        if isinstance(f, sc.Scalar):
            inv.append(sc.Scalar(1.0 / f.mu))
        elif isinstance(f, sc.Quad):
            inv.append(sc.Quad(sc.power(f.a, -1.0)))
        elif isinstance(f, sc.Congruence):
            inv.append(sc.Congruence(np.linalg.inv(f.t)))
        else:
            inv.append(sc.Permutation(tuple(np.argsort(f.sigma))))
    return sc.AutomorphismWord(word.algebra, tuple(inv))


@pytest.fixture(params=["orthant", "sym", "spin"])
def small_algebra(request):
    return {
        "orthant": sc.orthant(5),
        "sym": sc.sym_matrix(4),
        "spin": sc.spin_factor(5),
    }[request.param]


# Sizes used by the acceptance sweeps.
ACCEPTANCE_ALGEBRAS = (sc.orthant(8), sc.sym_matrix(6), sc.spin_factor(10))

import ctypes
import glob
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import symcone as sc
from symcone import algebra, metric, solver
from symcone.cli import main
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

# Pairs (x, y) of cone points with finite coordinates and spectra whose
# relative spectrum, that of P(y^(-1/2))x, leaves the float range: it
# overflows in the first three (on spin the term 2<a, x>a of P(a)x does,
# although d = 0) and underflows in the last three.
RELATIVE_SPECTRUM_OUT_OF_RANGE = {
    "orthant-overflow": (sc.orthant(2), [1e308, 1.0], [1e-10, 1.0]),
    "sym-overflow": (sc.sym_matrix(2), [[1e308, 0.0], [0.0, 1.0]], [[1e-10, 0.0], [0.0, 1.0]]),
    "spin-overflow": (sc.spin_factor(3), [1e308, 0.0, 0.0], [1.0, 0.0, 0.0]),
    "orthant-underflow": (sc.orthant(2), [1e-300, 1.0], [1e100, 1.0]),
    "sym-underflow": (sc.sym_matrix(2), [[1e-300, 0.0], [0.0, 1.0]],
                      [[1e100, 0.0], [0.0, 1.0]]),
    "spin-underflow": (sc.spin_factor(3), [1e-300, 0.0, 0.0], [1e100, 0.0, 0.0]),
}


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


# sha256 of the stdout of CLI runs, keyed by (algebra, run).  A check or a
# gen runs with --algebra, and a check with --samples 10 --seed 1 too;
# map.json holds the map of `gen --what map` with --seed 2, or 19 for
# bushell, whose map must be one congruence, and the other input files are
# those of REPORT_INPUTS.  Between them the runs take every subcommand
# through: both block Rayleigh paths and the bisection on raw coordinates
# (the spin:10 and sym:6 oracle checks); the batched kernels (contraction
# and isometry on orthant:8 and spin:10); spin points drawn in batches
# (axioms and bounds on spin:10, contraction on spin:2); the
# eigenvalue-only Jacobi of every sym distance and a batch's sym quads and
# congruences as one stacked product (the sym:6 checks); a word of the
# user's (--instance and --map); the solver's carried eigenvector basis
# with the order reversed by p = -2 and the closed-form steps of orthant
# and spin (the solves); the Jacobi with eigenvectors at a large rank (the
# sym:12 bushell); and README's example instance.  Each was recorded
# before a change that had to keep it:
# - the sym:6 axioms, bounds, contraction and oracle checks, whose
#   distances take eigenvalues only, before the Jacobi rotation kept its
#   matrix as one flat list;
# - the orthant:8 and spin:10 checks, before the contraction and isometry
#   suites measured through the public batch measure_contraction;
# - the sym:6 isometry check, the isometry checks of a user map and the
#   solve and bushell reports with the default --tol and --max-iter, which
#   are echoed into inputs_hash, before the isometry suite drew the words
#   that go with a user map itself and the CLI took its solve defaults from
#   SolveConfig;
# - the spin:2 contraction check and the solves at p = -2 on sym:6 and at
#   p = +-2 on orthant:8 and spin:10, before the sym quads and congruences
#   of a batch became one stacked product and x^p lost its extra entry
#   points;
# - the sym:12 bushell report, before the solver stopped asking the metric
#   which iterate to blame for a failed step;
# - the sym:4 bushell report of a large t, before the sym quads and
#   congruences of a batch became one stacked product;
# - the gen and metric reports, before a distance named a relative
#   spectrum beyond the float range.
REPORT_DIGESTS = {
    ("orthant:8", "check axioms"): "452e0bb5989186fae12ca383a0b44827a2f8747685761d6d56a47bcd007aac6f",
    ("orthant:8", "check bounds"): "45d2a37c57754eca83414e83670be936a318b8105afd3a2160d7f00b3efcf0b2",
    ("orthant:8", "check contraction"): "5455132631664354df521150eca48104b00b540907eb2c0852a5e9ef1c9ecd94",
    ("orthant:8", "check isometry"): "2ad3690ddeb18a12e2ab0bb92c343d7953470df1bd8741a4e1c5477a3bfdd561",
    ("orthant:8", "check oracle"): "9252a1cb3db279177aeaf47d6b76b57c56b49672c0d4d657174924894906c34d",
    ("spin:10", "check axioms"): "8e4a60e3c4ce2bf1e52d03ca53b2dd1841875349bd23e0a1a13ffa47d7e3b708",
    ("spin:10", "check bounds"): "ce88f3d36c8f65a4ad3596daee3ce82c99e953a5be0d733e9f957bc5a778c2a3",
    ("spin:10", "check contraction"): "b98d163f471c864edcea1b91061708fed999d9e6b8a72efea37c6f3287fab88c",
    ("spin:10", "check isometry"): "f42049da09c9f3ec8cc443cea7c77017461c77200ca1cb2d6eaab615c3bbe429",
    ("spin:10", "check oracle"): "0ffae82b3046356e8a6375b2282a849e45b8f35c9528826a8a9d335f1af5e9f8",
    ("sym:6", "check axioms"): "2a9ff7df75fafdd5061cd9b37c7dfecb05fa4fb0dfb63ba2b45829b2c59f2297",
    ("sym:6", "check bounds"): "a694facf44215969414f1117507155698d411840d5b671d2643b694131def482",
    ("sym:6", "check contraction"): "84953d4161bbc5482966eb3e28f3af161de78331d35f684d8aa5fb349337ddd4",
    ("sym:6", "check isometry"): "d4e00211b553b78f8793e7c82ca21ab8f8d5b0a5f0a4d730f31ce07d4ac52987",
    ("sym:6", "check oracle"): "3392015b8f7d1352de5e2cba2b9db9ccee209f737fa4d428f0c9cc7f4cf1e902",
    ("orthant:8", "check isometry --instance map.json --map gen0"):
        "4d307ede3132e98b40e563b7e0926083a69340cb0be168668b96f936112e9982",
    ("spin:10", "check isometry --instance map.json --map gen0"):
        "9ce323a8e730d650d1fe2f6f188f2db246002d13ed8ad20038d988c155116d7c",
    ("sym:6", "check isometry --instance map.json --map gen0"):
        "52cca707e06efb2f47344c6101db22a6d6efa7b22b358988b4ac82110c703eb6",
    ("sym:6", "solve map.json gen0 --p 2"):
        "4504b4bdc50da0214bd3fa5be45cf69d32a21fee22dc69cb2e83a7e6871ab143",
    ("sym:6", "bushell map.json gen0 --k 1"):
        "9b0b448197e20d48a4be3940f5e4b192eb3f3bf5d3757c672f77163f84cf6a64",
    ("spin:2", "check contraction"): "e564b9bc1702c10e7ee0956db4d0cc6ef9206cedc266d7ae62f2efa1a9675e71",
    ("sym:6", "solve map.json gen0 --p=-2"):
        "e59c47c5524fac2089d3a267f9a020adc6ea3110a367740d03bbd8b466c03b3d",
    ("orthant:8", "solve map.json gen0 --p 2"):
        "02d9464676bbcacd169505d4509c19303f1fece49d710e252ee7008bc7b630aa",
    ("orthant:8", "solve map.json gen0 --p=-2"):
        "f0b39697553196ef49b15a802136f2153c8ace28d1071743fb705a5ceb33a3de",
    ("spin:10", "solve map.json gen0 --p 2"):
        "fa8379b92e20fec043ae88e21872c2023c9e62ff37c331349f4638f83ecbd766",
    ("spin:10", "solve map.json gen0 --p=-2"):
        "40d47e158c3ee3bcc3298f58727abf75869b628c7c18d5cee8a6da35407db20f",
    ("sym:12", "bushell map.json gen0 --k 1"):
        "41ac3841294ed1ab217181eb19c69d3d4cecdefd87d0474c2d6ee92b7ba6d777",
    ("sym:4", "bushell bushell.json t"):
        "509e9f71c4b6df7d74b0a61a2011f9733ac1d157520f6077f573fe0fb5563810",
    ("spin:5", "gen --what element --seed 1"):
        "9288ce375db2c8e1f3a47ca1315d88f72f6fbdb48359971e351d7f9551fe0500",
    ("orthant:2", "metric instance.json x y"):
        "ed1e6bbb020c28db95e189695ef11b7927791c9db67e7d93df9c3c80a79f3abe",
}


# The input files of the table's runs besides map.json: README's example
# instance, and a sym:4 t, 100 times a normal matrix with condition number
# 2.4, whose iterates' plain t' x t is not exactly symmetric.
REPORT_INPUTS = {
    "instance.json": {"algebra": {"kind": "orthant", "param": 2},
                      "elements": {"x": [1, 2], "y": [2, 1]},
                      "maps": {"g": [{"type": "quad", "payload": [2, 3]}]}},
    "bushell.json": {"algebra": {"kind": "sym", "param": 4},
                     "maps": {"t": [{"type": "congruence", "payload": (
                         100.0 * sc.SplitMix64(126).normal_matrix(4, 4)).tolist()}]}},
}


def fresh_cli(*argv):
    """Exit code, stdout and stderr of ``python -m symcone.cli argv`` in a
    new process in the working directory, as ``main`` gives them in this
    one.  The child imports the package this process imported, which pytest
    may have found through its own pythonpath setting rather than
    PYTHONPATH."""
    src = str(pathlib.Path(sc.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "symcone.cli", *argv],
                          capture_output=True, env=env, timeout=300)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def assert_report_keeps_its_bits(tag, run, capsys, monkeypatch, tmp_path):
    """Run one REPORT_DIGESTS entry through cli.main in a fresh working
    directory, so that an echoed input path is the same everywhere, and
    then in a new process there.  The new process must exit 0 with an
    empty stderr and the same stdout, byte for byte, on any BLAS kernel;
    only then is the stdout held to its sha256, which holds on one."""
    monkeypatch.chdir(tmp_path)
    argv = run.split()
    if argv[0] in ("check", "gen"):
        argv += ["--algebra", tag]
    if argv[0] == "check":
        argv += ["--samples", "10", "--seed", "1"]
    if "map.json" in argv:
        seed = "19" if argv[0] == "bushell" else "2"
        assert main(["gen", "--algebra", tag, "--what", "map", "--seed", seed]) == 0
        (tmp_path / "map.json").write_text(capsys.readouterr().out)
    for name in REPORT_INPUTS.keys() & argv:
        (tmp_path / name).write_text(json.dumps(REPORT_INPUTS[name]))
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert fresh_cli(*argv) == (0, out, "")
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[tag, run]

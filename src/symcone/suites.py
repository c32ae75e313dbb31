"""Seeded property suites over the cone machinery.

Each suite draws its own samples from one splitmix64 stream, tracks the
worst observed slack per inequality, and captures the first violating
inputs so a failure is reproducible.  The CLI `check` subcommand wraps
these; the acceptance tests run them at their published sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra, metric, transforms
from .algebra import AlgebraDescriptor, Element
from .errors import AlgebraMismatch
from .rng import SplitMix64

DEFAULT_CONTRACTION_PS = (-1.0, -0.7, -0.5, 0.3, 0.5, 0.7, 1.0)


@dataclass
class CheckResult:
    """Worst slack seen for one inequality; pass iff worst <= limit.

    A NaN slack is a violation: it becomes the worst, and stays so.
    """

    name: str
    limit: float
    worst: float = -math.inf
    count: int = 0
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.count == 0 or self.worst <= self.limit

    def update(self, value: float, inputs=None) -> None:
        self.count += 1
        if value > self.worst or math.isnan(value):
            self.worst = value
        if not value <= self.limit and self.counterexample is None:
            self.counterexample = {
                "check": self.name,
                "value": value,
                "limit": self.limit,
                "inputs": inputs() if callable(inputs) else (inputs or {}),
            }

    def summary(self) -> dict:
        return {
            "name": self.name,
            "limit": self.limit,
            "worst_slack": None if self.count == 0 else self.worst,
            "count": self.count,
            "passed": self.passed,
        }


@dataclass
class SuiteResult:
    suite: str
    algebra: AlgebraDescriptor
    samples: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    def __post_init__(self):
        # Every suite builds its result before it draws a sample, so this
        # refuses an empty run before any work; with no sample a suite
        # would pass with nothing checked.  A numpy integer is reported as
        # an int.
        metric._require_samples(self.samples)
        self.samples = int(self.samples)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_counterexample(self) -> dict | None:
        for c in self.checks:
            if c.counterexample is not None:
                return c.counterexample
        return None

    def summary(self) -> dict:
        return {
            "suite": self.suite,
            "algebra": {"kind": self.algebra.kind, "param": self.algebra.param},
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.summary() for c in self.checks],
            "counterexample": self.first_counterexample(),
        }


def _coords(x: Element):
    return x.coords.tolist()


def axioms_suite(descriptor: AlgebraDescriptor, samples: int, seed: int) -> SuiteResult:
    """Jordan algebra axioms plus the pseudo-metric axioms of d."""
    rng = SplitMix64(seed)
    commut = CheckResult("product_commutativity", 1e-12)
    jordan = CheckResult("jordan_identity", 1e-10)
    assoc = CheckResult("trace_form_associativity", 1e-10)
    symm = CheckResult("metric_symmetry", 1e-10)
    tri = CheckResult("metric_triangle", 1e-9)
    proj = CheckResult("metric_projectivity", 1e-10)
    rays = CheckResult("metric_zero_on_rays", 1e-6)
    grid = (0.1, 1.0, 10.0)
    result = SuiteResult("axioms", descriptor, samples, seed,
                         [commut, jordan, assoc, symm, tri, proj, rays])
    e = descriptor.identity()
    for i in range(samples):
        x, y, z = transforms._random_cone_elements(descriptor, rng, 3)
        inputs = lambda: {"x": _coords(x), "y": _coords(y), "z": _coords(z)}

        # algebra axioms on ambient points (shifted off the cone)
        sx, sy, sz = (2.0 * rng.uniforms(3)).tolist()
        ax = x - sx * e
        ay = y - sy * e
        az = z - sz * e
        ainputs = lambda: {"x": _coords(ax), "y": _coords(ay), "z": _coords(az)}
        scale = (1 + algebra.spectral_norm(ax)) * (1 + algebra.spectral_norm(ay)) * (
            1 + algebra.spectral_norm(az))
        commut.update(
            algebra.spectral_norm(algebra.product(ax, ay) - algebra.product(ay, ax)),
            ainputs)
        sq = algebra.product(ax, ax)
        gap = algebra.product(ax, algebra.product(sq, ay)) - algebra.product(
            sq, algebra.product(ax, ay))
        jordan.update(algebra.spectral_norm(gap) / scale, ainputs)
        assoc.update(
            abs(algebra.trace_inner(algebra.product(ax, ay), az)
                - algebra.trace_inner(ay, algebra.product(ax, az))) / scale,
            ainputs)

        # metric axioms on interior points
        dxy = metric.distance(x, y).distance
        dyx = metric.distance(y, x).distance
        symm.update(abs(dxy - dyx) / (1 + dxy), inputs)
        dxz = metric.distance(x, z).distance
        dyz = metric.distance(y, z).distance
        tri.update(dxz - dxy - dyz, inputs)
        alpha = grid[i % 3]
        beta = grid[(i // 3) % 3]
        proj.update(abs(metric.distance(alpha * x, beta * y).distance - dxy), inputs)
        lam = rng.log_uniform(0.2, 5.0)
        ray = lam * x
        if metric.distance(x, ray).distance <= 1e-8:
            rays.update(
                algebra.spectral_norm(algebra.normalize(x) - algebra.normalize(ray)),
                inputs)
    return result


def contraction_suite(descriptor: AlgebraDescriptor, samples: int, seed: int) -> SuiteResult:
    """Power maps shrink d by at most |p| for each p of DEFAULT_CONTRACTION_PS,
    the k-th measured from seed + k, all in one ``measure_contractions``.

    A check whose samples held no measured pair (on a rank-1 cone, every
    pair) takes no update: it reports count 0 and passes.
    """
    result = SuiteResult("contraction", descriptor, samples, seed)
    reports = transforms.measure_contractions(descriptor, samples, [
        (lambda rows, p=p: algebra._power_coords(descriptor, rows, p), seed + k, f"power {p:g}")
        for k, p in enumerate(DEFAULT_CONTRACTION_PS)])
    for k, (p, rep) in enumerate(zip(DEFAULT_CONTRACTION_PS, reports)):
        check = CheckResult(f"power_contraction_p={p:g}", 1e-9)
        if rep.measured:
            check.update(rep.max_ratio - abs(p), {"p": p, "seed": seed + k})
        result.checks.append(check)
    return result


def isometry_suite(
    descriptor: AlgebraDescriptor,
    samples: int,
    seed: int,
    word: transforms.AutomorphismWord | None = None,
) -> SuiteResult:
    """Five generator words and the inversion map preserve d to 1e-8: the
    words drawn from the suite's stream, the fifth replaced by ``word``
    when one is given, and the k-th map measured from seed + k, all in one
    ``measure_contractions``.  A ``word`` of another algebra raises
    AlgebraMismatch before any draw.

    As in the contraction suite, a check with no measured pair takes no
    update.
    """
    result = SuiteResult("isometry", descriptor, samples, seed)
    if word is not None and word.algebra != descriptor:
        raise AlgebraMismatch(
            f"the word acts on {word.algebra.kind}:{word.algebra.param}, "
            f"the suite on {descriptor.kind}:{descriptor.param}")
    rng = SplitMix64(seed)
    words = [transforms.random_word(descriptor, rng) for _ in range(4)]
    words.append(transforms.random_word(descriptor, rng) if word is None else word)
    maps = [(lambda rows, w=w: transforms._apply_coords(w, rows), seed + k, w.describe())
            for k, w in enumerate(words)]
    maps.append((lambda rows: algebra._power_coords(descriptor, rows, -1.0),
                 seed + len(words), "inversion"))
    reports = transforms.measure_contractions(descriptor, samples, maps)
    checks = [(f"word_isometry_{k}_{w.describe()}", {"word": w.describe(), "seed": seed + k})
              for k, w in enumerate(words)]
    checks.append(("inversion_isometry", {"seed": seed + len(words)}))
    for (name, inputs), rep in zip(checks, reports):
        check = CheckResult(name, 1e-8)
        if rep.measured:
            check.update(max(rep.max_ratio - 1.0, 1.0 - rep.min_ratio), inputs)
        result.checks.append(check)
    return result


def bounds_suite(descriptor: AlgebraDescriptor, samples: int, seed: int) -> SuiteResult:
    """Norm-vs-metric bounds on unit-sphere cone points.

    Every other pair is drawn close together, since the tanh lower bound
    only applies when |x - y| is below the least eigenvalue of y.
    """
    rng = SplitMix64(seed)
    upper = CheckResult("norm_gap_le_exp_distance", 1e-9)
    lower = CheckResult("norm_gap_ge_tanh_bound", 1e-9)
    result = SuiteResult("bounds", descriptor, samples, seed, [upper, lower])
    for i in range(samples):
        if i % 2 == 0:
            x, y = map(algebra.normalize, transforms._random_cone_elements(descriptor, rng, 2))
        else:
            x = algebra.normalize(transforms.random_cone_element(descriptor, rng))
            eps = rng.log_uniform(1e-3, 0.3)
            y = algebra.normalize(
                x + eps * transforms.random_cone_element(descriptor, rng))
        inputs = lambda: {"x": _coords(x), "y": _coords(y)}
        d = metric.distance(x, y).distance
        diff = algebra.spectral_norm(x - y)
        upper.update(diff - (math.exp(d) - 1.0), inputs)
        lam_min_y = algebra.lambda_min(y)
        if diff < lam_min_y:
            lower.update(lam_min_y * math.tanh(0.5 * d) - diff, inputs)
    return result


def oracle_suite(descriptor: AlgebraDescriptor, samples: int, seed: int) -> SuiteResult:
    """Eigenvalue route vs bisection and Rayleigh-sampling oracles."""
    rng = SplitMix64(seed)
    bis = CheckResult("bisection_matches_lambda_max", 1e-7)
    ray_hi = CheckResult("rayleigh_max_one_sided", 1e-10)
    ray_lo = CheckResult("rayleigh_min_one_sided", 1e-10)
    checks = [bis, ray_hi, ray_lo]
    exact = None
    if descriptor.kind == algebra.ORTHANT:
        exact = CheckResult("orthant_ratio_closed_form", 1e-12)
        checks.append(exact)
    result = SuiteResult("oracle", descriptor, samples, seed, checks)
    bis_tol = 1e-13 if descriptor.kind == algebra.ORTHANT else 1e-8
    # The suite's stream draws nothing but the points.
    points = iter(transforms._random_cone_elements(descriptor, rng, 2 * samples))
    for i, (x, y) in enumerate(zip(points, points)):
        inputs = lambda: {"x": _coords(x), "y": _coords(y)}
        lam_max, lam_min = metric.lambda_extremes(x, y)
        m_bis = metric.upper_bound_oracle(x, y, bis_tol)
        bis.update(abs(m_bis - lam_max), inputs)
        mx, mn = metric.rayleigh_oracle(x, y, 64, seed + i)
        ray_hi.update(mx - lam_max, inputs)
        ray_lo.update(lam_min - mn, inputs)
        if exact is not None:
            ratios = x.coords / y.coords
            exact.update(
                max(abs(lam_max - float(np.max(ratios))),
                    abs(m_bis - float(np.max(ratios))),
                    abs(lam_min - float(np.min(ratios)))),
                inputs)
    return result


SUITES = {
    "axioms": axioms_suite,
    "contraction": contraction_suite,
    "isometry": isometry_suite,
    "bounds": bounds_suite,
    "oracle": oracle_suite,
}

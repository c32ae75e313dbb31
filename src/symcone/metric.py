"""Hilbert projective metric on the open cone.

The distance between interior points x, y is d(x, y) = log(l_max / l_min)
where l_max, l_min are the extreme eigenvalues of P(y^{-1/2}) x.  Each
family's kernel computes that spectrum, and the cone tests of x and y,
in one pass:

* orthant: the ratios x_i / y_i, so d(x, x) is exactly 0;
* sym: a Cholesky factorisation y = L L^T (y is in the cone iff every
  pivot is positive) and two forward substitutions give L^{-1} x L^{-T},
  which has the same spectrum; its eigenvalues are the one Jacobi
  eigensolve of the distance, and x is in the cone iff the least is
  positive, as the congruence keeps x's inertia;
* spin: y's closed-form eigenvalues, then y^{-1/2} and the closed form
  P(a)x = 2<a, x> a - det(a) x*, whose closed-form eigenvalues finish it.

The equivalent cross form log(l_max(x,y) * l_max(y,x)) is not computed
here; ``test_metric::test_distance_cross_form`` checks it.

Two independent oracles cross-check the eigenvalue route: a bisection on
the order relation x <= lambda * y, and a Rayleigh-quotient sampler over
random primitive idempotents which brackets the extremes from inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import Element
from .errors import NotInCone
from .rng import SplitMix64


@dataclass(frozen=True)
class MetricReport:
    lambda_max: float
    lambda_min: float
    distance: float


def _require_interior(x: Element, name: str) -> None:
    # in_cone first: on sym it reports a non-finite entry as EigensolverFailure.
    if not (algebra.in_cone(x) and np.isfinite(x.coords).all()):
        raise NotInCone(f"{name} is not in the open cone")


def lambda_extremes(x: Element, y: Element) -> tuple[float, float]:
    """Greatest and least eigenvalue of P(y^{-1/2}) x, both > 0."""
    algebra._require_same_algebra(x, y)
    eigs = x.algebra.kernel.relative_eigenvalues(x.coords, y.coords)
    # P(y^{-1/2}) is an automorphism of the cone: it is in the cone iff x is.
    if eigs is None or not eigs[-1] > 0.0:
        # Name the argument at fault, x first: an infinite entry can pass
        # the kernel's tests, and a sym eigensolve reports a non-finite one.
        _require_interior(x, "x")
        _require_interior(y, "y")
        # Both pass: y's Cholesky pivots or x's relative spectrum sit at the
        # rounding edge of the cone.
        raise NotInCone(f"{'y' if eigs is None else 'x'} is not in the open cone")
    return float(eigs[0]), float(eigs[-1])


def distance(x: Element, y: Element) -> MetricReport:
    lam_max, lam_min = lambda_extremes(x, y)
    return MetricReport(lam_max, lam_min, math.log(lam_max / lam_min))


def upper_bound_oracle(x: Element, y: Element, tol: float) -> float:
    """M(x, y) = inf{lambda : lambda*y - x in the closed cone}, by bisection.

    Independent of the eigenvalue route: only the order predicate
    "least eigenvalue of lambda*y - x >= 0" is consulted.  The bisection
    stops early once lo and hi are adjacent floats, where a tol below
    their spacing could not be met.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _require_interior(x, "x")
    _require_interior(y, "y")
    lo = 0.0
    hi = algebra.tr(x) / algebra.lambda_min(y) + 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if algebra.lambda_min(mid * y - x) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def rayleigh_oracle(
    x: Element, y: Element, samples: int, seed: int
) -> tuple[float, float]:
    """Inner bounds on (l_max, l_min) from ratios (x|c)/(y|c).

    Ratios are taken over primitive idempotents c: exhaustively over the
    standard basis on the orthant (the bounds are then exact), and over
    `samples` random idempotents otherwise.  The returned maximum never
    exceeds l_max and the minimum never falls below l_min.
    """
    algebra._require_same_algebra(x, y)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _require_interior(x, "x")
    _require_interior(y, "y")
    rng = SplitMix64(seed)
    ratios = x.algebra.kernel.rayleigh_ratios(x.coords, y.coords, samples, rng)
    return float(np.max(ratios)), float(np.min(ratios))

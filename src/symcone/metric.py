"""Hilbert projective metric on the open cone.

The distance between interior points x, y is d(x, y) = log(l_max / l_min)
where l_max, l_min are the extreme eigenvalues of P(y^{-1/2}) x.  The
kernels compute and ``metric`` names.  Each family's kernel computes that
spectrum on one path:

* orthant: the ratios x_i / y_i, so d(x, x) is exactly 0;
* sym: a Cholesky factorisation y = L L^T (y is in the cone iff every
  pivot is positive) and two forward substitutions give L^{-1} x L^{-T},
  which has the same spectrum; its eigenvalues are the one Jacobi
  eigensolve of the distance, and x is in the cone iff the least is
  positive, as the congruence keeps x's inertia;
* spin: y's closed-form eigenvalues, then y^{-1/2} and the closed form
  P(a)x = 2<a, x> a - det(a) x*, whose closed-form eigenvalues finish it.

A kernel reads all NaN where y fails its cone test and all inf where
another eigenvalue is not finite.  Where the least eigenvalue is not
positive or the largest is inf, ``_raise_fault`` names the fault from the
spectrum it is given, for one pair or for a failing row of a batch: it
solves x and then y to name the argument at fault, NotInCone for one
outside the open cone, EigenvalueOverflow for one whose largest
eigenvalue is beyond the float range.  Where both pass, a NaN spectrum is
a NotInCone that names y, at the rounding edge of the cone; otherwise an
EigenvalueOverflow names P(y^{-1/2})x if its spectrum overflowed, or
underflowed (l_min(x) / l_max(y), a lower bound on its least eigenvalue,
is below the least normal double), and any other failure is a NotInCone
that names x, at the rounding edge.

The equivalent cross form log(l_max(x,y) * l_max(y,x)) is not computed
here; ``test_metric::test_distance_cross_form`` checks it.

Two independent oracles cross-check the eigenvalue route:

* a bisection on the order relation x <= lambda * y, run on the raw
  coordinates: each step is one least eigenvalue of lambda*y - x, with no
  Element built, which gives the bits an Element per step would give (its
  ingestion only copies these bitwise symmetric arrays);
* a Rayleigh-quotient sampler over random primitive idempotents, which
  brackets the extremes from inside.  All its unit vectors come from one
  ``SplitMix64.unit_vectors`` block, and the kernel takes every ratio
  (x|c)/(y|c) at once, as fixed-order sums with no BLAS.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import algebra
from .algebra import Element
from .errors import EigenvalueOverflow, NotInCone
from .rng import SplitMix64


@dataclass(frozen=True)
class MetricReport:
    lambda_max: float
    lambda_min: float
    distance: float


def _require_interior(x: Element, name: str) -> tuple[float, float]:
    """x's largest and least eigenvalue, from one eigensolve of x.
    NotInCone names x unless it is in the open cone with finite
    coordinates, and EigenvalueOverflow where its largest eigenvalue is
    beyond the float range although its coordinates are finite.  On sym the
    eigensolve reports a non-finite entry as EigensolverFailure."""
    try:
        eigs = algebra.eigenvalues(x)
    except EigenvalueOverflow as exc:
        raise EigenvalueOverflow(f"{name} has an eigenvalue beyond the float range") from exc
    if not (eigs[-1] > 0.0 and np.isfinite(x.coords).all()):
        raise NotInCone(f"{name} is not in the open cone")
    if not eigs[0] < math.inf:
        raise EigenvalueOverflow(f"{name} has an eigenvalue beyond the float range")
    return float(eigs[0]), float(eigs[-1])


def _raise_fault(x: Element, y: Element, eigs: np.ndarray) -> NoReturn:
    """Raise the error that names the fault of eigs, the relative spectrum
    of x and y as their kernel computed it, whose least eigenvalue is not
    positive or whose largest is inf."""
    # x first: an infinite entry can pass the kernel's tests, and a sym
    # eigensolve reports a non-finite one.
    _, x_min = _require_interior(x, "x")
    y_max, _ = _require_interior(y, "y")
    # Both pass.  A NaN spectrum is y's failed cone test: on sym, a Cholesky
    # pivot at the rounding edge of the cone.
    if np.isnan(eigs).all():
        raise NotInCone("y is not in the open cone")
    # The spectrum overflowed (it reads inf), or its least eigenvalue, which
    # l_min(x) / l_max(y) bounds from below, underflowed; else x's relative
    # spectrum sits at the rounding edge of the cone.
    if eigs[0] < math.inf and x_min / y_max >= algebra._TINY:
        raise NotInCone("x is not in the open cone")
    raise EigenvalueOverflow("P(y^(-1/2))x has an eigenvalue beyond the float range")


def lambda_extremes(x: Element, y: Element) -> tuple[float, float]:
    """Greatest and least eigenvalue of P(y^{-1/2}) x, both > 0."""
    algebra._require_same_algebra(x, y)
    eigs = x.algebra.kernel.relative_eigenvalues(x.coords, y.coords)
    # P(y^{-1/2}) is an automorphism of the cone: it is in the cone iff x is.
    if not (eigs[-1] > 0.0 and eigs[0] < math.inf):
        _raise_fault(x, y, eigs)
    return float(eigs[0]), float(eigs[-1])


def distance(x: Element, y: Element) -> MetricReport:
    lam_max, lam_min = lambda_extremes(x, y)
    return MetricReport(lam_max, lam_min, math.log(lam_max / lam_min))


def _row_distances(
    descriptor: algebra.AlgebraDescriptor, xs: np.ndarray, ys: np.ndarray
) -> list[float]:
    """d(x_i, y_i) over the rows of two batches of raw coordinates: one
    kernel call for every spectrum, then each log by math.log, as
    ``distance`` takes it, so each distance has its bits.  The first pair
    outside the open cone raises, from its row, the error ``distance``
    raises on it."""
    eigs = descriptor.kernel.relative_eigenvalues(xs, ys)
    out = []
    for i, (lam_max, lam_min) in enumerate(zip(eigs[:, 0].tolist(), eigs[:, -1].tolist())):
        if not (lam_min > 0.0 and lam_max < math.inf):
            _raise_fault(Element(descriptor, xs[i]), Element(descriptor, ys[i]), eigs[i])
        out.append(math.log(lam_max / lam_min))
    return out


def upper_bound_oracle(x: Element, y: Element, tol: float) -> float:
    """M(x, y) = inf{lambda : lambda*y - x in the closed cone}, by bisection.

    Independent of the eigenvalue route: only the order predicate
    "least eigenvalue of lambda*y - x >= 0" is consulted.  The bisection
    stops early once lo and hi are adjacent floats, where a tol below
    their spacing could not be met.  Where lambda*y would overflow, the
    sign is read from y - x/lambda instead.
    """
    algebra._require_same_algebra(x, y)
    if not (algebra._is_number(tol, numbers.Real) and tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    _require_interior(x, "x")
    _, y_min = _require_interior(y, "y")
    eigenvalues = x.algebra.kernel.eigenvalues
    xc, yc = x.coords, y.coords
    y_max = float(np.abs(yc).max())

    def dominates(lam):
        """lam*y - x is in the closed cone."""
        if lam * y_max < math.inf:
            return eigenvalues(yc * lam - xc)[-1] >= 0.0
        # lam*y would overflow (so lam > 1): test y - x/lam, which has the
        # same sign and finite entries.
        return eigenvalues(yc - xc / lam)[-1] >= 0.0

    lo = 0.0
    hi = algebra.tr(x) / y_min + 1.0
    if hi == math.inf:
        # tr(x) / l_min(y) bounds l_max but overflowed: bracket l_max by
        # doubling instead.  An l_max past the largest double reads as inf.
        hi = 1.0
        while hi < math.inf and not dominates(hi):
            lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if dominates(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _require_samples(samples) -> None:
    """ValueError unless samples is an integer >= 1 (a bool is not)."""
    if not algebra._is_number(samples, numbers.Integral):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")


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
    _require_samples(samples)
    _require_interior(x, "x")
    _require_interior(y, "y")
    rng = SplitMix64(seed)
    ratios = x.algebra.kernel.rayleigh_ratios(x.coords, y.coords, samples, rng)
    return float(np.max(ratios)), float(np.min(ratios))

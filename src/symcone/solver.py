"""Banach fixed-point solver for g(x) = x^p on the open cone, |p| > 1.

The iteration runs on the unit sphere of the spectral norm:
F(x) = g(x)^{1/p} / |g(x)^{1/p}|.  Since the cone automorphism g
preserves the Hilbert metric and the power map with exponent 1/p shrinks
it by |1/p| (for p < -1 the power factors through the inversion isometry,
so the factor is the same), F is a contraction with ratio 1/|p| and has a
unique fixed direction u.  The solution is recovered as a = beta * u with
the closed-form scale beta = (|g(u)| / |u^p|)^(1/(p-1)), which solves
g(beta u) = (beta u)^p on the ray because g is linear.  The residual of a
is always computed and reported; one above 100 * tol raises
NonConvergence.

Stopping rule: the a-posteriori Banach bound with q = 1/|p| - iteration
halts once d(x_k, x_{k+1}) <= tol * (1 - q), which puts the fixed
direction within tol in the Hilbert metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import algebra, metric, transforms
from .algebra import Element
from .errors import AlgebraMismatch, NonConvergence, NotInCone, SingularMatrix
from .transforms import AutomorphismWord, Congruence


@dataclass(frozen=True)
class SolveConfig:
    p: float
    tol: float = 1e-12
    max_iter: int = 500
    initial: Element | None = None

    def __post_init__(self):
        if not (abs(self.p) > 1.0 and math.isfinite(self.p)):
            raise ValueError(
                f"the equation g(x) = x^p needs a finite p with |p| > 1, got p={self.p}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class SolveReport:
    solution: Element
    iterations: int
    distance_trace: tuple[float, ...]
    residual: float
    contraction_estimate: float
    converged: bool


def _power_norm(eigenvalues: np.ndarray, p: float) -> float:
    """Spectral norm of x^p from x's positive eigenvalues: no eigensolve."""
    # The least eigenvalue goes first: max() keeps a NaN only as its first
    # argument, and a NaN eigenvalue sorts last.
    return float(max(np.power(eigenvalues[[-1, 0]], p)))


def _fit_geometric_ratio(trace) -> float:
    """Least-squares geometric decay ratio of the positive trace entries.

    The slope of log d_k against k is sum (k - kbar)(y - ybar) / sum
    (k - kbar)^2, each sum a correctly rounded ``math.fsum``.
    """
    logs = [(k, math.log(d)) for k, d in enumerate(trace) if d > 0.0]
    if len(logs) < 2:
        return 0.0
    k_mean = math.fsum(k for k, _ in logs) / len(logs)
    y_mean = math.fsum(y for _, y in logs) / len(logs)
    sxy = math.fsum((k - k_mean) * (y - y_mean) for k, y in logs)
    sxx = math.fsum((k - k_mean) ** 2 for k, _ in logs)
    return math.exp(sxy / sxx)


def _rescale_to_solution(
    g: AutomorphismWord, u: Element, p: float
) -> tuple[Element, float]:
    """Pick beta so a = beta*u solves g(a) = a^p; return a and its residual.

    One decomposition of u serves both powers: u^p has eigenvalues l_j^p,
    and a^p is built on u's frame from the eigenvalues beta*l_j.
    """
    dec = algebra.spectral_decompose(u)
    gu_norm = algebra.spectral_norm(transforms.apply(g, u))
    beta = (gu_norm / _power_norm(dec.eigenvalues, p)) ** (1.0 / (p - 1.0))
    a = beta * u
    a_dec = replace(dec, eigenvalues=beta * dec.eigenvalues)
    target = a_dec.power(p)
    residual = algebra.spectral_norm(transforms.apply(g, a) - target) / (
        1.0 + _power_norm(a_dec.eigenvalues, p))
    return a, residual


def solve(g: AutomorphismWord, cfg: SolveConfig) -> SolveReport:
    """Unique a in the open cone with g(a) = a^p.

    Raises NonConvergence (with the partial report attached) if the
    iteration budget runs out, and NotInCone if an iterate escapes the
    cone, which signals that g does not actually preserve it.
    """
    p = cfg.p
    x = cfg.initial if cfg.initial is not None else g.algebra.identity()
    if x.algebra != g.algebra:
        raise AlgebraMismatch("initial point lives in a different algebra")
    if not algebra.in_cone(x):
        raise NotInCone("initial point is not in the open cone")
    x = algebra.normalize(x)
    threshold = cfg.tol * (1.0 - 1.0 / abs(p))
    trace: list[float] = []
    converged = False
    for _ in range(cfg.max_iter):
        # For p < -1 the exponent 1/p is negative: the step is the inversion
        # isometry composed with the |1/p| power, so the contraction factor
        # is 1/|p| in both regimes.
        dec = algebra.spectral_decompose(transforms.apply(g, x))
        try:
            root = dec.power(1.0 / p)
        except NotInCone as exc:
            raise NotInCone(
                "an iterate left the open cone: the supplied map does not "
                "preserve it") from exc
        # The eigenvalues of g(x)^{1/p} are l_j^{1/p}, all positive, so its
        # spectral norm needs no eigensolve of root.
        x_next = root * (1.0 / _power_norm(dec.eigenvalues, 1.0 / p))
        step = metric.distance(x, x_next).distance
        trace.append(step)
        x = x_next
        if step <= threshold:
            converged = True
            break
    a, res = _rescale_to_solution(g, x, p)
    report = SolveReport(
        solution=a,
        iterations=len(trace),
        distance_trace=tuple(trace),
        residual=res,
        contraction_estimate=_fit_geometric_ratio(trace),
        converged=converged and res <= 1e2 * cfg.tol,
    )
    if not converged:
        raise NonConvergence(
            f"no convergence in {cfg.max_iter} iterations "
            f"(last step {trace[-1]:.3e} > {threshold:.3e})",
            report=report,
        )
    if not report.converged:
        raise NonConvergence(
            f"iteration converged but the residual {res:.3e} exceeds "
            f"{1e2 * cfg.tol:.3e}",
            report=report,
        )
    return report


def solve_bushell(
    t: np.ndarray,
    k: int,
    tol: float = 1e-12,
    max_iter: int = 500,
    initial: Element | None = None,
) -> SolveReport:
    """Unique positive definite A with t' A t = A^(2^k)."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise SingularMatrix("t must be a square matrix")
    if transforms.numerically_singular(t):
        raise SingularMatrix("t is numerically singular")
    if int(k) != k or k < 1:
        raise ValueError("k must be a positive integer")
    descriptor = algebra.sym_matrix(t.shape[0])
    word = AutomorphismWord(descriptor, (Congruence(t),))
    cfg = SolveConfig(p=float(2 ** int(k)), tol=tol, max_iter=max_iter, initial=initial)
    return solve(word, cfg)

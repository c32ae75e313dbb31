"""Banach fixed-point solver for g(x) = x^p on the open cone, |p| > 1.

The iteration runs on the unit sphere of the spectral norm:
F(x) = g(x)^{1/p} / |g(x)^{1/p}|.  Since the cone automorphism g
preserves the Hilbert metric and the power map with exponent 1/p shrinks
it by |1/p| (for p < -1 the power factors through the inversion isometry,
so the factor is the same), F is a contraction with ratio 1/|p| and has a
unique fixed direction u.  The solution is recovered as a = beta * u with
the closed-form scale beta = (|g(u)| / |u^p|)^(1/(p-1)), which solves
g(beta u) = (beta u)^p on the ray because g is linear.  A beta that
over- or underflows (|u^p| is not finite for a huge p) raises
NonConvergence, as does a residual of a above 100 * tol; the residual is
always computed and reported.

The loop runs on raw coordinate arrays through the family's kernel, with
the bits of the same loop on Elements: on sym each factor's output is
bitwise symmetric by construction, which ingestion would only copy.
Elements are built for the initial point, the fixed direction u and the
solution, and to name an iterate that leaves the cone.

The step d(x_k, x_{k+1}) comes from the decomposition the iteration
already holds.  With g(x_k) = sum_j l_j c_j, the next iterate is
x_{k+1} = sum_j mu_j c_j with mu_j = l_j^{1/p} / |g(x_k)^{1/p}|, so
x_{k+1}^{-1/2} = sum_j mu_j^{-1/2} c_j is built on the same frame, and
the step is log(l_max / l_min) of P(x_{k+1}^{-1/2}) x_k, from one
eigensolve (the kernel's relative_on_frame): x_{k+1} is never factored
again.  When x_{k+1} equals x_k byte for byte the step is exactly 0.0,
since d(x, x) = 0, and no eigensolve runs.  A step spectrum whose least
eigenvalue is not positive raises NotInCone, naming the iterate outside
the cone if one is, else the step.

The decomposition may return a basis, which the loop hands to the next
one.  On sym it is the eigenvector matrix V_k of g(x_k): since the
iterates converge, so do their frames, and the cyclic Jacobi of
g(x_{k+1}) runs on the nearly diagonal V_k^T g(x_{k+1}) V_k with its
rotations applied to V_k, which takes far fewer sweeps than a cold start
from the identity (the first iteration's).  The step is then the
spectrum of D^{-1/2} (V_{k+1}^T x_k V_{k+1}) D^{-1/2} with D = diag(mu_j),
which is orthogonally similar to P(x_{k+1}^{-1/2}) x_k.  The orthant and
spin kernels have no basis to carry and compute the step with their
closed-form quad.

Stopping rule: the a-posteriori Banach bound with q = 1/|p| - iteration
halts once d(x_k, x_{k+1}) <= tol * (1 - q), which puts the fixed
direction within tol in the Hilbert metric.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import algebra, metric, transforms
from .algebra import Element, _is_number
from .errors import AlgebraMismatch, NonConvergence, NotInCone, SingularMatrix
from .transforms import AutomorphismWord, Congruence


# The largest k with 2^k below the float overflow.
_MAX_BUSHELL_K = 1023


@dataclass(frozen=True)
class SolveConfig:
    p: float
    tol: float = 1e-12
    max_iter: int = 500
    initial: Element | None = None

    def __post_init__(self):
        if not (_is_number(self.p, numbers.Real)
                and abs(self.p) > 1.0 and math.isfinite(self.p)):
            raise ValueError(
                f"the equation g(x) = x^p needs a finite p with |p| > 1, got p={self.p!r}")
        if not (_is_number(self.tol, numbers.Real)
                and self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be a positive finite number, got {self.tol!r}")
        if not (_is_number(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not (self.initial is None or isinstance(self.initial, Element)):
            raise ValueError(f"initial must be None or an Element, got {self.initial!r}")


@dataclass(frozen=True)
class SolveReport:
    solution: Element
    iterations: int
    distance_trace: tuple[float, ...]
    residual: float
    contraction_estimate: float
    converged: bool


def _power_norm(powers: np.ndarray) -> float:
    """Spectral norm of x^p from the powers l_j^p of x's positive, descending
    eigenvalues, which are monotone in j: no eigensolve."""
    # The least eigenvalue's power goes first: max() keeps a NaN only as its
    # first argument, and a NaN eigenvalue sorts last.
    return float(max(powers[-1], powers[0]))


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
    with np.errstate(over="ignore"):  # an infinite |u^p| is refused below
        up_norm = _power_norm(np.power(dec.eigenvalues, p))
    try:
        beta = (gu_norm / up_norm) ** (1.0 / (p - 1.0))
    except (OverflowError, ZeroDivisionError):
        beta = math.nan
    if not 0.0 < beta < math.inf:
        raise NonConvergence(
            f"the scale of the solution, (|g(u)| / |u^p|)^(1/(p-1)) with "
            f"|g(u)| = {gu_norm:.3e} and |u^p| = {up_norm:.3e}, over- or "
            f"underflows at p = {p:g}")
    a = beta * u
    a_dec = replace(dec, eigenvalues=beta * dec.eigenvalues)
    target = a_dec.power(p)
    residual = algebra.spectral_norm(transforms.apply(g, a) - target) / (
        1.0 + _power_norm(np.power(a_dec.eigenvalues, p)))
    return a, residual


def solve(g: AutomorphismWord, cfg: SolveConfig) -> SolveReport:
    """Unique a in the open cone with g(a) = a^p.

    Raises NonConvergence (with the partial report attached) if the
    iteration budget runs out, and NotInCone if an iterate escapes the
    cone, which signals that g does not actually preserve it, or if the
    spectrum of a step is not positive although both iterates are in it.
    """
    p = cfg.p
    x = cfg.initial if cfg.initial is not None else g.algebra.identity()
    if x.algebra != g.algebra:
        raise AlgebraMismatch("initial point lives in a different algebra")
    # One eigensolve serves the cone test and the scaling: on positive
    # eigenvalues _power_norm is normalize's max(|l_min|, |l_max|).
    eigs = algebra.eigenvalues(x)
    if not eigs[-1] > 0.0:
        raise NotInCone("initial point is not in the open cone")
    kernel = g.algebra.kernel
    x = (x * (1.0 / _power_norm(eigs))).coords
    threshold = cfg.tol * (1.0 - 1.0 / abs(p))
    trace: list[float] = []
    converged = False
    basis = None
    for _ in range(cfg.max_iter):
        # For p < -1 the exponent 1/p is negative: the step is the inversion
        # isometry composed with the |1/p| power, so the contraction factor
        # is 1/|p| in both regimes.
        eigs, frame, basis = kernel.decompose(transforms._apply_coords(g, x), basis)
        try:
            algebra._require_power_domain(eigs, 1.0 / p)
        except NotInCone as exc:
            raise NotInCone(
                "an iterate left the open cone: the supplied map does not "
                "preserve it") from exc
        # The eigenvalues of g(x)^{1/p} are l_j^{1/p}, all positive, so its
        # spectral norm needs no eigensolve.
        roots = np.power(eigs, 1.0 / p)
        scale = 1.0 / _power_norm(roots)
        x_next = algebra._frame_sum(roots, frame) * scale
        if x_next.tobytes() == x.tobytes():
            step = 0.0  # d(x, x) = 0, with no eigensolve
        else:
            # On g(x)'s frame, from x_next's eigenvalues mu_j (module
            # docstring): no second factorisation.
            rel = kernel.relative_on_frame(x, roots * scale, frame, basis)
            if not rel[-1] > 0.0:
                # Raises the NotInCone that names an iterate at fault.
                metric.lambda_extremes(
                    Element(g.algebra, x), Element(g.algebra, x_next))
                raise NotInCone(
                    f"step {len(trace) + 1}: P(x_next^(-1/2)) x has least "
                    f"eigenvalue {float(rel[-1]):.6g}, although both iterates "
                    f"are in the open cone")
            step = math.log(float(rel[0]) / float(rel[-1]))
        trace.append(step)
        x = x_next
        if step <= threshold:
            converged = True
            break
    a, res = _rescale_to_solution(g, Element(g.algebra, x), p)
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
    """Unique positive definite A with t' A t = A^(2^k).

    k is an integer from 1 to 1023 (a bool is not), else ValueError.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise SingularMatrix("t must be a square matrix")
    if transforms.numerically_singular(t):
        raise SingularMatrix("t is numerically singular")
    if not (algebra._is_integral(k) and 1 <= k <= _MAX_BUSHELL_K):
        raise ValueError(
            f"k must be an integer from 1 to {_MAX_BUSHELL_K}, so that 2^k is a "
            f"finite float")
    descriptor = algebra.sym_matrix(t.shape[0])
    word = AutomorphismWord(descriptor, (Congruence(t),))
    cfg = SolveConfig(p=float(2 ** int(k)), tol=tol, max_iter=max_iter, initial=initial)
    return solve(word, cfg)

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
NonConvergence, as do an a^p that overflows and a residual of a above
100 * tol; the residual is always computed and reported.

The loop runs on raw coordinate arrays, with the bits of the same loop on
Elements, and names no family: each iteration applies the word and hands
g(x_k) to the kernel's fixed_point_step.  The step returns x_{k+1}, the
extreme eigenvalues of P(x_{k+1}^{-1/2}) x_k and a basis that the loop
hands to the next step.  The step d(x_k, x_{k+1}) is the log of their
ratio, computed from what the kernel already holds for g(x_k) (its
decomposition, or a closed form), so x_{k+1} is never factored again;
on sym the basis is g(x_k)'s eigenvector matrix, from which the next
decomposition starts (algebra.py).  When x_{k+1} equals x_k byte for byte
the step is exactly 0.0, since d(x, x) = 0, and no eigensolve runs.  The
step raises OverflowError where the float range breaks down: g(x_k) has
an infinite or NaN entry or extreme eigenvalue, the root scale
|g(x_k)^{1/p}| over- or underflows, or P(x_{k+1}^{-1/2}) x_k overflows
(as it does where a root underflows to 0 beside that scale).  The solve
then raises NonConvergence naming the iteration, with no partial report.
So both iterates of a step are in the open cone, and a step spectrum
whose least eigenvalue is not positive raises NotInCone naming the step.  An initial
point with a non-finite coordinate, whose largest eigenvalue overflows,
or whose least eigenvalue underflows to 0 when it is scaled to spectral
norm 1, raises NotInCone before the loop.  Elements are built only for
the initial point, the fixed direction u and the solution.

Stopping rule: the a-posteriori Banach bound with q = 1/|p| - iteration
halts once d(x_k, x_{k+1}) <= tol * (1 - q), which puts the fixed
direction within tol in the Hilbert metric.  When the budget runs out,
the error says whether it was short: steps shrinking at the rate q from
the first one, d_1, meet the rule after about N = 1 + log(tol * (1 - q) /
d_1) / log(q) iterations; if N is within the budget, the steps stopped
shrinking at that rate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import algebra, transforms
from .algebra import Element, _frame_sum, _is_number, _power_norm
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


def _budget_note(first_step: float, p: float, threshold: float, max_iter: int) -> str:
    """Whether the budget or the rate ran out: steps shrinking at the rate
    q = 1/|p| from the first step d_1 reach the threshold after about
    N = 1 + log(threshold / d_1) / log(q) iterations."""
    q = 1.0 / abs(p)
    if 0.0 < first_step < math.inf:
        needed = 1.0 + math.log(threshold / first_step) / math.log(q)
    else:
        needed = math.inf
    if needed > max_iter:
        return (f"from the first step {first_step:.3e} at the rate q = 1/|p| = "
                f"{q:.4g} the stop rule needs about {needed:.1f} iterations, "
                f"{needed - max_iter:.1f} more than the budget")
    return (f"the steps stopped shrinking at the rate q = 1/|p| = {q:.4g}, at "
            f"which the first step {first_step:.3e} meets the stop rule after "
            f"about {needed:.1f} iterations")


def _rescale_to_solution(
    g: AutomorphismWord, u: Element, p: float
) -> tuple[Element, float]:
    """Pick beta so a = beta*u solves g(a) = a^p; return a and its residual.

    One decomposition of u serves both powers: u^p has eigenvalues l_j^p,
    and a^p is built on u's frame from the powers (beta*l_j)^p, which also
    give its norm.
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
    with np.errstate(over="ignore"):  # an infinite a^p is refused below
        a_powers = np.power(beta * dec.eigenvalues, p)
    if not np.isfinite(a_powers).all():
        raise NonConvergence(
            f"the power a^p of the solution a = beta * u, beta = {beta:.3e}, "
            f"overflows at p = {p:g}")
    a = beta * u
    target = Element(u.algebra, _frame_sum(a_powers, dec.frame_coords))
    residual = algebra.spectral_norm(transforms.apply(g, a) - target) / (
        1.0 + _power_norm(a_powers))
    return a, residual


def solve(g: AutomorphismWord, cfg: SolveConfig) -> SolveReport:
    """Unique a in the open cone with g(a) = a^p.

    Raises NonConvergence (with the partial report attached) if the
    iteration budget runs out, or (with none) if a step leaves the float
    range, and NotInCone if an iterate escapes the cone, which signals that
    g does not actually preserve it, or if the spectrum of a step is not
    positive although both iterates are in it.  The initial point must lie
    in the open cone with finite coordinates and a finite largest
    eigenvalue, and keep a positive least eigenvalue when scaled to
    spectral norm 1, else NotInCone names it.
    """
    p = cfg.p
    x = cfg.initial if cfg.initial is not None else g.algebra.identity()
    if x.algebra != g.algebra:
        raise AlgebraMismatch("initial point lives in a different algebra")
    if not np.isfinite(x.coords).all():
        raise NotInCone("initial point has a NaN or infinite coordinate")
    # One eigensolve serves the cone test and the scaling: on positive
    # eigenvalues _power_norm is normalize's max(|l_min|, |l_max|).
    eigs = algebra.eigenvalues(x)
    if not eigs[-1] > 0.0:
        raise NotInCone("initial point is not in the open cone")
    if not math.isfinite(eigs[0]):
        raise NotInCone("initial point cannot be scaled to spectral norm 1: its largest "
                        "eigenvalue overflows the float range")
    scale = 1.0 / _power_norm(eigs)
    if not eigs[-1] * scale > 0.0:
        raise NotInCone(
            f"initial point cannot be scaled to spectral norm 1: its least "
            f"eigenvalue {eigs[-1]:.6g} underflows to 0 at the scale "
            f"1/{eigs[0]:.6g}")
    fixed_point_step = g.algebra.kernel.fixed_point_step
    x = (x * scale).coords
    # For p < -1 the exponent 1/p is negative: the step is the inversion
    # isometry composed with the |1/p| power, so the contraction factor is
    # 1/|p| in both regimes.
    e = 1.0 / p
    threshold = cfg.tol * (1.0 - 1.0 / abs(p))
    trace: list[float] = []
    converged = False
    basis = None
    # A step that leaves the float range is refused, so its warnings would
    # only repeat that error.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(cfg.max_iter):
            gx = transforms._apply_coords(g, x)
            try:
                x_next, extremes, basis = fixed_point_step(gx, x, e, basis)
            except NotInCone as exc:
                raise NotInCone(
                    "an iterate left the open cone: the supplied map does not "
                    "preserve it") from exc
            except OverflowError as exc:
                raise NonConvergence(f"iteration {len(trace) + 1}: {exc}") from exc
            if extremes is None:
                step = 0.0  # d(x, x) = 0, with no eigensolve
            else:
                high, low = extremes
                if not low > 0.0:
                    raise NotInCone(
                        f"step {len(trace) + 1}: P(x_next^(-1/2)) x has least "
                        f"eigenvalue {low:.6g}, although both iterates are in "
                        f"the open cone")
                step = math.log(high / low)
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
            f"(last step {trace[-1]:.3e} > {threshold:.3e}): "
            f"{_budget_note(trace[0], p, threshold, cfg.max_iter)}",
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
    tol: float = SolveConfig.tol,
    max_iter: int = SolveConfig.max_iter,
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

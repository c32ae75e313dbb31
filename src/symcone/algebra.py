"""Euclidean Jordan algebra kernel for three families of symmetric cones.

Supported algebras and their coordinate conventions:

* ``orthant`` (param n): V = R^n with the componentwise product; the cone
  is the open positive orthant.  Coordinates: flat vector of length n.
* ``sym`` (param r): V = Sym(r, R) with x o y = (xy + yx)/2; the cone is
  the positive definite matrices.  Coordinates: full dense r x r symmetric
  matrix (symmetrized on ingestion, never packed).  Its eigensolver is a
  cyclic Jacobi in Python on one flat row-major list of the entries, of
  which each rotation reads and writes only the diagonal and the upper
  triangle.
* ``spin`` (param n, n >= 2): V = R x R^{n-1} with
  x o y = (<x, y>, x0*ybar + y0*xbar); the cone is the Lorentz cone
  x0 > ||xbar||.  Coordinates: flat vector, entry 0 distinguished.

The inner product is the trace form (x|y) = tr(x o y) in every algebra,
which makes primitive idempotents have trace 1.

Everything that depends on the family lives in one small kernel per
family (a ``_Kernel`` of functions), reached through
``AlgebraDescriptor.kernel``.  A kernel works on raw coordinate arrays.
The public functions check their arguments, call the kernel and wrap the
result.  A kernel's ``decompose`` returns the eigenvalues of x = sum_j
l_j c_j and its Jordan frame as one array, row j the coords of c_j, the
same pair on every family; x^p (``power``, one reduction over the
rows), det, the cone test and the spectral norm are written once on top
of it.  P(x)y
has a closed form in each kernel (x y x on sym, 2<x, y> x - det(x) y* on
spin), and the spectrum of P(y^{-1/2})x is computed by each kernel in its
own way and read directly by ``metric``.

Each kernel also owns one step of the solver's Banach iteration,
``fixed_point_step``: from g(x) it forms x_next = g(x)^{1/p} / |g(x)^{1/p}|
and the extreme eigenvalues of P(x_next^{-1/2})x, whose log ratio is the
step d(x, x_next).  The orthant step works entry by entry, with no sort
or frame.  The spin step works in closed form from g0, ||gbar|| and gbar
/ ||gbar||, the spectrum of the step from ``_spin_quad``.  The sym step
decomposes g(x) starting from the eigenvector columns of the previous
step's decomposition (Jacobi converges in fewer sweeps from them; this
warm start is the step's own, not ``decompose``'s), builds x_next on that
frame and takes the step spectrum in that basis.  Every
power in these steps is one np.power over an array, as in the generic
x^p, whose bits do not depend on an entry's position, so each step
returns x_next with the bits of the sum over the frame.

The kernel functions that sampling, the metric and the maps of
``transforms`` use (``quad``, ``decompose``, ``eigenvalues``,
``relative_eigenvalues`` and ``random_point``, and ``_frame_sum`` and
``_sym_congruence``) take one point or a batch: coordinates with a
leading batch axis, row i of the result being what the call on point i
gives, bit for bit.  A call on two points takes two batches of one
length, except that the factor a of a quad or congruence may be one
point that serves every row.  On orthant and spin one array operation
serves the whole batch.  Spin takes every row's <a, x> in one stacked
matmul, which numpy hands row by row to the BLAS dot product that
``np.dot`` calls (``_row_dots``), and only ||xbar|| row by row, by
``math.hypot``; its random points come from one ``SplitMix64.unit_rows``
call, whose norms are such dot products too.  A sym quad or congruence
of a batch is one stacked matmul, which numpy hands matrix by matrix to
the BLAS call of a single product, so each matrix gets the bits of its
own call.  The sym kernel loops over a batch only for Jacobi and
Cholesky, one matrix at a time (``_each_matrix``), so their time and
bits are those of single calls.  A sym random point, quad or congruence
averages its product with its transpose, which makes it bitwise
symmetric by construction: ingestion runs only where coordinates enter
an Element.  The averaging has one cost: a product with entries above
about 8.9e307 reads inf.

An element holds only its algebra and its coordinates, frozen at
construction, and every spectrum is computed where it is read: all
operations are pure functions of immutable values, safe to call
concurrently.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import AlgebraMismatch, EigensolverFailure, EigenvalueOverflow, NotInCone

ORTHANT = "orthant"
SYM = "sym"
SPIN = "spin"

# Ingestion tolerance for symmetric-matrix coordinates.
_SYM_INGEST_RTOL = 1e-12

_EPS = float(np.finfo(float).eps)
# Least positive normal double: a smaller sum of squares has lost bits.
_TINY = float(np.finfo(float).tiny)
# Powers of two below 1 / the largest double, exact: x * 2^-k < y means
# x / y < 2^k, with no overflow on the way.
_2_TO_MINUS_1023 = math.ldexp(1.0, -1023)
_2_TO_MINUS_1020 = math.ldexp(1.0, -1020)


def _is_number(value, kind: type) -> bool:
    """An instance of ``numbers.Real`` or ``numbers.Integral`` (numpy's
    scalars included), but not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_integral(value) -> bool:
    """An integer, or a finite real number with no fractional part."""
    if _is_number(value, numbers.Integral):
        return True
    return _is_number(value, numbers.Real) and math.isfinite(value) and int(value) == value


# ---------------------------------------------------------------------------
# Cyclic Jacobi eigensolver (sym only)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _rotation_plan(r):
    """One entry per pair (p, q), p < q, in row-major order, for an r x r
    matrix kept as one flat row-major list: (pq, pp, qq, p, q, others),
    the flat indices of a_pq, a_pp and a_qq, then p and q, then for each k
    other than p and q, ascending, the flat indices of (k, p) and (k, q)
    in the upper triangle.  The indices are shared int objects, which
    halves the plan's memory at large r (31 MiB at r = 100 on 64-bit
    CPython)."""
    index = tuple(range(r * r))

    def upper(i, j):
        return index[min(i, j) * r + max(i, j)]

    return tuple(
        (p * r + q, p * r + p, q * r + q, p, q,
         tuple((upper(k, p), upper(k, q)) for k in range(r) if k != p and k != q))
        for p in range(r - 1) for q in range(p + 1, r)
    )


def _jacobi(matrix: np.ndarray, start: np.ndarray | None = None):
    """Cyclic Jacobi on a symmetric matrix; returns (diag, columns or None).

    Rotations run in fixed row-major pair order, so the result is
    deterministic for a fixed input.  The float matrix must equal its
    transpose bit for bit, as every caller's does: the matrix is one flat
    row-major list of which only the diagonal and the upper triangle are
    read or written after the threshold.  A rotation of the pair (p, q)
    follows ``_rotation_plan``: it visits every row k other than p and q,
    loads (a_kp, a_kq) from the upper triangle and stores them back once,
    then writes a_pp and a_qq, with the annihilated a_pq an exact zero.
    With no ``start`` only the eigenvalues are computed.  Otherwise the
    columns of ``start`` rotate along over every row: from the identity
    they end as A's eigenvectors, and for A = S^T M S from S as the
    eigenvectors S W of M, with no separate product.  A sweep performing
    no rotation means every off-diagonal entry is at most eps * ||A||_F
    and we are done.  The threshold is relative at every scale, so c * A
    is rotated as A is, up to rounding, however small or large c is.  A
    NaN or infinite entry is refused up front: no rotation can clear it.
    An eigenvalue beyond the float range raises EigenvalueOverflow.
    """
    r = matrix.shape[0]
    a = matrix.ravel().tolist()
    # math.fsum is correctly rounded, so the threshold has the same bits on
    # every Python version (the builtin sum compensates from 3.12 on).
    try:
        frobenius_sq = math.fsum(map(operator.mul, a, a))
    except OverflowError:  # finite squares whose sum overflows
        frobenius_sq = math.inf
    if _TINY <= frobenius_sq < math.inf:
        thresh = _EPS * math.sqrt(frobenius_sq)
    elif all(map(math.isfinite, a)):
        # Finite entries whose squares overflow or underflow: scale by the
        # largest one (1 on a zero matrix, whose norm stays 0).  Where the
        # norm itself overflows, eps scales first.
        scale = max(map(abs, a)) or 1.0
        ratio = math.sqrt(math.fsum((x / scale) ** 2 for x in a))
        frobenius = scale * ratio
        thresh = _EPS * frobenius if frobenius < math.inf else (_EPS * scale) * ratio
    else:
        raise EigensolverFailure(
            f"Jacobi needs finite entries; the {r}x{r} matrix has NaN or "
            f"infinite entries"
        )
    v = None if start is None else start.tolist()
    plan = _rotation_plan(r)
    sqrt = math.sqrt
    max_sweeps = 30 * r * r
    for _ in range(max_sweeps):
        rotated = False
        for pq, pp, qq, p, q, others in plan:
            apq = a[pq]
            if -thresh <= apq <= thresh:
                continue
            rotated = True
            app = a[pp]
            aqq = a[qq]
            tau = (aqq - app) / (2.0 * apq)
            # t = sign(tau) / (|tau| + sqrt(1 + tau^2)), sign(-0.0) = +1.
            if tau >= 0:
                t = 1.0 / (tau + sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (sqrt(1.0 + tau * tau) - tau)
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            for kp, kq in others:
                akp = a[kp]
                akq = a[kq]
                a[kp] = c * akp - s * akq
                a[kq] = s * akp + c * akq
            a[pp] = app - t * apq
            a[qq] = aqq + t * apq
            a[pq] = 0.0
            if v is not None:
                for vk in v:
                    vkp = vk[p]
                    vkq = vk[q]
                    vk[p] = c * vkp - s * vkq
                    vk[q] = s * vkp + c * vkq
        if not rotated:
            diag = a[::r + 1]
            if all(map(math.isfinite, diag)):
                return np.array(diag), (None if v is None else np.array(v))
            break
    if not all(map(math.isfinite, a)):
        raise EigenvalueOverflow(
            f"Jacobi overflows: the {r}x{r} matrix has an eigenvalue beyond "
            f"the float range")
    raise EigensolverFailure(
        f"Jacobi did not converge within {max_sweeps} sweeps (r={r})"
    )


# ---------------------------------------------------------------------------
# Per-family kernels
# ---------------------------------------------------------------------------

class _Kernel(NamedTuple):
    """Everything that depends on the family, on raw coordinate arrays."""

    min_param: int
    # Generator types a word may contain, in the order random_word draws them.
    generators: tuple[str, ...]
    identity: Callable  # param -> coords of the unit element
    ingest: Callable  # coords -> validated private copy
    product: Callable
    quad: Callable  # (a, x) -> P(a)x
    trace_inner: Callable
    decompose: Callable  # coords -> (eigenvalues descending, frame array)
    eigenvalues: Callable  # coords -> eigenvalues descending
    tr: Callable
    # (x, y) -> eigenvalues of P(y^{-1/2})x descending, all NaN when y is
    # not in the open cone (on sym: fails Cholesky), an entry of x (on sym
    # also of y) is not finite or x's largest eigenvalue overflows; the
    # largest is inf where the spectrum overflows (on sym also where
    # L^{-1} x L^{-T} gets an infinite entry; on spin where a term of
    # P(a)x does), with no numpy warning; x is in the cone iff the least
    # is > 0.
    relative_eigenvalues: Callable
    # (gx, x, e, basis) -> (x_next, extremes, basis): one Banach step of the
    # solver from x, given gx = g(x).  x_next = gx^e / |gx^e|; extremes are
    # the floats (l_max, l_min) of P(x_next^{-1/2})x, whose log ratio is
    # d(x, x_next), or None, with no eigensolve, when x_next equals x byte
    # for byte; basis is what the next step starts from (sym's eigenvector
    # columns, else None).  OverflowError when gx has overflowed (an
    # infinite or NaN entry or extreme eigenvalue), then
    # _require_power_domain's NotInCone when gx is outside the open cone,
    # then OverflowError when the root scale |gx^e| leaves the float range
    # or P(x_next^{-1/2})x overflows (where a root underflows to 0 beside
    # the scale, for one; the caller ignores numpy's divide warning).
    fixed_point_step: Callable
    # (param, rng, lo, hi, shape=()) -> interior coords of shape
    # shape + coord_shape, the points drawn one after another.
    random_point: Callable
    # (x, y, samples, rng) -> ratios (x|c)/(y|c) over primitive idempotents c
    rayleigh_ratios: Callable


def _row_dots(a, b):
    """<a_i, b_i> for each row, as an (N, 1) column; a or b may be one
    point, which serves every row of the other.

    One stacked matmul, which numpy hands row by row to the BLAS dot
    product that np.dot calls on two vectors: row i is np.dot(a_i, b_i)
    bit for bit (tests/test_lapack_sites.py checks it), where einsum and
    sum add in other orders.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _descending_order(values):
    """Indices sorting values descending along the last axis, ties in index
    order and NaN last."""
    return (-values).argsort(kind="stable")


def _every(flags) -> bool:
    """Whether every flag is set: one point's flag (a bool or numpy bool),
    or each of a batch's array of flags.  On one flag a numpy reduction
    would cost about a microsecond, a tenth of a single-point kernel call."""
    return bool(flags.all()) if isinstance(flags, np.ndarray) else bool(flags)


def _ordered_sum(terms):
    """terms[0] + terms[1] + ..., added in that order along the first axis:
    a fixed-order sum, with no BLAS and no pairwise summation."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _frame_sum(weights, frame):
    """sum_j w_j c_j, the frame's rows added in order to +0.0 (signed
    zeros and all, as a loop over the rows would); on a batch, weights
    (N, k) and frame (N, k, *coord_shape) give one sum per point."""
    axis = weights.ndim - 1
    weights = weights.reshape(weights.shape + (1,) * (frame.ndim - weights.ndim))
    return (weights * frame).sum(axis=axis, initial=0.0)


def _power_norm(values) -> float:
    """The larger end of values, which peak at an end: the spectral norm of
    x^p from the powers l_j^p of x's positive, descending eigenvalues
    (monotone in j), or that of x from the |l_j|.  No eigensolve."""
    # The last value goes first: max() keeps a NaN only as its first
    # argument, and a NaN eigenvalue sorts last.
    return float(max(values[-1], values[0]))


def _require_finite_extremes(high, low, name="g(x)") -> None:
    """OverflowError unless the extreme eigenvalues of g(x), or of the step's
    P(x_next^{-1/2})x, in a fixed-point step are both finite: it has
    overflowed, or made a NaN of an inf."""
    if not (math.isfinite(high) and math.isfinite(low)):
        raise OverflowError(
            f"{name} overflows: its extreme eigenvalues {float(high):.6g} and "
            f"{float(low):.6g} are not both finite")


def _require_root_scale(scale) -> None:
    """OverflowError unless the scale 1 / |g(x)^e| of x_next = g(x)^e /
    |g(x)^e| in a fixed-point step is positive and finite: the root scale
    |g(x)^e| has left the float range."""
    if not 0.0 < scale < math.inf:
        raise OverflowError(
            f"x_next = g(x)^(1/p) / |g(x)^(1/p)| leaves the float range: "
            f"1 / |g(x)^(1/p)| is {scale:.6g}")


def _orthant_relative_eigenvalues(x, y):
    y_min = y.min(axis=-1)
    # Where max |x_i| * 2^-1023 < min y_i, no ratio x_i / y_i overflows.
    if _every(np.abs(x).max(axis=-1) * _2_TO_MINUS_1023 < y_min):
        return _orthant_eigenvalues(x / y)
    # NaN rows where y is not in the open cone or x has a non-finite entry,
    # divided by 1 so that nothing warns; a ratio that overflows reads inf.
    ok = (y_min > 0.0) & np.isfinite(x).all(axis=-1)
    x = np.where(ok[..., None], x, np.nan)
    y = np.where(ok[..., None], y, 1.0)
    with np.errstate(over="ignore"):
        return _orthant_eigenvalues(x / y)


def _orthant_decompose(x):
    """The sorted entries, and the rows of the identity in the same order."""
    order = _descending_order(x)
    return _orthant_eigenvalues(x, order), np.eye(x.shape[-1])[order]


def _orthant_eigenvalues(x, order=None):
    order = _descending_order(x) if order is None else order
    # Plain indexing takes a tenth of take_along_axis's time on one point.
    return x[order] if x.ndim == 1 else np.take_along_axis(x, order, axis=-1)


def _orthant_fixed_point_step(gx, x, e, basis=None):
    """The step entry by entry: x_next = gx^e scaled by 1 / the larger power
    of gx's extreme entries, as _power_norm reads it off the sorted
    eigenvalues, and P(x_next^{-1/2})x = a a x with a = x_next^{-1/2}.
    Each power is one np.power over the coordinates, whose bits do not
    depend on an entry's position, so the decomposition's sort and frame
    are never needed."""
    low = gx.argmin()  # a NaN is both the least and the largest entry
    high = gx.argmax()
    _require_finite_extremes(gx[high], gx[low])
    _require_power_domain(gx[low:low + 1], e)
    roots = np.power(gx, e)
    scale = 1.0 / _power_norm((roots[low], roots[high]))
    _require_root_scale(scale)
    x_next = roots * scale
    if x_next.tobytes() == x.tobytes():
        return x_next, None, None
    a = np.power(x_next, -0.5)
    rel = _orthant_quad(a, x)
    rel_max, rel_min = float(rel[rel.argmax()]), float(rel[rel.argmin()])
    _require_finite_extremes(rel_max, rel_min, "P(x_next^(-1/2))x")
    return x_next, (rel_max, rel_min), None


def _orthant_random_point(n, rng, lo, hi, shape=()):
    """All the points' eigenvalues as one block of log-uniform draws."""
    return rng.log_uniforms(math.prod(shape) * n, lo, hi).reshape(shape + (n,))


def _orthant_quad(a, x):
    return a * a * x


_ORTHANT_KERNEL = _Kernel(
    min_param=1,
    generators=("scalar", "quad", "permutation"),
    identity=np.ones,
    ingest=lambda x: x.copy(),
    product=lambda x, y: x * y,
    quad=_orthant_quad,
    trace_inner=lambda x, y: float(np.dot(x, y)),
    decompose=_orthant_decompose,
    eigenvalues=_orthant_eigenvalues,
    tr=lambda x: float(np.sum(x)),
    relative_eigenvalues=_orthant_relative_eigenvalues,
    fixed_point_step=_orthant_fixed_point_step,
    random_point=_orthant_random_point,
    # Exhaustive over the standard basis, so the bounds are exact.
    rayleigh_ratios=lambda x, y, samples, rng: x / y,
)


def _each_matrix(fn, *args):
    """fn, a sym Jacobi or Cholesky routine, over a leading batch axis by a
    loop: call i takes matrix i of every argument, and the outputs are
    stacked (each part of a tuple on its own), so each matrix gets the
    bits of its own call."""
    outs = [fn(*(a[i] for a in args)) for i in range(len(args[0]))]
    if isinstance(outs[0], tuple):
        return tuple(np.array(part) for part in zip(*outs))
    return np.array(outs)


def _sym_ingest(x):
    # Bitwise symmetric (signed zeros, NaN payloads): x + x^T could overflow.
    if x.tobytes() == x.T.tobytes():
        return x.copy()
    gap = np.abs(x - x.T)
    tol = _SYM_INGEST_RTOL * (1.0 + np.abs(x))
    if np.any(gap > tol):
        raise ValueError("matrix coordinates are not symmetric")
    return (x + x.T) / 2.0


def _sym_quad(a, x):
    """a x a, averaged with its transpose so that it is bitwise symmetric;
    a and x are each one matrix or a batch, one stacked product in all
    (numpy hands each matrix of the stack to the BLAS call it makes on
    that matrix alone, so each gets the bits of its own product)."""
    m = a @ x @ a
    return (m + m.swapaxes(-1, -2)) / 2.0


def _sym_congruence(v, x):
    """v^T x v, averaged with its transpose, on one matrix or a batch as
    _sym_quad takes them."""
    m = v.swapaxes(-1, -2) @ x @ v
    return (m + m.swapaxes(-1, -2)) / 2.0


def _sym_eigenpairs(m, start=None):
    """(eigenvalues descending, frame, eigenvector columns in the same order)
    of m by Jacobi, the columns rotated from the identity or from start."""
    diag, vmat = _jacobi(m, np.eye(m.shape[0]) if start is None else start)
    order = _descending_order(diag)
    columns = vmat[:, order]
    rows = columns.T
    return diag[order], rows[:, :, None] * rows[:, None, :], columns


def _sym_decompose(x):
    if x.ndim == 3:
        return _each_matrix(_sym_decompose, x)
    return _sym_eigenpairs(x)[:2]


def _sym_eigenvalues(x):
    if x.ndim == 3:
        return _each_matrix(_sym_eigenvalues, x)
    diag, _ = _jacobi(x)
    return diag[_descending_order(diag)]


def _sym_step_eigensolve(name, solve, m, *args):
    """solve(m, *args), a Jacobi of a fixed-point step's matrix m, with an
    overflow of m (an infinite or NaN entry, or an eigenvalue beyond the
    float range) raised as an OverflowError that names it."""
    try:
        return solve(m, *args)
    except EigenvalueOverflow as exc:
        raise OverflowError(f"{name} overflows: it has an eigenvalue beyond the "
                            f"float range") from exc
    except EigensolverFailure as exc:
        if np.isfinite(m).all():
            raise
        raise OverflowError(f"{name} overflows: it has infinite or NaN entries") from exc


def _sym_fixed_point_step(gx, x, e, basis=None):
    """The step on g(x)'s warm decomposition gx = sum_j l_j c_j: given the
    eigenvector columns V of the step before, Jacobi runs on the nearly
    diagonal V^T gx V, rotating V's columns into gx's eigenvectors, and
    converges in fewer sweeps than from the identity.  x_next = sum_j mu_j
    c_j with mu_j = l_j^e / |gx^e|.  The step spectrum is that of
    D^{-1/2} (V^T x V) D^{-1/2}, with D = diag(mu) and V the new basis, to
    which P(x_next^{-1/2})x = V D^{-1/2} V^T x V D^{-1/2} V^T is
    orthogonally similar, so x_next is never factored again; the scaling
    multiplies each entry by the product d_i d_j, so that the matrix stays
    bitwise symmetric.  Either eigensolve names an overflow of its matrix
    (_sym_step_eigensolve)."""
    m = gx if basis is None else _sym_congruence(basis, gx)
    eigs, frame, basis = _sym_step_eigensolve("g(x)", _sym_eigenpairs, m, basis)
    _require_power_domain(eigs, e)
    roots = np.power(eigs, e)
    scale = 1.0 / _power_norm(roots)
    _require_root_scale(scale)
    x_next = _frame_sum(roots, frame) * scale
    if x_next.tobytes() == x.tobytes():
        return x_next, None, basis
    d = np.power(roots * scale, -0.5)
    rel = _sym_step_eigensolve("P(x_next^(-1/2))x", _sym_eigenvalues,
                               _sym_congruence(basis, x) * (d[:, None] * d[None, :]))
    return x_next, (float(rel[0]), float(rel[-1])), basis


def _sym_cholesky(y):
    """Upper factor R = L^T of y = L L^T, or None unless every pivot is > 0.

    Row-oriented: step k finishes row k of R and takes its outer product
    off the trailing block.
    """
    a = y.copy()
    upper = np.zeros_like(a)
    for k in range(a.shape[0]):
        pivot = a[k, k]
        if not pivot > 0.0:
            return None
        row = a[k, k:] / math.sqrt(pivot)
        upper[k, k:] = row
        a[k + 1:, k + 1:] -= np.outer(row[1:], row[1:])
    return upper


def _lower_solve(upper, b):
    """L^{-1} b for L = upper^T, by forward substitution row by row."""
    w = np.empty_like(b)
    for i in range(b.shape[0]):
        w[i] = (b[i] - upper[:i, i] @ w[:i]) / upper[i, i]
    return w


def _sym_relative_eigenvalues(x, y):
    """Eigenvalues of z = L^{-1} x L^{-T}, where y = L L^T.

    z is similar to y^{-1} x, so it has the spectrum of P(y^{-1/2})x =
    y^{-1/2} x y^{-1/2}; it is congruent to x, so by Sylvester's law of
    inertia it is positive definite iff x is.  One eigensolve in all.
    Non-finite entries give NaN: an infinite pivot would pass the test,
    and the caller's eigensolves of x and y report such entries.  A z that
    overflows, or whose spectrum does, gives inf, or NaN where x's own
    largest eigenvalue overflows.
    """
    if x.ndim == 3:
        return _each_matrix(_sym_relative_eigenvalues, x, y)
    upper = None
    if np.isfinite(x).all() and np.isfinite(y).all():
        upper = _sym_cholesky(y)
    if upper is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            z = _lower_solve(upper, _lower_solve(upper, x).T)
            z = (z + z.T) / 2.0
        try:
            return _sym_eigenvalues(z)
        except EigenvalueOverflow:
            pass
        except EigensolverFailure:
            if np.isfinite(z).all():
                raise
        # z, or its spectrum, overflowed: it reads inf, or NaN where x's own
        # largest eigenvalue overflows, an x that the spin kernel refuses too.
        try:
            _sym_eigenvalues(x)
        except EigenvalueOverflow:
            return np.full(x.shape[0], np.nan)
        return np.full(x.shape[0], np.inf)
    return np.full(x.shape[0], np.nan)


def _sym_random_point(r, rng, lo, hi, shape=()):
    points = np.empty(shape + (r, r))
    for point in points.reshape(-1, r, r):
        lams = rng.log_uniforms(r, lo, hi)
        q = rng.rotation(r)
        m = (q * lams) @ q.T
        point[...] = (m + m.T) / 2.0
    return points


def _quadratic_forms(v, a):
    """v_i^T a v_i for each row v_i of v, as fixed-order sums."""
    va = _ordered_sum(v.T[:, :, None] * a[:, None, :])  # row i is v_i^T a
    return _ordered_sum((va * v).T)


def _sym_rayleigh_ratios(x, y, samples, rng):
    """(x|c)/(y|c) = v^T x v / v^T y v over c = v v^T, one v per sample."""
    v = rng.unit_vectors(samples, x.shape[0])
    return _quadratic_forms(v, x) / _quadratic_forms(v, y)


_SYM_KERNEL = _Kernel(
    min_param=1,
    generators=("scalar", "quad", "congruence"),
    identity=np.eye,
    ingest=_sym_ingest,
    product=lambda x, y: (x @ y + y @ x) / 2.0,
    quad=_sym_quad,
    trace_inner=lambda x, y: float(np.sum(x * y)),
    decompose=_sym_decompose,
    eigenvalues=_sym_eigenvalues,
    tr=lambda x: float(np.trace(x)),
    relative_eigenvalues=_sym_relative_eigenvalues,
    fixed_point_step=_sym_fixed_point_step,
    random_point=_sym_random_point,
    rayleigh_ratios=_sym_rayleigh_ratios,
)


def _spin_identity(n):
    coords = np.zeros(n)
    coords[0] = 1.0
    return coords


def _spin_product(x, y):
    head = float(np.dot(x, y))
    tail = x[0] * y[1:] + y[0] * x[1:]
    return np.concatenate(([head], tail))


def _spin_parts(x):
    """(x0, ||xbar||) of one point as floats, of a batch as (N, 1) columns.

    The norm is math.hypot's, point by point: it scales its arguments, so
    no sum of squares over- or underflows.
    """
    if x.ndim == 1:
        return float(x[0]), math.hypot(*x[1:].tolist())
    norms = np.fromiter(itertools.starmap(math.hypot, x[:, 1:].tolist()), float, len(x))
    return x[:, :1], norms.reshape(-1, 1)


@functools.lru_cache(maxsize=8)
def _spin_conjugation(n):
    """(1, -1, ..., -1), read-only: x * it is x* = (x0, -xbar)."""
    signs = -np.ones(n)
    signs[0] = 1.0
    signs.flags.writeable = False
    return signs


def _spin_quad(a, x):
    """P(a)x = 2<a, x> a - det(a) x*, where x* = (x0, -xbar).

    Faraut & Koranyi, Analysis on Symmetric Cones, ch. II; <.,.> is the
    plain dot product: np.dot on one point, and every row's at once by
    _row_dots on a batch, with the same bits.  a and x are each one point
    or a batch; one a serves every row of a batch x.  Subtracting
    det(a) * -x_j adds det(a) * x_j, bit for bit.
    """
    if a.ndim == x.ndim == 1:
        dot = float(np.dot(a, x))
    else:
        dot = _row_dots(a, x)
    a0, a_norm = _spin_parts(a)
    det_a = (a0 + a_norm) * (a0 - a_norm)
    return 2.0 * dot * a - det_a * (x * _spin_conjugation(x.shape[-1]))


def _spin_spectrum(x):
    """The eigenvalues x0 + ||xbar||, x0 - ||xbar||, and _spin_parts(x)'s
    norm."""
    x0, nrm = _spin_parts(x)
    if x.ndim == 1:
        return np.array([x0 + nrm, x0 - nrm]), nrm
    # An overflow reads inf, and inf - inf NaN, with no warning, as they do
    # in one point's floats.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate((x0 + nrm, x0 - nrm), axis=1), nrm


def _spin_eigenvalues(x):
    return _spin_spectrum(x)[0]


def _spin_frame(x, nrm):
    """The frame (1, u)/2, (1, -u)/2 with u = xbar / ||xbar||, from
    _spin_parts(x)'s norm."""
    if _every(nrm != 0.0):
        u = x[..., 1:] / nrm
    else:
        # Where xbar = 0 any unit vector gives a frame: take e_1 (after
        # dividing by 1 there, which raises no warning).
        zero = nrm == 0.0
        u = np.where(zero, np.eye(x.shape[-1] - 1)[0], x[..., 1:] / (nrm + zero))
    frame = np.empty(x.shape[:-1] + (2, x.shape[-1]))
    frame[..., 0] = 1.0
    frame[..., 0, 1:] = u
    frame[..., 1, 1:] = -u
    frame *= 0.5
    return frame


def _spin_decompose(x):
    eigs, nrm = _spin_spectrum(x)
    return eigs, _spin_frame(x, nrm)


def _spin_relative_eigenvalues(x, y):
    # a = y^{-1/2} and P(a)x come from the generic power and the closed-form
    # quad, so the bits match theirs.  For x in the cone, every term of
    # P(a)x has norm at most 2 l_max(x) / l_min(y) and its eigenvalues are
    # at most 4.25 l_max(x) / l_min(y), so nothing overflows where that
    # ratio is below 2^1020.
    y_eigs, y_norm = _spin_spectrum(y)
    x_eigs = _spin_eigenvalues(x)
    if _every((x_eigs.T[-1] > 0.0) & (x_eigs.T[0] * _2_TO_MINUS_1020 < y_eigs.T[-1])):
        a = _frame_sum(np.power(y_eigs, -0.5), _spin_frame(y, y_norm))
        return _spin_eigenvalues(_spin_quad(a, x))
    # y's eigenvalues are checked before anything divides by them, and x's
    # largest, x0 + ||xbar||, which is finite iff every entry is and it does
    # not overflow, before a product multiplies inf by 0: a row that fails
    # either test is computed from the identity, so that nothing warns, and
    # reads NaN.  A row whose P(a)x overflows reads inf.
    ok = (y_eigs.T[-1] > 0.0) & np.isfinite(x_eigs.T[0])
    unit = _spin_identity(x.shape[-1])
    x = np.where(ok[..., None], x, unit)
    y = np.where(ok[..., None], y, unit)
    y_eigs, y_norm = _spin_spectrum(y)
    with np.errstate(over="ignore", invalid="ignore"):
        a = _frame_sum(np.power(y_eigs, -0.5), _spin_frame(y, y_norm))
        rel = _spin_eigenvalues(_spin_quad(a, x))
    rel = np.where(np.isfinite(rel).all(axis=-1, keepdims=True), rel, np.inf)
    return np.where(ok[..., None], rel, np.nan)


def _spin_fixed_point_step(gx, x, e, basis=None):
    """The step in closed form on g(x)'s frame (1, u)/2, (1, -u)/2, u =
    gbar / ||gbar||, with the bits of _frame_sum over the frame's rows: for
    weights w1, w2 the head is w1 / 2 + w2 / 2 and the tail w1 h + w2 (-h),
    h = u / 2.  The weights are positive, so w1 h_i and w2 (-h_i) are never
    both -0.0, and _frame_sum's initial +0.0 changes no sum.  x_next has the
    weights l_j^e / |g^e| and a = x_next^{-1/2} the weights mu_j^{-1/2};
    the step spectrum is that of _spin_quad(a, x)."""
    g0, g_norm = _spin_parts(gx)
    high = g0 + g_norm
    low = g0 - g_norm
    _require_finite_extremes(high, low)
    eigs = np.array([high, low])
    _require_power_domain(eigs, e)
    if g_norm != 0.0:
        h = 0.5 * (gx[1:] / g_norm)
    else:
        h = 0.5 * np.eye(gx.shape[0] - 1)[0]  # any unit vector gives a frame
    neg_h = -h
    roots = np.power(eigs, e)
    scale = 1.0 / _power_norm(roots)
    _require_root_scale(scale)
    w1, w2 = roots.tolist()
    x_next = np.empty_like(gx)
    x_next[0] = (w1 * 0.5 + w2 * 0.5) * scale
    x_next[1:] = (w1 * h + w2 * neg_h) * scale
    if x_next.tobytes() == x.tobytes():
        return x_next, None, None
    w1, w2 = np.power(roots * scale, -0.5).tolist()
    a = np.empty_like(gx)
    a[0] = w1 * 0.5 + w2 * 0.5
    a[1:] = w1 * h + w2 * neg_h
    z0, z_norm = _spin_parts(_spin_quad(a, x))
    rel_max, rel_min = z0 + z_norm, z0 - z_norm
    _require_finite_extremes(rel_max, rel_min, "P(x_next^(-1/2))x")
    return x_next, (rel_max, rel_min), None


def _spin_random_point(n, rng, lo, hi, shape=()):
    return rng.unit_rows(shape, n - 1, lo, hi)


def _spin_rayleigh_ratios(x, y, samples, rng):
    """(x|c)/(y|c) = (x0 + <xbar, u>) / (y0 + <ybar, u>) over c = (1, u)/2,
    one unit u per sample, the dot products as fixed-order sums."""
    u = rng.unit_vectors(samples, x.shape[0] - 1).T
    return (x[0] + _ordered_sum(x[1:, None] * u)) / (y[0] + _ordered_sum(y[1:, None] * u))


_SPIN_KERNEL = _Kernel(
    min_param=2,
    generators=("scalar", "quad"),
    identity=_spin_identity,
    ingest=lambda x: x.copy(),
    product=_spin_product,
    quad=_spin_quad,
    trace_inner=lambda x, y: 2.0 * float(np.dot(x, y)),
    decompose=_spin_decompose,
    eigenvalues=_spin_eigenvalues,
    tr=lambda x: 2.0 * float(x[0]),
    relative_eigenvalues=_spin_relative_eigenvalues,
    fixed_point_step=_spin_fixed_point_step,
    random_point=_spin_random_point,
    rayleigh_ratios=_spin_rayleigh_ratios,
)

_KERNELS = {ORTHANT: _ORTHANT_KERNEL, SYM: _SYM_KERNEL, SPIN: _SPIN_KERNEL}


# ---------------------------------------------------------------------------
# Descriptors and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraDescriptor:
    """Which simple algebra, plus its size parameter."""

    kind: str
    param: int
    # The family's kernel, looked up once: every operation goes through it.
    kernel: _Kernel = field(init=False, repr=False, compare=False)
    # The shape of the unit element's coords, computed once.
    coord_shape: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KERNELS:
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        kernel = _KERNELS[self.kind]
        if not (_is_integral(self.param) and self.param >= kernel.min_param):
            raise ValueError(
                f"{self.kind} param must be an integer >= {kernel.min_param}, "
                f"got {self.param!r}")
        object.__setattr__(self, "param", int(self.param))
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "coord_shape", kernel.identity(self.param).shape)

    def __reduce__(self):
        # Kernels hold lambdas, which do not pickle; rebuild from the fields.
        return AlgebraDescriptor, (self.kind, self.param)

    def identity(self) -> Element:
        return Element(self, self.kernel.identity(self.param))


def orthant(n: int) -> AlgebraDescriptor:
    return AlgebraDescriptor(ORTHANT, n)


def sym_matrix(r: int) -> AlgebraDescriptor:
    return AlgebraDescriptor(SYM, r)


def spin_factor(n: int) -> AlgebraDescriptor:
    return AlgebraDescriptor(SPIN, n)


@dataclass(frozen=True, eq=False)
class Element:
    """A point of the ambient space V (not necessarily in the cone)."""

    algebra: AlgebraDescriptor
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.shape != self.algebra.coord_shape:
            raise ValueError(
                f"coords shape {coords.shape} does not match "
                f"{self.algebra.kind}({self.algebra.param})"
            )
        coords = self.algebra.kernel.ingest(coords)
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    def __reduce__(self):
        # Unpickled arrays are writable; rebuild so the coordinates are
        # frozen again.
        return Element, (self.algebra, self.coords)

    def __add__(self, other: Element) -> Element:
        _require_same_algebra(self, other)
        return Element(self.algebra, self.coords + other.coords)

    def __sub__(self, other: Element) -> Element:
        _require_same_algebra(self, other)
        return Element(self.algebra, self.coords - other.coords)

    def __mul__(self, scalar: float) -> Element:
        return Element(self.algebra, self.coords * float(scalar))

    __rmul__ = __mul__


def _require_power_domain(eigenvalues: np.ndarray, p: float) -> None:
    """NotInCone unless x^p is defined on these descending eigenvalues, of
    one point or of each point of a batch: any for non-negative integer p
    (polynomial calculus), else positive ones."""
    if p >= 0 and float(p).is_integer():
        return
    # A NaN eigenvalue is not refused here.
    if eigenvalues.ndim == 1:
        outside = eigenvalues[-1] <= 0.0
    else:
        outside = (eigenvalues[:, -1] <= 0.0).any()
    if outside:
        least = eigenvalues.T[-1]  # of the point, or of each point of a batch
        raise NotInCone(
            f"x^({p:g}) needs x in the open cone; least eigenvalue is "
            f"{np.extract(least <= 0.0, least)[0]:.6g}"
        )


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) with a Jordan frame realizing x = sum l_j c_j,
    as ``spectral_decompose`` returns them; x^p is ``power``.

    The frame is one array of shape (rank, *coord_shape) on every family:
    row j holds the raw coordinates of c_j (on the orthant the rows of a
    permutation matrix), never wrapped in an Element.
    """

    algebra: AlgebraDescriptor
    eigenvalues: np.ndarray
    frame_coords: np.ndarray = field(repr=False)


def _require_same_algebra(x: Element, y: Element) -> None:
    if x.algebra != y.algebra:
        raise AlgebraMismatch(
            f"elements live in {x.algebra.kind}({x.algebra.param}) and "
            f"{y.algebra.kind}({y.algebra.param})"
        )


# ---------------------------------------------------------------------------
# Jordan product and quadratic representation
# ---------------------------------------------------------------------------

def product(x: Element, y: Element) -> Element:
    """Jordan product x o y."""
    _require_same_algebra(x, y)
    return Element(x.algebra, x.algebra.kernel.product(x.coords, y.coords))


def quad(x: Element, y: Element) -> Element:
    """Quadratic representation P(x)y = 2 x o (x o y) - (x o x) o y.

    Each family's kernel computes it in closed form.
    """
    _require_same_algebra(x, y)
    return Element(x.algebra, x.algebra.kernel.quad(x.coords, y.coords))


def trace_inner(x: Element, y: Element) -> float:
    """Trace form (x|y) = tr(x o y)."""
    _require_same_algebra(x, y)
    return x.algebra.kernel.trace_inner(x.coords, y.coords)


# ---------------------------------------------------------------------------
# Spectral decomposition and functional calculus
# ---------------------------------------------------------------------------

def spectral_decompose(x: Element) -> SpectralDecomposition:
    """Eigenvalues sorted descending with a Jordan frame for x.

    One eigensolve with eigenvectors on ``sym``; nothing is stored on x.
    """
    eigs, frame = x.algebra.kernel.decompose(x.coords)
    return SpectralDecomposition(x.algebra, eigs, frame)


def eigenvalues(x: Element) -> np.ndarray:
    """Eigenvalues sorted descending, without the frame.

    Computed at each call: one eigensolve without eigenvectors on ``sym``.
    """
    return x.algebra.kernel.eigenvalues(x.coords)


def lambda_min(x: Element) -> float:
    """Least eigenvalue of x."""
    return float(eigenvalues(x)[-1])


def power(x: Element, p: float) -> Element:
    """Spectral power x^p = sum l_j^p c_j.

    Any element is accepted for non-negative integer p (polynomial
    calculus); otherwise x must lie in the open cone.  An infinite
    eigenvalue, or one whose power is beyond the float range, raises
    EigenvalueOverflow.
    """
    p = float(p)
    if p == 1.0:
        return x
    return Element(x.algebra, _power_coords(x.algebra, x.coords, p))


def _power_coords(descriptor: AlgebraDescriptor, coords: np.ndarray, p: float) -> np.ndarray:
    """x^p on the raw coordinates of one point or a batch, as ``power``
    computes it: x itself for p = 1 and the unit element for p = 0, with
    no decomposition; EigenvalueOverflow where an eigenvalue or its power
    is infinite."""
    p = float(p)
    if p == 1.0:
        return coords
    kernel = descriptor.kernel
    if p == 0.0:
        return np.broadcast_to(kernel.identity(descriptor.param), coords.shape).copy()
    eigs, frame = kernel.decompose(coords)
    _require_power_domain(eigs, p)
    with np.errstate(over="ignore"):  # an overflow is refused before the sum
        powers = np.power(eigs, p)
    # The frame sum would give inf * 0 = NaN; a NaN eigenvalue goes through
    # as it is.
    overflow = np.isinf(powers) | np.isinf(eigs)
    if overflow.any():
        eig = np.extract(overflow, eigs)[0]
        raise EigenvalueOverflow(
            f"x^({p:g}) overflows: the eigenvalue {eig:.6g} or its power is not finite")
    return _frame_sum(powers, frame)


def det(x: Element) -> float:
    """Product of eigenvalues."""
    return float(np.prod(eigenvalues(x)))


def tr(x: Element) -> float:
    """Sum of eigenvalues."""
    return x.algebra.kernel.tr(x.coords)


def spectral_norm(x: Element) -> float:
    """max_j |l_j|."""
    return _power_norm(np.abs(eigenvalues(x)))


def in_cone(x: Element) -> bool:
    """True iff x lies in the open cone (its least eigenvalue is positive)."""
    return lambda_min(x) > 0.0


def normalize(x: Element) -> Element:
    """x / |x| in the spectral norm; EigenvalueOverflow where |x| is beyond
    the float range."""
    norm = spectral_norm(x)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero element")
    if norm == math.inf:
        raise EigenvalueOverflow("cannot normalize x: its spectral norm overflows "
                                 "the float range")
    return x * (1.0 / norm)

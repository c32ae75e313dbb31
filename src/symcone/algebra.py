"""Euclidean Jordan algebra kernel for three families of symmetric cones.

Supported algebras and their coordinate conventions:

* ``orthant`` (param n): V = R^n with the componentwise product; the cone
  is the open positive orthant.  Coordinates: flat vector of length n.
* ``sym`` (param r): V = Sym(r, R) with x o y = (xy + yx)/2; the cone is
  the positive definite matrices.  Coordinates: full dense r x r symmetric
  matrix (symmetrized on ingestion, never packed).
* ``spin`` (param n, n >= 2): V = R x R^{n-1} with
  x o y = (<x, y>, x0*ybar + y0*xbar); the cone is the Lorentz cone
  x0 > ||xbar||.  Coordinates: flat vector, entry 0 distinguished.

The inner product is the trace form (x|y) = tr(x o y) in every algebra,
which makes primitive idempotents have trace 1.

Everything that depends on the family lives in one small kernel per
family (a ``_Kernel`` of functions), reached through
``AlgebraDescriptor.kernel``.  A kernel works on raw coordinate arrays.
The public functions check their arguments, call the kernel and wrap the
result.  A kernel returns the Jordan frame of x = sum_j l_j c_j as one
array, row j the coords of c_j; x^p (one reduction over the rows), det,
the cone test and the spectral norm are written once on top of it.  P(x)y
has a closed form in each kernel (x y x on sym, 2<x, y> x - det(x) y* on
spin), and the spectrum of P(y^{-1/2})x is computed by each kernel in its
own way and read directly by ``metric``.

An element holds only its algebra and its coordinates, frozen at
construction, and every spectrum is computed where it is read: all
operations are pure functions of immutable values, safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import AlgebraMismatch, EigensolverFailure, NotInCone

ORTHANT = "orthant"
SYM = "sym"
SPIN = "spin"

# Ingestion tolerance for symmetric-matrix coordinates.
_SYM_INGEST_RTOL = 1e-12

_EPS = float(np.finfo(float).eps)
# Least positive normal double: a smaller sum of squares has lost bits.
_TINY = float(np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# Cyclic Jacobi eigensolver (sym only)
# ---------------------------------------------------------------------------

def _jacobi(matrix: np.ndarray, accumulate: bool):
    """Cyclic Jacobi on a symmetric matrix; returns (diag, columns or None).

    The float matrix must equal its transpose bit for bit, as every caller's
    does: each rotation computes an off-diagonal pair once and writes it to
    both triangles.  Rotations run in fixed row-major pair order, so the
    result is deterministic for a fixed input.  The annihilated entry is set
    to an exact zero each rotation; a sweep performing no rotation means
    every off-diagonal entry is at most eps * ||A||_F and we are done.  The
    threshold is relative at every scale, so c * A is rotated as A is, up
    to rounding, however small c is.  A NaN or infinite entry is refused up
    front: no rotation can clear it.
    """
    r = matrix.shape[0]
    a = matrix.tolist()
    # math.fsum is correctly rounded, so the threshold has the same bits on
    # every Python version (the builtin sum compensates from 3.12 on).
    try:
        frobenius_sq = math.fsum(x * x for row in a for x in row)
    except OverflowError:  # finite squares whose sum overflows
        frobenius_sq = math.inf
    if _TINY <= frobenius_sq < math.inf:
        frobenius = math.sqrt(frobenius_sq)
    elif all(math.isfinite(x) for row in a for x in row):
        # Finite entries whose squares overflow or underflow: scale by the
        # largest one (1 on a zero matrix, whose norm stays 0).
        scale = max(abs(x) for row in a for x in row) or 1.0
        frobenius = scale * math.sqrt(
            math.fsum((x / scale) ** 2 for row in a for x in row))
    else:
        raise EigensolverFailure(
            f"Jacobi needs finite entries; the {r}x{r} matrix has NaN or "
            f"infinite entries"
        )
    v = [[1.0 if i == j else 0.0 for j in range(r)] for i in range(r)] if accumulate else None
    thresh = _EPS * frobenius
    max_sweeps = 30 * r * r
    for _ in range(max_sweeps):
        rotated = False
        for p in range(r - 1):
            ap = a[p]
            for q in range(p + 1, r):
                apq = ap[q]
                if abs(apq) <= thresh:
                    continue
                rotated = True
                aq = a[q]
                tau = (aq[q] - ap[p]) / (2.0 * apq)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                app = ap[p]
                aqq = aq[q]
                # Rows p and q pass too; their 2x2 block is overwritten below.
                for k, ak in enumerate(a):
                    akp = ak[p]
                    akq = ak[q]
                    ap[k] = ak[p] = c * akp - s * akq
                    aq[k] = ak[q] = s * akp + c * akq
                ap[p] = app - t * apq
                aq[q] = aqq + t * apq
                ap[q] = 0.0
                aq[p] = 0.0
                if accumulate:
                    for vk in v:
                        vkp = vk[p]
                        vkq = vk[q]
                        vk[p] = c * vkp - s * vkq
                        vk[q] = s * vkp + c * vkq
        if not rotated:
            diag = np.array([a[i][i] for i in range(r)])
            return diag, (np.array(v) if accumulate else None)
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
    # (x, y) -> eigenvalues of P(y^{-1/2})x descending, or None when y is
    # not in the open cone or an entry of x (on sym also of y) is not
    # finite; x is in the cone iff the least eigenvalue is > 0.
    relative_eigenvalues: Callable
    random_point: Callable  # (param, rng, lo, hi) -> interior coords
    # (x, y, samples, rng) -> ratios (x|c)/(y|c) over primitive idempotents c
    rayleigh_ratios: Callable


def _descending_order(values):
    """Indices sorting values descending, ties in index order and NaN last."""
    return (-values).argsort(kind="stable")


def _frame_sum(weights, frame):
    """sum_j w_j c_j, the frame's rows added in order to +0.0 (signed
    zeros and all, as a loop over the rows would)."""
    weights = weights.reshape((-1,) + (1,) * (frame.ndim - 1))
    return (weights * frame).sum(axis=0, initial=0.0)


def _power_sum(eigenvalues, frame, p):
    """sum_j l_j^p c_j."""
    return _frame_sum(np.power(eigenvalues, p), frame)


def _orthant_relative_eigenvalues(x, y):
    if not (y.min() > 0.0 and np.isfinite(x).all()):
        return None
    ratios = x / y
    return ratios[_descending_order(ratios)]


@functools.lru_cache(maxsize=8)
def _unit_rows(n):
    """The rows of the n x n identity, read-only: the orthant's Jordan frame."""
    rows = np.eye(n)
    rows.flags.writeable = False
    return rows


def _orthant_decompose(x):
    order = _descending_order(x)
    return x[order], _unit_rows(x.shape[0])[order]


_ORTHANT_KERNEL = _Kernel(
    min_param=1,
    generators=("scalar", "quad", "permutation"),
    identity=np.ones,
    ingest=lambda x: x.copy(),
    product=lambda x, y: x * y,
    quad=lambda a, x: a * a * x,
    trace_inner=lambda x, y: float(np.dot(x, y)),
    decompose=_orthant_decompose,
    eigenvalues=lambda x: x[_descending_order(x)],
    tr=lambda x: float(np.sum(x)),
    relative_eigenvalues=_orthant_relative_eigenvalues,
    random_point=lambda n, rng, lo, hi: rng.log_uniforms(n, lo, hi),
    # Exhaustive over the standard basis, so the bounds are exact.
    rayleigh_ratios=lambda x, y, samples, rng: x / y,
)


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
    # Averaged with its transpose so that it is bitwise symmetric and
    # ingestion takes its copying path.
    m = a @ x @ a
    return (m + m.T) / 2.0


def _sym_decompose(x):
    diag, vmat = _jacobi(x, accumulate=True)
    order = _descending_order(diag)
    cols = vmat.T[order]  # the eigenvector columns, descending
    return diag[order], cols[:, :, None] * cols[:, None, :]


def _sym_eigenvalues(x):
    diag, _ = _jacobi(x, accumulate=False)
    return diag[_descending_order(diag)]


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
    Non-finite entries give None: an infinite pivot would pass the test,
    and the caller's eigensolves of x and y report such entries.
    """
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return None
    upper = _sym_cholesky(y)
    if upper is None:
        return None
    z = _lower_solve(upper, _lower_solve(upper, x).T)
    return _sym_eigenvalues((z + z.T) / 2.0)


def _sym_random_point(r, rng, lo, hi):
    lams = rng.log_uniforms(r, lo, hi)
    q = rng.rotation(r)
    return (q * lams) @ q.T


def _sym_rayleigh_ratios(x, y, samples, rng):
    ratios = []
    for _ in range(samples):
        v = rng.unit_vector(x.shape[0])
        ratios.append(float(v @ x @ v) / float(v @ y @ v))
    return ratios


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


def _spin_quad(a, x):
    """P(a)x = 2<a, x> a - det(a) x*, where x* = (x0, -xbar).

    Faraut & Koranyi, Analysis on Symmetric Cones, ch. II; <.,.> is the
    plain dot product.
    """
    out = 2.0 * float(np.dot(a, x)) * a
    lam1, lam2 = _spin_eigenvalues(a).tolist()
    det_a = lam1 * lam2
    out[0] -= det_a * x[0]
    out[1:] += det_a * x[1:]
    return out


def _spin_decompose(x):
    x0 = float(x[0])
    nrm = math.hypot(*x[1:].tolist())
    u = x[1:] / nrm if nrm != 0.0 else np.eye(x.shape[0] - 1)[0]
    frame = np.empty((2, x.shape[0]))
    frame[:, 0], frame[0, 1:], frame[1, 1:] = 1.0, u, -u
    frame *= 0.5
    return np.array([x0 + nrm, x0 - nrm]), frame


def _spin_eigenvalues(x):
    x0 = float(x[0])
    # hypot scales its arguments: no sum of squares to over- or underflow.
    nrm = math.hypot(*x[1:].tolist())
    return np.array([x0 + nrm, x0 - nrm])


def _spin_relative_eigenvalues(x, y):
    # y's eigenvalues are checked before anything divides by them, and x
    # before a product multiplies inf by 0.  Then a = y^{-1/2} and P(a)x
    # come from the generic power and the closed-form quad, so the bits
    # match theirs.
    if not (_spin_eigenvalues(y)[-1] > 0.0 and np.isfinite(x).all()):
        return None
    a = _power_sum(*_spin_decompose(y), -0.5)
    return _spin_eigenvalues(_spin_quad(a, x))


def _spin_random_point(n, rng, lo, hi):
    lam1 = rng.log_uniform(lo, hi)
    lam2 = rng.log_uniform(lo, hi)
    u = rng.unit_vector(n - 1)
    return np.concatenate(([0.5 * (lam1 + lam2)], 0.5 * (lam1 - lam2) * u))


def _spin_rayleigh_ratios(x, y, samples, rng):
    ratios = []
    for _ in range(samples):
        u = rng.unit_vector(x.shape[0] - 1)
        num = float(x[0]) + float(np.dot(x[1:], u))
        den = float(y[0]) + float(np.dot(y[1:], u))
        ratios.append(num / den)
    return ratios


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
        if int(self.param) != self.param or self.param < kernel.min_param:
            raise ValueError(f"{self.kind} param must be an integer >= {kernel.min_param}")
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


def _is_nonneg_integer(p: float) -> bool:
    return p >= 0 and float(p).is_integer()


def _require_power_domain(eigenvalues: np.ndarray, p: float) -> None:
    """NotInCone unless x^p is defined on these descending eigenvalues: any
    for non-negative integer p (polynomial calculus), else positive ones."""
    if not _is_nonneg_integer(p) and eigenvalues[-1] <= 0.0:
        raise NotInCone(
            f"x^({p:g}) needs x in the open cone; least eigenvalue is "
            f"{eigenvalues[-1]:.6g}"
        )


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) with a Jordan frame realizing x = sum l_j c_j.

    The frame is one array of shape (rank, *coord_shape) on every family:
    row j holds the raw coordinates of c_j (on the orthant the rows of a
    permutation matrix), never wrapped in an Element.
    """

    algebra: AlgebraDescriptor
    eigenvalues: np.ndarray
    frame_coords: np.ndarray = field(repr=False)

    def power(self, p: float) -> Element:
        """sum_j l_j^p c_j, where _require_power_domain allows it."""
        _require_power_domain(self.eigenvalues, p)
        return Element(self.algebra, _power_sum(self.eigenvalues, self.frame_coords, p))


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
    calculus); otherwise x must lie in the open cone.
    """
    p = float(p)
    if p == 1.0:
        return x
    if p == 0.0:
        return x.algebra.identity()
    return spectral_decompose(x).power(p)


def inverse(x: Element) -> Element:
    """x^{-1}; requires x in the open cone."""
    return power(x, -1.0)


def det(x: Element) -> float:
    """Product of eigenvalues."""
    return float(np.prod(eigenvalues(x)))


def tr(x: Element) -> float:
    """Sum of eigenvalues."""
    return x.algebra.kernel.tr(x.coords)


def spectral_norm(x: Element) -> float:
    """max_j |l_j|."""
    eigs = eigenvalues(x)
    # The least eigenvalue goes first: max() keeps a NaN only as its first
    # argument, and a NaN eigenvalue sorts last.
    return float(max(abs(eigs[-1]), abs(eigs[0])))


def in_cone(x: Element) -> bool:
    """True iff x lies in the open cone (its least eigenvalue is positive)."""
    return lambda_min(x) > 0.0


def normalize(x: Element) -> Element:
    """x / |x| in the spectral norm."""
    norm = spectral_norm(x)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero element")
    return x * (1.0 / norm)

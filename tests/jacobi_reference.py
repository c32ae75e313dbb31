"""The cyclic Jacobi eigensolver as it was when each rotation passed over
the rows and then the columns of a full list-of-rows matrix, writing both
triangles, kept as a reference oracle.  Its stopping threshold follows
the production one (eps * ||A||_F from math.fsum over every entry, the
norm scaled when its square over- or underflows); the rotation loop is
verbatim, with no check for an eigenvalue beyond the float range.

The production ``algebra._jacobi``, which keeps a flat row-major list and
reads and writes only its diagonal and upper triangle, must reproduce its
diagonal and eigenvectors byte for byte on every exactly symmetric input.
"""

import math

import numpy as np

from symcone.errors import EigensolverFailure

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _jacobi(matrix: np.ndarray, accumulate: bool, start: np.ndarray | None = None):
    """Cyclic Jacobi on a symmetric matrix; returns (diag, columns or None).

    Rotations run in fixed row-major pair order, so the result is
    deterministic for a fixed input.  The eigenvector columns start from
    the identity, or from the columns of ``start``.  The annihilated entry
    is set to an exact zero each rotation; a sweep performing no rotation means every
    off-diagonal entry is at most eps * ||A||_F and we are done.  A NaN or
    infinite entry is refused up front: no rotation would ever clear it.
    """
    r = matrix.shape[0]
    a = [[float(matrix[i, j]) for j in range(r)] for i in range(r)]
    # math.fsum is correctly rounded, so the threshold has the same bits on
    # every Python version (the builtin sum compensates from 3.12 on).
    try:
        frobenius_sq = math.fsum(x * x for row in a for x in row)
    except OverflowError:  # finite squares whose sum overflows
        frobenius_sq = math.inf
    if _TINY <= frobenius_sq < math.inf:
        thresh = _EPS * math.sqrt(frobenius_sq)
    elif all(math.isfinite(x) for row in a for x in row):
        # Finite entries whose squares overflow or underflow: scale by the
        # largest one (1 on a zero matrix); eps scales first where the norm
        # itself overflows.
        scale = max(abs(x) for row in a for x in row) or 1.0
        ratio = math.sqrt(math.fsum((x / scale) ** 2 for row in a for x in row))
        frobenius = scale * ratio
        thresh = _EPS * frobenius if frobenius < math.inf else (_EPS * scale) * ratio
    else:
        raise EigensolverFailure(
            f"Jacobi needs finite entries; the {r}x{r} matrix has NaN or "
            f"infinite entries"
        )
    if not accumulate:
        v = None
    elif start is None:
        v = [[1.0 if i == j else 0.0 for j in range(r)] for i in range(r)]
    else:
        v = [[float(start[i, j]) for j in range(r)] for i in range(r)]
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
                for k in range(r):
                    ak = a[k]
                    akp = ak[p]
                    akq = ak[q]
                    ak[p] = c * akp - s * akq
                    ak[q] = s * akp + c * akq
                for k in range(r):
                    apk = ap[k]
                    aqk = aq[k]
                    ap[k] = c * apk - s * aqk
                    aq[k] = s * apk + c * aqk
                ap[p] = app - t * apq
                aq[q] = aqq + t * apq
                ap[q] = 0.0
                aq[p] = 0.0
                if accumulate:
                    for k in range(r):
                        vk = v[k]
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

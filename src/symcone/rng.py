"""Seeded randomness for sampling and instance generation.

Every random draw in the package flows through :class:`SplitMix64`, the
splitmix64 generator of Steele, Lea & Flood ("Fast splittable
pseudorandom number generators", OOPSLA 2014), independent of numpy's
generator versioning.  The stream is computed in blocks of ``_BLOCK``
words: from the state s the block holds the mixes of s + k*0x9E3779B97F4A7C15
for k = 1..``_BLOCK``, all in numpy ``uint64`` array arithmetic, which
wraps like the scalar recurrence.  ``next_u64`` reads the block's words
and ``uniform`` its doubles (word >> 11)*2^-53, so the stream and every
float are those of the one-word-at-a-time generator; the bulk calls take
consecutive draws straight from the block.  A generator computes no block
before its first draw, so one that is never drawn from costs nothing.

Box-Muller normals use the scalar libm calls of ``math``, whose bits do
not depend on numpy's SIMD paths.  A suite or generated instance is
reproducible bit for bit from its seed on the same numpy and BLAS build:
``rotation`` takes a LAPACK QR, and ``unit_vector`` and ``unit_rows``
BLAS dot products, whose bits may differ on others.  ``unit_vector``
divides its normals by the root of their dot product
(``algebra._row_dots``, the dot product ``np.linalg.norm`` calls).
``unit_rows`` draws the spin factor's random points from two log-uniforms
and a unit vector's normals each: it reads their draws one point after
another in a Python loop, then norms every vector in one stacked product,
which numpy hands row by row to that dot product, so a batch has the
bits of one point drawn at a time.  ``unit_vectors`` draws the normals of
many ``unit_vector`` calls as one block and divides each row by the root
of a fixed-order sum of squares, added column by column with no BLAS.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import _is_integral, _ordered_sum, _row_dots

_MASK = (1 << 64) - 1
_TWO_PI = 2.0 * math.pi
_GOLDEN = 0x9E3779B97F4A7C15
# Words per block.  A block of up to a few hundred words costs about as
# much as 10 to 20 scalar draws, and the first draw of a generator pays
# for a whole block; the property suites draw 30 to 1,300 words from
# each generator.
_BLOCK = 256
# np.uint64 constants, since numpy 1.x turns uint64 mixed with a Python
# int into float64.  The wrapping products run on arrays only: an
# overflowing scalar uint64 product warns.
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFTS = tuple(np.uint64(k) for k in (30, 27, 31, 11))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, its squares added column by column."""
    return np.sqrt(_ordered_sum((rows * rows).T))


class SplitMix64:
    """splitmix64 stream with float/vector helpers.

    The seed is an integer, taken mod 2^64 (so -1 seeds the stream of
    2^64 - 1); a bool or a non-integral seed raises ValueError.
    """

    def __init__(self, seed: int):
        if not _is_integral(seed):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        # The state after the words of the current block.
        self._state = int(seed) & _MASK
        self._words = None
        self._floats = []
        self._pos = 0
        self._spare_normal = None

    def _next_block(self) -> None:
        z = _STEPS + np.uint64(self._state)
        self._state = (self._state + _BLOCK * _GOLDEN) & _MASK
        s30, s27, s31, s11 = _SHIFTS
        z ^= z >> s30
        z *= _MIX1
        z ^= z >> s27
        z *= _MIX2
        z ^= z >> s31
        self._words = z
        self._floats = ((z >> s11) * 2.0 ** -53).tolist()
        self._pos = 0

    def _take(self, n: int) -> list[float]:
        """The next n uniforms as a list (none for n <= 0)."""
        pos = self._pos
        out = self._floats[pos:pos + n]
        if len(out) == n:
            self._pos = pos + n
            return out
        out = self._floats[pos:pos + max(n, 0)]
        self._pos = pos + len(out)
        while len(out) < n:
            self._next_block()
            more = self._floats[:n - len(out)]
            self._pos = len(more)
            out += more
        return out

    def next_u64(self) -> int:
        self._take(1)
        return int(self._words[self._pos - 1])

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return self._take(1)[0]

    def uniforms(self, n: int) -> np.ndarray:
        """The next n uniforms, as n calls of ``uniform`` would give them."""
        return np.array(self._take(n))

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def log_uniform(self, lo: float, hi: float) -> float:
        """Log-uniform draw from [lo, hi], lo > 0."""
        return math.exp(self.uniform_in(math.log(lo), math.log(hi)))

    def log_uniforms(self, n: int, lo: float, hi: float) -> np.ndarray:
        """The next n log-uniform draws, as n calls of ``log_uniform``."""
        a, b = math.log(lo), math.log(hi)
        exp = math.exp
        return np.array([exp(a + (b - a) * u) for u in self._take(n)])

    def normal(self) -> float:
        return self._normal_list(1)[0]

    def normals(self, n: int) -> np.ndarray:
        """The next n standard normals by Box-Muller; each pair of uniforms
        gives two, and an odd one out is kept for the next call."""
        return np.array(self._normal_list(n))

    def _normal_list(self, n: int) -> list[float]:
        """``normals(n)`` as a list of floats: every normal of the package
        is drawn here."""
        out = []
        if n > 0 and self._spare_normal is not None:
            out.append(self._spare_normal)
            self._spare_normal = None
        u = self._take(2 * ((n - len(out) + 1) // 2))
        log, sqrt, cos, sin = math.log, math.sqrt, math.cos, math.sin
        for i in range(0, len(u), 2):
            radius = sqrt(-2.0 * log(1.0 - u[i]))  # 1 - u in (0, 1]
            theta = _TWO_PI * u[i + 1]
            out += (radius * cos(theta), radius * sin(theta))
        if len(out) > n >= 0:
            self._spare_normal = out.pop()
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normals(rows * cols).reshape(rows, cols)

    def unit_vector(self, n: int) -> np.ndarray:
        """A uniform unit vector of length n: n normals divided by the root
        of their dot product, redrawn while that norm is at most 1e-12."""
        if n < 1:
            raise ValueError(f"unit_vector needs n >= 1, got n={n}")
        while True:
            v = self.normals(n)
            norm = np.sqrt(_row_dots(v, v))
            if norm[0] > 1e-12:
                return v / norm

    def unit_rows(self, shape: tuple, n: int, lo: float, hi: float) -> np.ndarray:
        """Points of the spin factor R x R^n, shape shape + (n + 1,).

        A point draws two log-uniforms l1, l2 from [lo, hi], as two calls
        of ``log_uniform``, then the normals of a ``unit_vector(n)`` u, and
        is ((l1 + l2)/2, (l1 - l2)/2 * u): its eigenvalues are l1 and l2.
        The draws are read one point after another, with no numpy call per
        point; then every norm is taken at once, by the BLAS dot product of
        ``algebra._row_dots``.  A vector of norm at most 1e-12 is redrawn
        at once, so the stream and every bit are those of points drawn one
        at a time.  Points are rows of a wider array (not C-contiguous
        beyond one point).
        """
        size = math.prod(shape)
        if n < 1 or size < 0:
            raise ValueError(f"unit_rows needs a shape and n >= 1, got {shape}, n={n}")
        a = math.log(lo)
        width = math.log(hi) - a
        exp, take, normals = math.exp, self._take, self._normal_list
        # Each point's row: (l1 - l2)/2, (l1 + l2)/2, then the normals.
        flat = []
        for _ in range(size):
            u1, u2 = take(2)
            lam1 = exp(a + width * u1)
            lam2 = exp(a + width * u2)
            flat += (0.5 * (lam1 - lam2), 0.5 * (lam1 + lam2))
            row = normals(n)
            # An entry of 2e-12 or more puts the norm above 1e-12 in any
            # order of summation, so only a row of tiny entries is normed
            # here, as below, to apply the redraw rule.
            while abs(row[0]) < 2e-12 and max(map(abs, row)) < 2e-12:
                v = np.array(row)
                if math.sqrt(_row_dots(v, v)[0]) > 1e-12:
                    break
                row = normals(n)
            flat += row
        rows = np.array(flat).reshape(shape + (n + 2,))
        units = rows[..., 2:]
        units /= np.sqrt(_row_dots(units, units))
        units *= rows[..., :1]
        return rows[..., 1:]

    def unit_vectors(self, k: int, n: int) -> np.ndarray:
        """k unit vectors of length n, the rows of a (k, n) array.

        The rows are the normals that k calls of ``unit_vector(n)`` would
        draw, taken as one block, and the generator is left as those calls
        would leave it.  A row of norm at most 1e-12 is redrawn as
        ``unit_vector`` redraws it: it is dropped and one more row is drawn
        at the end.  Each row is divided by the root of its sum of squares,
        added column by column, so a row may differ from ``unit_vector``'s
        BLAS-normed one in its last bit or two.
        """
        if k < 0 or n < 1:
            raise ValueError(f"unit_vectors needs k >= 0 and n >= 1, got k={k}, n={n}")
        rows = self.normals(k * n).reshape(k, n)
        norms = _row_norms(rows)
        keep = norms > 1e-12
        while not keep.all():
            more = self.normals(int((~keep).sum()) * n).reshape(-1, n)
            rows = np.concatenate((rows[keep], more))
            norms = np.concatenate((norms[keep], _row_norms(more)))
            keep = norms > 1e-12
        return rows / norms[:, None]

    def rotation(self, n: int) -> np.ndarray:
        """Orthogonal matrix from QR of a normal matrix, sign-fixed."""
        q, r = np.linalg.qr(self.normal_matrix(n, n))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        return q * signs

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, 1 <= n < 2**64."""
        if not 1 <= n <= _MASK:
            raise ValueError(f"integer needs 1 <= n < 2**64, got n={n}")
        limit = _MASK - (_MASK % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def permutation(self, n: int) -> tuple[int, ...]:
        """Fisher-Yates shuffle of range(n)."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.integer(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return tuple(perm)

    def choice(self, items):
        return items[self.integer(len(items))]

"""The splitmix64 generator as it was before it computed its stream in
numpy blocks, kept as a reference oracle: one word per call, in Python
integer arithmetic, and every helper built on single draws.  The class
body is verbatim.

The production ``rng.SplitMix64`` must reproduce every public method of
it byte for byte, in any order of calls.
"""

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 stream with float/vector helpers."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK
        self._spare_normal = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def log_uniform(self, lo: float, hi: float) -> float:
        """Log-uniform draw from [lo, hi], lo > 0."""
        return math.exp(self.uniform_in(math.log(lo), math.log(hi)))

    def normal(self) -> float:
        # Box-Muller, caching the second deviate.
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = 1.0 - self.uniform()  # (0, 1]
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = radius * math.sin(theta)
        return radius * math.cos(theta)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)])

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normals(rows * cols).reshape(rows, cols)

    def unit_vector(self, n: int) -> np.ndarray:
        while True:
            v = self.normals(n)
            norm = float(np.linalg.norm(v))
            if norm > 1e-12:
                return v / norm

    def rotation(self, n: int) -> np.ndarray:
        """Orthogonal matrix from QR of a normal matrix, sign-fixed."""
        q, r = np.linalg.qr(self.normal_matrix(n, n))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        return q * signs

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (n <= 2**32)."""
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

"""Cone maps and their metric behavior.

Linear cone automorphisms are represented as *words*: ordered lists of
generators that are each cone-preserving by construction (positive
scalars, quadratic representations P(a) with a interior, congruences
x -> t' x t on symmetric matrices, coordinate permutations on the
orthant).  A raw dim x dim matrix carries no certificate that it fixes
the cone; a word always does.

The power maps x -> x^p (``algebra.power``), the inversion x -> x^{-1}
among them, are the nonlinear maps of interest: powers with
|p| <= 1 shrink the Hilbert metric by the factor |p|, inversion and every
word preserve it.  ``measure_contraction`` measures both facts
empirically over seeded random pairs.  It draws every point first, in the
order x_1, y_1, x_2, y_2, ..., and then runs each layer once over the
whole batch of raw coordinates: the distances d(x_i, y_i), the images,
the distances between the images.  The map it is given takes that batch
of raw coordinates; the property suites pass ``_apply_coords`` for a word
and ``algebra._power_coords`` for a power.  On sym these arrays are
bitwise symmetric by construction, and none is ingested again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import algebra, metric
from .algebra import AlgebraDescriptor, Element
from .errors import AlgebraMismatch, InvalidGenerator, MapLeftCone, NotInCone
from .rng import SplitMix64

# Eigenvalue range for random interior points, log-uniform.
EIG_LO = math.exp(-2.0)
EIG_HI = math.exp(2.0)

_DET_FLOOR = 1e-12


def numerically_singular(t: np.ndarray) -> bool:
    """True iff |det t| <= _DET_FLOOR * min(1, prod_i |t_i|), t_i the rows.

    For rows of norm product below 1 the test is on the Hadamard ratio
    |det t| / prod_i |t_i|, which lies in [0, 1], is 1 on every diagonal t
    and does not move when t or one of its rows is scaled: 0.2 * I of order
    20 (det 1e-14) and diag(1, 0.1, ..., 0.1) are regular.  Otherwise it is
    the absolute floor, so no t with |det t| > _DET_FLOOR is refused.  A t
    with a zero row is singular; a non-finite one is left to the finiteness
    checks.  Norms are taken of rows divided by their largest entry, and
    products as sums of logarithms, so no entry range over- or underflows.
    """
    if not np.all(np.isfinite(t)):
        return False
    row_max = np.max(np.abs(t), axis=1)
    if not np.all(row_max > 0.0):
        return True
    rows = t / row_max[:, None]
    log_norms = np.log(row_max) + 0.5 * np.log(np.einsum("ij,ij->i", rows, rows))
    log_det = float(np.linalg.slogdet(t)[1])
    return log_det <= math.log(_DET_FLOOR) + min(0.0, float(np.sum(log_norms)))


@dataclass(frozen=True)
class Scalar:
    """x -> mu * x, mu > 0 a real number (a bool or a string is not)."""

    mu: float

    def __post_init__(self):
        if not (algebra._is_number(self.mu, numbers.Real)
                and self.mu > 0.0 and math.isfinite(self.mu)):
            raise InvalidGenerator(
                f"scalar factor must be a positive finite number, got {self.mu!r}")


@dataclass(frozen=True, eq=False)
class Quad:
    """x -> P(a) x with a in the open cone."""

    a: Element

    def __post_init__(self):
        if not (np.all(np.isfinite(self.a.coords)) and algebra.in_cone(self.a)):
            raise InvalidGenerator("quad generator needs a finite interior element")


@dataclass(frozen=True, eq=False)
class Congruence:
    """x -> t' x t on symmetric matrices, t invertible."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise InvalidGenerator("congruence factor must be a square matrix")
        if not np.all(np.isfinite(t)):
            raise InvalidGenerator("congruence factor has non-finite entries")
        if numerically_singular(t):
            raise InvalidGenerator("congruence factor is numerically singular")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class Permutation:
    """Coordinate permutation on the orthant, of integral entries."""

    sigma: tuple[int, ...]

    def __post_init__(self):
        if not all(algebra._is_integral(i) for i in self.sigma):
            raise InvalidGenerator(f"permutation entries must be integers, got {self.sigma!r}")
        sigma = tuple(int(i) for i in self.sigma)
        if sorted(sigma) != list(range(len(sigma))):
            raise InvalidGenerator(f"not a permutation of 0..{len(self.sigma) - 1}")
        object.__setattr__(self, "sigma", sigma)


Generator = Scalar | Quad | Congruence | Permutation


@dataclass(frozen=True)
class AutomorphismWord:
    """Composition (left-to-right) of validated cone-automorphism generators."""

    algebra: AlgebraDescriptor
    factors: tuple[Generator, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if not isinstance(f, Generator):
                raise InvalidGenerator(f"unknown generator {f!r}")
            name = type(f).__name__.lower()
            if name not in self.algebra.kernel.generators:
                raise InvalidGenerator(
                    f"{name} generator does not act on the {self.algebra.kind} algebra")
            if isinstance(f, Quad) and f.a.algebra != self.algebra:
                raise InvalidGenerator("quad generator from a different algebra")
            if isinstance(f, Congruence) and f.t.shape[0] != self.algebra.param:
                raise InvalidGenerator("congruence size does not match the algebra")
            if isinstance(f, Permutation) and len(f.sigma) != self.algebra.param:
                raise InvalidGenerator("permutation size does not match the algebra")

    def describe(self) -> str:
        return "*".join(type(f).__name__.lower() for f in self.factors) or "identity"


def _apply_coords(word: AutomorphismWord, coords: np.ndarray) -> np.ndarray:
    """The word applied to the raw coords of one point or a batch.  Each
    factor's output is what ingestion would return, with no ingestion: on
    sym a quad or congruence is bitwise symmetric by construction."""
    kernel = word.algebra.kernel
    out = coords
    for f in word.factors:
        if isinstance(f, Scalar):
            out = out * float(f.mu)
        elif isinstance(f, Quad):
            out = kernel.quad(f.a.coords, out)
        elif isinstance(f, Congruence):
            out = algebra._sym_congruence(f.t, out)
        else:
            out = out.take(f.sigma, axis=-1)
    return out


def apply(word: AutomorphismWord, x: Element) -> Element:
    """Apply the word's generators to x, left to right."""
    if x.algebra != word.algebra:
        raise AlgebraMismatch("element does not live in the word's algebra")
    return Element(word.algebra, _apply_coords(word, x.coords))


@dataclass(frozen=True)
class ContractionReport:
    """Extremes of d(f(x), f(y)) / d(x, y) over the measured pairs, those
    with d(x, y) >= 1e-8.  Both ratios read 0.0 when no pair was measured,
    as on a rank-1 cone, where every pair lies on one ray, and NaN when a
    ratio was NaN."""

    samples: int
    max_ratio: float
    min_ratio: float
    p_or_label: str
    measured: int


def random_cone_element(
    descriptor: AlgebraDescriptor,
    rng: SplitMix64,
    lo: float = EIG_LO,
    hi: float = EIG_HI,
) -> Element:
    """Interior point with eigenvalues log-uniform in [lo, hi] on a random frame."""
    coords = descriptor.kernel.random_point(descriptor.param, rng, lo, hi)
    return Element(descriptor, coords)


def _random_cone_elements(descriptor: AlgebraDescriptor, rng: SplitMix64, count: int):
    """The elements count calls of random_cone_element would draw, drawn
    in one random_point call."""
    points = descriptor.kernel.random_point(descriptor.param, rng, EIG_LO, EIG_HI, (count,))
    return [Element(descriptor, point) for point in points]


def random_word(
    descriptor: AlgebraDescriptor,
    rng: SplitMix64,
    max_len: int = 3,
    lo: float = EIG_LO,
    hi: float = EIG_HI,
) -> AutomorphismWord:
    """Random generator word of length 1..max_len.

    Quad factors draw their eigenvalues (and congruence factors their
    singular values) log-uniform from [lo, hi], which bounds the word's
    conditioning; tighten the interval for gentler words.
    """
    factors = []
    for _ in range(1 + rng.integer(max_len)):
        gen = rng.choice(descriptor.kernel.generators)
        if gen == "scalar":
            factors.append(Scalar(rng.log_uniform(max(lo, 0.2), min(hi, 5.0))))
        elif gen == "quad":
            factors.append(Quad(random_cone_element(descriptor, rng, lo, hi)))
        elif gen == "congruence":
            r = descriptor.param
            svals = rng.log_uniforms(r, lo, hi)
            t = rng.rotation(r) @ np.diag(svals) @ rng.rotation(r)
            factors.append(Congruence(t))
        else:
            factors.append(Permutation(rng.permutation(descriptor.param)))
    return AutomorphismWord(descriptor, tuple(factors))


def measure_contraction(
    map_rows,
    descriptor: AlgebraDescriptor,
    samples: int,
    seed: int,
    label: str = "map",
) -> ContractionReport:
    """Max (and min) of d(f(x), f(y)) / d(x, y) over seeded random pairs.

    The 2 * samples points are drawn first, in the order x_1, y_1, x_2,
    y_2, ..., and each layer then runs once over the batch (module
    docstring).  Pairs closer than 1e-8 in the metric are skipped, and
    map_rows is called once, on the raw coordinates of the measured pairs,
    one point per row in the order x_i, y_i of sample order; it returns
    their images, row for row.  Raises AlgebraMismatch if the images have
    another shape, and MapLeftCone if the distance between the images
    finds one outside the open cone.
    """
    metric._require_samples(samples)
    points = descriptor.kernel.random_point(
        descriptor.param, SplitMix64(seed), EIG_LO, EIG_HI, (2 * samples,))
    dxy = metric._row_distances(descriptor, points[0::2], points[1::2])
    measured = [i for i, d in enumerate(dxy) if not d < 1e-8]
    ratios = []
    if measured:
        pairs = points.reshape((samples, 2) + descriptor.coord_shape)[measured]
        rows = pairs.reshape((-1,) + descriptor.coord_shape)
        images = map_rows(rows)
        if images.shape != rows.shape:
            raise AlgebraMismatch(f"{label} maps points out of their algebra")
        try:
            dfxy = metric._row_distances(descriptor, images[0::2], images[1::2])
        except NotInCone as exc:
            raise MapLeftCone(f"{label} sent a cone point out of the cone") from exc
        ratios = [d / dxy[i] for d, i in zip(dfxy, measured)]
    if any(math.isnan(ratio) for ratio in ratios):
        max_ratio = min_ratio = math.nan
    else:
        max_ratio = max(ratios, default=0.0)
        min_ratio = min(ratios, default=0.0)
    return ContractionReport(samples, max_ratio, min_ratio, label, len(measured))


def isometry_check(
    word: AutomorphismWord, samples: int, seed: int
) -> ContractionReport:
    """Contraction report for a word; ratios should sit at 1 for isometries."""
    return measure_contraction(lambda rows: _apply_coords(word, rows),
                               word.algebra, samples, seed, word.describe())

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
word preserve it.  ``measure_contractions`` measures both facts
empirically over seeded random pairs, for several maps at once.  It draws
every map's points first, each map from its own seed in the order x_1,
y_1, x_2, y_2, ..., and then runs each layer once over every map's batch
of raw coordinates: one distance call for every d(x_i, y_i), one call of
each map on its own pairs, and one distance call for every pair of
images.  Each map takes its batch of raw coordinates; the property suites
pass ``_apply_coords`` for a word and ``algebra._power_coords`` for a
power.  On sym these arrays are bitwise symmetric by construction, and
none is ingested again.  The kernels compute each row on its own, so a
map's report has the bits of a call with that map alone.
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


def _image_distances(descriptor: AlgebraDescriptor, images, labels) -> list[float]:
    """d(f(x_i), f(y_i)) over every map's images, one point per row in the
    order x_i, y_i, in one _row_distances call.  Where that call raises,
    each map's images are measured again on their own, in order, so that
    the error is the one one-map calls made one after another would raise:
    MapLeftCone naming the first map whose images leave the open cone."""
    if not images:
        return []
    batch = np.concatenate(images)
    try:
        return metric._row_distances(descriptor, batch[0::2], batch[1::2])
    except Exception:
        for image, label in zip(images, labels):
            try:
                metric._row_distances(descriptor, image[0::2], image[1::2])
            except NotInCone as exc:
                raise MapLeftCone(f"{label} sent a cone point out of the cone") from exc
        raise


def measure_contractions(
    descriptor: AlgebraDescriptor, samples: int, maps
) -> list[ContractionReport]:
    """Max (and min) of d(f(x), f(y)) / d(x, y) over seeded random pairs,
    one ContractionReport per entry (map_rows, seed, label) of maps.

    Each map's 2 * samples points are drawn from SplitMix64(seed), in the
    order x_1, y_1, x_2, y_2, ..., and each layer then runs once over
    every map's batch (module docstring).  Pairs closer than 1e-8 in the
    metric are skipped, and each map_rows is called once, in the order of
    maps, on the raw coordinates of its measured pairs, one point per row
    in the order x_i, y_i of sample order; it returns their images, row for
    row.  A map with no measured pair is not called.  A map's report has
    the bits of a call with that map alone, and so has its error: a map's
    own exception, or AlgebraMismatch if its images have another shape, is
    raised only once the images of the maps before it are measured, and
    MapLeftCone names the first map whose images leave the open cone.
    """
    metric._require_samples(samples)
    maps = list(maps)
    if not maps:
        return []
    shape = descriptor.coord_shape
    points = np.concatenate([
        descriptor.kernel.random_point(
            descriptor.param, SplitMix64(seed), EIG_LO, EIG_HI, (2 * samples,))
        for _, seed, _ in maps])
    dxy = metric._row_distances(descriptor, points[0::2], points[1::2])
    pairs = points.reshape((-1, 2) + shape)
    measured = [[i for i in range(k * samples, (k + 1) * samples) if not dxy[i] < 1e-8]
                for k in range(len(maps))]
    images, labels = [], []
    for (map_rows, _, label), pair_rows in zip(maps, measured):
        if not pair_rows:
            continue
        rows = pairs[pair_rows].reshape((-1,) + shape)
        try:
            image = map_rows(rows)
            if image.shape != rows.shape:
                raise AlgebraMismatch(f"{label} maps points out of their algebra")
        except Exception:
            # One-map calls would have measured the maps before this one.
            _image_distances(descriptor, images, labels)
            raise
        images.append(image)
        labels.append(label)
    dfxy = iter(_image_distances(descriptor, images, labels))
    reports = []
    for (_, _, label), pair_rows in zip(maps, measured):
        ratios = [next(dfxy) / dxy[i] for i in pair_rows]
        if any(math.isnan(ratio) for ratio in ratios):
            max_ratio = min_ratio = math.nan
        else:
            max_ratio = max(ratios, default=0.0)
            min_ratio = min(ratios, default=0.0)
        reports.append(ContractionReport(samples, max_ratio, min_ratio, label, len(pair_rows)))
    return reports

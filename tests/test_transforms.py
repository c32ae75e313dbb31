import hashlib
import json
import math

import numpy as np
import pytest

import symcone as sc
from symcone.errors import (
    AlgebraMismatch,
    InvalidGenerator,
    MapLeftCone,
    NonConvergence,
    NotInCone,
)
from symcone import metric, suites, transforms
from symcone.cli import main
from symcone.rng import SplitMix64
from symcone.transforms import random_cone_element, random_word

from conftest import (
    contraction_loop,
    contraction_report,
    el,
    inverse_word,
    spin_point_loop,
    word_report,
)

O2 = sc.orthant(2)
S2 = sc.sym_matrix(2)


# ---------------------------------------------------------------------------
# generator validation
# ---------------------------------------------------------------------------

def test_scalar_validation():
    sc.Scalar(2.0)
    sc.Scalar(np.float32(0.5))
    with pytest.raises(InvalidGenerator):
        sc.Scalar(-1.0)
    # True ran as 1.0, and a string or a list raised TypeError.
    for bad in ("2", True, [2.0]):
        with pytest.raises(InvalidGenerator, match="positive finite number"):
            sc.Scalar(bad)
    with pytest.raises(InvalidGenerator):
        sc.Scalar(0.0)
    with pytest.raises(InvalidGenerator):
        sc.Scalar(float("inf"))


def test_quad_validation():
    sc.Quad(el(O2, [1, 2]))
    with pytest.raises(InvalidGenerator):
        sc.Quad(el(O2, [1, 0]))
    with pytest.raises(InvalidGenerator):
        sc.Quad(el(S2, [[math.nan, 0.0], [0.0, 1.0]]))


def test_congruence_validation():
    sc.Congruence(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(InvalidGenerator):
        sc.Congruence(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(InvalidGenerator):
        sc.Congruence(np.ones((2, 3)))
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidGenerator):
            sc.Congruence(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_congruence_singularity_test_is_scale_invariant():
    # det(0.005 I) = 1.6e-14 at order 6, yet the matrix is perfectly conditioned.
    sc.Congruence(0.005 * np.eye(6))
    sc.Congruence(1e6 * np.eye(6))
    for singular in (np.zeros((3, 3)), np.outer([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]),
                     1e-8 * np.outer([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])):
        with pytest.raises(InvalidGenerator, match="singular"):
            sc.Congruence(singular)


# Regular t whose determinant after division by the largest entry is tiny:
# one large row, a graded diagonal, a shear, and rows far apart in scale.
WELL_CONDITIONED = [
    np.diag([5.0] + [1.0] * 19),
    np.diag([100.0] + [1.0] * 7),
    np.diag([1.0] + [0.1] * 19),
    np.eye(13) + 10.0 * np.outer(np.eye(13)[0], np.eye(13)[1]),
    np.diag([1e200, 1e-200, 1.0]),
    1e-170 * np.eye(3),
]


@pytest.mark.parametrize("t", WELL_CONDITIONED)
def test_congruence_accepts_well_conditioned_t(t):
    sc.Congruence(t)


def test_singularity_test_keeps_every_t_the_absolute_floor_accepts():
    # det 100 but Hadamard ratio 5e-13: the rows are long, so the floor rules.
    assert not transforms.numerically_singular(np.array([[1e7, 1e7], [1e7, 1e7 + 1e-5]]))
    rng = SplitMix64(11)
    for n in (2, 5, 12):
        for _ in range(20):
            t = rng.normal_matrix(n, n) * 10.0 ** rng.uniform_in(-3.0, 3.0)
            if abs(np.linalg.det(t)) > 1e-12:
                assert not transforms.numerically_singular(t)


def test_permutation_validation():
    sc.Permutation((1, 0, 2))
    with pytest.raises(InvalidGenerator):
        sc.Permutation((0, 0, 1))


def test_permutation_entries_must_be_integral():
    # Each ran as a permutation: (0.0, 1.9) as (0, 1), (True, False) and
    # ("1", "0") as (1, 0).
    assert sc.Permutation((1.0, np.int64(0))).sigma == (1, 0)
    for sigma in ((0.0, 1.9), (1.7, 0.2), (True, False), ("1", "0"), (1.0, math.nan)):
        with pytest.raises(InvalidGenerator, match="must be integers"):
            sc.Permutation(sigma)


def test_word_refuses_an_unknown_generator_and_a_permutation_of_another_size():
    with pytest.raises(InvalidGenerator, match="unknown generator 'scalar'"):
        sc.AutomorphismWord(O2, ("scalar",))
    with pytest.raises(InvalidGenerator, match="permutation size does not match"):
        sc.AutomorphismWord(sc.orthant(3), (sc.Permutation((1, 0)),))


def test_word_kind_restrictions():
    cong = sc.Congruence(np.eye(2))
    perm = sc.Permutation((1, 0))
    with pytest.raises(InvalidGenerator):
        sc.AutomorphismWord(O2, (cong,))
    with pytest.raises(InvalidGenerator):
        sc.AutomorphismWord(S2, (perm,))
    with pytest.raises(InvalidGenerator):
        sc.AutomorphismWord(S2, (sc.Congruence(np.eye(3)),))
    with pytest.raises(InvalidGenerator):
        sc.AutomorphismWord(O2, (sc.Quad(el(sc.orthant(3), [1, 1, 1])),))


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_scalar():
    w = sc.AutomorphismWord(O2, (sc.Scalar(2.0),))
    np.testing.assert_allclose(sc.apply(w, el(O2, [1, 3])).coords, [2, 6], atol=0)


def test_apply_congruence_on_identity():
    t = np.array([[1.0, 1.0], [0.0, 1.0]])
    w = sc.AutomorphismWord(S2, (sc.Congruence(t),))
    np.testing.assert_allclose(sc.apply(w, S2.identity()).coords,
                               [[1, 1], [1, 2]], atol=0)


def test_apply_quad_on_identity(small_algebra):
    rng = SplitMix64(3)
    a = random_cone_element(small_algebra, rng)
    w = sc.AutomorphismWord(small_algebra, (sc.Quad(a),))
    got = sc.apply(w, small_algebra.identity())
    want = sc.product(a, a)
    assert sc.spectral_norm(got - want) <= 1e-13 * (1 + sc.spectral_norm(want))


def test_apply_permutation():
    w = sc.AutomorphismWord(sc.orthant(3), (sc.Permutation((2, 0, 1)),))
    np.testing.assert_allclose(sc.apply(w, el(sc.orthant(3), [5, 6, 7])).coords,
                               [7, 5, 6], atol=0)


def test_apply_rejects_foreign_element():
    w = sc.AutomorphismWord(O2, ())
    with pytest.raises(AlgebraMismatch):
        sc.apply(w, el(sc.orthant(3), [1, 1, 1]))


def test_words_preserve_cone(small_algebra):
    rng = SplitMix64(5)
    for _ in range(10):
        w = random_word(small_algebra, rng)
        for _ in range(10):
            x = random_cone_element(small_algebra, rng)
            assert sc.in_cone(sc.apply(w, x))


def test_apply_is_linear(small_algebra):
    rng = SplitMix64(7)
    for _ in range(20):
        w = random_word(small_algebra, rng)
        x = random_cone_element(small_algebra, rng)
        y = random_cone_element(small_algebra, rng)
        alpha = rng.uniform_in(-2.0, 2.0)
        beta = rng.uniform_in(-2.0, 2.0)
        lhs = sc.apply(w, alpha * x + beta * y)
        rhs = alpha * sc.apply(w, x) + beta * sc.apply(w, y)
        scale = (1 + sc.spectral_norm(lhs)) * (1 + abs(alpha) + abs(beta))
        assert sc.spectral_norm(lhs - rhs) <= 1e-12 * scale


def test_word_composition_and_inverse(small_algebra):
    rng = SplitMix64(9)
    for _ in range(10):
        w1 = random_word(small_algebra, rng)
        w2 = random_word(small_algebra, rng)
        x = random_cone_element(small_algebra, rng)
        combined = sc.AutomorphismWord(small_algebra, w1.factors + w2.factors)
        assert combined.factors == w1.factors + w2.factors
        step = sc.apply(w2, sc.apply(w1, x))
        assert sc.spectral_norm(sc.apply(combined, x) - step) == 0.0
        back = sc.apply(inverse_word(w1), sc.apply(w1, x))
        assert sc.spectral_norm(back - x) <= 1e-9 * (1 + sc.spectral_norm(x))


# ---------------------------------------------------------------------------
# power maps
# ---------------------------------------------------------------------------

def test_power_map_examples():
    x = el(O2, [1, 16])
    np.testing.assert_allclose(sc.power(x, 0.5).coords, [1, 4], atol=1e-14)
    assert sc.power(x, 1.0) is x
    got = sc.power(x, -1.0)
    want = el(O2, [1.0, 1.0 / 16.0])
    assert sc.spectral_norm(got - want) == 0.0
    with pytest.raises(NotInCone):
        sc.power(el(O2, [1, 0]), 0.5)


# ---------------------------------------------------------------------------
# contraction measurement
# ---------------------------------------------------------------------------

def _power_rows(descriptor, p):
    """x -> x^p on a batch of raw coordinates, the map the suites measure."""
    return lambda rows: sc.algebra._power_coords(descriptor, rows, p)


def test_measure_contraction_identity(small_algebra):
    rep = contraction_report(lambda rows: rows, small_algebra, 200, 11, label="id")
    assert abs(rep.max_ratio - 1.0) <= 1e-12
    assert abs(rep.min_ratio - 1.0) <= 1e-12
    assert rep.samples == 200


def test_measure_contraction_validates_samples():
    with pytest.raises(ValueError):
        contraction_report(lambda rows: rows, O2, 0, 1)


def test_measure_contraction_takes_only_an_integer_sample_count():
    # True ran one sample; 2.5 and np.float64(2.0) failed in range().
    for samples in (True, 2.5, np.float64(2.0), "3", None):
        with pytest.raises(ValueError, match="samples must be an integer"):
            contraction_report(lambda rows: rows, O2, samples, 1)
        with pytest.raises(ValueError, match="samples must be an integer"):
            word_report(random_word(O2, SplitMix64(1)), samples, 1)
    inverse = _power_rows(O2, -1.0)
    assert contraction_report(inverse, O2, np.int64(3), 1) == \
        contraction_report(inverse, O2, 3, 1)


def test_contraction_of_power_maps(small_algebra):
    for p in (-1.0, -0.7, -0.5, 0.3, 0.5, 0.7, 1.0):
        rep = contraction_report(
            _power_rows(small_algebra, p), small_algebra, 200, 13,
            label=f"power {p}")
        assert rep.max_ratio <= abs(p) + 1e-9


def test_contraction_equality_pair():
    x = el(O2, [1, 16])
    y = el(O2, [1, 1])
    base = sc.distance(x, y).distance
    mapped = sc.distance(sc.power(x, 0.5), sc.power(y, 0.5)).distance
    assert abs(mapped / base - 0.5) <= 1e-12


def test_map_left_cone_raises():
    shift = (10.0 * O2.identity()).coords
    with pytest.raises(MapLeftCone):
        contraction_report(lambda rows: rows - shift, O2, 50, 15)


def test_loewner_heinz_order_consequence(small_algebra):
    rng = SplitMix64(17)
    for p in (0.3, 0.5, 1.0):
        for _ in range(30):
            x = random_cone_element(small_algebra, rng)
            y = random_cone_element(small_algebra, rng)
            lam_max, _ = sc.lambda_extremes(x, y)
            powered_max, _ = sc.lambda_extremes(sc.power(x, p), sc.power(y, p))
            assert powered_max <= lam_max ** p + 1e-9


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------

def test_scalar_word_is_isometry():
    w = sc.AutomorphismWord(O2, (sc.Scalar(3.7),))
    rep = word_report(w, 100, 19)
    assert abs(rep.max_ratio - 1.0) <= 1e-12
    assert abs(rep.min_ratio - 1.0) <= 1e-12


def test_inversion_is_isometry(small_algebra):
    rep = contraction_report(_power_rows(small_algebra, -1.0), small_algebra,
                             200, 21, label="inversion")
    assert abs(rep.max_ratio - 1.0) <= 1e-9
    assert abs(rep.min_ratio - 1.0) <= 1e-9


def test_random_words_are_isometries(small_algebra):
    rng = SplitMix64(23)
    for _ in range(5):
        w = random_word(small_algebra, rng)
        rep = word_report(w, 100, 25)
        assert abs(rep.max_ratio - 1.0) <= 1e-8
        assert abs(rep.min_ratio - 1.0) <= 1e-8


def test_quad_words_sym_r4():
    s4 = sc.sym_matrix(4)
    rng = SplitMix64(27)
    factors = tuple(sc.Quad(random_cone_element(s4, rng)) for _ in range(3))
    w = sc.AutomorphismWord(s4, factors)
    rep = word_report(w, 500, 29)
    assert 1 - 1e-8 <= rep.min_ratio <= rep.max_ratio <= 1 + 1e-8


def test_det_scaling_is_constant(small_algebra):
    rng = SplitMix64(31)
    for _ in range(10):
        w = random_word(small_algebra, rng)
        x = random_cone_element(small_algebra, rng)
        y = random_cone_element(small_algebra, rng)
        rx = sc.det(sc.apply(w, x)) / sc.det(x)
        ry = sc.det(sc.apply(w, y)) / sc.det(y)
        assert abs(rx - ry) <= 1e-8 * abs(rx)


# ---------------------------------------------------------------------------
# batched contraction measurement against the per-sample loop
# ---------------------------------------------------------------------------

def _report_bits(rep):
    return (rep.samples, rep.max_ratio.hex(), rep.min_ratio.hex(),
            rep.p_or_label, rep.measured)


@pytest.mark.parametrize("descriptor", [
    sc.orthant(8), sc.spin_factor(10), sc.spin_factor(3), S2, sc.sym_matrix(6)],
    ids=lambda d: f"{d.kind}:{d.param}")
def test_batched_reports_equal_the_loop(descriptor):
    # The suites' exponents, inversion and 5 random words, each through
    # the raw-coordinate map a suite passes, against the one-sample-at-a-time
    # reference loop on the Element map.
    rng = SplitMix64(41)
    words = [random_word(descriptor, rng) for _ in range(5)]
    maps = [(f"power {p:g}", lambda x, p=p: sc.power(x, p), _power_rows(descriptor, p))
            for p in suites.DEFAULT_CONTRACTION_PS]
    maps.append(("inversion", lambda x: sc.power(x, -1.0), _power_rows(descriptor, -1.0)))
    maps += [(w.describe(), lambda x, w=w: sc.apply(w, x),
              lambda rows, w=w: transforms._apply_coords(w, rows)) for w in words]
    samples = 10
    for seed in (1, 2, 3):
        for label, element_map, rows_map in maps:
            want = _report_bits(contraction_loop(element_map, descriptor, samples, seed, label))
            assert want[-1] == samples
            got = contraction_report(rows_map, descriptor, samples, seed, label)
            assert _report_bits(got) == want, label
    for seed, word in enumerate(words):
        assert _report_bits(word_report(word, samples, seed)) == _report_bits(
            contraction_loop(lambda x: sc.apply(word, x), descriptor, samples, seed,
                             word.describe()))


def test_map_is_called_once_on_the_pairs_rows_in_sample_order():
    calls = []

    def recording(rows):
        calls.append(rows.copy())
        return rows

    contraction_report(recording, sc.orthant(3), 6, 5)
    rng = SplitMix64(5)
    want = np.array([random_cone_element(sc.orthant(3), rng).coords for _ in range(12)])
    assert len(calls) == 1
    assert calls[0].tobytes() == want.tobytes()


def test_map_must_keep_the_shape_of_the_batch():
    # Images in another algebra's coordinates, or a row short.
    for map_rows in (lambda rows: np.ones((len(rows), 3)), lambda rows: rows[1:]):
        with pytest.raises(AlgebraMismatch, match="out of their algebra"):
            contraction_report(map_rows, O2, 4, 1)


@pytest.mark.parametrize("descriptor", [sc.orthant(1), sc.sym_matrix(1)],
                         ids=lambda d: f"{d.kind}:{d.param}")
def test_rank_one_cones_measure_no_pair(descriptor):
    # Every pair of a rank-1 cone lies on one ray: d = 0, and every pair
    # is skipped.  The report says so, and the ratios read 0.0.
    calls = []
    rep = contraction_report(lambda rows: calls.append(rows) or rows, descriptor, 5, 1)
    assert (rep.measured, rep.max_ratio, rep.min_ratio) == (0, 0.0, 0.0)
    assert calls == []
    assert word_report(random_word(descriptor, SplitMix64(1)), 5, 1).measured == 0


def test_a_nan_ratio_makes_both_extremes_nan(monkeypatch):
    # The running max(max_ratio, ratio) of the loop dropped a NaN ratio.
    row_distances = metric._row_distances
    layers = []

    def nan_images(descriptor, xs, ys):
        out = row_distances(descriptor, xs, ys)
        layers.append(len(out))
        return out if len(layers) == 1 else [math.nan] + out[1:]

    monkeypatch.setattr(metric, "_row_distances", nan_images)
    rep = contraction_report(lambda rows: rows, O2, 5, 1)
    assert layers == [5, 5]
    assert math.isnan(rep.max_ratio) and math.isnan(rep.min_ratio)
    assert rep.measured == 5


# ---------------------------------------------------------------------------
# many maps in one call against one-map calls
# ---------------------------------------------------------------------------

MANY_MAP_ALGEBRAS = [sc.orthant(1), sc.orthant(8), sc.sym_matrix(1), S2, sc.sym_matrix(6),
                     sc.spin_factor(3), sc.spin_factor(10)]


def _suite_maps(descriptor, seed):
    """The suites' maps as (map_rows, seed, label), the k-th from seed + k:
    the seven exponents, inversion and three random words; and the loop's
    Element map of each."""
    rng = SplitMix64(seed)
    words = [random_word(descriptor, rng) for _ in range(3)]
    maps = [(f"power {p:g}", lambda x, p=p: sc.power(x, p), _power_rows(descriptor, p))
            for p in suites.DEFAULT_CONTRACTION_PS + (-1.0,)]
    maps += [(w.describe(), lambda x, w=w: sc.apply(w, x),
              lambda rows, w=w: transforms._apply_coords(w, rows)) for w in words]
    return ([(rows_map, seed + k, label) for k, (label, _, rows_map) in enumerate(maps)],
            [element_map for _, element_map, _ in maps])


def _bits(reports):
    return [_report_bits(rep) for rep in reports]


def _collapsing_pairs(descriptor):
    """A copy of descriptor whose batch draws set y_i = x_i in none, half or
    all of the pairs, drawn from the stream after the points: each seed
    measures its own number of pairs."""
    kernel = descriptor.kernel

    def random_point(param, rng, lo, hi, shape=()):
        points = kernel.random_point(param, rng, lo, hi, shape)
        if shape:
            j = rng.integer(3) * shape[0] // 4
            points[1:2 * j:2] = points[0:2 * j:2]
        return points

    ref = sc.AlgebraDescriptor(descriptor.kind, descriptor.param)
    object.__setattr__(ref, "kernel", kernel._replace(random_point=random_point))
    return ref


def _one_map_calls(descriptor, samples, maps):
    """The reports of one-map calls made one after another, or the error
    of the first that raises."""
    return [contraction_report(map_rows, descriptor, samples, seed, label)
            for map_rows, seed, label in maps]


@pytest.mark.parametrize("descriptor", MANY_MAP_ALGEBRAS, ids=lambda d: f"{d.kind}:{d.param}")
def test_many_maps_equal_one_map_calls_and_the_loop(descriptor):
    samples = 10
    for seed in (1, 2):
        maps, element_maps = _suite_maps(descriptor, seed)
        got = sc.measure_contractions(descriptor, samples, maps)
        loop = [contraction_loop(element_map, descriptor, samples, k, label)
                for element_map, (_, k, label) in zip(element_maps, maps)]
        assert _bits(got) == _bits(_one_map_calls(descriptor, samples, maps)) == _bits(loop)


@pytest.mark.parametrize("descriptor", MANY_MAP_ALGEBRAS, ids=lambda d: f"{d.kind}:{d.param}")
def test_maps_with_different_measured_counts(descriptor):
    # Each map is called once, on exactly the rows of its measured pairs in
    # sample order, and a map with none is not called.
    ref = _collapsing_pairs(descriptor)
    samples = 6
    seeds = list(range(1, 9))
    calls = []

    def recording(k):
        def map_rows(rows):
            calls.append((k, rows.copy()))
            return sc.algebra._power_coords(ref, rows, 0.5)
        return map_rows

    maps = [(recording(k), seed, f"map {k}") for k, seed in enumerate(seeds)]
    got = sc.measure_contractions(ref, samples, maps)
    counts = [rep.measured for rep in got]
    if descriptor.param == 1:
        assert counts == [0] * len(seeds)
    else:
        assert sorted(set(counts)) == [0, samples // 2, samples]
    want = []
    for k, seed in enumerate(seeds):
        points = ref.kernel.random_point(ref.param, SplitMix64(seed), transforms.EIG_LO,
                                         transforms.EIG_HI, (2 * samples,))
        pairs = [points[2 * i:2 * i + 2] for i in range(samples)
                 if not sc.distance(sc.Element(ref, points[2 * i]),
                                    sc.Element(ref, points[2 * i + 1])).distance < 1e-8]
        assert len(pairs) == counts[k]
        if pairs:
            want.append((k, np.concatenate(pairs).tobytes()))
    assert [(k, rows.tobytes()) for k, rows in calls] == want
    calls.clear()
    assert _bits(got) == _bits(_one_map_calls(ref, samples, maps))
    assert [(k, rows.tobytes()) for k, rows in calls] == want


@pytest.mark.parametrize("descriptor", [d for d in MANY_MAP_ALGEBRAS if d.param > 1],
                         ids=lambda d: f"{d.kind}:{d.param}")
def test_a_nan_ratio_in_one_map_reads_nan_in_that_report_only(monkeypatch, descriptor):
    samples = 4
    maps = [(_power_rows(descriptor, p), seed, f"power {p:g}")
            for p, seed in ((0.5, 1), (-1.0, 2), (0.3, 3))]
    want = _bits(_one_map_calls(descriptor, samples, maps))
    row_distances = metric._row_distances
    layers = []

    def nan_images(descriptor, xs, ys):
        out = row_distances(descriptor, xs, ys)
        layers.append(len(out))
        if len(layers) == 2:
            out[samples + 1] = math.nan
        return out

    monkeypatch.setattr(metric, "_row_distances", nan_images)
    got = sc.measure_contractions(descriptor, samples, maps)
    assert layers == [3 * samples, 3 * samples]
    assert [rep.measured for rep in got] == [samples] * 3
    assert math.isnan(got[1].max_ratio) and math.isnan(got[1].min_ratio)
    assert [_report_bits(got[0]), _report_bits(got[2])] == [want[0], want[2]]


@pytest.mark.parametrize("descriptor", [sc.orthant(1), sc.sym_matrix(1)],
                         ids=lambda d: f"{d.kind}:{d.param}")
def test_a_rank_one_cone_calls_no_map(monkeypatch, descriptor):
    row_distances = metric._row_distances
    layers = []
    monkeypatch.setattr(metric, "_row_distances", lambda *args: layers.append(1)
                        or row_distances(*args))
    calls = []
    maps = [(lambda rows: calls.append(rows) or rows, seed, f"map {seed}") for seed in (1, 2, 3)]
    got = sc.measure_contractions(descriptor, 5, maps)
    assert [(rep.measured, rep.max_ratio, rep.min_ratio) for rep in got] == [(0, 0.0, 0.0)] * 3
    assert calls == [] and layers == [1]


class _MapError(Exception):
    pass


def _raising(rows):
    raise _MapError("the map's own error")


def _error_of(descriptor, samples, maps, call):
    try:
        call(descriptor, samples, maps)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("descriptor", [d for d in MANY_MAP_ALGEBRAS if d.param > 1],
                         ids=lambda d: f"{d.kind}:{d.param}")
def test_errors_keep_the_order_of_one_map_calls(descriptor):
    identity = lambda rows: rows
    negate = lambda rows: -rows
    short = lambda rows: rows[1:]
    cases = [
        # An earlier map's MapLeftCone beats a later map's own error or
        # AlgebraMismatch, and names the first map that leaves the cone.
        ([identity, negate, _raising], (MapLeftCone, "left1")),
        ([identity, negate, short], (MapLeftCone, "left1")),
        ([identity, negate, negate], (MapLeftCone, "left1")),
        ([negate, identity, negate], (MapLeftCone, "left0")),
        # With the maps before it in the cone, a map's own error stands.
        ([identity, _raising, negate], (_MapError, "the map's own error")),
        ([identity, short, negate], (AlgebraMismatch, "map1 maps points out of their algebra")),
    ]
    for fns, (error, text) in cases:
        maps = [(fn, 5 + k, f"{'left' if fn is negate else 'map'}{k}")
                for k, fn in enumerate(fns)]
        got = _error_of(descriptor, 3, maps, sc.measure_contractions)
        assert got == _error_of(descriptor, 3, maps, _one_map_calls)
        assert got[0] is error and text in got[1], (fns, got)
    with pytest.raises(MapLeftCone) as info:
        sc.measure_contractions(descriptor, 3, [(identity, 1, "id"), (negate, 2, "neg")])
    assert isinstance(info.value.__cause__, NotInCone)


def test_suites_keep_the_slacks_of_the_loop():
    # orthant:2 reports: each check's one update is the slack of the loop's
    # report for the same map and seed, bit for bit.
    samples, seed = 20, 7
    res = suites.contraction_suite(O2, samples, seed)
    for k, (p, check) in enumerate(zip(suites.DEFAULT_CONTRACTION_PS, res.checks)):
        rep = contraction_loop(lambda x: sc.power(x, p), O2, samples, seed + k)
        assert check.count == 1
        assert check.worst.hex() == (rep.max_ratio - abs(p)).hex()
    res = suites.isometry_suite(O2, samples, seed)
    rng = SplitMix64(seed)
    maps = [lambda x, w=random_word(O2, rng): sc.apply(w, x) for _ in range(5)]
    maps.append(lambda x: sc.power(x, -1.0))
    for k, (map_fn, check) in enumerate(zip(maps, res.checks)):
        rep = contraction_loop(map_fn, O2, samples, seed + k)
        assert check.count == 1
        assert check.worst.hex() == max(rep.max_ratio - 1.0, 1.0 - rep.min_ratio).hex()


def test_isometry_suite_refuses_a_word_of_another_algebra(monkeypatch):
    # It reported a spin:3 word's 6 checks under orthant:4, and passed.
    word = random_word(sc.spin_factor(3), SplitMix64(1))

    def no_draw(seed):
        raise AssertionError("the suite drew before it checked the word")

    monkeypatch.setattr(suites, "SplitMix64", no_draw)
    with pytest.raises(AlgebraMismatch, match="spin:3.*orthant:4"):
        suites.isometry_suite(sc.orthant(4), 5, 1, word=word)


def _drawing_one_point_at_a_time(monkeypatch, descriptor):
    """A copy of descriptor whose spin kernel draws points with the
    reference point loop; the suites' consecutive draws become one call
    per point."""
    monkeypatch.setattr(transforms, "_random_cone_elements", lambda d, rng, count: [
        random_cone_element(d, rng) for _ in range(count)])
    ref = sc.AlgebraDescriptor(descriptor.kind, descriptor.param)
    if descriptor.kind == "spin":
        kernel = ref.kernel._replace(random_point=spin_point_loop)
        object.__setattr__(ref, "kernel", kernel)
    return ref


@pytest.mark.parametrize("descriptor", [sc.spin_factor(3), sc.spin_factor(10),
                                        sc.orthant(3), sc.sym_matrix(2)],
                         ids=lambda d: f"{d.kind}:{d.param}")
@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_suite_reports_equal_one_draw_per_point(monkeypatch, descriptor, suite):
    got = [suites.SUITES[suite](descriptor, 12, seed).summary() for seed in (1, 2)]
    ref = _drawing_one_point_at_a_time(monkeypatch, descriptor)
    want = [suites.SUITES[suite](ref, 12, seed).summary() for seed in (1, 2)]
    assert json.dumps(got) == json.dumps(want)


# ---------------------------------------------------------------------------
# sym words: symmetric by construction, bits pinned
# ---------------------------------------------------------------------------

# sha256 of the outputs below, recorded while each factor of a word was
# still computed in transforms and its output re-ingested: applying a
# congruence through the kernel's _sym_congruence, with no ingestion after
# a factor, keeps every bit.
SYM_WORD_DIGEST = "04733f97afe455d32f904483c3a260f1d7b2859183be980c6941830c5a380ce4"


def test_sym_words_solves_and_reports_keep_their_bits(capsys):
    s3 = sc.sym_matrix(3)
    rng = SplitMix64(211)
    digest = hashlib.sha256()
    for k in range(12):
        word = random_word(s3, rng)
        x = random_cone_element(s3, rng)
        batch = np.array([random_cone_element(s3, rng).coords for _ in range(4)])
        digest.update(sc.apply(word, x).coords.tobytes())
        digest.update(transforms._apply_coords(word, batch).tobytes())
        if k < 4:
            for p in (2.0, -2.0):
                try:
                    rep = sc.solve(word, sc.SolveConfig(p=p))
                except NonConvergence as exc:
                    rep = exc.report
                digest.update(rep.solution.coords.tobytes())
                digest.update(np.array(rep.distance_trace + (rep.residual,)).tobytes())
    for suite in ("contraction", "isometry"):
        assert main(["check", suite, "--algebra", "sym:3", "--samples", "20",
                     "--seed", "5"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SYM_WORD_DIGEST


def _bitwise_symmetric(m):
    return m.tobytes() == np.swapaxes(m, -1, -2).tobytes()


def test_sym_factor_outputs_and_samples_are_bitwise_symmetric():
    # Nothing re-ingests these: each is symmetric by construction.  The
    # last t is 100 times a normal matrix, whose plain t' x t can land
    # off symmetric.
    s4 = sc.sym_matrix(4)
    rng = SplitMix64(23)
    words = [random_word(s4, rng, max_len=4) for _ in range(30)]
    words.append(sc.AutomorphismWord(s4, (
        sc.Congruence(100.0 * SplitMix64(126).normal_matrix(4, 4)),) * 3))
    for word in words:
        point = s4.kernel.random_point(4, rng, transforms.EIG_LO, transforms.EIG_HI)
        points = s4.kernel.random_point(4, rng, transforms.EIG_LO, transforms.EIG_HI, (3,))
        assert _bitwise_symmetric(point) and _bitwise_symmetric(points)
        for k in range(1, len(word.factors) + 1):
            prefix = sc.AutomorphismWord(s4, word.factors[:k])
            assert _bitwise_symmetric(transforms._apply_coords(prefix, point))
            assert _bitwise_symmetric(transforms._apply_coords(prefix, points))

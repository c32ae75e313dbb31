import math
import random

import numpy as np
import pytest

import symcone as sc
from symcone import metric, rng
from symcone.rng import SplitMix64

import conftest
import splitmix_reference

BLOCK = rng._BLOCK
_seeder = random.Random(2014)
SEEDS = [0, 1, 1 << 63, (1 << 64) - 1] + [_seeder.getrandbits(64) for _ in range(4)]


def assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    else:
        assert type(got) is type(want)
        assert got == want


@pytest.mark.parametrize("seed, words", [
    (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
    (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423]),
])
def test_splitmix64_reference_vectors(seed, words):
    for gen in (SplitMix64(seed), splitmix_reference.SplitMix64(seed)):
        assert [gen.next_u64() for _ in words] == words


def _random_call(chooser: random.Random):
    """A public method and arguments; sizes reach past a block."""
    size = lambda: chooser.choice([0, 1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1,
                                   chooser.randint(0, 3 * BLOCK)])
    return chooser.choice([
        ("next_u64", ()),
        ("uniform", ()),
        ("uniform_in", (-1.5, 3.0)),
        ("log_uniform", (0.1, 10.0)),
        ("normal", ()),
        ("normals", (size(),)),
        ("normal_matrix", (chooser.randint(0, 9), chooser.randint(0, 9))),
        ("unit_vector", (chooser.randint(1, 2 * BLOCK),)),
        ("rotation", (chooser.randint(1, 12),)),
        ("integer", (chooser.choice([1, 2, 7, 1 << 31, (1 << 64) - 1,
                                     chooser.getrandbits(64) | 1]),)),
        ("permutation", (chooser.randint(0, 20),)),
        ("choice", (tuple(range(chooser.randint(1, 9))),)),
    ])


@pytest.mark.parametrize("seed", SEEDS)
def test_every_method_matches_the_reference(seed):
    chooser = random.Random(seed)
    gen, ref = SplitMix64(seed), splitmix_reference.SplitMix64(seed)
    for _ in range(300):
        name, args = _random_call(chooser)
        assert_same(getattr(gen, name)(*args), getattr(ref, name)(*args))
    # With none pending, an odd count leaves a spare deviate, on both.
    if ref._spare_normal is not None:
        assert_same(gen.normal(), ref.normal())
    assert_same(gen.normals(2 * BLOCK + 1), ref.normals(2 * BLOCK + 1))
    assert ref._spare_normal is not None
    assert_same(gen.normal(), ref.normal())
    assert_same(gen.next_u64(), ref.next_u64())


@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_draws_match_single_draws(seed):
    chooser = random.Random(seed)
    gen, ref = SplitMix64(seed), splitmix_reference.SplitMix64(seed)
    for n in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, -2):
        skip = chooser.randint(0, BLOCK)
        assert [gen.uniform() for _ in range(skip)] == [ref.uniform() for _ in range(skip)]
        assert_same(gen.uniforms(n), np.array([ref.uniform() for _ in range(n)]))
        assert_same(gen.log_uniforms(n, 0.2, 5.0),
                    np.array([ref.log_uniform(0.2, 5.0) for _ in range(n)]))
        assert_same(gen.normals(n), ref.normals(n))


def test_seed_is_an_integer_taken_mod_2_64():
    # int(seed) ran a seed of 2.5 as 2.
    for seed in (2.5, math.inf, math.nan, True, False, None, "3", 1j):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SplitMix64(seed)
    x = sc.Element(sc.sym_matrix(2), np.eye(2))
    with pytest.raises(ValueError, match="seed"):
        metric.rayleigh_oracle(x, x, 3, 2.5)
    ref = SplitMix64(3)
    want = [ref.next_u64() for _ in range(2)]
    for seed in (3.0, np.int64(3), np.uint64(3), 3 + (5 << 64)):
        gen = SplitMix64(seed)
        assert [gen.next_u64() for _ in range(2)] == want
    assert SplitMix64(-1).next_u64() == SplitMix64((1 << 64) - 1).next_u64()


def test_unit_vector_needs_a_positive_size():
    # unit_vector(0) looped for ever: an empty vector has norm 0.
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n={n}"):
            SplitMix64(1).unit_vector(n)


def test_integer_and_choice_name_an_empty_or_oversized_range():
    gen = SplitMix64(1)
    for n in (0, -3, 1 << 64):
        with pytest.raises(ValueError, match=f"n={n}"):
            gen.integer(n)
    with pytest.raises(ValueError, match="n=0"):
        gen.choice([])
    # The refusals drew nothing.
    assert gen.next_u64() == SplitMix64(1).next_u64()


def test_no_block_before_the_first_draw(monkeypatch):
    blocks = []
    next_block = SplitMix64._next_block
    monkeypatch.setattr(SplitMix64, "_next_block",
                        lambda self: blocks.append(1) or next_block(self))
    # The orthant oracle builds a generator and draws nothing from it.
    x, y = sc.Element(sc.orthant(3), [1.0, 2.0, 3.0]), sc.Element(sc.orthant(3), [3.0, 2.0, 1.0])
    metric.rayleigh_oracle(x, y, 5, 1)
    gen = SplitMix64(7)
    assert blocks == []
    for _ in range(BLOCK):
        gen.uniform()
    assert len(blocks) == 1
    gen.next_u64()
    assert len(blocks) == 2


def _state(gen):
    return gen._state, gen._pos, gen._spare_normal


@pytest.mark.parametrize("seed", SEEDS)
def test_unit_vectors_are_unit_vector_calls_in_one_block(seed):
    chooser = random.Random(seed)
    gen, ref = SplitMix64(seed), SplitMix64(seed)
    for k, n in [(0, 3), (1, 1), (5, 2), (64, 5), (64, 9), (3, 2 * BLOCK + 1), (20, 12)]:
        # Odd skips leave a spare normal pending before the block.
        skip = chooser.randint(0, 3)
        assert_same(gen.normals(skip), ref.normals(skip))
        got = gen.unit_vectors(k, n)
        want = np.array([ref.unit_vector(n) for _ in range(k)]).reshape(k, n)
        assert got.shape == (k, n)
        # The norms are sums of squares in different orders: within 2 ulp
        # at the oracles' sizes; the rounding of a long sum grows with n.
        ulps = 2 if n <= 12 else n
        assert (np.abs(got - want) <= ulps * np.spacing(np.abs(want))).all()
        assert _state(gen) == _state(ref)


@pytest.mark.parametrize("start", [0, 4, 6])
def test_unit_vectors_redraw_a_zero_row_as_unit_vector_does(start):
    # Normals start..start+2 read 0: with n = 3 a whole row is zero at
    # start 0 and 6, and none is at start 4, which straddles two rows.
    gen = conftest.ZeroedNormals(4, start, start + 3)
    ref = conftest.ZeroedNormals(4, start, start + 3)
    got = gen.unit_vectors(5, 3)
    want = np.array([ref.unit_vector(3) for _ in range(5)])
    assert np.isfinite(got).all()
    assert (np.abs(got - want) <= 2 * np.spacing(np.abs(want))).all()
    assert _state(gen) == _state(ref) and gen.drawn == ref.drawn
    assert gen.drawn == (18 if start % 3 == 0 else 15)


def test_unit_vectors_need_a_size():
    for k, n in [(1, 0), (2, -1), (-1, 3)]:
        with pytest.raises(ValueError, match=f"k={k}, n={n}"):
            SplitMix64(1).unit_vectors(k, n)


SPIN_SHAPES = [(), (1,), (7,), (2, 3)]


@pytest.mark.parametrize("n", [2, 3, 10, 17])
@pytest.mark.parametrize("seed", SEEDS[:4])
def test_spin_points_are_the_point_loop_byte_for_byte(n, seed):
    chooser = random.Random(seed)
    gen, ref = SplitMix64(seed), SplitMix64(seed)
    for shape in SPIN_SHAPES:
        # Odd skips leave a spare normal pending before the points.
        skip = chooser.randint(0, 3)
        assert_same(gen.normals(skip), ref.normals(skip))
        got = sc.spin_factor(n).kernel.random_point(n, gen, 0.1, 10.0, shape)
        assert_same(got, conftest.spin_point_loop(n, ref, 0.1, 10.0, shape))
        assert gen._spare_normal == ref._spare_normal
        assert gen.uniform() == ref.uniform()


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_unit_rows_are_unit_vector_calls(seed):
    gen, ref = SplitMix64(seed), splitmix_reference.SplitMix64(seed)
    for shape, n in [((), 1), ((2, 3), 9), ((0,), 4), ((5,), 64), ((2,), 2 * BLOCK + 1)]:
        for _ in range(math.prod(shape)):
            assert_same(gen.unit_vector(n), ref.unit_vector(n))
        assert_same(gen.normal(), ref.normal())


@pytest.mark.parametrize("start, scale, redrawn", [
    (0, 0.0, True),  # the first point's vector is zero
    (27, 0.0, True),  # the fourth of seven
    (54, 0.0, True),  # the last
    (31, 0.0, False),  # zeros across two vectors: neither is zero
    (27, 1e-14, True),  # tiny entries, norm below 1e-12
    (27, 1e-12, False),  # tiny entries, norm above 1e-12
    (27, 5e-13, False),  # every entry below 2e-12, norm above 1e-12
])
def test_spin_points_redraw_a_short_vector_as_the_loop_does(start, scale, redrawn):
    # spin:10 points draw 9 normals each, so normals 9i..9i+8 are point i's.
    gen = conftest.ZeroedNormals(8, start, start + 9, scale)
    ref = conftest.ZeroedNormals(8, start, start + 9, scale)
    got = sc.spin_factor(10).kernel.random_point(10, gen, 0.1, 10.0, (7,))
    want = conftest.spin_point_loop(10, ref, 0.1, 10.0, (7,))
    assert np.isfinite(got).all()
    assert_same(got, want)
    assert gen.drawn == ref.drawn == 9 * (7 + redrawn)
    assert gen._spare_normal == ref._spare_normal and gen.uniform() == ref.uniform()


def test_unit_rows_need_a_size():
    for shape, n in [((1,), 0), ((2,), -1), ((-1,), 3), ((2, -1), 3)]:
        with pytest.raises(ValueError, match=f"n={n}"):
            SplitMix64(1).unit_rows(shape, n, 0.1, 10.0)

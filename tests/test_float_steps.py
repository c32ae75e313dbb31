"""The orthant and spin fixed-point steps, and one point's spin P(a)x, keep
the bits of their numpy-array references in conftest.py: the same x_next
bytes and extreme floats, or the same error class and message.  The steps
compute their terms on Python floats and keep numpy only for np.power over
arrays and np.dot, so they must agree on whichever np.power loop numpy
dispatches to; the last test runs this module again with numpy's AVX-512
dispatch off."""

import math
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

import symcone as sc
from conftest import (mild_word, numpy_orthant_step, numpy_simd_targets, numpy_spin_quad,
                      numpy_spin_step)
from symcone import algebra
from symcone.errors import NotInCone
from symcone.rng import SplitMix64

# Exponents e = 1/p of the solver's steps, p = +-1.5, +-2, +-3 and 1.01.
EXPONENTS = (1 / 1.5, -1 / 1.5, 0.5, -0.5, 1 / 3, -1 / 3, 1 / 1.01)

STEPS = {
    "orthant": (algebra._orthant_fixed_point_step, numpy_orthant_step),
    "spin": (algebra._spin_fixed_point_step, numpy_spin_step),
}


def _outcome(step, gx, x, e):
    """x_next's bytes and the extremes' bytes (None where x_next is x), or
    the error's class and message, with numpy's warnings off as in the
    solver's loop."""
    try:
        with np.errstate(all="ignore"):
            x_next, extremes, basis = step(np.array(gx, dtype=float), np.array(x, dtype=float), e)
    except (ArithmeticError, NotInCone) as exc:
        return type(exc), str(exc)
    assert basis is None
    if extremes is None:
        return x_next.tobytes(), None
    assert all(type(value) is float for value in extremes)
    return x_next.tobytes(), struct.pack("2d", *extremes)


def _assert_same_step(kind, gx, x, e):
    step, reference = STEPS[kind]
    assert _outcome(step, gx, x, e) == _outcome(reference, gx, x, e)


def _random_points(kind, n, seed, count, lo, hi):
    return sc.AlgebraDescriptor(kind, n).kernel.random_point(n, SplitMix64(seed), lo, hi, (count,))


@pytest.mark.parametrize("kind, n", [("orthant", 1), ("orthant", 2), ("orthant", 8),
                                     ("spin", 2), ("spin", 3), ("spin", 10), ("spin", 17)])
@pytest.mark.parametrize("e", EXPONENTS)
def test_a_step_on_random_points_keeps_the_reference_bits(kind, n, e):
    # gx spans six decades; x is an unrelated point, the reference's own
    # x_next (the zero step) or x_next one ulp off in one coordinate (a
    # step near the noise floor, as at the end of a solve).
    step, reference = STEPS[kind]
    gxs = _random_points(kind, n, 7 * n, 24, 1e-3, 1e3)
    xs = _random_points(kind, n, 7 * n + 1, 24, 1e-2, 1.0)
    for i, (gx, x) in enumerate(zip(gxs, xs)):
        _assert_same_step(kind, gx, x, e)
        x_next = reference(gx, x, e)[0]
        assert _outcome(step, gx, x_next, e) == (x_next.tobytes(), None)
        near = x_next.copy()
        near[i % n] = np.nextafter(near[i % n], 2.0)
        _assert_same_step(kind, gx, near, e)


@pytest.mark.parametrize("kind, n", [("orthant", 8), ("spin", 3), ("spin", 10)])
@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_every_step_of_a_solve_keeps_the_reference_bits(kind, n, sigma, monkeypatch):
    step, reference = STEPS[kind]
    calls = []

    def checked(gx, x, e, basis):
        calls.append(_outcome(reference, gx, x, e))
        assert _outcome(step, gx, x, e) == calls[-1]
        return step(gx, x, e, basis)

    # A descriptor reads its kernel when it is made, so it is made after.
    monkeypatch.setitem(algebra._KERNELS, kind,
                        algebra._KERNELS[kind]._replace(fixed_point_step=checked))
    descriptor = sc.AlgebraDescriptor(kind, n)
    rng = SplitMix64(int(10 * sigma) + n)
    for p in (-3.0, -2.0, 1.5, 2.0, 3.0):
        try:
            sc.solve(mild_word(descriptor, rng, sigma), sc.SolveConfig(p=p))
        except sc.NonConvergence:
            pass  # an e^{+-2} word may stall; its steps were checked all the same
    assert len(calls) > 20


@pytest.mark.parametrize("e", EXPONENTS)
@pytest.mark.parametrize("gx", [
    [math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan],
    [math.inf, 1.0, 2.0], [1.0, -math.inf, 2.0], [math.inf, -math.inf, 1.0],
    [math.nan, -1.0, 2.0], [-1.0, math.nan, math.inf], [1e308, 1e308, 1e-300],
    [0.0, 1.0, 2.0], [2.0, -0.0, -0.0], [-1.0, 2.0, 3.0], [3.0, 3.0, 3.0],
])
def test_an_orthant_edge_case_keeps_the_reference_outcome(gx, e):
    # Non-finite and non-positive entries, the NaN hidden between finite
    # ones; for each, an unrelated x and the identity.
    _assert_same_step("orthant", gx, [0.5, 1.0, 0.25], e)
    _assert_same_step("orthant", gx, [1.0, 1.0, 1.0], e)


@pytest.mark.parametrize("e", EXPONENTS)
@pytest.mark.parametrize("gx", [
    [2.0, 0.0, 0.0], [2.0, -0.0, 0.0], [1e-300, 0.0, -0.0],
    [math.nan, 0.0, 0.0], [1.0, math.nan, 0.0], [math.inf, 0.0, 0.0], [1.0, math.inf, 0.0],
    [-math.inf, 0.0, 0.0], [math.inf, math.inf, 0.0], [1e308, 1e308, 1e308],
    [1.0, 1.0, 0.0], [1.0, 2.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-0.0, 0.0, 0.0],
])
def test_a_spin_edge_case_keeps_the_reference_outcome(gx, e):
    # gbar = 0 (the frame's unit vector is e_1), non-finite entries and
    # extremes, and a least eigenvalue <= 0; for each, an unrelated x and
    # the identity.
    _assert_same_step("spin", gx, [1.0, 0.25, -0.5], e)
    _assert_same_step("spin", gx, [1.0, 0.0, 0.0], e)


@pytest.mark.parametrize("kind, gx, x, e", [
    # g = Quad(a) with a = [1, 1e-160] (on spin a = 1e-160 e) from the
    # identity: g(e) holds 1e-320, whose root overflows at p = -1.01 (the
    # root scale leaves the float range) and at p = 1.01 is 1e-316.8 beside
    # 1 (P(x_next^(-1/2))x overflows; on spin both roots are 1e-316.8 and the
    # scale overflows instead).
    ("orthant", [1.0, 1e-320], [1.0, 1.0], -1 / 1.01),
    ("orthant", [1.0, 1e-320], [1.0, 1.0], 1 / 1.01),
    ("spin", [1e-320, 0.0, 0.0], [1.0, 0.0, 0.0], -1 / 1.01),
    ("spin", [1e-320, 0.0, 0.0], [1.0, 0.0, 0.0], 1 / 1.01),
    # An x far off the unit sphere makes P(x_next^(-1/2))x overflow.
    ("orthant", [1.0, 0.25], [1.0, 1.5e308], 0.5),
    ("spin", [1.0, 0.5, 0.0], [1.5e308, 0.0, 0.0], 0.5),
    ("spin", [1.0, 0.5, 0.0], [1e308, 1e308, 0.0], 0.5),
], ids=["orthant-leaves", "orthant-step-overflows", "spin-leaves-neg", "spin-leaves-pos",
        "orthant-overflows", "spin-overflows", "spin-tail-overflows"])
def test_a_step_beyond_the_float_range_keeps_the_reference_error(kind, gx, x, e):
    step, _ = STEPS[kind]
    outcome = _outcome(step, gx, x, e)
    assert outcome[0] is OverflowError
    _assert_same_step(kind, gx, x, e)


@pytest.mark.parametrize("n", [2, 3, 10, 17])
def test_one_point_spin_quad_keeps_the_reference_bits(n):
    # Cone points, arbitrary vectors, strided views, and entries that make
    # P(a)x overflow, or are inf or NaN.
    kernel = sc.spin_factor(n).kernel
    points = kernel.random_point(n, SplitMix64(n), 0.1, 10.0, (12,))
    vectors = np.random.default_rng(n).standard_normal((12, 2 * n))
    pairs = [(a, x) for a, x in zip(points[::2], points[1::2])]
    pairs += [(v[:n], v[n:]) for v in vectors] + [(v[::2], v[1::2]) for v in vectors]
    for bad in (1e308, math.inf, -math.inf, math.nan):
        tweaked = points[0].copy()
        tweaked[-1] = bad
        pairs += [(tweaked, points[1]), (points[1], tweaked), (1e154 * points[2], points[3])]
    with np.errstate(all="ignore"):
        for a, x in pairs:
            assert algebra._spin_quad(a, x).tobytes() == numpy_spin_quad(a, x).tobytes()


def test_the_steps_keep_their_bits_with_numpy_avx512_dispatch_off():
    # np.power runs numpy's AVX-512 loop where the CPU has one and libm's
    # pow where it is switched off; the two differ on about 5 % of inputs.
    targets = numpy_simd_targets() or []
    off = [t for t in targets if t.startswith("AVX512") or t == "X86_V4"]
    if not off:
        pytest.skip("numpy dispatches to no AVX-512 target on this machine")
    src = str(pathlib.Path(sc.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not dispatch_off"],
        capture_output=True, env=env, timeout=600, cwd=pathlib.Path(__file__).parents[1])
    out = proc.stdout.decode()
    assert proc.returncode == 0, out[-3000:]
    # The child's report line names the targets left on, as numpy read them.
    kept = " ".join(t for t in targets if t not in off) or "none"
    assert f"numpy SIMD: {kept}\n" in out

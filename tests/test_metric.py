import math

import numpy as np
import pytest
import scipy.linalg

import symcone as sc
from symcone import suites
from symcone.errors import NotInCone
from symcone.rng import SplitMix64
from symcone.transforms import random_cone_element

from conftest import el

O2 = sc.orthant(2)


def test_lambda_extremes_sym_vs_generalized_eig():
    # Independent route: l_max, l_min are the extreme generalized
    # eigenvalues of the pencil (x, y), via LAPACK instead of the
    # package's own Jacobi + quadratic-representation path.
    s5 = sc.sym_matrix(5)
    rng = SplitMix64(1)
    for _ in range(100):
        x = random_cone_element(s5, rng)
        y = random_cone_element(s5, rng)
        lam_max, lam_min = sc.lambda_extremes(x, y)
        ref = scipy.linalg.eigh(x.coords, y.coords, eigvals_only=True)
        assert abs(lam_max - ref[-1]) <= 1e-10 * (1 + abs(ref[-1]))
        assert abs(lam_min - ref[0]) <= 1e-10 * (1 + abs(ref[0]))


def test_lambda_extremes_orthant():
    x = el(O2, [1, 2])
    y = el(O2, [2, 1])
    lam_max, lam_min = sc.lambda_extremes(x, y)
    assert abs(lam_max - 2.0) <= 1e-12
    assert abs(lam_min - 0.5) <= 1e-12


def test_lambda_extremes_equal_points(small_algebra):
    rng = SplitMix64(2)
    x = random_cone_element(small_algebra, rng)
    lam_max, lam_min = sc.lambda_extremes(x, x)
    assert abs(lam_max - 1.0) <= 1e-12
    assert abs(lam_min - 1.0) <= 1e-12


def test_lambda_extremes_shift_identity():
    x = el(O2, [1, 2])
    y = el(O2, [2, 1])
    lam_max, _ = sc.lambda_extremes(x + y, y)
    assert abs(lam_max - 3.0) <= 1e-12


def test_not_in_cone_names_argument():
    x = el(O2, [1, 0])
    y = el(O2, [1, 1])
    with pytest.raises(NotInCone, match="x"):
        sc.distance(x, y)
    with pytest.raises(NotInCone, match="y"):
        sc.distance(y, x)


def test_distance_closed_form():
    rep = sc.distance(el(O2, [1, 2]), el(O2, [2, 1]))
    assert abs(rep.distance - math.log(4.0)) <= 1e-12
    assert rep.distance == math.log(rep.lambda_max / rep.lambda_min)
    assert rep.lambda_max >= rep.lambda_min > 0


def test_distance_zero_and_rays(small_algebra):
    rng = SplitMix64(4)
    x = random_cone_element(small_algebra, rng)
    assert sc.distance(x, x).distance <= 1e-13
    assert sc.distance(2.0 * x, x).distance <= 1e-13


def test_distance_cross_form(small_algebra):
    rng = SplitMix64(6)
    for _ in range(50):
        x = random_cone_element(small_algebra, rng)
        y = random_cone_element(small_algebra, rng)
        d = sc.distance(x, y).distance
        lam_xy, _ = sc.lambda_extremes(x, y)
        lam_yx, _ = sc.lambda_extremes(y, x)
        assert abs(d - math.log(lam_xy * lam_yx)) <= 1e-10 * (1 + d)


def test_upper_bound_oracle_examples():
    x = el(O2, [1, 2])
    y = el(O2, [2, 1])
    assert abs(sc.upper_bound_oracle(x, y, 1e-8) - 2.0) <= 1e-8
    assert abs(sc.upper_bound_oracle(x, x, 1e-8) - 1.0) <= 1e-8
    assert abs(sc.upper_bound_oracle(el(O2, [3, 3]), y, 1e-8) - 3.0) <= 1e-8
    with pytest.raises(ValueError):
        sc.upper_bound_oracle(x, y, 0.0)


def test_upper_bound_oracle_agrees_with_extremes(small_algebra):
    rng = SplitMix64(8)
    for _ in range(25):
        x = random_cone_element(small_algebra, rng)
        y = random_cone_element(small_algebra, rng)
        lam_max, _ = sc.lambda_extremes(x, y)
        assert abs(sc.upper_bound_oracle(x, y, 1e-8) - lam_max) <= 1e-8 + 1e-9


def test_rayleigh_oracle_orthant_exhaustive():
    got = sc.rayleigh_oracle(el(O2, [1, 2]), el(O2, [2, 1]), 1, 0)
    assert got == (2.0, 0.5)


def test_rayleigh_oracle_equal_points(small_algebra):
    rng = SplitMix64(10)
    x = random_cone_element(small_algebra, rng)
    mx, mn = sc.rayleigh_oracle(x, x, 50, 3)
    assert abs(mx - 1.0) <= 1e-12 and abs(mn - 1.0) <= 1e-12


def test_rayleigh_oracle_sym_concentration():
    s2 = sc.sym_matrix(2)
    x = el(s2, np.diag([1.0, 4.0]))
    mx, mn = sc.rayleigh_oracle(x, s2.identity(), 10_000, 42)
    assert 4.0 - 0.05 <= mx <= 4.0
    assert 1.0 <= mn <= 1.0 + 0.05


def test_rayleigh_oracle_one_sided(small_algebra):
    rng = SplitMix64(12)
    for seed in range(10):
        x = random_cone_element(small_algebra, rng)
        y = random_cone_element(small_algebra, rng)
        lam_max, lam_min = sc.lambda_extremes(x, y)
        mx, mn = sc.rayleigh_oracle(x, y, 200, seed)
        assert mx <= lam_max + 1e-10
        assert mn >= lam_min - 1e-10


def test_rayleigh_oracle_validates_samples():
    x = el(O2, [1, 2])
    with pytest.raises(ValueError):
        sc.rayleigh_oracle(x, x, 0, 1)


def test_norm_metric_bounds_examples():
    # |x - y| <= e^d - 1, and |x - y| >= lambda_min(y) tanh(d/2) when
    # |x - y| < lambda_min(y), on unit-norm points.
    x = el(O2, [1.0, 0.5])
    y = el(O2, [1.0, 1.0])
    for a, b in ((x, x), (x, y)):
        d = sc.distance(a, b).distance
        diff = sc.spectral_norm(a - b)
        assert diff <= math.exp(d) - 1.0 + 1e-9
        assert diff < sc.lambda_min(b)
        assert diff >= sc.lambda_min(b) * math.tanh(0.5 * d) - 1e-9


def test_norm_metric_bounds_sweep(small_algebra):
    result = suites.bounds_suite(small_algebra, 200, 14)
    assert result.passed
    assert [c.count > 0 for c in result.checks] == [True, True]


# ---------------------------------------------------------------------------
# pseudo-metric properties
# ---------------------------------------------------------------------------

def test_inversion_swaps_lambda_extremes(small_algebra):
    # l_max(x^-1, y^-1) = 1/l_min(x, y) and l_min(x^-1, y^-1) = 1/l_max(x, y),
    # which is what makes inversion an isometry.
    rng = SplitMix64(25)
    for _ in range(30):
        x = random_cone_element(small_algebra, rng)
        y = random_cone_element(small_algebra, rng)
        lam_max, lam_min = sc.lambda_extremes(x, y)
        inv_max, inv_min = sc.lambda_extremes(sc.inverse(x), sc.inverse(y))
        assert abs(inv_max - 1.0 / lam_min) <= 1e-9 * (1.0 / lam_min)
        assert abs(inv_min - 1.0 / lam_max) <= 1e-9 * (1.0 / lam_max)


def test_shared_frame_pairs_reduce_to_eigenvalue_ratios():
    # On a common Jordan frame the metric only sees eigenvalue ratios,
    # whatever the family.
    rng = SplitMix64(26)
    s3 = sc.sym_matrix(3)
    q = rng.rotation(3)
    lx = np.array([3.0, 1.0, 0.5])
    ly = np.array([1.5, 2.0, 1.0])
    x = sc.Element(s3, (q * lx) @ q.T)
    y = sc.Element(s3, (q * ly) @ q.T)
    want = math.log(np.max(lx / ly) / np.min(lx / ly))
    assert abs(sc.distance(x, y).distance - want) <= 1e-12

    p4 = sc.spin_factor(4)
    u = rng.unit_vector(3)
    xs = sc.Element(p4, np.concatenate(([2.0], 1.5 * u)))   # eigenvalues 3.5, 0.5
    ys = sc.Element(p4, np.concatenate(([1.0], 0.5 * u)))   # eigenvalues 1.5, 0.5
    want = math.log((3.5 / 1.5) / (0.5 / 0.5))
    assert abs(sc.distance(xs, ys).distance - want) <= 1e-12


def test_symmetry_and_triangle(small_algebra):
    rng = SplitMix64(16)
    for _ in range(100):
        x = random_cone_element(small_algebra, rng)
        y = random_cone_element(small_algebra, rng)
        z = random_cone_element(small_algebra, rng)
        dxy = sc.distance(x, y).distance
        dyx = sc.distance(y, x).distance
        assert abs(dxy - dyx) <= 1e-10 * (1 + dxy)
        dxz = sc.distance(x, z).distance
        dyz = sc.distance(y, z).distance
        assert dxz <= dxy + dyz + 1e-9


def test_projectivity(small_algebra):
    rng = SplitMix64(18)
    for _ in range(30):
        x = random_cone_element(small_algebra, rng)
        y = random_cone_element(small_algebra, rng)
        d = sc.distance(x, y).distance
        for alpha in (0.1, 1.0, 10.0):
            for beta in (0.1, 1.0, 10.0):
                assert abs(sc.distance(alpha * x, beta * y).distance - d) <= 1e-10


def test_definiteness_on_rays(small_algebra):
    rng = SplitMix64(20)
    for _ in range(30):
        x = random_cone_element(small_algebra, rng)
        y = rng.log_uniform(0.2, 5.0) * x
        if sc.distance(x, y).distance <= 1e-8:
            nx = sc.normalize(x)
            ny = sc.normalize(y)
            assert sc.spectral_norm(nx - ny) <= 1e-6


def test_brauer_identities(small_algebra):
    rng = SplitMix64(22)
    for _ in range(50):
        x = random_cone_element(small_algebra, rng)
        y = random_cone_element(small_algebra, rng)
        lam_max, lam_min = sc.lambda_extremes(x, y)
        alpha = rng.log_uniform(0.3, 3.0)
        beta = rng.uniform_in(0.0, 2.0)
        mixed = alpha * x + beta * y
        got_max, got_min = sc.lambda_extremes(mixed, y)
        want_max = alpha * lam_max + beta
        want_min = alpha * lam_min + beta
        assert abs(got_max - want_max) <= 1e-9 * abs(want_max)
        assert abs(got_min - want_min) <= 1e-9 * abs(want_min)
        _, lam_min_yx = sc.lambda_extremes(y, x)
        assert abs(lam_max * lam_min_yx - 1.0) <= 1e-10


def test_submultiplicativity(small_algebra):
    rng = SplitMix64(24)
    for _ in range(50):
        x = random_cone_element(small_algebra, rng)
        y = random_cone_element(small_algebra, rng)
        z = random_cone_element(small_algebra, rng)
        lam_xy = sc.lambda_extremes(x, y)
        lam_yz = sc.lambda_extremes(y, z)
        lam_xz = sc.lambda_extremes(x, z)
        assert lam_xz[0] <= lam_xy[0] * lam_yz[0] * (1 + 1e-9)
        assert lam_xz[1] >= lam_xy[1] * lam_yz[1] * (1 - 1e-9)

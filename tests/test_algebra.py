import math
import pickle
import warnings

import numpy as np
import pytest

import symcone as sc
from symcone import algebra
from symcone.algebra import _jacobi
from symcone.errors import AlgebraMismatch, EigensolverFailure, NotInCone
from symcone.rng import SplitMix64
from symcone.transforms import random_cone_element, random_word

from conftest import count_jacobi, el, frame_loop_power, mild_word, three_product_quad
from jacobi_reference import _jacobi as reference_jacobi

O2 = sc.orthant(2)
S2 = sc.sym_matrix(2)
P3 = sc.spin_factor(3)


# ---------------------------------------------------------------------------
# descriptors and elements
# ---------------------------------------------------------------------------

def test_descriptor_basics():
    # The rank is the number of eigenvalues.
    assert len(sc.eigenvalues(sc.orthant(4).identity())) == 4
    assert len(sc.eigenvalues(sc.sym_matrix(3).identity())) == 3
    assert len(sc.eigenvalues(sc.spin_factor(7).identity())) == 2
    assert np.array_equal(sc.orthant(3).identity().coords, [1, 1, 1])
    assert np.array_equal(sc.sym_matrix(2).identity().coords, np.eye(2))
    assert np.array_equal(sc.spin_factor(3).identity().coords, [1, 0, 0])
    x = pickle.loads(pickle.dumps(sc.sym_matrix(2).identity()))
    assert x.algebra == sc.sym_matrix(2) and x.algebra.kernel is S2.kernel


def test_descriptor_validation():
    with pytest.raises(ValueError):
        sc.AlgebraDescriptor("cube", 3)
    with pytest.raises(ValueError):
        sc.orthant(0)
    with pytest.raises(ValueError):
        sc.spin_factor(1)


def test_element_symmetrizes_on_ingestion():
    tiny = 1e-14
    x = el(S2, [[1.0, 2.0 + tiny], [2.0, 3.0]])
    assert x.coords[0, 1] == x.coords[1, 0]
    with pytest.raises(ValueError):
        el(S2, [[1.0, 2.0], [2.1, 3.0]])
    with pytest.raises(ValueError):
        el(O2, [1.0, 2.0, 3.0])


def test_element_coords_frozen():
    x = el(O2, [1.0, 2.0])
    with pytest.raises(ValueError):
        x.coords[0] = 5.0


# ---------------------------------------------------------------------------
# product / quad
# ---------------------------------------------------------------------------

def test_product_orthant():
    assert np.array_equal(sc.product(el(O2, [1, 2]), el(O2, [3, 4])).coords, [3, 8])


def test_product_sym_matches_matrix_arithmetic():
    x = el(S2, [[1, 0], [0, 2]])
    y = el(S2, [[0, 1], [1, 0]])
    expected = (x.coords @ y.coords + y.coords @ x.coords) / 2
    got = sc.product(x, y).coords
    np.testing.assert_allclose(got, expected, atol=0)
    np.testing.assert_allclose(got, [[0, 1.5], [1.5, 0]], atol=0)


def test_product_spin():
    x = el(P3, [2, 1, 0])
    y = el(P3, [1, 0, 1])
    np.testing.assert_allclose(sc.product(x, y).coords, [2, 1, 2], atol=0)


def test_product_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        sc.product(el(O2, [1, 2]), el(sc.orthant(3), [1, 2, 3]))


def test_quad_sym_closed_form():
    x = el(S2, [[1, 0], [0, 2]])
    y = el(S2, [[0, 1], [1, 0]])
    np.testing.assert_allclose(sc.quad(x, y).coords, x.coords @ y.coords @ x.coords,
                               atol=1e-14)
    np.testing.assert_allclose(sc.quad(x, y).coords, [[0, 2], [2, 0]], atol=1e-14)


def test_quad_identity_and_orthant(small_algebra):
    rng = SplitMix64(11)
    y = random_cone_element(small_algebra, rng) - 0.5 * small_algebra.identity()
    e = small_algebra.identity()
    np.testing.assert_allclose(sc.quad(e, y).coords, y.coords, atol=1e-14)
    x = el(O2, [2, 3])
    np.testing.assert_allclose(sc.quad(x, el(O2, [1, 1])).coords, [4, 9], atol=0)


def test_quad_matches_sym_congruence_on_random_pairs():
    r = 4
    s = sc.sym_matrix(r)
    rng = SplitMix64(5)
    for _ in range(500):
        a = rng.normal_matrix(r, r)
        b = rng.normal_matrix(r, r)
        x = sc.Element(s, (a + a.T) / 2)
        y = sc.Element(s, (b + b.T) / 2)
        lhs = sc.quad(x, y).coords
        rhs = x.coords @ y.coords @ x.coords
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))


def _relative_gap(got, ref):
    return np.max(np.abs(got.coords - ref.coords)) / np.max(np.abs(ref.coords))


@pytest.mark.parametrize("descriptor", [sc.orthant(8), sc.sym_matrix(6),
                                        sc.spin_factor(10)])
def test_closed_form_quad_matches_three_products(descriptor):
    rng = SplitMix64(19)
    for _ in range(300):
        a = random_cone_element(descriptor, rng)
        x = random_cone_element(descriptor, rng)
        assert _relative_gap(sc.quad(a, x), three_product_quad(a, x)) <= 1e-13
    # Words with factors in e^{+-2}, applied factor by factor with the
    # reference quad in place of each Quad.
    sigma = 2.0
    for _ in range(100):
        word = random_word(descriptor, rng, lo=math.exp(-sigma), hi=math.exp(sigma))
        x = random_cone_element(descriptor, rng)
        ref = x
        for f in word.factors:
            if isinstance(f, sc.Quad):
                ref = three_product_quad(f.a, ref)
            else:
                ref = sc.apply(sc.AutomorphismWord(descriptor, (f,)), ref)
        assert _relative_gap(sc.apply(word, x), ref) <= 1e-13


def test_quad_of_identity_is_exact(small_algebra):
    rng = SplitMix64(23)
    e = small_algebra.identity()
    for _ in range(50):
        x = _random_ambient(small_algebra, rng)
        assert sc.quad(e, x).coords.tobytes() == x.coords.tobytes()


def test_quad_fundamental_formula(small_algebra):
    # P(P(a)x) = P(a) P(x) P(a), applied to a third element y.
    rng = SplitMix64(29)
    for _ in range(100):
        a = random_cone_element(small_algebra, rng)
        x = random_cone_element(small_algebra, rng)
        y = random_cone_element(small_algebra, rng)
        lhs = sc.quad(sc.quad(a, x), y)
        rhs = sc.quad(a, sc.quad(x, sc.quad(a, y)))
        scale = (sc.spectral_norm(a) ** 4 * sc.spectral_norm(x) ** 2
                 * sc.spectral_norm(y))
        assert sc.spectral_norm(lhs - rhs) <= 1e-13 * scale


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------

def test_spectral_orthant_order():
    dec = sc.spectral_decompose(el(sc.orthant(3), [3, 1, 2]))
    np.testing.assert_allclose(dec.eigenvalues, [3, 2, 1], atol=0)
    np.testing.assert_allclose(dec.frame_coords[0], [1, 0, 0], atol=0)
    np.testing.assert_allclose(dec.frame_coords[1], [0, 0, 1], atol=0)
    np.testing.assert_allclose(dec.frame_coords[2], [0, 1, 0], atol=0)


def test_spectral_spin_closed_form():
    dec = sc.spectral_decompose(el(P3, [2, 1, 0]))
    np.testing.assert_allclose(dec.eigenvalues, [3, 1], atol=1e-15)
    np.testing.assert_allclose(dec.frame_coords[0], [0.5, 0.5, 0], atol=1e-15)
    np.testing.assert_allclose(dec.frame_coords[1], [0.5, -0.5, 0], atol=1e-15)


def test_spectral_spin_degenerate_tiebreak():
    dec = sc.spectral_decompose(el(P3, [2, 0, 0]))
    np.testing.assert_allclose(dec.eigenvalues, [2, 2], atol=0)
    np.testing.assert_allclose(dec.frame_coords[0], [0.5, 0.5, 0], atol=0)
    np.testing.assert_allclose(dec.frame_coords[1], [0.5, -0.5, 0], atol=0)


def test_spectral_sym_hand_case():
    dec = sc.spectral_decompose(el(S2, [[2, 1], [1, 2]]))
    np.testing.assert_allclose(dec.eigenvalues, [3, 1], atol=1e-14)
    proj = np.full((2, 2), 0.5)
    np.testing.assert_allclose(dec.frame_coords[0], proj, atol=1e-14)
    np.testing.assert_allclose(dec.frame_coords[1], [[0.5, -0.5], [-0.5, 0.5]],
                               atol=1e-14)


def _check_decomposition(x, tol=1e-10):
    dec = sc.spectral_decompose(x)
    alg = x.algebra
    frame = [sc.Element(alg, c) for c in dec.frame_coords]
    assert len(frame) == len(sc.eigenvalues(alg.identity()))
    assert np.all(np.diff(dec.eigenvalues) <= 1e-15)
    total = sc.Element(alg, np.zeros(alg.coord_shape))
    for i, c in enumerate(frame):
        assert sc.spectral_norm(sc.product(c, c) - c) <= tol
        assert abs(sc.tr(c) - 1.0) <= tol
        for d in frame[i + 1:]:
            assert sc.spectral_norm(sc.product(c, d)) <= tol
        total = total + c
    assert sc.spectral_norm(total - alg.identity()) <= tol
    err = sc.spectral_norm(dec.power(1.0) - x)
    assert err <= tol * (1 + sc.spectral_norm(x))


def test_decomposition_invariants(small_algebra):
    rng = SplitMix64(23)
    for _ in range(100):
        _check_decomposition(random_cone_element(small_algebra, rng))
    # points outside the cone as well
    for _ in range(100):
        x = random_cone_element(small_algebra, rng) - 1.5 * small_algebra.identity()
        _check_decomposition(x)


def test_decomposition_degenerate_eigenvalues():
    _check_decomposition(el(sc.sym_matrix(3), np.diag([2.0, 2.0, 1.0])))
    _check_decomposition(sc.sym_matrix(4).identity())
    _check_decomposition(el(sc.spin_factor(4), [3, 0, 0, 0]))


def test_decomposition_deterministic():
    rng = SplitMix64(9)
    x = random_cone_element(sc.sym_matrix(5), rng)
    d1 = sc.spectral_decompose(x)
    # A fresh element with the same coordinates holds no stored eigenvalues.
    d2 = sc.spectral_decompose(sc.Element(x.algebra, x.coords))
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    for c1, c2 in zip(d1.frame_coords, d2.frame_coords):
        assert np.array_equal(c1, c2)


def test_jacobi_scales_an_overflowing_norm():
    # The squared Frobenius sum overflows, the entries do not.
    x = el(S2, [[1e160, 1e160], [1e160, 1e160]])
    assert sc.eigenvalues(x).tolist() == [2e160, 0.0]
    # Finite squares whose sum overflows: math.fsum raises OverflowError.
    x = el(S2, [[1e154, 1e154], [1e154, 1e154]])
    assert sc.eigenvalues(x).tolist() == [2e154, 0.0]
    m = np.full((3, 3), 1e200)
    m[2, 2] = math.nan
    with pytest.raises(EigensolverFailure, match="finite"):
        _jacobi(m, accumulate=False)


def test_jacobi_scales_an_underflowing_norm():
    # The squared Frobenius sum underflows to zero, the entries do not.
    x = el(S2, [[1e-170, 1e-170], [1e-170, 1e-170]])
    assert sc.eigenvalues(x).tolist() == [2e-170, 0.0]
    assert sc.eigenvalues(el(S2, np.zeros((2, 2)))).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("k", [-1000, -900, 900, 1000])
def test_jacobi_rotates_a_power_of_two_multiple_alike(k):
    # Scaling by 2^k is exact, and so is each rotation of the scaled matrix
    # while its entries stay normal; the threshold scales with it too where
    # the squared norm underflows or overflows.
    rng = SplitMix64(29)
    c = 2.0 ** k
    for r in (2, 3, 6, 12):
        m = rng.normal_matrix(r, r)
        for x in (random_cone_element(sc.sym_matrix(r), rng).coords, (m + m.T) / 2.0):
            diag, vecs = _jacobi(x, accumulate=True)
            scaled_diag, scaled_vecs = _jacobi(c * x, accumulate=True)
            assert scaled_diag.tobytes() == (c * diag).tobytes()
            assert scaled_vecs.tobytes() == vecs.tobytes()


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-17, 1e17, 1e170, 1e300])
def test_in_cone_at_extreme_scales(scale):
    # Eigenvalues 2.1 and -0.1: indefinite at every scale.
    assert not sc.in_cone(scale * el(S2, [[1.0, 1.1], [1.1, 1.0]]))
    rng = SplitMix64(27)
    s6 = sc.sym_matrix(6)
    for _ in range(5):
        x = random_cone_element(s6, rng)
        assert sc.in_cone(scale * x)
        # Least eigenvalue -0.01 * lambda_min(x), on a positive diagonal.
        shifted = x - 1.01 * sc.lambda_min(x) * s6.identity()
        assert np.all(np.diag(shifted.coords) > 0.0)
        assert not sc.in_cone(scale * shifted)
    for n in (3, 10):
        assert sc.in_cone(scale * random_cone_element(sc.spin_factor(n), rng))


def test_eigensolver_failure_on_nan():
    nan = float("nan")
    x = el(sc.sym_matrix(3), [[1.0, nan, nan], [nan, 1.0, nan], [nan, nan, 1.0]])
    with pytest.raises(EigensolverFailure, match="finite"):
        sc.spectral_decompose(x)
    # Refused before any sweep, not after the 30 r^2 sweep budget runs out.
    m = np.eye(6)
    m[0, 5] = m[5, 0] = nan
    with pytest.raises(EigensolverFailure, match="finite"):
        sc.eigenvalues(el(sc.sym_matrix(6), m))
    with pytest.raises(EigensolverFailure, match="finite"):
        sc.distance(el(S2, [[nan, 0.0], [0.0, 1.0]]), S2.identity())


@pytest.mark.parametrize("descriptor, coords", [
    (sc.orthant(3), [math.nan, 1.0, 1.0]),
    (sc.orthant(3), [1.0, 1.0, math.nan]),
    (S2, [[math.nan, 0.0], [0.0, 1.0]]),
    (S2, [[1.0, 0.0], [0.0, math.nan]]),
    (S2, [[1.0, math.nan], [math.nan, 1.0]]),
    (P3, [math.nan, 0.0, 0.0]),
    (P3, [2.0, math.nan, 0.0]),
])
def test_nan_coordinate_never_in_cone(descriptor, coords):
    x = el(descriptor, coords)
    try:
        inside = sc.in_cone(x)
    except EigensolverFailure:
        return
    assert inside is False


# ---------------------------------------------------------------------------
# spectral readers
# ---------------------------------------------------------------------------

def _fresh(x):
    return sc.Element(x.algebra, x.coords)


def test_sym_distance_runs_one_eigensolve(monkeypatch):
    rng = SplitMix64(41)
    x = random_cone_element(sc.sym_matrix(4), rng)
    y = random_cone_element(sc.sym_matrix(4), rng)
    calls = count_jacobi(monkeypatch)
    sc.distance(x, y)
    # The eigenvalues of L^{-1} x L^{-T}, where y = L L^T.
    assert calls == [False]


def test_spectral_readers_run_one_eigensolve_each(monkeypatch):
    # Nothing is stored on an element: every reader computes its spectrum.
    x = random_cone_element(sc.sym_matrix(4), SplitMix64(42))
    calls = count_jacobi(monkeypatch)
    for read in (sc.lambda_min, sc.spectral_norm, sc.det, sc.eigenvalues, sc.in_cone):
        calls.clear()
        read(x)
        assert calls == [False]
    calls.clear()
    sc.spectral_decompose(x)
    assert calls == [True]


def test_stored_eigenvalues_read_only(small_algebra):
    # An element stores only its coords, and they stay frozen through a
    # pickle round trip.
    x = random_cone_element(small_algebra, SplitMix64(43))
    back = pickle.loads(pickle.dumps(x))
    assert np.array_equal(back.coords, x.coords)
    with pytest.raises(ValueError):
        back.coords[0] = 1.0


def test_cached_spectra_give_identical_bits(small_algebra):
    rng = SplitMix64(44)
    for _ in range(5):
        x = random_cone_element(small_algebra, rng)
        y = random_cone_element(small_algebra, rng)
        # Read the spectra by the two routes first, eigenvalues only and a
        # full decomposition: equal coords give equal bits either way.
        sc.lambda_min(x)
        sc.spectral_decompose(y)
        assert (sc.eigenvalues(_fresh(x)).tobytes()
                == sc.spectral_decompose(_fresh(x)).eigenvalues.tobytes())
        for a, b in ((x, y), (y, x)):
            cached = sc.distance(a, b)
            fresh = sc.distance(_fresh(a), _fresh(b))
            assert (np.array([cached.lambda_max, cached.lambda_min, cached.distance]).tobytes()
                    == np.array([fresh.lambda_max, fresh.lambda_min, fresh.distance]).tobytes())
        for p in (0.5, -1.0, 3.0):
            assert sc.power(x, p).coords.tobytes() == sc.power(_fresh(x), p).coords.tobytes()
        z = x - 1.5 * y
        sc.spectral_decompose(z)
        assert np.float64(sc.spectral_norm(z)).tobytes() == np.float64(
            sc.spectral_norm(_fresh(z))).tobytes()
    word = mild_word(small_algebra, rng)
    reps = [sc.solve(word, sc.SolveConfig(p=2.0, tol=1e-10, initial=start))
            for start in (x, _fresh(x))]
    assert reps[0].solution.coords.tobytes() == reps[1].solution.coords.tobytes()
    assert reps[0].distance_trace == reps[1].distance_trace


# ---------------------------------------------------------------------------
# power / inverse
# ---------------------------------------------------------------------------

def test_power_examples():
    np.testing.assert_allclose(sc.power(el(O2, [4, 9]), 0.5).coords, [2, 3],
                               atol=1e-15)
    e = sc.sym_matrix(3).identity()
    for p in (-2.0, -0.5, 0.0, 0.5, 3.0):
        np.testing.assert_allclose(sc.power(e, p).coords, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        sc.power(el(S2, [[1, 0], [0, 4]]), -1.0).coords,
        [[1, 0], [0, 0.25]], atol=1e-14)


def test_power_short_circuits():
    x = el(O2, [2, 5])
    assert sc.power(x, 1.0) is x
    np.testing.assert_allclose(sc.power(x, 0.0).coords, [1, 1], atol=0)


def test_power_polynomial_calculus_outside_cone():
    x = el(O2, [-2, 3])
    np.testing.assert_allclose(sc.power(x, 3).coords, [-8, 27], atol=1e-12)
    with pytest.raises(NotInCone):
        sc.power(x, 0.5)
    with pytest.raises(NotInCone):
        sc.power(x, -1)


def test_power_roundtrip(small_algebra):
    rng = SplitMix64(31)
    for p in (-3.0, -2.0, -0.5, 0.5, 2.0, 3.0):
        for _ in range(25):
            x = random_cone_element(small_algebra, rng)
            back = sc.power(sc.power(x, p), 1.0 / p)
            assert sc.spectral_norm(back - x) <= 1e-8 * (1 + sc.spectral_norm(x))


def test_orthant_power_keeps_the_frame_loop_bits():
    # The reduction over the frame's rows against the ordered loop over the
    # same frame, on every family: on cone points, on finite points outside
    # the cone and on signed zeros.  Ranks above 8 would show a pairwise
    # reordering of the sum.
    o6 = sc.orthant(6)
    rng = SplitMix64(43)
    points = [random_cone_element(o6, rng) for _ in range(40)]
    cases = [(x, p) for x in points for p in (-3.0, -0.5, 2.0 / 3.0, 2.0, 0.3)]
    outside = (el(o6, [-2.0, 0.0, 3.0, -0.0, 1.5, -1.0]),
               el(o6, [-0.0, -1.0, -0.0, -2.0, -3.0, -0.5]))
    cases += [(x, p) for x in outside for p in (2.0, 3.0)]
    for r in (2, 6, 12):
        s = sc.sym_matrix(r)
        points = [random_cone_element(s, rng) for _ in range(8)]
        cases += [(x, p) for x in points for p in (-3.0, -0.5, 2.0 / 3.0, 2.0, 0.3)]
        m = rng.normal_matrix(r, r)
        zeros = np.full((r, r), -0.0)
        np.fill_diagonal(zeros, np.resize([-0.0, 2.0, 0.0, -1.0], r))
        outside = (el(s, (m + m.T) / 2.0), el(s, zeros))
        cases += [(x, p) for x in outside for p in (2.0, 3.0)]
    for n in (3, 10):
        q = sc.spin_factor(n)
        points = [random_cone_element(q, rng) for _ in range(8)]
        cases += [(x, p) for x in points for p in (-3.0, -0.5, 2.0 / 3.0, 2.0, 0.3)]
        outside = (el(q, rng.normals(n)), el(q, np.resize([-0.0, 0.0, -0.0, 1.5], n)),
                   el(q, np.resize([-0.0, 0.0], n)))
        cases += [(x, p) for x in outside for p in (2.0, 3.0)]
    for x, p in cases:
        dec = sc.spectral_decompose(x)
        want = frame_loop_power(dec.eigenvalues, dec.frame_coords, p)
        assert sc.power(x, p).coords.tobytes() == want.tobytes()


def test_orthant_and_spin_frames_keep_the_bits_of_their_first_construction():
    # The orthant frame indexes a cached identity and the spin frame is
    # written into one array; both against the np.eye and concatenate
    # constructions they replaced, with ties, signed zeros and NaN.
    rng = SplitMix64(45)
    for x in ([3.0, 1.0, 3.0, -0.0, 0.0, 2.0], [math.nan, 1.0, -1.0, 1.0],
              rng.normals(9)):
        x = np.asarray(x, dtype=float)
        order = np.argsort(-x, kind="stable")
        assert algebra._descending_order(x).tobytes() == order.tobytes()
        eigs, frame = algebra._ORTHANT_KERNEL.decompose(x)
        assert eigs.tobytes() == x[order].tobytes()
        assert frame.tobytes() == np.eye(x.shape[0])[order].tobytes()
        assert frame.flags.writeable
    assert not algebra._unit_rows(9).flags.writeable
    for x in ([2.0, 0.0, -0.0, 0.0], [1.0, math.nan, 0.5], [-0.0, 0.0],
              rng.normals(10), 1e-300 * rng.normals(5)):
        x = np.asarray(x, dtype=float)
        nrm = math.hypot(*x[1:].tolist())
        u = x[1:] / nrm if nrm != 0.0 else np.eye(x.shape[0] - 1)[0]
        want = 0.5 * np.array([np.concatenate(([1.0], u)), np.concatenate(([1.0], -u))])
        assert algebra._SPIN_KERNEL.decompose(x)[1].tobytes() == want.tobytes()


def test_sym_power_vs_eigh_functional_calculus():
    s4 = sc.sym_matrix(4)
    rng = SplitMix64(37)
    for p in (-1.0, -0.5, 0.5, 2.0):
        for _ in range(25):
            x = random_cone_element(s4, rng)
            lam, vecs = np.linalg.eigh(x.coords)
            ref = (vecs * lam ** p) @ vecs.T
            got = sc.power(x, p).coords
            assert np.max(np.abs(got - ref)) <= 1e-10 * (1 + np.max(np.abs(ref)))


def test_inverse():
    np.testing.assert_allclose(sc.inverse(el(O2, [2, 4])).coords, [0.5, 0.25],
                               atol=1e-15)
    np.testing.assert_allclose(sc.inverse(P3.identity()).coords, [1, 0, 0],
                               atol=1e-15)
    np.testing.assert_allclose(sc.inverse(el(P3, [2, 1, 0])).coords,
                               [2 / 3, -1 / 3, 0], atol=1e-14)


def test_inverse_involution(small_algebra):
    rng = SplitMix64(47)
    for _ in range(50):
        x = random_cone_element(small_algebra, rng)
        assert sc.spectral_norm(sc.inverse(sc.inverse(x)) - x) <= 1e-10 * (
            1 + sc.spectral_norm(x))


# ---------------------------------------------------------------------------
# det / tr / spectral norm / cone membership
# ---------------------------------------------------------------------------

def test_det_tr_examples():
    x = el(sc.orthant(3), [3, 1, 2])
    assert sc.det(x) == 6 and sc.tr(x) == 6
    y = el(S2, [[2, 1], [1, 2]])
    assert abs(sc.det(y) - 3) <= 1e-12 and sc.tr(y) == 4
    z = el(P3, [2, 1, 0])
    assert sc.det(z) == 3 and sc.tr(z) == 4


def test_sym_det_tr_match_matrix_oracle():
    r = 5
    s = sc.sym_matrix(r)
    rng = SplitMix64(3)
    for _ in range(200):
        m = rng.normal_matrix(r, r)
        x = sc.Element(s, (m + m.T) / 2)
        ref_det = float(np.linalg.det(x.coords))
        ref_tr = float(np.trace(x.coords))
        assert abs(sc.det(x) - ref_det) <= 1e-10 * (1 + abs(ref_det))
        assert abs(sc.tr(x) - ref_tr) <= 1e-10 * (1 + abs(ref_tr))


def test_spectral_norm_examples():
    assert sc.spectral_norm(el(sc.orthant(3), [3, -5, 2])) == 5
    assert sc.spectral_norm(S2.identity()) == 1
    assert abs(sc.spectral_norm(el(S2, [[2, 1], [1, 2]])) - 3) <= 1e-14


def test_in_cone():
    assert sc.in_cone(el(O2, [1, 2]))
    assert not sc.in_cone(el(O2, [1, 0]))
    assert not sc.in_cone(el(P3, [1, 1, 0]))


# ---------------------------------------------------------------------------
# algebra axioms and identities
# ---------------------------------------------------------------------------

def _random_ambient(descriptor, rng):
    x = random_cone_element(descriptor, rng)
    return x - rng.uniform_in(0.0, 2.0) * descriptor.identity()


@pytest.mark.parametrize("descriptor", [sc.orthant(8), sc.sym_matrix(7),
                                        sc.spin_factor(8)])
def test_jordan_axioms(descriptor):
    rng = SplitMix64(101)
    for _ in range(1000):
        x = _random_ambient(descriptor, rng)
        y = _random_ambient(descriptor, rng)
        z = _random_ambient(descriptor, rng)
        scale = (1 + sc.spectral_norm(x)) * (1 + sc.spectral_norm(y)) * (
            1 + sc.spectral_norm(z))
        assert sc.spectral_norm(sc.product(x, y) - sc.product(y, x)) <= 1e-12
        xx = sc.product(x, x)
        lhs = sc.product(x, sc.product(xx, y))
        rhs = sc.product(xx, sc.product(x, y))
        assert sc.spectral_norm(lhs - rhs) <= 1e-10 * scale
        assoc = sc.trace_inner(sc.product(x, y), z) - sc.trace_inner(
            y, sc.product(x, z))
        assert abs(assoc) <= 1e-10 * scale


def test_quad_self_adjoint_in_trace_form(small_algebra):
    rng = SplitMix64(83)
    for _ in range(100):
        x = _random_ambient(small_algebra, rng)
        y = _random_ambient(small_algebra, rng)
        z = _random_ambient(small_algebra, rng)
        scale = (1 + sc.spectral_norm(x)) ** 2 * (1 + sc.spectral_norm(y)) * (
            1 + sc.spectral_norm(z))
        gap = sc.trace_inner(sc.quad(x, y), z) - sc.trace_inner(y, sc.quad(x, z))
        assert abs(gap) <= 1e-10 * scale


def test_det_of_quad_identity(small_algebra):
    rng = SplitMix64(77)
    for _ in range(100):
        a = random_cone_element(small_algebra, rng)
        x = random_cone_element(small_algebra, rng)
        lhs = sc.det(sc.quad(a, x))
        rhs = sc.det(a) ** 2 * sc.det(x)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))


def test_edge_ranks():
    # spin with a 1-dim vector block and a 1x1 matrix algebra
    p2 = sc.spin_factor(2)
    x = el(p2, [3.0, 1.0])
    dec = sc.spectral_decompose(x)
    np.testing.assert_allclose(dec.eigenvalues, [4, 2], atol=0)
    assert sc.spectral_norm(dec.power(1.0) - x) <= 1e-14
    np.testing.assert_allclose(sc.inverse(x).coords, [3 / 8, -1 / 8],
                               atol=1e-15)
    s1 = sc.sym_matrix(1)
    y = el(s1, [[4.0]])
    assert sc.det(y) == 4.0 and sc.tr(y) == 4.0
    np.testing.assert_allclose(sc.power(y, 0.5).coords, [[2.0]], atol=0)
    rng = SplitMix64(99)
    z = random_cone_element(p2, rng)
    assert sc.in_cone(z)


def test_jacobi_against_numpy_eigh():
    rng = SplitMix64(13)
    for r in (2, 3, 6, 9):
        for _ in range(20):
            m = rng.normal_matrix(r, r)
            m = (m + m.T) / 2
            diag, vecs = _jacobi(m, accumulate=True)
            ref = np.linalg.eigvalsh(m)
            assert np.max(np.abs(np.sort(diag) - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))
            recon = (vecs * diag) @ vecs.T
            assert np.max(np.abs(recon - m)) <= 1e-12 * (1 + np.max(np.abs(m)))


def _jacobi_inputs(r, rng):
    """Exactly symmetric matrices of the kinds the kernels and tests feed
    the eigensolver, plus the corner cases of its loop."""
    s = sc.sym_matrix(r)
    x = random_cone_element(s, rng).coords
    y = random_cone_element(s, rng).coords
    yield x
    # The distance's Cholesky congruence L^-1 x L^-T, where y = L L^T.
    upper = algebra._sym_cholesky(y)
    z = algebra._lower_solve(upper, algebra._lower_solve(upper, x).T)
    yield (z + z.T) / 2.0
    m = rng.normal_matrix(r, r)
    yield (m + m.T) / 2.0
    grade = np.logspace(-4.0, 4.0, r)
    yield np.diag(grade * grade)
    yield (m + m.T) / 2.0 * np.outer(grade, grade)
    yield np.eye(r)
    k = r // 2
    yield np.diag([2.0] * k + [1.0] * (r - k))
    q = rng.rotation(r)
    w = (q * ([2.0] * k + [1.0] * (r - k))) @ q.T
    yield (w + w.T) / 2.0
    # Exact zeros off the diagonal, then signed zeros in both triangles.
    sparse = (m + m.T) / 2.0
    sparse[np.add.outer(np.arange(r), np.arange(r)) % 3 == 1] = 0.0
    yield sparse
    signed = np.diag(np.arange(1.0, r + 1.0))
    signed[~np.eye(r, dtype=bool)] = -0.0
    signed[0, 0] = -0.0
    yield signed
    yield np.full((r, r), 1e160)


def test_jacobi_bits_match_the_reference_loop():
    # The rotation writes each off-diagonal pair once; on an exactly
    # symmetric input it must give the separate row and column passes'
    # bits, eigenvectors included.
    rng = SplitMix64(17)
    for r in range(1, 21):
        for m in _jacobi_inputs(r, rng):
            assert m.tobytes() == m.T.tobytes()
            for accumulate in (False, True):
                diag, vecs = _jacobi(m, accumulate)
                ref_diag, ref_vecs = reference_jacobi(m, accumulate)
                assert diag.tobytes() == ref_diag.tobytes()
                if accumulate:
                    assert vecs.tobytes() == ref_vecs.tobytes()
                else:
                    assert vecs is None and ref_vecs is None


def test_jacobi_bits_match_the_reference_loop_at_extreme_scales():
    rng = SplitMix64(19)
    for r in (2, 6):
        for m in _jacobi_inputs(r, rng):
            for scale in (1e-300, 1e-170, 1e-17, 1e17):
                for accumulate in (False, True):
                    diag, vecs = _jacobi(scale * m, accumulate)
                    ref_diag, ref_vecs = reference_jacobi(scale * m, accumulate)
                    assert diag.tobytes() == ref_diag.tobytes()
                    if accumulate:
                        assert vecs.tobytes() == ref_vecs.tobytes()


def test_sym_ingestion_keeps_symmetric_bits():
    s1 = sc.sym_matrix(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # x + x^T would overflow this to inf.
        assert el(s1, [[1.5e308]]).coords.tolist() == [[1.5e308]]
        # x - x^T of an infinite entry is NaN, with a warning.
        x = el(S2, [[math.inf, 0.0], [0.0, 1.0]])
        assert x.coords.tolist() == [[math.inf, 0.0], [0.0, 1.0]]
        signed = el(S2, [[-0.0, -0.0], [-0.0, 1.0]])
        assert np.signbit(signed.coords).tolist() == [[True, True], [True, False]]
    # A near-symmetric input is still averaged with its transpose.
    m = np.array([[1.0, 0.1 + 1e-16], [0.1, 3.0]])
    x = el(S2, m)
    assert x.coords.tobytes() == ((m + m.T) / 2.0).tobytes()
    assert x.coords[0, 1] == x.coords[1, 0]
    # The caller's array is copied, never aliased or frozen.
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = sc.Element(S2, m)
    assert not np.shares_memory(x.coords, m) and m.flags.writeable
    m[0, 0] = 5.0
    assert x.coords[0, 0] == 2.0

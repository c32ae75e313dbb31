import hashlib
import math
import warnings

import numpy as np
import pytest

import symcone as sc
from symcone import algebra, metric, suites
from symcone.errors import AlgebraMismatch, EigensolverFailure, EigenvalueOverflow, NotInCone
from symcone.rng import SplitMix64
from symcone.transforms import random_cone_element

import conftest
from conftest import el

O2 = sc.orthant(2)


def _pencil_eigvalsh(x, y):
    """Generalized eigenvalues of the pencil (x, y), ascending, by LAPACK:
    the eigenvalues of L^-1 x L^-T, where y = L L^T."""
    linv = np.linalg.inv(np.linalg.cholesky(y))
    z = linv @ x @ linv.T
    return np.linalg.eigvalsh((z + z.T) / 2.0)


def _spin_as_sym2(x, basis):
    """x in R x span(basis) as a 2x2 matrix: x0 I + a sigma_x + b sigma_z.

    This is a Jordan isomorphism from that spin:3 subalgebra onto Sym(2):
    it keeps products, traces and so the eigenvalues x0 +- sqrt(a^2 + b^2).
    """
    a, b = basis @ x[1:]
    return np.array([[x[0] + b, a], [a, x[0] - b]])


def test_lambda_extremes_sym_vs_generalized_eig():
    # Independent route: l_max, l_min are the extreme generalized
    # eigenvalues of the pencil (x, y), via LAPACK instead of the
    # package's own Cholesky + Jacobi path.
    s5 = sc.sym_matrix(5)
    rng = SplitMix64(1)
    for _ in range(100):
        x = random_cone_element(s5, rng)
        y = random_cone_element(s5, rng)
        lam_max, lam_min = sc.lambda_extremes(x, y)
        ref = _pencil_eigvalsh(x.coords, y.coords)
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
    # With both outside, x is named first, in every family.
    s2 = sc.sym_matrix(2)
    p3 = sc.spin_factor(3)
    for x, y in ((el(O2, [1, 0]), el(O2, [-1, 1])),
                 (el(s2, [[1, 0], [0, -1]]), el(s2, [[-1, 0], [0, 1]])),
                 (el(p3, [1, 2, 0]), el(p3, [1, 0, 3]))):
        with pytest.raises(NotInCone, match="^x "):
            sc.distance(x, y)
        with pytest.raises(NotInCone, match="^y "):
            sc.distance(y.algebra.identity(), y)


def test_spin_y_with_infinite_vector_part_warns_nothing():
    p3 = sc.spin_factor(3)
    y = el(p3, [1.0, math.inf, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotInCone, match="^y "):
            sc.distance(p3.identity(), y)


@pytest.mark.parametrize("name, x, y", [
    ("y", [1.0, 1.0], [math.inf, 1.0]),
    ("x", [math.inf, 1.0], [1.0, 1.0]),
    ("x", [math.inf, 1.0], [math.inf, 1.0]),
    ("y", [1.0, 0.0, 0.0], [math.inf, 0.0, 0.0]),
    ("x", [math.inf, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ("x", [1.0, math.inf, 0.0], [1.0, 0.0, 0.0]),
], ids=["orthant-y", "orthant-x", "orthant-both", "spin-y", "spin-x-head",
        "spin-x-tail"])
def test_infinite_argument_is_named_without_warnings(name, x, y):
    # Orthant pairs have two coordinates, spin:3 pairs three.  An infinite
    # coordinate can pass the kernel's cone tests; it must not give an inf
    # distance, blame the other argument or warn from inf * 0.
    d = sc.orthant(2) if len(x) == 2 else sc.spin_factor(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotInCone, match=f"^{name} "):
            sc.distance(el(d, x), el(d, y))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sym_argument_is_an_eigensolver_failure(bad):
    s3 = sc.sym_matrix(3)
    good = 2.0 * s3.identity()
    for i, j in ((0, 0), (0, 2)):
        m = np.eye(3)
        m[i, j] = m[j, i] = bad
        with pytest.raises(EigensolverFailure, match="finite"):
            sc.distance(el(s3, m), good)
        with pytest.raises(EigensolverFailure, match="finite"):
            sc.distance(good, el(s3, m))


def test_orthant_distance_to_itself_is_exactly_zero():
    rng = SplitMix64(8)
    for n in (1, 2, 5, 8):
        for _ in range(20):
            x = random_cone_element(sc.orthant(n), rng)
            assert sc.distance(x, x).distance == 0.0


def _diagonally_dominant(r, rng):
    # Built entry by entry, so the inputs involve no BLAS call.
    m = np.zeros((r, r))
    for i in range(r):
        m[i, i] = r + rng.uniform()
        for j in range(i + 1, r):
            m[i, j] = m[j, i] = rng.uniform_in(-1.0, 1.0)
    return m


def test_sym_distance_bits_are_pinned():
    # The sha256 of (lambda_max, lambda_min, distance) over 60 fixed sym
    # pairs.  The sym distance does not go through P(a)x, so the closed-form
    # quad left these bits alone; a change that means to move them updates
    # the digest and says so.
    rng = SplitMix64(2024)
    digest = hashlib.sha256()
    for r in (2, 3, 4):
        s = sc.sym_matrix(r)
        for _ in range(20):
            x = el(s, _diagonally_dominant(r, rng))
            y = el(s, _diagonally_dominant(r, rng))
            rep = sc.distance(x, y)
            digest.update(np.array([rep.lambda_max, rep.lambda_min, rep.distance]).tobytes())
    assert digest.hexdigest() == (
        "26714be3a7d9230790e4f83e81701189b9901ed2b1f1ac808eba6e5b8e8a347c")


@pytest.mark.parametrize("descriptor", [sc.sym_matrix(2), sc.sym_matrix(6),
                                        sc.sym_matrix(12), sc.spin_factor(3),
                                        sc.spin_factor(10)])
def test_distance_against_congruence_eigvalsh(descriptor):
    # LAPACK on L^-1 x L^-T with y = L L^T; a spin pair is carried into
    # Sym(2) through the spin:3 subalgebra spanned by e, xbar and ybar.
    rng = SplitMix64(9)
    for _ in range(20):
        x = random_cone_element(descriptor, rng)
        y = random_cone_element(descriptor, rng)
        assert sc.distance(x, x).distance <= 1e-14
        xc, yc = x.coords, y.coords
        if descriptor.kind == "spin":
            basis = np.linalg.qr(np.column_stack([xc[1:], yc[1:]]))[0].T
            xc, yc = _spin_as_sym2(xc, basis), _spin_as_sym2(yc, basis)
        ref = _pencil_eigvalsh(xc, yc)
        assert abs(sc.distance(x, y).distance - math.log(ref[-1] / ref[0])) <= 1e-12


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
    # A NaN or infinite tol ran no bisection and returned the midpoint of
    # the initial bracket; a fractional samples count failed in range().
    for tol in (0.0, -1e-8, math.nan, math.inf, True, "1e-8", None):
        with pytest.raises(ValueError, match="tol"):
            sc.upper_bound_oracle(x, y, tol)
    s3 = sc.sym_matrix(3)
    rng = SplitMix64(3)
    u, v = random_cone_element(s3, rng), random_cone_element(s3, rng)
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            sc.upper_bound_oracle(u, v, tol)
    for samples in (0, -3, 2.5, 2.0, True, math.nan, "4", None):
        with pytest.raises(ValueError, match="samples"):
            sc.rayleigh_oracle(u, v, samples, 1)
    assert sc.rayleigh_oracle(u, v, np.int64(4), 1) == sc.rayleigh_oracle(u, v, 4, 1)


def test_upper_bound_oracle_stops_at_adjacent_floats():
    # tol is below the float spacing at lambda_max = 100, so hi - lo can
    # never reach it: the bisection ends when lo and hi are adjacent.
    got = sc.upper_bound_oracle(el(O2, [100, 1]), O2.identity(), 1e-15)
    assert abs(got - 100.0) <= np.spacing(100.0)


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


def test_rayleigh_oracle_checks_the_algebra():
    # Spin coordinates must not be read as orthant ones.
    x = el(sc.orthant(3), [3, 1, 1])
    y = el(sc.spin_factor(3), [3, 1, 1])
    with pytest.raises(AlgebraMismatch):
        sc.rayleigh_oracle(x, y, 10, 1)


def test_upper_bound_oracle_checks_the_algebra():
    # Spin coordinates must not be read as orthant ones.
    x = el(sc.orthant(3), [3, 1, 1])
    y = el(sc.spin_factor(3), [3, 1, 1])
    with pytest.raises(AlgebraMismatch):
        sc.upper_bound_oracle(x, y, 1e-8)
    # Coordinates of different shapes: no numpy broadcasting error.
    with pytest.raises(AlgebraMismatch):
        sc.upper_bound_oracle(el(sc.orthant(4), [3, 1, 1, 1]),
                              sc.sym_matrix(2).identity(), 1e-8)


def test_rayleigh_oracle_validates_samples():
    x = el(O2, [1, 2])
    with pytest.raises(ValueError):
        sc.rayleigh_oracle(x, x, 0, 1)


ORACLE_ALGEBRAS = (sc.orthant(8), sc.sym_matrix(2), sc.sym_matrix(6),
                   sc.spin_factor(3), sc.spin_factor(10))


def _algebra_id(descriptor):
    return f"{descriptor.kind}{descriptor.param}"


# In the cone, with finite coordinates, but with a largest eigenvalue
# beyond the float range: x0 + ||xbar|| on spin:3, 2.5e308 on sym:2.
_SPIN_OVERFLOWING = el(sc.spin_factor(3), [1.5e308, 1e308, 0.0])
_SYM_OVERFLOWING = el(sc.sym_matrix(2), [[1.5e308, 1e308], [1e308, 1.5e308]])
# The same on sym:3, with entries small enough that L^{-1} x L^{-T} stays
# finite for y = e.
_SYM3_OVERFLOWING = el(sc.sym_matrix(3), conftest.OVERFLOWING_EIGENVALUE)


@pytest.mark.parametrize("call, message", [
    (lambda: sc.normalize(_SPIN_OVERFLOWING), "^cannot normalize x"),
    (lambda: sc.distance(_SPIN_OVERFLOWING, _SPIN_OVERFLOWING.algebra.identity()), "^x "),
    (lambda: sc.distance(_SPIN_OVERFLOWING.algebra.identity(), _SPIN_OVERFLOWING), "^y "),
    (lambda: sc.distance(_SYM_OVERFLOWING, _SYM_OVERFLOWING.algebra.identity()), "^x "),
    (lambda: sc.distance(_SYM3_OVERFLOWING, _SYM3_OVERFLOWING.algebra.identity()), "^x "),
    (lambda: sc.normalize(_SYM_OVERFLOWING), "overflows"),
], ids=["spin-normalize", "spin-x", "spin-y", "sym-x", "sym-x-finite-z", "sym-normalize"])
def test_an_argument_whose_largest_eigenvalue_overflows_is_named(call, message):
    # The spin normalize returned [0, 0, 0].  The spin distances blamed the
    # other argument with NotInCone, d(x, e) after an "invalid value"
    # warning; the sym distance warned "overflow encountered in add" and
    # raised the Jacobi's "needs finite entries", and on sym:3 the Jacobi's
    # "Jacobi overflows", which named no argument.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenvalueOverflow, match=message):
            call()


@pytest.mark.parametrize("overflowing", [_SPIN_OVERFLOWING, _SYM_OVERFLOWING, _SYM3_OVERFLOWING],
                         ids=["spin", "sym", "sym3"])
def test_a_batch_row_whose_largest_eigenvalue_overflows_reads_inf(overflowing):
    # As its own call reads it, with no warning: the fault is x's, not y's,
    # so the row reads inf, and the batch distances of the contraction
    # suites name x from it as distance does.
    descriptor = overflowing.algebra
    kernel = descriptor.kernel
    e = descriptor.identity().coords
    xs, ys = np.stack([2.0 * e, overflowing.coords]), np.stack([e, e])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rel = kernel.relative_eigenvalues(xs, ys)
        singles = [kernel.relative_eigenvalues(x, y) for x, y in zip(xs, ys)]
        with pytest.raises(EigenvalueOverflow, match="^x "):
            metric._row_distances(descriptor, xs, ys)
    assert rel.tobytes() == np.array(singles).tobytes()
    assert (rel[1] == np.inf).all()


@pytest.mark.parametrize("case", sorted(conftest.RELATIVE_SPECTRUM_OUT_OF_RANGE))
def test_a_relative_spectrum_beyond_the_float_range_is_named(case):
    # The orthant overflow warned "overflow encountered in divide" and gave
    # d = inf; the sym one raised NotInCone for y; the spin one warned
    # "invalid value" in _spin_quad, then blamed y; each underflow blamed x.
    descriptor, x, y = conftest.RELATIVE_SPECTRUM_OUT_OF_RANGE[case]
    x, y = el(descriptor, x), el(descriptor, y)
    kernel = descriptor.kernel
    e = descriptor.identity().coords
    xs, ys = np.stack([2.0 * e, x.coords]), np.stack([e, y.coords])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigenvalueOverflow, match=r"^P\(y\^\(-1/2\)\)x has an eigenvalue"):
            sc.distance(x, y)
        with pytest.raises(EigenvalueOverflow, match=r"^P\(y"):
            metric._row_distances(descriptor, xs, ys)
        rel = kernel.relative_eigenvalues(xs, ys)
        singles = [kernel.relative_eigenvalues(x, y) for x, y in zip(xs, ys)]
    # The batch row reads as its own call: inf where the spectrum
    # overflowed, 0 where its least eigenvalue underflowed.
    assert rel.tobytes() == np.array(singles).tobytes()
    if case.endswith("overflow"):
        assert rel[1, 0] == math.inf
    else:
        assert rel[1, -1] == 0.0


def test_a_sym_y_at_the_rounding_edge_of_the_cone_is_named():
    # Jacobi finds y's least eigenvalue, 1.1e-16, positive, but its
    # Cholesky factorisation fails: y sits at the rounding edge, and not
    # beyond the float range.
    s2 = sc.sym_matrix(2)
    y = el(s2, [[1.0, 0.9], [0.9, 0.81]])
    assert 0.0 < sc.lambda_min(y) < 1e-15
    assert np.isnan(s2.kernel.relative_eigenvalues(s2.identity().coords, y.coords)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotInCone, match="^y is not in the open cone"):
            sc.distance(s2.identity(), y)


def _embed(descriptor, coords):
    """The coords of a smaller algebra of the same kind, padded with the
    entries of descriptor's unit element (block diagonal on sym)."""
    coords = np.asarray(coords, dtype=float)
    out = descriptor.identity().coords.copy()
    out[tuple(slice(k) for k in coords.shape)] = coords
    return out


# Per algebra, the x whose largest eigenvalue overflows.  On the orthant an
# eigenvalue is an entry, so only an infinite entry, the "x-infinite" row,
# overflows.
_OVERFLOWING_X = {x.algebra: x.coords
                  for x in (_SPIN_OVERFLOWING, _SYM_OVERFLOWING, _SYM3_OVERFLOWING)}


def _one_rule_rows(descriptor):
    """(label, x, y, what the row reads) for good pairs and every kind of
    failing pair: "nan" where y fails the kernel's cone test, "inf" where
    another eigenvalue is not finite, "finite" otherwise."""
    e = descriptor.identity().coords
    rng = SplitMix64(7)
    rows = [("good", 2.0 * e, e, "finite"),
            ("good-random", random_cone_element(descriptor, rng).coords,
             random_cone_element(descriptor, rng).coords, "finite"),
            ("y-outside", e, -e, "nan"),
            ("x-outside", -e, e, "finite")]
    infinite = e.copy()
    infinite.flat[0] = math.inf
    rows.append(("x-infinite", infinite, e, "inf"))
    if descriptor in _OVERFLOWING_X:
        rows.append(("x-overflow", _OVERFLOWING_X[descriptor], e, "inf"))
    for case, (case_descriptor, x, y) in sorted(conftest.RELATIVE_SPECTRUM_OUT_OF_RANGE.items()):
        if case_descriptor.kind == descriptor.kind:
            reads = "inf" if case.endswith("overflow") else "finite"
            rows.append((case, _embed(descriptor, x), _embed(descriptor, y), reads))
    if descriptor.kind == algebra.SYM:
        edge = _embed(descriptor, [[1.0, 0.9], [0.9, 0.81]])
        rows.append(("y-rounding-edge", e, edge, "nan"))
    return rows


def _counting_descriptor(descriptor, calls):
    """descriptor with a kernel whose relative_eigenvalues appends the
    number of rows of each call to calls."""
    kernel = descriptor.kernel

    def relative_eigenvalues(x, y):
        calls.append(len(x))
        return kernel.relative_eigenvalues(x, y)

    counted = sc.AlgebraDescriptor(descriptor.kind, descriptor.param)
    object.__setattr__(counted, "kernel",
                       kernel._replace(relative_eigenvalues=relative_eigenvalues))
    return counted


def _error(call):
    """(class, message) of the exception call raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("descriptor", [sc.orthant(3), sc.spin_factor(3), sc.sym_matrix(2),
                                        sc.sym_matrix(3)], ids=_algebra_id)
def test_a_relative_spectrum_reads_nan_only_where_y_fails_its_cone_test(descriptor):
    kernel = descriptor.kernel
    rows = _one_rule_rows(descriptor)
    labels = [label for label, _, _, _ in rows]
    xs = np.stack([x for _, x, _, _ in rows])
    ys = np.stack([y for _, _, y, _ in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rel = kernel.relative_eigenvalues(xs, ys)
        singles = [kernel.relative_eigenvalues(x, y) for x, y in zip(xs, ys)]
        # Each row has the bits of its own call.
        assert rel.tobytes() == np.array(singles).tobytes()
        # All NaN where y fails the cone test, all inf on every other
        # non-finite row.
        for label, row, (_, _, _, reads) in zip(labels, rel, rows):
            read = ("nan" if np.isnan(row).all() else "inf" if (row == np.inf).all()
                    else "finite" if np.isfinite(row).all() else "mixed")
            assert read == reads, label
        # A failing row raises, from the one kernel call, what distance
        # raises on its pair; a whole batch, what its first failing row does.
        failing = [i for i, row in enumerate(rel) if not (row[-1] > 0.0 and row[0] < math.inf)]
        assert [labels[i] for i in failing] == [
            label for label in labels if not label.startswith("good")]
        for picked in [[0, 1, i, 0] for i in failing] + [list(range(len(rows)))]:
            first = next(i for i in picked if i in failing)
            want = _error(lambda: sc.distance(el(descriptor, xs[first]), el(descriptor, ys[first])))
            calls = []
            counted = _counting_descriptor(descriptor, calls)
            got = _error(lambda: metric._row_distances(counted, xs[picked], ys[picked]))
            assert got == want, labels[first]
            assert calls == [len(picked)]


def _bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("descriptor", ORACLE_ALGEBRAS, ids=_algebra_id)
def test_upper_bound_oracle_matches_the_element_loop(descriptor):
    rng = SplitMix64(31)
    pairs = [(descriptor.identity(), descriptor.identity())]
    for _ in range(8):
        pairs.append((random_cone_element(descriptor, rng),
                      random_cone_element(descriptor, rng)))
    for x, y in pairs:
        # 1e-15 ends at the adjacent-float stop.
        for tol in (1e-8, 1e-13, 1e-15):
            assert _bits(sc.upper_bound_oracle(x, y, tol)) == _bits(
                conftest.element_bisection(x, y, tol))


def test_upper_bound_oracle_solves_y_once(monkeypatch):
    # The cone test of y gives the least eigenvalue of the bracket; the
    # oracle solved y a second time for it.
    s3 = sc.sym_matrix(3)
    rng = SplitMix64(37)
    x, y = random_cone_element(s3, rng), random_cone_element(s3, rng)
    solved = []
    jacobi = algebra._jacobi

    def recorded(matrix, start=None):
        solved.append(matrix.tobytes())
        return jacobi(matrix, start)

    monkeypatch.setattr(algebra, "_jacobi", recorded)
    sc.upper_bound_oracle(x, y, 1e-8)
    assert solved.count(x.coords.tobytes()) == 1
    assert solved.count(y.coords.tobytes()) == 1


def _diagonal_pairs(xs, ys):
    """The pair (x, y) on orthant:2 and as diagonal matrices on sym:2."""
    s2 = sc.sym_matrix(2)
    return [(el(O2, xs), el(O2, ys)),
            (el(s2, np.diag(xs)), el(s2, np.diag(ys)))]


def test_upper_bound_oracle_brackets_past_an_overflowing_bound():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # tr(x) / l_min(y) + 1 = 1 / 1e-310 + 1 overflows: the first
        # midpoint was inf, the adjacent-float stop fired and the oracle
        # returned inf where l_max is 1e10.
        for x, y in _diagonal_pairs([1, 1e-300], [1, 1e-310]):
            lam_max, _ = sc.lambda_extremes(x, y)
            assert conftest.element_bisection(x, y, 1e-8) == math.inf
            # tol is below the float spacing at 1e10: the adjacent-float stop.
            got = sc.upper_bound_oracle(x, y, 1e-8)
            assert abs(got - lam_max) <= 2 * np.spacing(lam_max)
            got = sc.upper_bound_oracle(x, y, 1e-3 * lam_max)
            assert abs(got - lam_max) <= 1e-3 * lam_max
        # l_max is 1e10 again, but 1e300 * lam overflows from lam = 2^34
        # on, where the doubling still runs; and with tr(x) / l_min(y) + 1
        # = 2e10 finite, at the first midpoint.  Both read the sign from
        # y - x/lam there.  x/lam lands on subnormals, hence the looser bound.
        for xs, ys in [([1, 1e-299], [1e300, 1e-309]), ([1, 1], [1e300, 1e-10])]:
            for x, y in _diagonal_pairs(xs, ys):
                lam_max, _ = sc.lambda_extremes(x, y)
                got = sc.upper_bound_oracle(x, y, 1e-8)
                assert abs(got - lam_max) <= 1e-13 * lam_max
        # An l_max past the largest double reads as inf.
        for xs, ys in [([1, 1e300], [1, 1e-300]), ([1, 1], [2, 1e-310])]:
            for x, y in _diagonal_pairs(xs, ys):
                assert sc.upper_bound_oracle(x, y, 1e-8) == math.inf


@pytest.mark.parametrize("descriptor", ORACLE_ALGEBRAS[1:], ids=_algebra_id)
def test_block_rayleigh_ratios_match_the_reference_loop(descriptor):
    rng = SplitMix64(33)
    for seed in range(10):
        x = random_cone_element(descriptor, rng)
        y = random_cone_element(descriptor, rng)
        gen, ref = SplitMix64(seed), SplitMix64(seed)
        got = descriptor.kernel.rayleigh_ratios(x.coords, y.coords, 64, gen)
        want = conftest.rayleigh_loop(x, y, 64, ref)
        assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()
        # The next draw is the same: the block took the loop's normals.
        assert gen.normal() == ref.normal()


@pytest.mark.parametrize("descriptor", [sc.sym_matrix(3), sc.spin_factor(4)], ids=_algebra_id)
def test_rayleigh_ratios_redraw_a_zero_unit_vector(descriptor):
    # The first unit vector's three normals are zeros: its row is redrawn,
    # as unit_vector redraws it, where a division by its norm gave NaN.
    rng = SplitMix64(35)
    x = random_cone_element(descriptor, rng)
    y = random_cone_element(descriptor, rng)
    gen = conftest.ZeroedNormals(9, 0, 3)
    ref = conftest.ZeroedNormals(9, 0, 3)
    got = descriptor.kernel.rayleigh_ratios(x.coords, y.coords, 8, gen)
    want = conftest.rayleigh_loop(x, y, 8, ref)
    assert np.isfinite(got).all()
    assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()
    assert gen.drawn == ref.drawn == 27


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
        inv_max, inv_min = sc.lambda_extremes(sc.power(x, -1.0), sc.power(y, -1.0))
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


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-17, 1e17, 1e170, 1e300])
@pytest.mark.parametrize(
    "descriptor",
    [sc.sym_matrix(2), sc.sym_matrix(6), sc.spin_factor(3), sc.spin_factor(10)],
    ids=["sym2", "sym6", "spin3", "spin10"])
def test_sym_distance_is_projective_at_extreme_scales(descriptor, scale):
    # The relative spectrum of scale * x is that of x times scale, and that
    # of x over scale * y is that of x over y divided by scale, however far
    # below or above norm 1 they lie.
    rng = SplitMix64(21)
    for _ in range(10):
        x = random_cone_element(descriptor, rng)
        y = random_cone_element(descriptor, rng)
        d = sc.distance(x, y).distance
        assert abs(sc.distance(scale * x, y).distance - d) <= 1e-12 * d
        assert abs(sc.distance(x, scale * y).distance - d) <= 1e-12 * d


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

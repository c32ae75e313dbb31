import math

import numpy as np
import pytest

import symcone as sc
from symcone import algebra
from symcone.transforms import random_word


def el(descriptor, values):
    return sc.Element(descriptor, np.asarray(values, dtype=float))


def count_jacobi(monkeypatch):
    """Record the ``accumulate`` flag of every Jacobi eigensolve from now on."""
    calls = []
    jacobi = algebra._jacobi

    def counted(matrix, accumulate):
        calls.append(accumulate)
        return jacobi(matrix, accumulate)

    monkeypatch.setattr(algebra, "_jacobi", counted)
    return calls


def three_product_quad(a, x):
    """Reference P(a)x = 2 a o (a o x) - (a o a) o x, from the Jordan product."""
    return 2.0 * sc.product(a, sc.product(a, x)) - sc.product(sc.product(a, a), x)


def frame_loop_power(eigenvalues, frame, p):
    """Reference sum_j l_j^p c_j: an ordered loop over the frame's rows."""
    coords = np.zeros(frame[0].shape)
    for lam, c in zip(np.power(eigenvalues, p), frame):
        coords += lam * c
    return coords


def mild_word(descriptor, rng, sigma=0.5):
    """Random word with conditioning bounded for fixed-point instances.

    The solver's distance-based stop rule needs the computed Hilbert step
    to resolve tol*(1 - 1/|p|); the step's fp noise grows with the
    conditioning of the fixed point, which p = 1.5 amplifies as the 4th
    power of the word's stretch.  Factors stay within e^{+/-sigma}.
    """
    return random_word(descriptor, rng, lo=math.exp(-sigma), hi=math.exp(sigma))


def banach_iteration_bound(first_step, p, tol):
    """A-priori iteration count of the solver's stop rule, from its first step.

    Each step is at most 1/|p| times the one before, so the rule
    d_k <= tol * (1 - 1/|p|) holds once |p|^k reaches first_step over that
    threshold.
    """
    threshold = tol * (1.0 - 1.0 / abs(p))
    if first_step <= threshold:
        return 2
    return math.ceil(math.log(first_step / threshold) / math.log(abs(p))) + 2


def inverse_word(word):
    """The word of the inverse map: each factor inverted, in reverse order.

    A congruence factor is inverted by LAPACK, which serves as an oracle
    here; the package itself has no inverse word.
    """
    inv = []
    for f in reversed(word.factors):
        if isinstance(f, sc.Scalar):
            inv.append(sc.Scalar(1.0 / f.mu))
        elif isinstance(f, sc.Quad):
            inv.append(sc.Quad(sc.inverse(f.a)))
        elif isinstance(f, sc.Congruence):
            inv.append(sc.Congruence(np.linalg.inv(f.t)))
        else:
            inv.append(sc.Permutation(tuple(np.argsort(f.sigma))))
    return sc.AutomorphismWord(word.algebra, tuple(inv))


@pytest.fixture(params=["orthant", "sym", "spin"])
def small_algebra(request):
    return {
        "orthant": sc.orthant(5),
        "sym": sc.sym_matrix(4),
        "spin": sc.spin_factor(5),
    }[request.param]


# Sizes used by the acceptance sweeps.
ACCEPTANCE_ALGEBRAS = (sc.orthant(8), sc.sym_matrix(6), sc.spin_factor(10))

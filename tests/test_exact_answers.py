"""Solutions checked against answers known in closed form.

The references run no package code: they read the factors of the word and
compute the exact answer x* with the stdlib (``math`` on the orthant,
``decimal`` at 60 digits on spin), and the Hilbert distance of the
solver's answer from it the same way.  The residual the solver reports is
blind to the small eigenvalues; the distance is not.
"""

import decimal
import math

import pytest

import symcone as sc
from symcone.rng import SplitMix64

from conftest import mild_word

PS = (-3.0, -2.0, 1.5, 2.0, 3.0)

# The stop rule puts the direction within the default tol = 1e-12 of the
# fixed one.  Before the orthant and spin steps moved into their kernels the
# worst distances measured here were 5.8e-13 (orthant cycles), 6.5e-13
# (orthant quads) and 6.5e-13 (spin:10 quads), each at p = 1.5.
BOUND = 1e-12


def orthant_log_answer(word, p):
    """log x* for an orthant word g(x) = d * x[pi], entry by entry.

    g(x) = x^p reads p y_i - y_pi(i) = log d_i in y = log x.  Along a cycle
    i_0 -> i_1 = pi(i_0) -> ... of length L, y_i0 = sum_k p^-(k+1)
    log d_ik / (1 - p^-L).
    """
    n = word.algebra.param
    logs = [[] for _ in range(n)]  # the terms of log d_i
    pi = list(range(n))
    for f in word.factors:
        if isinstance(f, sc.Scalar):
            for terms in logs:
                terms.append(math.log(f.mu))
        elif isinstance(f, sc.Quad):
            for terms, a in zip(logs, f.a.coords.tolist()):
                terms.append(2.0 * math.log(a))
        else:  # out = out[sigma]
            logs = [logs[s] for s in f.sigma]
            pi = [pi[s] for s in f.sigma]
    log_d = [math.fsum(terms) for terms in logs]
    y = [0.0] * n
    for start in range(n):
        cycle = [start]
        while pi[cycle[-1]] != start:
            cycle.append(pi[cycle[-1]])
        y[start] = math.fsum(log_d[i] * p ** -(k + 1) for k, i in enumerate(cycle)) / (
            1.0 - p ** -len(cycle))
    return y


def orthant_distance(solution, log_answer):
    """Hilbert distance on the orthant: the spread of log(s_i / x*_i)."""
    gaps = [math.log(s) - y for s, y in zip(solution.coords.tolist(), log_answer)]
    return max(gaps) - min(gaps)


def scalars_and_quad(word):
    """(mu, a) of a word of scalars and one Quad(a): g = mu P(a)."""
    quads = [f.a for f in word.factors if isinstance(f, sc.Quad)]
    scalars = [f.mu for f in word.factors if isinstance(f, sc.Scalar)]
    assert len(quads) == 1 and len(quads) + len(scalars) == len(word.factors)
    return math.prod(scalars), quads[0]


def spin_distance(solution, mu, a, p):
    """Hilbert distance of the solution from x* = mu^(1/(p-1)) a^(2/(p-1)).

    a has the eigenvalues a0 +- |abar| on the frame (1, +-u)/2, u = abar /
    |abar|, so x* has mu^(1/(p-1)) (a0 +- |abar|)^(2/(p-1)) on it.  The
    relative eigenvalues of s and y on spin are the roots of det(s - l y)
    = A l^2 - 2 B l + C, with A = det y, B = s0 y0 - <sbar, ybar> and
    C = det s: the distance is log(l+ / l-).
    """
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=60)):
        a0, *abar = map(D, a.coords.tolist())
        a_norm = sum(v * v for v in abar).sqrt()
        c = D(1) / (D(p) - 1)
        high, low = ((c * (D(mu).ln() + 2 * (a0 + sign * a_norm).ln())).exp()
                     for sign in (1, -1))
        y0 = (high + low) / 2
        ybar = [(high - low) / 2 * v / a_norm for v in abar]
        s0, *sbar = map(D, solution.coords.tolist())
        det_y = y0 * y0 - sum(v * v for v in ybar)
        cross = s0 * y0 - sum(u * v for u, v in zip(sbar, ybar))
        det_s = s0 * s0 - sum(v * v for v in sbar)
        root = max(cross * cross - det_y * det_s, D(0)).sqrt()
        return float(((cross + root) / (cross - root)).ln())


def _words(descriptor, rng, count, keep):
    """The first count mild (e^+-0.5) words whose list of factor types
    passes keep."""
    words = []
    while len(words) < count:
        g = mild_word(descriptor, rng)
        if keep([type(f) for f in g.factors]):
            words.append(g)
    return words


def _scalars_and_one_quad(kinds):
    return kinds.count(sc.Quad) == 1 and set(kinds) <= {sc.Scalar, sc.Quad}


@pytest.mark.parametrize("p", PS)
def test_orthant_solutions_solve_their_cycles(p):
    # Every orthant word of scalars, quads and permutations is d * x[pi];
    # these hold a quad and a permutation.
    rng = SplitMix64(91)
    worst = 0.0
    for g in _words(sc.orthant(8), rng, 6,
                    lambda kinds: sc.Quad in kinds and sc.Permutation in kinds):
        rep = sc.solve(g, sc.SolveConfig(p=p))
        worst = max(worst, orthant_distance(rep.solution, orthant_log_answer(g, p)))
    assert worst <= BOUND


@pytest.mark.parametrize("p", PS)
def test_orthant_quad_solutions_are_powers_of_a(p):
    rng = SplitMix64(93)
    worst = 0.0
    for g in _words(sc.orthant(8), rng, 6, _scalars_and_one_quad):
        mu, a = scalars_and_quad(g)
        log_answer = [(math.log(mu) + 2.0 * math.log(v)) / (p - 1.0)
                      for v in a.coords.tolist()]
        rep = sc.solve(g, sc.SolveConfig(p=p))
        worst = max(worst, orthant_distance(rep.solution, log_answer))
    assert worst <= BOUND


@pytest.mark.parametrize("n", [2, 3, 10])
@pytest.mark.parametrize("p", PS)
def test_spin_quad_solutions_are_powers_of_a(p, n):
    rng = SplitMix64(95 + n)
    worst = 0.0
    for g in _words(sc.spin_factor(n), rng, 6, _scalars_and_one_quad):
        mu, a = scalars_and_quad(g)
        rep = sc.solve(g, sc.SolveConfig(p=p))
        worst = max(worst, spin_distance(rep.solution, mu, a, p))
    assert worst <= BOUND


def test_references_see_a_wrong_answer():
    # The references tell the answer from a point one part in 1e-9 off it.
    o3 = sc.orthant(3)
    g = sc.AutomorphismWord(o3, (sc.Quad(sc.Element(o3, [1.0, 2.0, 4.0])),))
    exact = sc.Element(o3, [1.0, 4.0, 16.0])
    assert orthant_distance(exact, orthant_log_answer(g, 2.0)) == 0.0
    off = sc.Element(o3, [1.0, 4.0, 16.0 * (1.0 + 1e-9)])
    assert orthant_distance(off, orthant_log_answer(g, 2.0)) == pytest.approx(1e-9, rel=1e-6)
    spin = sc.spin_factor(3)
    a = sc.Element(spin, [1.25, 0.75, 0.0])  # eigenvalues 2 and 0.5
    answer = sc.Element(spin, [(4.0 + 0.25) / 2, (4.0 - 0.25) / 2, 0.0])  # a^2
    assert spin_distance(answer, 1.0, a, 2.0) <= 1e-15
    off = sc.Element(spin, [(4.0 + 0.25) / 2, (4.0 - 0.25) / 2, 1e-5])
    assert spin_distance(off, 1.0, a, 2.0) >= 1e-10

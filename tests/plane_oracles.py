"""Test-side oracles: pointwise values of Fock functions, the full-plane
Gauss-Laguerre x uniform rule, a (RadialRule, M) pair, and a Gauss-Legendre
sum of radial segment integrals, with the seeded radial profiles the tests
run it on.

focklab computes every compression in closed form; these routines evaluate
functions point by point and integrate them against dlam = e^{-pi|z|^2} dA(z)
on a product grid, so the tests can check the closed forms by an independent
path. Weighted values f(z) e^{-pi|z|^2/2} come from
focklab.fock.weighted_basis_matrix, whose terms have modulus at most one.
The radial L1 errors of focklab.discretize are closed forms too, checked
against segments_abs_integral.
"""
from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from focklab.fock import weighted_basis_matrix
from focklab.quadrature import RadialRule, gauss_legendre
from focklab.regions import TWO_PI
from focklab.symbols import RadialSymbol


def basis_eval(n: int, z: complex) -> complex:
    """e_n(z) = sqrt(pi^n / n!) z^n, its modulus formed in the log domain:
    pi^n / n! underflows and z^n overflows at large n where their product is
    finite."""
    if z == 0:
        return complex(n == 0)
    return cmath.exp(0.5 * (n * math.log(math.pi) - math.lgamma(n + 1)) + n * cmath.log(z))


def kernel(z, w):
    """Reproducing kernel K(z, w) = e^{pi conj(w) z}."""
    return np.exp(math.pi * np.conj(w) * z)


def inner(f, g) -> complex:
    """<f, g> = sum a_n conj(b_n), the shorter expansion zero-padded."""
    k = min(f.truncation, g.truncation)
    return complex(np.vdot(g.coeffs[:k], f.coeffs[:k]))


def eval_weighted(f, z):
    """f(z) e^{-pi|z|^2/2}, safe at every point of the plane; shape of z."""
    w = weighted_basis_matrix(f.truncation, z)
    return np.tensordot(f.coeffs, w, axes=1).reshape(np.shape(z))


def evaluate(f, z):
    """f(z) itself; overflows where the function does."""
    return eval_weighted(f, z) * np.exp(0.5 * math.pi * np.abs(z) ** 2)


def radii(rule: RadialRule) -> np.ndarray:
    """Physical radii r_j = sqrt(t_j / pi) of a Gauss-Laguerre rule in t."""
    return np.sqrt(rule.nodes / math.pi)


def weights(rule: RadialRule) -> np.ndarray:
    """The weights w_j of the e^{-t} dt rule: scaled_weights * e^{-t_j}, the
    expression RadialRule.gauss_laguerre once stored."""
    return rule.scaled_weights * np.exp(-rule.nodes)


def grid(rule) -> np.ndarray:
    """Complex nodes z_ji = r_j e^{i theta_i}, theta_i = 2pi i / M, of a
    (RadialRule, M) plane rule; shape (K, M)."""
    radial, m = rule
    return radii(radial)[:, None] * np.exp(1j * (TWO_PI * np.arange(m) / m)[None, :])


def integrate(rule, values) -> float | complex:
    """sum_j w_j (1/M) sum_i values[j, i]: int g dlam from g on grid(rule)."""
    radial, m = rule
    values = np.broadcast_to(values, (radial.nodes.size, m))
    total = np.dot(weights(radial), np.sum(values, axis=1) / m)
    return complex(total) if np.iscomplexobj(total) else float(total)


@functools.cache
def default_plane_rule() -> tuple:
    """The K = 80 x M = 128 rule, built once."""
    return RadialRule.gauss_laguerre(80), 128


def integrate_plane(g, rule: tuple | None = None) -> float | complex:
    """int_C g dlam on the (RadialRule, M) plane rule (default 80 x 128)."""
    if rule is None:
        rule = default_plane_rule()
    return integrate(rule, g(grid(rule)))


def segments_abs_integral(phi, c, edges) -> float:
    """sum_k 2pi int_{edges[k]}^{edges[k+1]} |phi(r) - c[k]| r dr by 16-node
    Gauss-Legendre on each segment, phi smooth and monotone on each.

    A segment whose ends give phi - c opposite signs is first cut at its
    crossing, found by 100 rounds of bisection, so every piece integrated is
    smooth and of one sign; the rule is exact on polynomial profile pieces.
    """
    edges = np.asarray(edges, dtype=float)
    c = np.broadcast_to(np.asarray(c, dtype=float), (edges.size - 1,))
    lo, hi = edges[:-1], edges[1:]
    g = phi(edges)
    g_lo, g_hi = g[:-1] - c, g[1:] - c
    cross = np.flatnonzero(np.sign(g_lo) * np.sign(g_hi) < 0.0)
    a, b = lo[cross].copy(), hi[cross].copy()
    for _ in range(100):
        mid = 0.5 * (a + b)
        left = np.sign(phi(mid) - c[cross]) == np.sign(g_lo[cross])
        a, b = np.where(left, mid, a), np.where(left, b, mid)
    root = 0.5 * (a + b)
    lo = np.concatenate([lo, root])
    hi = np.concatenate([hi, hi[cross]])
    hi[cross] = root
    c = np.concatenate([c, c[cross]])

    x, w = gauss_legendre(16, -1.0, 1.0)
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (lo + hi)[:, None] + half[:, None] * x[None, :]
    vals = np.abs(phi(nodes) - c[:, None]) * nodes
    return TWO_PI * float(np.dot(half, vals @ w))


def seeded_radials():
    """The gaussian, 40 seeded tables (knots 0 and four steps of 0.2-0.6,
    values in [-1, 1]) and 40 seeded annuli."""
    rng = np.random.default_rng(2024)
    tables = []
    for _ in range(40):
        radii = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 0.6, size=4))])
        tables.append(RadialSymbol.table(radii, rng.uniform(-1.0, 1.0, size=radii.size)))
    annuli = []
    for _ in range(40):
        r_in = float(rng.uniform(0.0, 1.0))
        annuli.append(RadialSymbol.annulus(r_in, r_in + float(rng.uniform(0.3, 1.2)),
                                           float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0))))
    return [RadialSymbol.gaussian()] + tables + annuli

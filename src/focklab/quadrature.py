"""Quadrature rules and region integrals against dlam = e^{-pi|z|^2} dA(z).

The substitution t = pi r^2 maps the radial part of dlam onto the Laguerre
weight e^{-t} dt on [0, inf). RadialRule is the Gauss-Laguerre rule in t, and it
also places a SampledSymbol's radial nodes.

integrate_region integrates over a bounded region in polar coordinates with
the Gaussian weight written out explicitly; a discontinuous indicator is
never sampled. Discs use polar coordinates about their own center
(Gauss-Legendre radially, the periodic angular rule); annular sectors use
Gauss-Legendre on [r1, r2] crossed with Gauss-Legendre on the arc (the
periodic rule for a full turn), so integrands polynomial in r and smooth in
theta converge spectrally with no endpoint singularity at r = 0. Its
integrand callables must be vectorized: they receive a complex ndarray of
sample points and return an array of the same shape (scalars broadcast).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .regions import TWO_PI, AnnularSector, Disc, Region
from .tridiagonal import _multisection, _polynomial_rows

MAX_RADIAL_ORDER = 256
MAX_LEGENDRE_ORDER = 1024

__all__ = [
    "RadialRule",
    "gauss_legendre",
    "integrate_region",
]


@dataclass(frozen=True, eq=False)
class RadialRule:
    """Gauss-Laguerre rule in t = pi r^2 for the weight e^{-t} dt.

    scaled_weights holds w_j e^{t_j} (computed overflow-free through the
    Christoffel identity w_j e^{t_j} = 1 / sum_k p_k(t_j)^2 for the damped
    orthonormal p_k = (-1)^k L_k e^{-t/2}), which turns the same nodes into
    a rule for plain Lebesgue dt integrals of decaying integrands; the
    weights w_j are scaled_weights e^{-t_j}. gauss_laguerre builds each rule
    once per node count; its arrays are read-only, since the cache hands the
    same rule to every caller.
    """

    nodes: np.ndarray
    scaled_weights: np.ndarray

    @classmethod
    @functools.cache
    def gauss_laguerre(cls, count: int) -> "RadialRule":
        if not (1 <= count <= MAX_RADIAL_ORDER):
            raise ValueError(
                f"radial node count must be in [1, {MAX_RADIAL_ORDER}], got {count}"
            )
        # the nodes are the eigenvalues of the Jacobi matrix of L_K, diagonal
        # 2k + 1 and couplings k, bracketed by multisection
        diag = 2.0 * np.arange(count) + 1.0
        off = np.arange(1.0, count + 1.0)
        nodes = _multisection(diag, off, count, np.arange(count))

        # The K-term recurrences below lose about K ulps in float64 (3e-14 of
        # the weights at K = 252), so they run in np.longdouble, which has a
        # 64-bit mantissa on x86-64 (and is plain float64 where the platform
        # has nothing wider). The rows are the matrix's orthonormal
        # polynomials p_k = (-1)^k L_k e^{-t/2}, damped into [-1, 1]-ish range
        # for any t. One Newton polish: t L_K' = K (L_K - L_{K-1}) gives the
        # step t p_K / (K (p_K + p_{K-1})) in overflow-free form; the
        # denominator cannot vanish at a simple root of L_K.
        t = nodes.astype(np.longdouble)
        p = _polynomial_rows(t, np.exp(-0.5 * t), diag, off, count + 1)
        denom = count * (p[count] + p[count - 1])
        safe = np.where(denom == 0.0, 1.0, denom)
        t = np.sort(t - np.where(denom == 0.0, 0.0, t * p[count] / safe))

        p = _polynomial_rows(t, np.exp(-0.5 * t), diag, off, count)
        nodes = t.astype(np.float64)
        scaled = (1.0 / np.sum(p * p, axis=0)).astype(np.float64)
        # The weights integrate 1 exactly: dividing by their sum removes what
        # rounding error they still share.
        scaled /= np.sum(scaled * np.exp(-nodes))
        if np.any(np.diff(nodes) <= 0.0) or nodes[0] <= 0.0:
            raise RuntimeError("Laguerre nodes failed to come out positive and increasing")
        for array in (nodes, scaled):
            array.setflags(write=False)
        return cls(nodes=nodes, scaled_weights=scaled)


@functools.lru_cache(maxsize=64)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order and
    read-only, since the cache hands the same arrays to every caller."""
    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(order: int, a: float, b: float):
    """Gauss-Legendre nodes and weights mapped onto [a, b]."""
    if not (1 <= order <= MAX_LEGENDRE_ORDER):
        raise ValueError(f"Gauss-Legendre order must be in [1, {MAX_LEGENDRE_ORDER}], got {order}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    x, w = _leggauss(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def _eval_on(g: Callable, z: np.ndarray) -> np.ndarray:
    vals = np.asarray(g(z))
    if vals.shape != z.shape:
        vals = np.broadcast_to(vals, z.shape)
    return vals


def integrate_region(
    g: Callable,
    region: Region,
    *,
    radial_order: int = 64,
    angular_order: int = 128,
    include_weight: bool = True,
) -> float | complex:
    """int_region g(z) e^{-pi|z|^2} dA(z) in region-adapted coordinates.

    With include_weight=False the Gaussian factor is omitted; pass the
    weight-combined integrand (for instance |f(z) e^{-pi|z|^2/2}|^2, which is
    the numerically safe way to integrate |f|^2 dlam) in that case.

    Real-valued integrand arrays produce a float result; complex arrays keep
    their imaginary part.
    """
    if isinstance(region, Disc):
        rho, w_rho = gauss_legendre(radial_order, 0.0, region.radius)
        theta = TWO_PI * np.arange(angular_order) / angular_order
        z = region.center + rho[:, None] * np.exp(1j * theta[None, :])
        vals = _eval_on(g, z)
        if include_weight:
            vals = vals * np.exp(-math.pi * (np.abs(z) ** 2))
        angular = np.sum(vals, axis=1) * (TWO_PI / angular_order)
        total = np.dot(w_rho * rho, angular)
    elif isinstance(region, AnnularSector):
        r, w_r = gauss_legendre(radial_order, region.r_inner, region.r_outer)
        if region.full_span:
            theta = region.theta_start + TWO_PI * np.arange(angular_order) / angular_order
            w_theta = np.full(angular_order, TWO_PI / angular_order)
        else:
            theta, w_theta = gauss_legendre(
                angular_order, region.theta_start, region.theta_end
            )
        z = r[:, None] * np.exp(1j * theta[None, :])
        vals = _eval_on(g, z)
        if include_weight:
            vals = vals * np.exp(-math.pi * r * r)[:, None]
        angular = vals @ w_theta
        total = np.dot(w_r * r, angular)
    else:
        raise TypeError(f"unsupported region type: {type(region).__name__}")

    if np.iscomplexobj(total):
        return complex(total)
    return float(total)

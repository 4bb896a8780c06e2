"""Eigenvalues of real symmetric tridiagonal (Jacobi) matrices by Sturm-count
multisection, in numpy alone.

_sturm_counts counts the eigenvalues below a batch of points by Sylvester's
law of inertia; _multisection narrows one bracket per requested eigenvalue
with it, a fixed number of rounds. toeplitz bisects the lead block of a
Householder reduction with them (jacobi_eigenvalues, the Jacobi norm) and
takes the nodes of a + a^* from them (_hermite_eigh); quadrature takes the
Gauss-Laguerre nodes from them.
"""
from __future__ import annotations

import math

import numpy as np

_POINTS = 16  # multisection points per bracket and round


def _sturm_counts(d: np.ndarray, e2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """How many eigenvalues of the real symmetric tridiagonal matrix T with
    diagonal d and squared couplings e2 lie below each point of the 1-d x:
    the count of negative pivots q_i = (d_i - x) - e2_{i-1} / q_{i-1} of
    T - x I, by Sylvester's law of inertia. An exact zero pivot becomes
    -2^-900, as if x were that much larger, so nothing divides by zero.

    The pivots are formed a block of rows at a time: the block's d_i - x in
    one subtract.outer, its rows updated in place one after another, its
    negative pivots counted once. A block holds at most _POINTS^2 len(d)
    pivots, _POINTS rows of a call that multisects every bracket (_POINTS
    points in each of len(d) brackets), so memory grows linearly with len(d);
    the 2 x _POINTS points of a call on the two extreme brackets fit in one
    block."""
    count = 0
    height = max(1, _POINTS**2 * len(d) // len(x))
    e2, prev = [0.0] + e2.tolist(), 1.0  # row 0 subtracts 0 / 1
    for start in range(0, len(d), height):
        block = np.subtract.outer(d[start:start + height], x)
        for row, e2_i in zip(block, e2[start:]):
            row -= e2_i / prev
            row[row == 0.0] = -2.0**-900
            prev = row
        count += (block < 0.0).sum(axis=0)
    return count


def _multisection(d: np.ndarray, e: np.ndarray, k: int, rows: np.ndarray,
                  counts=_sturm_counts) -> np.ndarray:
    """The eigenvalues numbered rows (0-based, ascending) of the lead block
    d[:k], e[:k-1]: the midpoints of their final multisection brackets
    (Barth, Martin & Wilkinson, Numer. Math. 9, 1967). Eigenvalue j starts
    in the block's Gershgorin bracket, and each round counts the eigenvalues
    below _POINTS points inside every bracket in one counts pass and keeps
    the two adjacent points between which the count passes j. The rounds,
    fixed up front by the block alone, are the fewest that take the first
    bracket's width below 4 eps max|bracket|. A bracket's points and update
    depend only on its own counts, so an eigenvalue comes out the same
    whatever other rows are asked for. counts is the Sturm counter,
    _sturm_counts unless a caller passes its own binding of it."""
    lead, e2, radius = d[:k], e[:k - 1] ** 2, np.pad(e[:k - 1], 1)
    lo = np.full(len(rows), np.min(lead - radius[:-1] - radius[1:]))
    hi = np.full(len(rows), np.max(lead + radius[:-1] + radius[1:]))
    width, target = hi[0] - lo[0], 4.0 * np.finfo(float).eps * max(-lo[0], hi[0])
    rounds = math.ceil(math.log(width / target, _POINTS + 1)) if width > target else 0
    at_row, index = np.arange(len(rows)), np.arange(1, _POINTS + 1)
    for _ in range(rounds):
        points = lo[:, None] + (hi - lo)[:, None] * index / (_POINTS + 1)
        below = counts(lead, e2, points.reshape(-1)).reshape(len(rows), _POINTS)
        # eigenvalue j lies between the last point with count <= j and the next
        at = (below <= rows[:, None]).sum(axis=1)
        grid = np.concatenate([lo[:, None], points, hi[:, None]], axis=1)
        lo, hi = grid[at_row, at], grid[at_row, at + 1]
    return 0.5 * (lo + hi)

"""Eigenvalues of real symmetric tridiagonal (Jacobi) matrices by Sturm-count
multisection, in numpy alone.

_sturm_counts counts the eigenvalues below a batch of points by Sylvester's
law of inertia; _multisection narrows one bracket per requested eigenvalue
with it, a fixed number of rounds. toeplitz bisects the lead block of a
Householder reduction with them (jacobi_eigenvalues, the Jacobi norm) and
takes the nodes of a + a^* from them (_hermite_eigh); quadrature takes the
Gauss-Laguerre nodes from them. _polynomial_rows runs the three-term
recurrence of a Jacobi matrix's orthonormal polynomials, from which both
Gauss builders take their Newton step and their eigenvectors or weights
(Golub & Welsch, Math. Comp. 23, 1969).
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
    block. A block is first formed with no guard, one subtraction per row,
    and only a block that holds an exact zero pivot (-0.0 included) is
    formed again from its incoming pivots by _guarded_block. A block with
    no zero pivot divided by none, so both passes give it the same pivots."""
    count = 0
    height = max(1, _POINTS**2 * len(d) // len(x))
    e2, prev = [0.0] + e2.tolist(), 1.0  # row 0 subtracts 0 / 1
    for start in range(0, len(d), height):
        rows, couplings, incoming = d[start:start + height], e2[start:start + height], prev
        block = np.subtract.outer(rows, x)
        # a zero pivot's successors are +-inf or nan here, and are formed again
        with np.errstate(divide="ignore", invalid="ignore"):
            for row, e2_i in zip(block, couplings):
                row -= e2_i / prev
                prev = row
        if not block.all():
            block = _guarded_block(rows, couplings, x, incoming)
            prev = block[-1]
        count += (block < 0.0).sum(axis=0)
    return count


def _guarded_block(rows: np.ndarray, couplings, x: np.ndarray, prev) -> np.ndarray:
    """One block of _sturm_counts' pivots, each exact zero pivot replaced by
    -2^-900 before the next row divides by it: rows are the block's
    diagonal entries, couplings their squared couplings to the row above,
    and prev the pivots of the row above the block."""
    block = np.subtract.outer(rows, x)
    for row, e2_i in zip(block, couplings):
        row -= e2_i / prev
        row[row == 0.0] = -2.0**-900
        prev = row
    return block


def _multisection(d: np.ndarray, e: np.ndarray, k: int, rows: np.ndarray) -> np.ndarray:
    """The eigenvalues numbered rows (0-based, ascending) of the lead block
    d[:k], e[:k-1]: the midpoints of their final multisection brackets
    (Barth, Martin & Wilkinson, Numer. Math. 9, 1967). Eigenvalue j starts
    in the block's Gershgorin bracket, and each round counts the eigenvalues
    below _POINTS points inside every bracket in one _sturm_counts pass and
    keeps the two adjacent points between which the count passes j. The rounds,
    fixed up front by the block alone, are the fewest that take the first
    bracket's width below 4 eps max|bracket|. A bracket's points and update
    depend only on its own counts, so an eigenvalue comes out the same
    whatever other rows are asked for."""
    lead, e2, radius = d[:k], e[:k - 1] ** 2, np.pad(e[:k - 1], 1)
    lo = np.full(len(rows), np.min(lead - radius[:-1] - radius[1:]))
    hi = np.full(len(rows), np.max(lead + radius[:-1] + radius[1:]))
    width, target = hi[0] - lo[0], 4.0 * np.finfo(float).eps * max(-lo[0], hi[0])
    rounds = math.ceil(math.log(width / target, _POINTS + 1)) if width > target else 0
    at_row, index = np.arange(len(rows)), np.arange(1, _POINTS + 1)
    for _ in range(rounds):
        points = lo[:, None] + (hi - lo)[:, None] * index / (_POINTS + 1)
        below = _sturm_counts(lead, e2, points.reshape(-1)).reshape(len(rows), _POINTS)
        # eigenvalue j lies between the last point with count <= j and the next
        at = (below <= rows[:, None]).sum(axis=1)
        grid = np.concatenate([lo[:, None], points, hi[:, None]], axis=1)
        lo, hi = grid[at_row, at], grid[at_row, at + 1]
    return 0.5 * (lo + hi)


def _polynomial_rows(x: np.ndarray, first, diag: np.ndarray, off: np.ndarray,
                     count: int) -> np.ndarray:
    """p_k(x) for k = 0 .. count-1, one row per k, where p_k are the
    orthonormal polynomials of the Jacobi matrix with diagonal diag and
    couplings off: off[k] p_{k+1} = (x - diag[k]) p_k - off[k-1] p_{k-1},
    from the caller's p_0 = first, in the precision of the 1-d x. A damped
    first (e^{-x^2/8} for a + a^*, e^{-t/2} for Laguerre) keeps every row
    near one; diag and off need count - 1 entries."""
    rows = np.empty((count, len(x)), dtype=x.dtype)
    rows[0], prev, below = first, 0.0, 0.0
    for k in range(count - 1):
        rows[k + 1] = ((x - diag[k]) * rows[k] - below * prev) / off[k]
        prev, below = rows[k], off[k]
    return rows

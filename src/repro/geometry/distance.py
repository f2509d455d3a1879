"""Vectorised Euclidean distance kernels.

These are the O(N^2) building blocks under every interference-factor
matrix, so they are written as broadcasting expressions over views with
at most one temporary the size of the output (guide: broadcasting +
views, not loops).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.points import as_points


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs distances ``D[i, j] = |a_i - b_j|``.

    Parameters
    ----------
    a : (N, 2) array
    b : (M, 2) array

    Returns
    -------
    (N, M) array of Euclidean distances.
    """
    a = as_points(a, "a")
    b = as_points(b, "b")
    # Per cell: two products, one add and one square root — the same
    # operations, in the same order, as einsum("ijk,ijk->ij") over the
    # (N, M, 2) difference tensor (the tests' reference), so the bits
    # match.  The (N, M) broadcasts skip that tensor and its strided
    # reduction, and the output doubles as scratch.
    dx = a[:, 0, None] - b[None, :, 0]
    dy = a[:, 1, None] - b[None, :, 1]
    # Squares of differences near 1e160 overflow to inf; like the einsum
    # reference, say nothing about it.
    with np.errstate(over="ignore"):
        dx *= dx
        dy *= dy
        dx += dy
    return np.sqrt(dx, out=dx)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Symmetric all-pairs distance matrix of one point set."""
    return cross_distances(points, points)


def point_to_points(point: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distances from one point to each point of an array; shape ``(N,)``."""
    p = np.asarray(point, dtype=float)
    if p.shape != (2,):
        raise ValueError(f"point must have shape (2,), got {p.shape}")
    pts = as_points(points)
    diff = pts - p[None, :]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def min_pairwise_distance(points: np.ndarray) -> float:
    """Smallest distance between two *distinct* points.

    Used by the knapsack reduction (``d_min`` in Eq. 25).  Raises for
    fewer than two points.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    d = pairwise_distances(pts)
    # Mask the diagonal rather than adding inf in place, keeping d intact.
    iu = np.triu_indices(n, k=1)
    return float(d[iu].min())


def max_pairwise_distance(points: np.ndarray) -> float:
    """Largest distance between two points (the set's diameter)."""
    pts = as_points(points)
    if pts.shape[0] < 2:
        raise ValueError("need at least two points")
    d = pairwise_distances(pts)
    return float(d.max())

"""Gauss-Legendre nodes and weights by Newton's method on the recurrence.

numpy's ``leggauss`` eigen-solves a dense g x g companion matrix: O(g^3)
time and O(g^2) memory, which dominates exact evaluation once g reaches the
thousands.  Here the ceil(g/2) non-negative roots of P_g start from
Tricomi's asymptotic guess and are refined by Newton steps, each one pass of
the three-term recurrence vectorised over the roots: O(g^2) time, O(g)
memory, and weights more accurate than the eigen-solve's (Hale & Townsend,
SIAM J. Sci. Comput. 35, 2013).  The rule is mirrored from its non-negative
half, so it is exactly symmetric.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

__all__ = ["leggauss"]

_MAX_NEWTON = 10


def _legendre(g: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_g(x), P_g'(x)) by the three-term recurrence, for 0 <= x < 1."""
    p0, p1, tmp = np.ones_like(x), x.copy(), np.empty_like(x)
    for j in range(1, g):
        # P_{j+1} = ((2j+1) x P_j - j P_{j-1}) / (j+1), written into p0's buffer
        np.multiply(x, p1, out=tmp)
        tmp *= (2 * j + 1) / (j + 1)
        p0 *= -j / (j + 1)
        p0 += tmp
        p0, p1 = p1, p0
    return p1, g * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


@functools.cache
def leggauss(g: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ascending in (-1, 1) and positive weights of the g-point
    Gauss-Legendre rule, exact for polynomials of degree <= 2g-1.

    Same contract as ``numpy.polynomial.legendre.leggauss``; the arrays are
    cached per order and read-only.
    """
    g = operator.index(g)
    if g < 1:
        raise ValueError(f"Gauss-Legendre order must be >= 1, got {g}")
    half = (g + 1) // 2
    # Tricomi: the i-th largest root is about
    # (1 - (g-1)/(8g^3) - (39 - 28/sin^2 th)/(384 g^4)) cos th, th = pi(4i-1)/(4g+2)
    theta = np.pi * (4.0 * np.arange(1, half + 1) - 1.0) / (4.0 * g + 2.0)
    x = np.cos(theta) * (
        1.0 - (g - 1) / (8.0 * g**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * g**4)
    )
    if g % 2:
        x[-1] = 0.0  # the middle root of an odd order; Newton keeps it there
    for _ in range(_MAX_NEWTON):
        p, dp = _legendre(g, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 4.0 * np.finfo(float).eps:
            break
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    neg = g // 2  # the roots mirrored to the negative half; an odd order's 0 is not
    nodes = np.concatenate([-x[:neg], x[::-1]])
    weights = np.concatenate([w[:neg], w[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights

"""The base instance (F_1..F_n, copy count k), the OPT law and its exact quantiles."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .distributions import (
    Distribution,
    RandomizedThreshold,
    distribution_from_json,
    distribution_to_json,
    product_max,
)
from .errors import InvalidInstanceError, InvalidQuantileError
from .quadrature import leggauss

__all__ = ["Instance", "OptLaw", "make_instance", "opt_law", "instance_to_json",
           "instance_from_json"]


@dataclass(frozen=True)
class Instance:
    """Base distributions plus the number of copies of each."""

    base: tuple[Distribution, ...]
    copies: int

    @property
    def n(self) -> int:
        return len(self.base)

    @property
    def total_rewards(self) -> int:
        return self.n * self.copies

    @property
    def support_max(self) -> float:
        return max(d.support_max for d in self.base)


def make_instance(base: Sequence[Distribution], k: int) -> Instance:
    if not base:
        raise InvalidInstanceError("instance needs at least one base distribution")
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise InvalidInstanceError(f"copy count must be a positive integer, got {k!r}")
    return Instance(tuple(base), int(k))


class OptLaw:
    """Law of the maximum over one copy of each base distribution.

    The CDF is evaluated exactly as the product of the base CDFs; ``dist``
    carries the materialized product (exact at its breakpoints)."""

    def __init__(self, base: Sequence[Distribution]):
        if not base:
            raise InvalidInstanceError("OPT law over an empty base")
        self.base = tuple(base)
        self.dist = product_max(base)
        self.expected_value = self._tail_integral()
        self._quantile_cache: dict[float, RandomizedThreshold] = {}

    # exact product CDF, independent of the materialized grid; vectorized
    def cdf(self, x):
        out = 1.0
        for d in self.base:
            out = out * d.cdf(x)
        return out

    def _tail_integral(self) -> float:
        """E[max] = int_0^xmax (1 - prod_i F_i(x)) dx, exact per segment."""
        grid = np.unique(np.concatenate([[0.0], *[d.xs for d in self.base]]))
        total = 0.0
        # per open segment the product of linear CDF pieces has degree <= n
        nodes, weights = leggauss(len(self.base) // 2 + 2)
        for a, b in zip(grid[:-1], grid[1:]):
            # halving first keeps the midpoint finite when a + b overflows
            mid, half = a / 2.0 + b / 2.0, (b - a) / 2.0
            vals = self.cdf(mid + half * nodes)
            total += half * float(np.sum(weights * (1.0 - vals)))
        return total

    def quantile_threshold(self, q: float) -> RandomizedThreshold:
        """(tau, accept_prob) with Pr[OPT rejected] exactly q; see ``quantile_thresholds``."""
        return self.quantile_thresholds((q,))[0]

    def quantile_thresholds(self, qs: Sequence[float]) -> list[RandomizedThreshold]:
        """One randomized threshold per q, each with Pr[OPT rejected] exactly q
        under the randomized-tiebreak semantics (product of per-distribution
        rejections).

        All misses of the cache are solved together: a crossing strictly
        inside a segment of the product CDF is bisected on tau, a crossing at
        an atom of the product law is bisected on the accept probability.
        Factors multiply in base order and every comparison is the one of the
        scalar search, so each result equals solving its q alone, bit for bit."""
        for q in qs:
            if not (0.0 <= q < 1.0):
                raise InvalidQuantileError(f"quantile must be in [0, 1), got {q!r}")
        misses = sorted({q for q in qs if q not in self._quantile_cache})
        if misses:
            solved = self._solve_quantiles(np.array(misses, dtype=float))
            self._quantile_cache.update(zip(misses, solved))
        return [self._quantile_cache[q] for q in qs]

    def _solve_quantiles(self, q: np.ndarray) -> list[RandomizedThreshold]:
        grid, Fr, Fl = self.dist.xs, self.dist.Fr, self.dist.Fl
        j = np.minimum(np.searchsorted(Fr, q, side="left"), len(grid) - 1)
        prev = np.maximum(j - 1, 0)
        tau = grid[j]
        accept = np.zeros_like(q)
        inside = (j > 0) & (Fl[j] > q) & (Fl[j] > Fr[prev])
        if inside.any():
            qi = q[inside]
            tau[inside] = _bisect(grid[prev[inside]], tau[inside],
                                  lambda x: self.cdf(x) >= qi)
        atom = ~inside
        if atom.any():
            accept[atom] = self._atom_accept(j[atom], q[atom])
        return [RandomizedThreshold(float(t), float(a)) for t, a in zip(tau, accept)]

    @cached_property
    def _grid_left_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Each base law's left CDF and atom mass at the points of ``dist.xs``."""
        left, mass = zip(*(d.left_and_atom(self.dist.xs) for d in self.base))
        return np.array(left), np.array(mass)

    def _atom_accept(self, j: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Accept probability a at the atom tau = dist.xs[j]:
        prod_i (Fl_i(tau) + (1 - a) m_i(tau)) = q, clipped to [0, 1]."""
        left, mass = self._grid_left_masses
        left, mass = left[:, j], mass[:, j]

        def rejected(a, idx=slice(None)):
            out = np.ones_like(a)
            for fl, m in zip(left[:, idx], mass[:, idx]):
                out *= fl + (1.0 - a) * m
            return out

        accept = np.zeros_like(q)
        partial = ~(rejected(np.zeros_like(q)) <= q)
        full = partial & (rejected(np.ones_like(q)) >= q)
        accept[full] = 1.0
        solve = np.flatnonzero(partial & ~full)
        if solve.size:
            qs = q[solve]
            accept[solve] = _bisect(np.zeros_like(qs), np.ones_like(qs),
                                    lambda a: ~(rejected(a, solve) > qs))
        return accept


def _bisect(lo: np.ndarray, hi: np.ndarray, at_or_below) -> np.ndarray:
    """Elementwise bisection: ``hi`` moves to the midpoint where
    ``at_or_below(mid)`` holds, ``lo`` elsewhere.  Each element stops once its
    midpoint is no longer strictly inside (lo, hi), or after 200 steps, and
    returns its ``hi``.  The midpoint halves before it adds, so it stays
    finite where lo + hi would overflow; in the normal range it equals
    0.5 * (lo + hi) bit for bit."""
    active = np.ones(lo.shape, dtype=bool)
    for _ in range(200):
        mid = lo / 2.0 + hi / 2.0
        active &= (mid > lo) & (mid < hi)
        if not active.any():
            break
        down = at_or_below(mid)
        hi = np.where(active & down, mid, hi)
        lo = np.where(active & ~down, mid, lo)
    return hi


def opt_law(inst: Instance) -> OptLaw:
    """OPT excludes the added copies: the product runs over the base only."""
    return OptLaw(inst.base)


# --------------------------------------------------------------------- JSON


def instance_to_json(inst: Instance) -> dict:
    return {"base": [distribution_to_json(d) for d in inst.base], "copies": inst.copies}


def instance_from_json(obj: dict) -> Instance:
    try:
        base = [distribution_from_json(d) for d in obj["base"]]
        copies = obj["copies"]
    except (TypeError, KeyError) as exc:
        raise InvalidInstanceError(f"instance JSON needs 'base' and 'copies': {exc}") from exc
    if isinstance(copies, float) and copies.is_integer():
        copies = int(copies)
    return make_instance(base, copies)

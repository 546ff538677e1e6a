"""The base instance (F_1..F_n, copy count k), the OPT law and its exact quantiles."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .distributions import Distribution, _merged_grid, distribution_from_json, product_max
from .errors import InvalidInstanceError, InvalidQuantileError, is_integer
from .quadrature import leggauss

__all__ = ["Instance", "OptLaw", "make_instance", "opt_law", "instance_from_json"]


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
    if not is_integer(k) or k < 1:
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

    # exact product CDF, independent of the materialized grid; vectorized
    def cdf(self, x):
        out = 1.0
        for d in self.base:
            out = out * d.cdf(x)
        return out

    def _tail_integral(self) -> float:
        """E[max] = int_0^xmax (1 - prod_i F_i(x)) dx, exact per segment.

        Between two neighbouring points of the merged grid each base CDF is
        linear.  Where every one is constant (every segment of a discrete
        law) the segment adds its width times 1 - prod_i F_i(a), with no
        quadrature; elsewhere the product has degree <= n, which Gauss-Legendre
        on n // 2 + 2 nodes integrates."""
        grid = _merged_grid(self.base, (0.0,))
        lows, highs = grid[:-1], grid[1:]
        flat = np.ones(len(lows), dtype=bool)
        for d in self.base:
            flat &= d.cdf(lows) == d.left_and_atom(highs)[0]
        tails = 1.0 - self.cdf(lows)
        nodes, weights = leggauss(len(self.base) // 2 + 2)
        total = 0.0
        for a, b, is_flat, tail in zip(lows.tolist(), highs.tolist(), flat.tolist(),
                                       tails.tolist()):
            if is_flat:
                total += (b - a) * tail
                continue
            # halving first keeps the midpoint finite when a + b overflows
            mid, half = a / 2.0 + b / 2.0, (b - a) / 2.0
            vals = self.cdf(mid + half * nodes)
            total += half * float(np.sum(weights * (1.0 - vals)))
        return total

    def quantile_threshold(self, qs: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """The randomized thresholds of the qs as arrays (tau, accept_prob),
        the rows of a ``policies.ThresholdStack``: each accepts values above
        tau always and values equal to tau with probability accept_prob, and
        has Pr[OPT rejected] exactly q under the randomized-tiebreak
        semantics (product of per-distribution rejections).

        All qs are solved together: a crossing strictly inside a segment of
        the product CDF is the smallest double tau there with
        ``cdf(tau) >= q``, a crossing at an atom of the product law the
        smallest accept probability whose rejected mass is at most q.  Both
        come from one exact search over the bit patterns of doubles
        (``_bisect``) from a secant estimate of each q's answer (``_secant``).
        Both work elementwise and factors multiply in base order, so each
        result equals solving its q alone, bit for bit.  A lone q is the
        batch [q]."""
        q = np.array(qs, dtype=float, ndmin=1)
        bad = np.flatnonzero(~((q >= 0.0) & (q < 1.0)))  # NaN is bad too
        if bad.size:
            raise InvalidQuantileError(f"quantile must be in [0, 1), got {q[bad[0]].item()!r}")
        grid, Fr, Fl = self.dist.xs, self.dist.Fr, self.dist.Fl
        j = np.minimum(np.searchsorted(Fr, q, side="left"), len(grid) - 1)
        prev = np.maximum(j - 1, 0)
        tau = grid[j]
        accept = np.zeros_like(q)
        inside = (j > 0) & (Fl[j] > q) & (Fl[j] > Fr[prev])
        if inside.any():
            qi, lo, hi = q[inside], grid[prev[inside]], tau[inside]
            # the CDF's limits at the segment's ends: cdf(hi) counts hi's atom
            guess = _secant(lambda x: self.cdf(x) - qi,
                            lo, Fr[prev[inside]] - qi, hi, Fl[j[inside]] - qi)
            tau[inside] = _bisect(lo, hi, lambda x: self.cdf(x) >= qi, guess)
        atom = ~inside
        if atom.any():
            accept[atom] = self._atom_accept(j[atom], q[atom])
        return tau, accept

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
        none = _rejected(left, mass, np.zeros_like(q))
        every = _rejected(left, mass, np.ones_like(q))
        partial = ~(none <= q)
        full = partial & (every >= q)
        accept = full.astype(float)
        solve = np.flatnonzero(partial & ~full)
        if solve.size:
            qs, left, mass = q[solve], left[:, solve], mass[:, solve]
            lo, hi = np.zeros_like(qs), np.ones_like(qs)
            guess = _secant(lambda a: _rejected(left, mass, a) - qs,
                            lo, none[solve] - qs, hi, every[solve] - qs)
            accept[solve] = _bisect(lo, hi, lambda a: _rejected(left, mass, a) <= qs, guess)
        return accept


def _rejected(left: np.ndarray, mass: np.ndarray, a: np.ndarray) -> np.ndarray:
    """OPT's rejected mass prod_i (left_i + (1 - a) mass_i) at an atom accepted w.p. a."""
    out = np.ones_like(a)
    for fl, m in zip(left, mass):
        out *= fl + (1.0 - a) * m
    return out


def _secant(f, x0: np.ndarray, f0: np.ndarray, x1: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """Elementwise estimates of a root of f in [x0, x1], where f0 and f1 have
    opposite signs: secant steps clipped to [x0, x1].  An element takes a step
    only if it shrinks |f|, so the steps end: once no estimate moves."""
    lo, hi = x0, x1
    while True:
        with np.errstate(all="ignore"):  # f1 == f0 leaves a NaN, read as no step
            x = np.clip(x1 - (x1 - x0) * (f1 / (f1 - f0)), lo, hi)
        fx = f(np.where(np.isnan(x), x1, x))
        moved = np.abs(fx) < np.abs(f1)
        if not moved.any():
            return x1
        x0, f0 = np.where(moved, x1, x0), np.where(moved, f1, f0)
        x1, f1 = np.where(moved, x, x1), np.where(moved, fx, f1)


_PROBES = np.array([0, *(s * 4**i for i in range(9) for s in (1, -1))])[:, None]  # in ulps


def _bisect(lo: np.ndarray, hi: np.ndarray, holds, guess: np.ndarray | None = None) -> np.ndarray:
    """Elementwise, the smallest double in (lo, hi] where ``holds``, a predicate
    monotone on (lo, hi], is true; ``hi`` is taken as true without being asked.

    The bit patterns of nonnegative doubles order as their values do, so the
    search halves the patterns between lo and hi, at any scale, subnormals
    included.  A ``lo`` of -0.0 reads as 0.0, and a negative ``lo`` as the
    pattern just below 0.0, so that 0.0 can be found.

    Given estimates, one call of ``holds`` on a leading axis of probes first
    asks each estimate and the patterns 4**i ulps either side of it, i = 0..8;
    a probe inside (lo, hi) that holds lowers hi, one that fails raises lo.
    The answer stays in the bracket, so its bits never depend on the estimate.
    At worst (a NaN or far-off estimate) the probe call adds to 63 halvings."""
    lo = np.maximum((lo + 0.0).view(np.int64), -1)
    hi = hi.view(np.int64)
    if guess is not None:
        at = np.clip(guess.view(np.int64), lo, hi) + _PROBES  # NaN to hi, negatives to lo
        asked = (at > lo) & (at < hi)
        true = holds(np.where(asked, at, hi).view(np.float64))
        hi = np.where(asked & true, at, hi).min(axis=0)
        lo = np.where(asked & ~true, at, lo).max(axis=0)
    while True:
        # patterns of doubles >= 2 exceed 2**62, so lo + hi would overflow
        mid = lo + (hi - lo) // 2
        open_ = mid > lo
        if not open_.any():
            return hi.view(np.float64)
        # mid is -1 only where the element is closed, and its answer unused
        true = holds(np.maximum(mid, 0).view(np.float64))
        hi = np.where(open_ & true, mid, hi)
        lo = np.where(open_ & ~true, mid, lo)


def opt_law(inst: Instance) -> OptLaw:
    """OPT excludes the added copies: the product runs over the base only."""
    return OptLaw(inst.base)


# --------------------------------------------------------------------- JSON


def instance_from_json(obj: dict) -> Instance:
    try:
        base = [distribution_from_json(d) for d in obj["base"]]
        copies = obj["copies"]
    except (TypeError, KeyError) as exc:
        raise InvalidInstanceError(f"instance JSON needs 'base' and 'copies': {exc}") from exc
    if isinstance(copies, float) and copies.is_integer():
        copies = int(copies)
    return make_instance(base, copies)

"""Reward distributions with exact CDF/quantile/sampling and max/root operators.

Two user-facing families are supported: discrete atom lists and
piecewise-linear CDFs.  Internally both are stored as a breakpoint grid
``xs`` with left limits ``Fl`` and right-continuous values ``Fr``, which is
also closed (at breakpoints) under the pointwise-product and n-th-root
operators.  Discreteness of a law is emulated by the (value, tiebreak)
lexicographic order together with randomized thresholds, so exact quantiles
exist for every law.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInstanceError, InvalidParameterError, InvalidQuantileError

__all__ = [
    "AugmentedValue",
    "Distribution",
    "RandomizedThreshold",
    "quantile_threshold",
    "product_max",
    "nth_root",
    "distribution_to_json",
    "distribution_from_json",
]

_MASS_TOL = 1e-12


@dataclass(frozen=True, order=True)
class AugmentedValue:
    """A reward value with a uniform tiebreak; ordered lexicographically."""

    value: float
    tiebreak: float


@dataclass(frozen=True)
class RandomizedThreshold:
    """Accept values above ``tau`` always, values equal to ``tau`` with
    probability ``accept_prob``."""

    tau: float
    accept_prob: float

    def accepts(self, av: AugmentedValue) -> bool:
        if av.value > self.tau:
            return True
        return av.value == self.tau and av.tiebreak < self.accept_prob


class Distribution:
    """One-dimensional law on the nonnegative reals.

    ``xs`` are strictly increasing breakpoints, ``Fl[j] = Pr[V < xs[j]]`` and
    ``Fr[j] = Pr[V <= xs[j]]``.  Between breakpoints the CDF interpolates
    linearly from ``Fr[j]`` to ``Fl[j+1]``; a discrete law has all its mass in
    the jumps ``Fr - Fl``.
    """

    __slots__ = ("kind", "xs", "Fl", "Fr")

    def __init__(self, kind: str, xs: np.ndarray, Fl: np.ndarray, Fr: np.ndarray):
        self.kind = kind
        self.xs = xs
        self.Fl = Fl
        self.Fr = Fr

    # ------------------------------------------------------------------ build

    @classmethod
    def discrete(cls, atoms: Iterable[tuple[float, float]], tol: float = _MASS_TOL) -> "Distribution":
        """Build from (value, mass) pairs; masses must sum to 1 within tol."""
        items = sorted((float(v), float(p)) for v, p in atoms)
        if not items:
            raise InvalidInstanceError("discrete distribution needs at least one atom")
        xs = np.array([v for v, _ in items])
        masses = np.array([p for _, p in items])
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(masses))):
            raise InvalidInstanceError("atom values and masses must be finite")
        if np.any(masses <= 0):
            raise InvalidInstanceError("atom masses must be positive")
        if np.any(xs < 0):
            raise InvalidInstanceError("atom values must be nonnegative")
        if np.any(np.diff(xs) <= 0):
            raise InvalidInstanceError("atom values must be distinct")
        total = masses.sum()
        if abs(total - 1.0) > tol:
            raise InvalidInstanceError(f"atom masses sum to {total!r}, not 1")
        Fr = np.cumsum(masses / total)
        Fr[-1] = 1.0
        Fl = np.concatenate(([0.0], Fr[:-1]))
        return cls("discrete", xs, Fl, Fr)

    @classmethod
    def piecewise(cls, points: Iterable[tuple[float, float]], tol: float = _MASS_TOL) -> "Distribution":
        """Build a piecewise-linear CDF from (x, F(x)) pairs."""
        pts = [(float(x), float(F)) for x, F in points]
        if len(pts) < 2:
            raise InvalidInstanceError("piecewise CDF needs at least two points")
        xs = np.array([x for x, _ in pts])
        Fs = np.array([F for _, F in pts])
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(Fs))):
            raise InvalidInstanceError("cdf points must be finite")
        if np.any(np.diff(xs) <= 0):
            raise InvalidInstanceError("cdf breakpoints must be strictly increasing in x")
        if np.any(np.diff(Fs) < 0):
            raise InvalidInstanceError("cdf values must be nondecreasing")
        if np.any(xs < 0):
            raise InvalidInstanceError("support must be nonnegative")
        if Fs[0] < 0 or abs(Fs[-1] - 1.0) > tol:
            raise InvalidInstanceError("cdf must start >= 0 and end at 1")
        Fr = Fs / Fs[-1]
        Fr[-1] = 1.0
        Fl = Fr.copy()
        Fl[0] = 0.0  # any mass at the first breakpoint is an atom there
        return cls("piecewise", xs, Fl, Fr)

    # ------------------------------------------------------------------ basics

    @property
    def support_min(self) -> float:
        return float(self.xs[0])

    @property
    def support_max(self) -> float:
        return float(self.xs[-1])

    def cdf(self, x):
        """Right-continuous Pr[V <= x]; vectorized."""
        if np.ndim(x) == 0:
            return self._cdf_scalar(float(x))
        x = np.asarray(x, dtype=float)
        j = np.searchsorted(self.xs, x, side="right") - 1
        jc = np.clip(j, 0, len(self.xs) - 1)
        nxt = np.clip(jc + 1, 0, len(self.xs) - 1)
        x0, x1 = self.xs[jc], self.xs[nxt]
        width = np.where(x1 > x0, x1 - x0, 1.0)
        frac = np.clip((x - x0) / width, 0.0, 1.0)
        val = self.Fr[jc] + (self.Fl[nxt] - self.Fr[jc]) * frac
        val = np.where(j < 0, 0.0, val)
        val = np.where(x >= self.xs[-1], 1.0, val)
        return val if val.ndim else float(val)

    def _cdf_scalar(self, x: float) -> float:
        xs = self.xs
        if x < xs[0]:
            return 0.0
        if x >= xs[-1]:
            return 1.0
        j = int(np.searchsorted(xs, x, side="right")) - 1
        x0, x1 = xs[j], xs[j + 1]
        frac = (x - x0) / (x1 - x0) if x1 > x0 else 1.0
        return float(self.Fr[j] + (self.Fl[j + 1] - self.Fr[j]) * frac)

    def cdf_left(self, x: float) -> float:
        """Pr[V < x]."""
        x = float(x)
        if x <= self.xs[0]:
            return 0.0
        if x > self.xs[-1]:
            return 1.0
        j = int(np.searchsorted(self.xs, x, side="left"))
        if j < len(self.xs) and self.xs[j] == x:
            return float(self.Fl[j])
        return float(self.cdf(x))  # continuous strictly between breakpoints

    def point_mass(self, x: float) -> float:
        j = int(np.searchsorted(self.xs, x, side="left"))
        if j < len(self.xs) and self.xs[j] == x:
            return float(self.Fr[j] - self.Fl[j])
        return 0.0

    def prob_above(self, x: float) -> float:
        """Pr[V > x] (strict)."""
        return 1.0 - float(self.cdf(x))

    # ---------------------------------------------------- randomized thresholds

    def reject_prob(self, rt: RandomizedThreshold) -> float:
        """Pr[value rejected] under the randomized rule (tau, accept_prob)."""
        return self.cdf_left(rt.tau) + (1.0 - rt.accept_prob) * self.point_mass(rt.tau)

    def accept_prob(self, rt: RandomizedThreshold) -> float:
        return 1.0 - self.reject_prob(rt)

    def prob_accept_above(self, rt: RandomizedThreshold, x: float) -> float:
        """Pr[accepted and accepted value > x]."""
        out = self.prob_above(max(rt.tau, x))
        if rt.tau > x:
            out += rt.accept_prob * self.point_mass(rt.tau)
        return out

    def mean_accepted(self, rt: RandomizedThreshold) -> float:
        """E[V * 1{accepted}]."""
        return self.mean_between(rt.tau, np.inf, open_left=True) + (
            rt.accept_prob * rt.tau * self.point_mass(rt.tau)
        )

    # ---------------------------------------------------------- interval masses

    def mass_between(self, lo: float, hi: float) -> float:
        """Pr[lo <= V < hi]."""
        if hi <= lo:
            return 0.0
        return self.cdf_left(hi) - self.cdf_left(lo)

    def mass_between_above(self, lo: float, hi: float, x: float) -> float:
        """Pr[lo <= V < hi and V > x]."""
        if x >= hi:
            return 0.0
        if x < lo:
            return self.mass_between(lo, hi)
        return self.cdf_left(hi) - float(self.cdf(x))

    def mean_between(self, lo: float, hi: float, open_left: bool = False) -> float:
        """E[V * 1{lo <= V < hi}] (strict left if open_left)."""
        if hi <= lo:
            return 0.0
        total = 0.0
        jumps = self.Fr - self.Fl
        for j in range(len(self.xs)):
            v = self.xs[j]
            inside = (v > lo if open_left else v >= lo) and v < hi
            if inside and jumps[j] > 0:
                total += v * jumps[j]
        # linear segments
        for j in range(len(self.xs) - 1):
            x0, x1 = float(self.xs[j]), float(self.xs[j + 1])
            seg_mass = float(self.Fl[j + 1] - self.Fr[j])
            if seg_mass <= 0:
                continue
            a, b = max(x0, lo), min(x1, hi)
            if b <= a:
                continue
            dens = seg_mass / (x1 - x0)
            total += dens * (b * b - a * a) / 2.0
        return total

    def mean(self) -> float:
        return self.mean_between(0.0, np.inf)

    # -------------------------------------------------------------- sampling

    def ppf(self, u):
        """Leftmost x with cdf(x) >= u; vectorized inverse-CDF."""
        u = np.asarray(u, dtype=float)
        j = np.searchsorted(self.Fr, u, side="left")
        j = np.clip(j, 0, len(self.xs) - 1)
        in_jump = u > self.Fl[j]
        prev = np.clip(j - 1, 0, len(self.xs) - 1)
        rise = self.Fl[j] - self.Fr[prev]
        safe_rise = np.where(rise > 0, rise, 1.0)
        frac = np.clip((u - self.Fr[prev]) / safe_rise, 0.0, 1.0)
        interp = self.xs[prev] + (self.xs[j] - self.xs[prev]) * frac
        val = np.where(in_jump | (j == 0), self.xs[j], interp)
        return val if val.ndim else float(val)

    def sample_values(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.ppf(rng.random(size))

    def sample(self, rng: np.random.Generator) -> AugmentedValue:
        return AugmentedValue(float(self.ppf(rng.random())), float(rng.random()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Distribution({self.kind}, {len(self.xs)} breakpoints, max={self.support_max})"


# ---------------------------------------------------------------------- ops


def cdf(d: Distribution, x: float) -> float:
    """Pr[V <= x] under d."""
    return float(d.cdf(x))


def quantile_threshold(d: Distribution, q: float) -> RandomizedThreshold:
    """The randomized threshold whose induced rejection probability is exactly q.

    Returns the leftmost tau achieving the quantile on flat CDF regions.
    """
    if not (0.0 <= q < 1.0):
        raise InvalidQuantileError(f"quantile must be in [0, 1), got {q!r}")
    j = int(np.searchsorted(d.Fr, q, side="left"))
    # leftmost breakpoint with Fr >= q
    if d.Fl[j] >= q and j > 0 and d.Fl[j] > d.Fr[j - 1]:
        # q is reached strictly inside the linear segment ending at xs[j]
        frac = (q - d.Fr[j - 1]) / (d.Fl[j] - d.Fr[j - 1])
        tau = float(d.xs[j - 1] + (d.xs[j] - d.xs[j - 1]) * frac)
        return RandomizedThreshold(tau, 0.0)
    tau = float(d.xs[j])
    mass = float(d.Fr[j] - d.Fl[j])
    if mass > 0:
        a = (float(d.Fr[j]) - q) / mass
        a = min(max(a, 0.0), 1.0)
    else:
        a = 0.0
    return RandomizedThreshold(tau, a)


def _merged_grid(ds: Sequence[Distribution], extra_points=None) -> np.ndarray:
    xs = np.concatenate([d.xs for d in ds])
    if extra_points is not None:
        xs = np.concatenate([xs, np.asarray(extra_points, dtype=float)])
    return np.unique(xs)


def product_max(ds: Sequence[Distribution], extra_points=None) -> Distribution:
    """Distribution of the max of independent draws: CDF = pointwise product.

    Exact for discrete inputs; with piecewise inputs the result is exact at
    the merged breakpoints (pass extra_points to refine where it matters).
    """
    ds = list(ds)
    if not ds:
        raise InvalidInstanceError("product_max of an empty list")
    grid = _merged_grid(ds, extra_points)
    grid = grid[(grid >= 0)]
    Fr = np.ones_like(grid)
    Fl = np.ones_like(grid)
    for d in ds:
        Fr *= np.asarray(d.cdf(grid))
        Fl *= np.array([d.cdf_left(x) for x in grid])
    kind = "discrete" if all(d.kind == "discrete" for d in ds) else "piecewise"
    return Distribution(kind, grid, Fl, Fr)


def nth_root(d: Distribution, n: int, extra_points=None) -> Distribution:
    """Distribution with CDF equal to the n-th root of d's CDF."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameterError(f"root order must be a positive integer, got {n!r}")
    if n == 1 and extra_points is None:
        return d
    grid = _merged_grid([d], extra_points)
    Fr = np.asarray(d.cdf(grid)) ** (1.0 / n)
    Fl = np.array([d.cdf_left(x) for x in grid]) ** (1.0 / n)
    return Distribution(d.kind, grid, Fl, Fr)


# --------------------------------------------------------------------- JSON


def distribution_to_json(d: Distribution) -> dict:
    if d.kind == "discrete":
        masses = d.Fr - d.Fl
        return {"type": "discrete", "atoms": [[float(v), float(p)] for v, p in zip(d.xs, masses)]}
    if np.any(d.Fr[1:] - d.Fl[1:] > 0):
        raise InvalidInstanceError("piecewise law with interior atoms is not JSON-representable")
    return {"type": "piecewise", "points": [[float(x), float(F)] for x, F in zip(d.xs, d.Fr)]}


def distribution_from_json(obj: dict) -> Distribution:
    """Load a distribution; numbers may be doubles or decimal strings."""
    try:
        kind = obj["type"]
    except (TypeError, KeyError) as exc:
        raise InvalidInstanceError(f"distribution JSON needs a 'type' field: {obj!r}") from exc
    builders = {"discrete": ("atoms", Distribution.discrete),
                "piecewise": ("points", Distribution.piecewise)}
    if not isinstance(kind, str) or kind not in builders:
        raise InvalidInstanceError(f"unknown distribution type {kind!r}")
    key, build = builders[kind]
    try:
        pairs = [(float(a), float(b)) for a, b in obj[key]]
    except (TypeError, KeyError, ValueError) as exc:
        raise InvalidInstanceError(f"{kind} law needs '{key}' as number pairs: {exc}") from exc
    return build(pairs, tol=1e-9)


def loads_distribution(text: str) -> Distribution:
    return distribution_from_json(json.loads(text))

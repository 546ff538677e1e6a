"""Reward distributions with exact CDF and inverse CDF, max/root operators,
and the randomized threshold rule.

Two user-facing families are supported: discrete atom lists and
piecewise-linear CDFs.  Internally both are stored as a breakpoint grid
``xs`` with left limits ``Fl`` and right-continuous values ``Fr``, which is
also closed (at breakpoints) under the pointwise-product and n-th-root
operators.  Discreteness of a law is emulated by the (value, tiebreak)
lexicographic order together with randomized thresholds, so exact quantiles
exist for every law.

A law answers four questions, each under one name for every input shape:
``cdf(x)`` = Pr[V <= x], ``left_and_atom(x)`` = (Pr[V < x], Pr[V = x]),
``mean_between(lo, hi)`` = E[V 1{lo <= V < hi}] and ``ppf(u)``.  ``cdf`` and
``left_and_atom`` find x among the breakpoints with one left searchsorted,
which gives Pr[V < x], the first breakpoint at or above x and whether x is
that breakpoint.  A 0-d x (a Python float or a 0-d array) takes a scalar
path in Python floats and returns floats; any other shape takes the numpy
path.  Both do the same arithmetic, so every element is equal bit for bit.
The scalar path stays because the certificates ask one threshold at a time
by the thousand: the lemma suite's ``p_tau_single`` asks a 1-3-piece
schedule about ten times per trial, and one 0-d question costs about 4.5 us
on the scalar path against about 22-26 us on a one-element array (a
two-law ``p_tau_multi`` call 10-13 us against 54-61 us; best of 5 x 20,000
calls, one core of a 2-core Xeon).

The lemma suite also builds about five thousand laws of 1-4 points and
their products and roots, where numpy's fixed cost per call outweighs the
work.  So the constructors run their checks in Python floats over the lists
they already hold and make each array once; ``product_max`` and ``nth_root``
ask each law one lookup on the merged grid, its right limits being
``where(hit, Fr[at], left)``, and merge the grid by sort and keep-mask, the
steps of ``np.unique``.  Every output keeps its bits.  On the same core, a
3-atom ``discrete`` law costs 14 us (39 us with numpy checks), a 4-point
``piecewise`` law 9 us (34 us), a two-law ``product_max`` with three extra
points 65 us (122 us) and its square root 32 us (60 us).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInstanceError, InvalidParameterError

__all__ = [
    "Distribution",
    "RandomizedThreshold",
    "product_max",
    "nth_root",
    "distribution_to_json",
    "distribution_from_json",
]

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class RandomizedThreshold:
    """Accept values above ``tau`` always, values equal to ``tau`` with
    probability ``accept_prob``."""

    tau: float
    accept_prob: float

    def bucket_form(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The same rule as value buckets (edges, probs): reject below tau,
        accept with ``accept_prob`` at tau, always above it."""
        return (self.tau, math.nextafter(self.tau, math.inf)), (0.0, self.accept_prob, 1.0)

    # one law's questions, one threshold at a time (policies.ThresholdStack
    # asks them for a stack of thresholds)

    def rejected_mass(self, d: Distribution) -> float:
        """Pr[rejected]."""
        left, atom = d.left_and_atom(self.tau)
        return left + (1.0 - self.accept_prob) * atom

    def accepted_mass(self, d: Distribution) -> float:
        """Pr[accepted]."""
        return 1.0 - self.rejected_mass(d)


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
        xs = [v for v, _ in items]
        masses = [p for _, p in items]
        if not all(math.isfinite(v) and math.isfinite(p) for v, p in items):
            raise InvalidInstanceError("atom values and masses must be finite")
        if any(p <= 0 for p in masses):
            raise InvalidInstanceError("atom masses must be positive")
        if any(v < 0 for v in xs):
            raise InvalidInstanceError("atom values must be nonnegative")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise InvalidInstanceError("atom values must be distinct")
        xs, masses = np.array(xs), np.array(masses)
        total = masses.sum()
        if abs(total - 1.0) > tol:
            raise InvalidInstanceError(f"atom masses sum to {float(total)!r}, not 1")
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
        xs = [x for x, _ in pts]
        Fs = [F for _, F in pts]
        if not all(math.isfinite(x) and math.isfinite(F) for x, F in pts):
            raise InvalidInstanceError("cdf points must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise InvalidInstanceError("cdf breakpoints must be strictly increasing in x")
        if any(b < a for a, b in zip(Fs, Fs[1:])):
            raise InvalidInstanceError("cdf values must be nondecreasing")
        if any(x < 0 for x in xs):
            raise InvalidInstanceError("support must be nonnegative")
        if Fs[0] < 0 or abs(Fs[-1] - 1.0) > tol:
            raise InvalidInstanceError("cdf must start >= 0 and end at 1")
        xs, Fs = np.array(xs), np.array(Fs)
        Fr = Fs / Fs[-1]
        Fr[-1] = 1.0
        Fl = Fr.copy()
        Fl[0] = 0.0  # any mass at the first breakpoint is an atom there
        return cls("piecewise", xs, Fl, Fr)

    # ------------------------------------------------------------------ basics

    @property
    def support_max(self) -> float:
        return float(self.xs[-1])

    def cdf(self, x):
        """Right-continuous Pr[V <= x]."""
        if np.ndim(x) == 0:
            left, j, hit = self._lookup_scalar(float(x))
            return float(self.Fr[j]) if hit else left
        left, at, hit = self._lookup(np.asarray(x, dtype=float))
        return np.where(hit, self.Fr[at], left)

    def left_and_atom(self, x):
        """(Pr[V < x], Pr[V = x])."""
        if np.ndim(x) == 0:
            left, j, hit = self._lookup_scalar(float(x))
            return left, (float(self.Fr[j] - self.Fl[j]) if hit else 0.0)
        left, at, hit = self._lookup(np.asarray(x, dtype=float))
        return left, np.where(hit, self.Fr[at] - self.Fl[at], 0.0)

    def _lookup(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pr[V < x], the index ``at`` of the first breakpoint >= x (clamped to
        the last breakpoint) and ``hit = xs[at] == x``, from one searchsorted;
        each element equals ``_lookup_scalar`` bit for bit."""
        xs, Fl, Fr = self.xs, self.Fl, self.Fr
        j = xs.searchsorted(x)
        at = np.minimum(j, len(xs) - 1)
        prev = np.maximum(j - 1, 0)
        x0, x1, fl, fr = xs[prev], xs[at], Fl[at], Fr[prev]
        hit = x1 == x
        # the clamp changes no x strictly inside a segment, and keeps x = inf finite
        frac = np.minimum(np.maximum((x - x0) / np.where(x1 > x0, x1 - x0, 1.0), 0.0), 1.0)
        inside = np.where(hit, fl, fr + (fl - fr) * frac)
        return np.where(x <= xs[0], 0.0, np.where(x > xs[-1], 1.0, inside)), at, hit

    def _lookup_scalar(self, x: float) -> tuple[float, int, bool]:
        """``_lookup`` for one x, in Python floats."""
        xs = self.xs
        j = int(xs.searchsorted(x))
        if j < len(xs) and xs[j] == x:
            return (float(self.Fl[j]) if j else 0.0), j, True
        if j == 0:
            return 0.0, 0, False
        if j == len(xs):
            return 1.0, j - 1, False
        x0, x1, fr = xs[j - 1], xs[j], self.Fr[j - 1]
        return float(fr + (self.Fl[j] - fr) * ((x - x0) / (x1 - x0))), j, False

    # ---------------------------------------------------------- interval masses

    def mean_between(self, lo, hi, open_left: bool = False) -> np.ndarray:
        """E[V * 1{lo <= V < hi}] (strict left if open_left) for arrays ``lo``
        and ``hi``.  The loops run over the law's breakpoints: each atom inside
        adds v * mass, then each linear segment adds its mass share
        (b - a) / (x1 - x0) on its overlap [a, b] with [lo, hi] times the
        overlap's midpoint a/2 + b/2.  No value is squared and no density is
        formed, so the term is finite from subnormal to the largest double,
        and it does not cancel on a narrow overlap as b^2 - a^2 would."""
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        total = np.zeros(lo.shape)
        for v, jump in zip(self.xs, self.Fr - self.Fl):
            if jump > 0:
                inside = ((v > lo) if open_left else (v >= lo)) & (v < hi)
                total = np.where(inside, total + v * jump, total)
        for x0, x1, seg_mass in zip(self.xs[:-1], self.xs[1:], self.Fl[1:] - self.Fr[:-1]):
            if seg_mass > 0:
                a, b = np.maximum(x0, lo), np.minimum(x1, hi)
                # clamped into the segment, the lanes masked below stay finite
                a, b = np.minimum(a, x1), np.maximum(b, x0)
                term = seg_mass * ((b - a) / (x1 - x0)) * (a / 2.0 + b / 2.0)
                total = np.where(b > a, total + term, total)
        return np.where(hi <= lo, 0.0, total)

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
        # rounding can carry frac == 1 an ulp past xs[j]; ppf must stay nondecreasing
        interp = np.minimum(self.xs[prev] + (self.xs[j] - self.xs[prev]) * frac, self.xs[j])
        val = np.where(in_jump | (j == 0), self.xs[j], interp)
        return val if val.ndim else float(val)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Distribution({self.kind}, {len(self.xs)} breakpoints, max={self.support_max})"


# ---------------------------------------------------------------------- ops


def _merged_grid(ds: Sequence[Distribution], extra_points=None) -> np.ndarray:
    """``np.unique`` of every breakpoint and extra point, by its own steps: a
    NaN extra point sorts last and, as there, all NaNs keep one."""
    parts = [d.xs for d in ds]
    if extra_points is not None:
        parts.append(np.asarray(extra_points, dtype=float))
    grid = np.concatenate(parts)
    grid.sort()
    keep = np.empty(len(grid), dtype=bool)
    keep[0] = True
    np.not_equal(grid[1:], grid[:-1], out=keep[1:])
    if grid[-1] != grid[-1]:
        keep[grid.searchsorted(grid[-1]) + 1:] = False
    return grid[keep]


def _right_and_left(d: Distribution, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``d.cdf(grid)`` and ``d.left_and_atom(grid)[0]`` from one lookup."""
    left, at, hit = d._lookup(grid)
    return np.where(hit, d.Fr[at], left), left


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
        right, left = _right_and_left(d, grid)
        Fr *= right
        Fl *= left
    kind = "discrete" if all(d.kind == "discrete" for d in ds) else "piecewise"
    return Distribution(kind, grid, Fl, Fr)


def nth_root(d: Distribution, n: int, extra_points=None) -> Distribution:
    """Distribution with CDF equal to the n-th root of d's CDF."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameterError(f"root order must be a positive integer, got {n!r}")
    if n == 1 and extra_points is None:
        return d
    grid = _merged_grid([d], extra_points)
    right, left = _right_and_left(d, grid)
    return Distribution(d.kind, grid, left ** (1.0 / n), right ** (1.0 / n))


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

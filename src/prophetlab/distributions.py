"""Reward distributions with exact CDF and inverse CDF, and max/root operators.

Two user-facing families are supported: discrete atom lists and
piecewise-linear CDFs.  Internally both are stored as a breakpoint grid
``xs`` with left limits ``Fl`` and right-continuous values ``Fr``, which is
also closed (at breakpoints) under the pointwise-product and n-th-root
operators.  A law is these three arrays and nothing else: they state its
form, and every evaluator reads only them.  Discreteness of a law is
emulated by the (value, tiebreak) lexicographic order together with
randomized thresholds (``policies.ThresholdStack``), so exact quantiles exist
for every law.

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
schedule about ten times per trial.  A Python float is recognised by its
type, before ``np.ndim``, whose call costs as much as the rest of the
question: one question at a float costs about 1.4 us, and 3.0 us through
``np.ndim`` (best of 7 x 50,000 calls, one core of a 2-core Xeon).

The lemma suite also builds about five thousand laws of 1-4 points per
thousand trials, and their products and roots, where numpy's fixed cost per
call outweighs the work.  So the constructors check their lists in one pass,
running the ordered checks only to name the first failure, do their
arithmetic in Python floats (a discrete law's masses are summed by
``np.add.reduce``, in numpy's order: one after another below 8 terms,
pairwise from 8) and make each array once.  ``product_max`` and ``nth_root``
merge the grid by sort and keep-mask, the steps of ``np.unique``, and walk
each law along it.  At the law's own breakpoint j the right and left limits
are ``Fr[j]`` and ``Fl[j]`` (0.0 at the first), as ``_lookup_scalar`` gives;
a point the law lacks lies between two known breakpoints and takes
``_lookup_scalar``'s interpolation with no search.  So the lemma suite's
root of a product, asked on the product's own grid, only reads arrays.  Both
multiply in Python floats and make each array once; the root stays numpy's
array power, which rounds some roots apart from Python's ``**``.  Every
output keeps its bits.  On the same core, a 3-atom ``discrete`` law costs
6.5 us (10.5 us with a pass per check and numpy arithmetic), a 4-point
``piecewise`` law 4.6 us (6.1 us), a two-law ``product_max`` on a 10-point
grid 14 us (33 us with a lookup at every point) and its square root on its
own grid 8 us (16 us).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInstanceError, InvalidParameterError, is_integer

__all__ = [
    "Distribution",
    "product_max",
    "nth_root",
    "distribution_from_json",
]

_MASS_TOL = 1e-12


class Distribution:
    """One-dimensional law on the nonnegative reals.

    ``xs`` are strictly increasing breakpoints, ``Fl[j] = Pr[V < xs[j]]`` and
    ``Fr[j] = Pr[V <= xs[j]]``.  Between breakpoints the CDF interpolates
    linearly from ``Fr[j]`` to ``Fl[j+1]``; a discrete law has all its mass in
    the jumps ``Fr - Fl``.
    """

    __slots__ = ("xs", "Fl", "Fr")

    def __init__(self, xs: np.ndarray, Fl: np.ndarray, Fr: np.ndarray):
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
        # one pass passes exactly the lists that pass every check below
        if not (all(0.0 <= v < math.inf and 0.0 < p < math.inf for v, p in items)
                and all(a < b for a, b in zip(xs, xs[1:]))):
            if not all(math.isfinite(v) and math.isfinite(p) for v, p in items):
                raise InvalidInstanceError("atom values and masses must be finite")
            if any(p <= 0 for p in masses):
                raise InvalidInstanceError("atom masses must be positive")
            if any(v < 0 for v in xs):
                raise InvalidInstanceError("atom values must be nonnegative")
            raise InvalidInstanceError("atom values must be distinct")
        total = float(np.add.reduce(masses))  # numpy's summation order, pairwise from 8 terms
        if abs(total - 1.0) > tol:
            raise InvalidInstanceError(f"atom masses sum to {total!r}, not 1")
        Fr = list(itertools.accumulate(p / total for p in masses))
        Fr[-1] = 1.0
        return cls(np.array(xs), np.array([0.0, *Fr[:-1]]), np.array(Fr))

    @classmethod
    def piecewise(cls, points: Iterable[tuple[float, float]], tol: float = _MASS_TOL) -> "Distribution":
        """Build a piecewise-linear CDF from (x, F(x)) pairs."""
        pts = [(float(x), float(F)) for x, F in points]
        if len(pts) < 2:
            raise InvalidInstanceError("piecewise CDF needs at least two points")
        xs = [x for x, _ in pts]
        Fs = [F for _, F in pts]
        # one pass passes exactly the lists that pass every check below
        if not (all(0.0 <= x < math.inf and 0.0 <= F < math.inf for x, F in pts)
                and all(a[0] < b[0] and a[1] <= b[1] for a, b in zip(pts, pts[1:]))
                and not abs(Fs[-1] - 1.0) > tol):
            if not all(math.isfinite(x) and math.isfinite(F) for x, F in pts):
                raise InvalidInstanceError("cdf points must be finite")
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise InvalidInstanceError("cdf breakpoints must be strictly increasing in x")
            if any(b < a for a, b in zip(Fs, Fs[1:])):
                raise InvalidInstanceError("cdf values must be nondecreasing")
            if any(x < 0 for x in xs):
                raise InvalidInstanceError("support must be nonnegative")
            raise InvalidInstanceError("cdf must start >= 0 and end at 1")
        top = Fs[-1]
        Fr = [F / top for F in Fs]
        Fr[-1] = 1.0
        # any mass at the first breakpoint is an atom there
        return cls(np.array(xs), np.array([0.0, *Fr[1:]]), np.array(Fr))

    # ------------------------------------------------------------------ basics

    @property
    def support_max(self) -> float:
        return float(self.xs[-1])

    def cdf(self, x):
        """Right-continuous Pr[V <= x]."""
        if type(x) is float or np.ndim(x) == 0:
            left, j, hit = self._lookup_scalar(float(x))
            return float(self.Fr[j]) if hit else left
        left, at, hit = self._lookup(np.asarray(x, dtype=float))
        return np.where(hit, self.Fr[at], left)

    def left_and_atom(self, x):
        """(Pr[V < x], Pr[V = x])."""
        if type(x) is float or np.ndim(x) == 0:
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
        if j == len(xs):  # past the last breakpoint; NaN sorts there and stays NaN
            return (1.0 if x > xs[-1] else math.nan), j - 1, False
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
        return f"Distribution({len(self.xs)} breakpoints, max={self.support_max})"


# ---------------------------------------------------------------------- ops


def _merged_grid(ds: Sequence[Distribution], extra_points=None) -> np.ndarray:
    """``np.unique`` of every breakpoint and extra point, by its own steps
    (numpy 2 imports ``numpy.ma`` on the first ``np.unique``, which no command
    needs).  Extra points become breakpoints, so they must be a flat list of
    finite, nonnegative numbers."""
    parts = [d.xs for d in ds]
    if extra_points is not None:
        try:
            extra = np.asarray(extra_points, dtype=float)
        except (TypeError, ValueError):
            raise InvalidParameterError("extra grid points must be numbers") from None
        if extra.ndim != 1:
            raise InvalidParameterError(
                f"extra grid points must be a flat list, got shape {extra.shape}")
        parts.append(extra)
    grid = np.concatenate(parts)
    grid.sort()
    if not (grid[0] >= 0.0 and grid[-1] < math.inf):  # a NaN sorts last
        bad = grid[0] if grid[0] < 0.0 else grid[-1]
        raise InvalidParameterError(
            f"extra grid points must be finite and nonnegative, got {bad.item()!r}")
    keep = np.empty(len(grid), dtype=bool)
    keep[0] = True
    np.not_equal(grid[1:], grid[:-1], out=keep[1:])
    return grid[keep]


def _limits(d: Distribution, points: list[float]) -> tuple[list[float], list[float]]:
    """``d.cdf`` and ``d.left_and_atom(...)[0]`` at each point of a sorted grid
    that holds every breakpoint of ``d``, in one walk along both.  At
    breakpoint j they are ``Fr[j]`` and ``Fl[j]`` (0.0 at the first), read
    straight from the arrays; a point the law lacks lies below breakpoint j
    and above j - 1, and takes ``_lookup_scalar``'s arithmetic there."""
    xs, Fl, Fr = d.xs.tolist(), d.Fl.tolist(), d.Fr.tolist()
    right, left = [], []
    j, last = 0, len(xs)
    for x in points:
        if j < last and xs[j] == x:
            right.append(Fr[j])
            left.append(Fl[j] if j else 0.0)
            j += 1
            continue
        if j == 0:
            below = 0.0
        elif j == last:
            below = 1.0
        else:
            x0, fr = xs[j - 1], Fr[j - 1]
            below = fr + (Fl[j] - fr) * ((x - x0) / (xs[j] - x0))
        right.append(below)
        left.append(below)
    return right, left


def product_max(ds: Sequence[Distribution], extra_points=None) -> Distribution:
    """Distribution of the max of independent draws: CDF = pointwise product.

    Exact for discrete inputs; with piecewise inputs the result is exact at
    the merged breakpoints (pass extra_points to refine where it matters).
    """
    ds = list(ds)
    if not ds:
        raise InvalidInstanceError("product_max of an empty list")
    grid = _merged_grid(ds, extra_points)
    points = grid.tolist()
    Fr = [1.0] * len(points)
    Fl = [1.0] * len(points)
    for d in ds:
        right, left = _limits(d, points)
        Fr = [a * b for a, b in zip(Fr, right)]
        Fl = [a * b for a, b in zip(Fl, left)]
    return Distribution(grid, np.array(Fl), np.array(Fr))


def nth_root(d: Distribution, n: int, extra_points=None) -> Distribution:
    """Distribution with CDF equal to the n-th root of d's CDF."""
    if not is_integer(n) or n < 1:
        raise InvalidParameterError(f"root order must be a positive integer, got {n!r}")
    grid = _merged_grid([d], extra_points)
    right, left = _limits(d, grid.tolist())
    # numpy's power, not Python's **: the two round some roots apart
    root = 1.0 / n
    return Distribution(grid, np.array(left) ** root, np.array(right) ** root)


# --------------------------------------------------------------------- JSON


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

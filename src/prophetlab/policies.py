"""The four algorithm classes as executable accept/reject rules.

Threshold schedules are piecewise-constant randomized thresholds; activation
policies attach per-identity, piecewise-constant-in-time activation tables;
the adaptive two-threshold policy switches from a high to a low threshold at
a data-dependent time set by the identities of the rewards still to arrive.
Every policy answers ``num_pieces``, ``rule(piece, identity)`` and
``pieces_at(times, identities)``, the piece of every arrival in a block of
replications; the adaptive rule's two pieces are its phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .distributions import Distribution, RandomizedThreshold
from .errors import InvalidParameterError, PolicyMismatchError
from .instance import Instance, OptLaw

__all__ = [
    "ThresholdSchedule",
    "ValueBuckets",
    "ActivationPolicy",
    "AdaptiveTwoThreshold",
    "Policy",
    "adaptive_ell",
    "make_single_threshold",
    "make_blind_schedule",
    "make_adaptive",
    "check_shape",
    "sort_nonincreasing",
]


class _TimePieces:
    """Time pieces [s_r, s_{r+1}) of ``self.breakpoints``, 0 = s_0 < ... < s_m = 1,
    checked to cover [0, 1] in increasing order.

    ``rule(piece, identity)`` is a ``RandomizedThreshold`` or ``ValueBuckets``;
    every rule reports accepted mass, accepted mean, accepted mass above x
    and its ``bucket_form()`` (edges, probs).
    """

    def __post_init__(self):
        b = self.breakpoints
        if len(b) < 2 or b[0] != 0.0 or b[-1] != 1.0:
            raise InvalidParameterError("time pieces must cover [0, 1]")
        if not all(s < t for s, t in zip(b, b[1:])):
            raise InvalidParameterError("time breakpoints must be strictly increasing")

    @property
    def num_pieces(self) -> int:
        return len(self.breakpoints) - 1

    def pieces_at(self, times: np.ndarray, identities: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.breakpoints, times, side="right") - 1  # times lie in [0, 1)


@dataclass(frozen=True)
class ThresholdSchedule(_TimePieces):
    """Breakpoints 0 = s_0 < ... < s_m = 1 with one randomized threshold per piece."""

    breakpoints: tuple[float, ...]
    thresholds: tuple[RandomizedThreshold, ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.breakpoints) != len(self.thresholds) + 1:
            raise InvalidParameterError("need exactly one threshold per piece")

    def rule(self, piece: int, identity: int) -> RandomizedThreshold:
        """The same threshold for every identity."""
        return self.thresholds[piece]


@dataclass(frozen=True)
class ValueBuckets:
    """Piecewise-constant activation probability over the value axis.

    ``edges`` ascending; a value v falls in bucket ``searchsorted(edges, v,
    'right')`` so buckets are closed on the left:  (-inf, e0), [e0, e1), ...
    """

    edges: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) != len(self.edges) + 1:
            raise InvalidParameterError("need len(edges) + 1 bucket probabilities")
        if not all(0.0 <= p <= 1.0 for p in self.probs):  # NaN fails too
            raise InvalidParameterError("activation probabilities must lie in [0, 1]")
        edges = np.asarray(self.edges, dtype=float)
        if not (np.isfinite(edges).all() and (np.diff(edges) > 0).all()):
            raise InvalidParameterError("bucket edges must be finite and strictly increasing")

    def bucket_form(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return self.edges, self.probs

    def _bounds(self) -> list[tuple[float, float, float]]:
        """(lo, hi, prob) of each bucket that activates, lo clipped at 0."""
        lows = (-math.inf,) + self.edges
        highs = self.edges + (math.inf,)
        return [(max(lo, 0.0), hi, p) for lo, hi, p in zip(lows, highs, self.probs) if p]

    def accepted_mass(self, d: Distribution) -> float:
        """Pr[accepted]."""
        return sum(p * d.mass_between(lo, hi) for lo, hi, p in self._bounds())

    def accepted_mean(self, d: Distribution) -> float:
        """E[V * 1{accepted}]."""
        return sum(p * d.mean_between(lo, hi) for lo, hi, p in self._bounds())

    def accepted_mass_above(self, d: Distribution, xs: np.ndarray) -> np.ndarray:
        """Pr[accepted and V > x] for each x of ``xs``."""
        bounds = self._bounds()
        return np.array(
            [sum(p * d.mass_between_above(lo, hi, x) for lo, hi, p in bounds) for x in xs],
            dtype=float,
        )


@dataclass(frozen=True)
class ActivationPolicy(_TimePieces):
    """Per-identity activation tables, piecewise constant in time."""

    breakpoints: tuple[float, ...]
    tables: tuple[tuple[ValueBuckets, ...], ...]  # [piece][identity]

    def __post_init__(self):
        super().__post_init__()
        if len(self.tables) != len(self.breakpoints) - 1:
            raise InvalidParameterError("need one table per time piece")
        if len({len(row) for row in self.tables}) != 1:
            raise InvalidParameterError("every time piece needs the same identities")

    @property
    def n(self) -> int:
        return len(self.tables[0])

    def rule(self, piece: int, identity: int) -> ValueBuckets:
        return self.tables[piece][identity]


@dataclass(frozen=True)
class AdaptiveTwoThreshold:
    """High threshold tau1 until the online switch time, low threshold tau2
    after: its pieces are these two phases, not spans of time."""

    epsilon: float
    ell: int
    tau1: RandomizedThreshold
    tau2: RandomizedThreshold
    q: tuple[float, ...]  # per-identity Pr[V_i rejected at tau2]
    copies: int

    num_pieces = 2

    @property
    def n(self) -> int:
        return len(self.q)

    def rule(self, phase: int, identity: int) -> RandomizedThreshold:
        return (self.tau1, self.tau2)[phase]

    def pieces_at(self, times: np.ndarray, identities: np.ndarray) -> np.ndarray:
        """The phase of every arrival in a (rows, N) block of ``times``, column
        j being identity ``identities[j]``: 1 (tau2) once the rewards arriving
        strictly later all fall below tau2 with probability above epsilon, a
        suffix product in arrival order, equal times in column order."""
        log_q = np.log(np.asarray(self.q))
        order = np.argsort(times, axis=1, kind="stable")
        contrib = log_q[identities[order]]
        later = np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1] - contrib
        phase = np.empty(times.shape, dtype=np.intp)
        np.put_along_axis(phase, order, later > math.log(self.epsilon), axis=1)
        return phase


Policy = Union[ThresholdSchedule, ActivationPolicy, AdaptiveTwoThreshold]


# ------------------------------------------------------------ constructors


def make_single_threshold(opt: OptLaw) -> ThresholdSchedule:
    """The blind single-threshold rule at the OPT median."""
    return ThresholdSchedule((0.0, 1.0), (opt.quantile_threshold(0.5),))


def make_blind_schedule(opt: OptLaw, k: int, grid_resolution: int = 512) -> ThresholdSchedule:
    """Discretized blind schedule: OPT-quantile 1/2 until 2/k, then 1/(t*k).

    Each piece past 2/k uses the quantile at its left endpoint, which is the
    larger (conservative) threshold; the error vanishes as grid_resolution
    grows.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidParameterError(f"copy count must be a positive integer, got {k!r}")
    if grid_resolution < 1:
        raise InvalidParameterError("grid_resolution must be >= 1")
    switch = 2.0 / k
    if switch >= 1.0:
        return make_single_threshold(opt)
    grid = np.linspace(switch, 1.0, grid_resolution + 1)
    thresholds = opt.quantile_thresholds([0.5, *(1.0 / (grid[:-1] * k))])
    breaks = (0.0, switch, *grid[1:])
    return ThresholdSchedule(breaks, tuple(thresholds))


def adaptive_ell(epsilon: float) -> int:
    """ell = max(1, ceil(sqrt(ln 1/eps))) of the adaptive rule, after checking
    that epsilon lies in (0, 1/e]."""
    if not (0.0 < epsilon <= 1.0 / math.e):
        raise InvalidParameterError(f"epsilon must be in (0, 1/e], got {epsilon!r}")
    return max(1, math.ceil(math.sqrt(math.log(1.0 / epsilon)) - 1e-12))


def make_adaptive(opt: OptLaw, inst: Instance, epsilon: float) -> AdaptiveTwoThreshold:
    """Two-threshold adaptive policy: tau1 at OPT-quantile 3/4, tau2 at e^-ell."""
    ell = adaptive_ell(epsilon)
    tau1, tau2 = opt.quantile_thresholds((0.75, math.exp(-ell)))
    q = tuple(tau2.rejected_mass(d) for d in inst.base)
    return AdaptiveTwoThreshold(float(epsilon), ell, tau1, tau2, q, inst.copies)


def sort_nonincreasing(schedule: ThresholdSchedule) -> ThresholdSchedule:
    """Rearrange the pieces (keeping their lengths) into nonincreasing order."""
    lengths = np.diff(schedule.breakpoints)
    order = sorted(
        range(schedule.num_pieces),
        key=lambda r: (schedule.thresholds[r].tau, -schedule.thresholds[r].accept_prob),
        reverse=True,
    )
    breaks = [0.0]
    for r in order:
        breaks.append(breaks[-1] + float(lengths[r]))
    breaks[-1] = 1.0
    return ThresholdSchedule(tuple(breaks), tuple(schedule.thresholds[r] for r in order))


# -------------------------------------------------------------------- shape


def check_shape(policy: Policy, n: int, copies: int) -> None:
    """Raise PolicyMismatchError unless ``policy`` runs on n identities with
    ``copies`` copies each: an activation policy fixes n, the adaptive rule
    fixes n and k, a threshold schedule fits every shape."""
    want = (getattr(policy, "n", n), getattr(policy, "copies", copies))
    if want != (n, copies):
        raise PolicyMismatchError(
            f"policy built for (n={want[0]}, k={want[1]}), instance has (n={n}, k={copies})"
        )

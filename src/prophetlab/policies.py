"""The four algorithm classes as executable accept/reject rules.

Threshold schedules are piecewise-constant randomized thresholds; activation
policies attach per-identity, piecewise-constant-in-time activation tables;
the adaptive two-threshold policy switches from a high to a low threshold at
a data-dependent time decided online from the rewards seen so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .distributions import AugmentedValue, Distribution, RandomizedThreshold
from .errors import InvalidParameterError, PolicyMismatchError
from .instance import ArrivalSequence, Instance, OptLaw

__all__ = [
    "ThresholdSchedule",
    "ValueBuckets",
    "ActivationPolicy",
    "AdaptiveTwoThreshold",
    "StopOutcome",
    "Policy",
    "make_single_threshold",
    "make_blind_schedule",
    "make_adaptive",
    "run_policy",
    "switch_time_S",
    "sort_nonincreasing",
]


@dataclass(frozen=True)
class ThresholdSchedule:
    """Breakpoints 0 = s_0 < ... < s_m = 1 with one randomized threshold per piece."""

    breakpoints: tuple[float, ...]
    thresholds: tuple[RandomizedThreshold, ...]
    nonincreasing: bool = False

    def __post_init__(self):
        if len(self.breakpoints) != len(self.thresholds) + 1:
            raise InvalidParameterError("need exactly one threshold per piece")
        if self.breakpoints[0] != 0.0 or self.breakpoints[-1] != 1.0:
            raise InvalidParameterError("schedule must cover [0, 1]")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise InvalidParameterError("breakpoints must be strictly increasing")

    @property
    def num_pieces(self) -> int:
        return len(self.thresholds)

    def piece_at(self, t: float) -> int:
        j = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return min(max(j, 0), self.num_pieces - 1)

    def threshold_at(self, t: float) -> RandomizedThreshold:
        return self.thresholds[self.piece_at(t)]


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
        if any(p < 0 or p > 1 for p in self.probs):
            raise InvalidParameterError("activation probabilities must lie in [0, 1]")
        if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise InvalidParameterError("bucket edges must be strictly increasing")

    def prob(self, v: float) -> float:
        return self.probs[int(np.searchsorted(self.edges, v, side="right"))]


@dataclass(frozen=True)
class ActivationPolicy:
    """Per-identity activation tables, piecewise constant in time."""

    breakpoints: tuple[float, ...]
    tables: tuple[tuple[ValueBuckets, ...], ...]  # [piece][identity]

    def __post_init__(self):
        if self.breakpoints[0] != 0.0 or self.breakpoints[-1] != 1.0:
            raise InvalidParameterError("activation pieces must cover [0, 1]")
        if len(self.tables) != len(self.breakpoints) - 1:
            raise InvalidParameterError("need one table per time piece")

    @property
    def n(self) -> int:
        return len(self.tables[0])

    def piece_at(self, t: float) -> int:
        j = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return min(max(j, 0), len(self.tables) - 1)

    def prob(self, identity: int, v: float, t: float) -> float:
        return self.tables[self.piece_at(t)][identity].prob(v)

    @classmethod
    def constant(cls, buckets_per_identity: Sequence[ValueBuckets]) -> "ActivationPolicy":
        return cls((0.0, 1.0), (tuple(buckets_per_identity),))

    @classmethod
    def from_threshold(cls, schedule: ThresholdSchedule, n: int) -> "ActivationPolicy":
        """The indicator-of-exceeding-tau activation table of a schedule."""
        tables = []
        for rt in schedule.thresholds:
            above = np.nextafter(rt.tau, np.inf)
            vb = ValueBuckets((rt.tau, above), (0.0, rt.accept_prob, 1.0))
            tables.append(tuple([vb] * n))
        return cls(tuple(schedule.breakpoints), tuple(tables))


@dataclass(frozen=True)
class AdaptiveTwoThreshold:
    """High threshold tau1 until the online switch time, low threshold tau2 after."""

    epsilon: float
    ell: int
    tau1: RandomizedThreshold
    tau2: RandomizedThreshold
    q: tuple[float, ...]  # per-identity Pr[V_i rejected at tau2]
    copies: int

    @property
    def n(self) -> int:
        return len(self.q)

    @property
    def w(self) -> tuple[float, ...]:
        """-ln(q_i) per identity."""
        return tuple(-math.log(qi) for qi in self.q)


Policy = Union[ThresholdSchedule, ActivationPolicy, AdaptiveTwoThreshold]


@dataclass(frozen=True)
class StopOutcome:
    stopped: bool
    stop_time: float
    selected_value: float
    selected_identity: tuple[int, int] | None

    @classmethod
    def none(cls) -> "StopOutcome":
        return cls(False, 1.0, 0.0, None)


# ------------------------------------------------------------ constructors


def make_single_threshold(opt: OptLaw) -> ThresholdSchedule:
    """The blind single-threshold rule at the OPT median."""
    return ThresholdSchedule((0.0, 1.0), (opt.quantile_threshold(0.5),), nonincreasing=True)


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
    return ThresholdSchedule(breaks, tuple(thresholds), nonincreasing=True)


def make_adaptive(opt: OptLaw, inst: Instance, epsilon: float) -> AdaptiveTwoThreshold:
    """Two-threshold adaptive policy: tau1 at OPT-quantile 3/4, tau2 at e^-ell."""
    if not (0.0 < epsilon <= 1.0 / math.e):
        raise InvalidParameterError(f"epsilon must be in (0, 1/e], got {epsilon!r}")
    ell = math.ceil(math.sqrt(math.log(1.0 / epsilon)) - 1e-12)
    ell = max(ell, 1)
    tau1, tau2 = opt.quantile_thresholds((0.75, math.exp(-ell)))
    q = tuple(d.reject_prob(tau2) for d in inst.base)
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
    return ThresholdSchedule(
        tuple(breaks), tuple(schedule.thresholds[r] for r in order), nonincreasing=True
    )


# ---------------------------------------------------------------- execution


def _check_shape(policy: Policy, seq: ArrivalSequence) -> None:
    if isinstance(policy, ActivationPolicy) and policy.n != seq.n:
        raise PolicyMismatchError(f"policy has {policy.n} identities, sequence has {seq.n}")
    if isinstance(policy, AdaptiveTwoThreshold):
        if policy.n != seq.n or policy.copies != seq.copies:
            raise PolicyMismatchError(
                f"adaptive policy built for (n={policy.n}, k={policy.copies}), "
                f"sequence has (n={seq.n}, k={seq.copies})"
            )


def run_policy(policy: Policy, seq: ArrivalSequence, rng=None) -> StopOutcome:
    """Scan the events in time order and return the first acceptance.

    Threshold and activation decisions consume the event's own tiebreak, so
    the outcome is a pure function of (policy, seq); ``rng`` is unused and
    kept for signature symmetry with stochastic policy classes.
    """
    _check_shape(policy, seq)
    if isinstance(policy, AdaptiveTwoThreshold):
        return _run_adaptive(policy, seq)
    for pos in range(len(seq)):
        t = float(seq.times[pos])
        v = float(seq.values[pos])
        u = float(seq.tiebreaks[pos])
        if isinstance(policy, ThresholdSchedule):
            accept = policy.threshold_at(t).accepts(AugmentedValue(v, u))
        else:
            accept = u < policy.prob(int(seq.identities[pos]), v, t)
        if accept:
            return StopOutcome(True, t, v, (int(seq.identities[pos]), int(seq.copy_index[pos])))
    return StopOutcome.none()


def _run_adaptive(policy: AdaptiveTwoThreshold, seq: ArrivalSequence) -> StopOutcome:
    log_eps = math.log(policy.epsilon)
    logq = [math.log(qi) for qi in policy.q]
    # log of the product of q_i over rewards not yet arrived
    remaining = policy.copies * sum(logq)
    for pos in range(len(seq)):
        i = int(seq.identities[pos])
        remaining -= logq[i]  # current event no longer counts as "later"
        # suffix product over strictly-later arrivals decides the phase
        rt = policy.tau2 if remaining > log_eps else policy.tau1
        av = AugmentedValue(float(seq.values[pos]), float(seq.tiebreaks[pos]))
        if rt.accepts(av):
            return StopOutcome(True, float(seq.times[pos]), av.value,
                               (i, int(seq.copy_index[pos])))
    return StopOutcome.none()


def switch_time_S(policy: AdaptiveTwoThreshold, times: np.ndarray,
                  identities: np.ndarray) -> float:
    """Offline switch time: the last t with q(t) <= epsilon.

    q(t) is the probability (over values) that every reward arriving at or
    after t falls below tau2; it is a right-continuous step function jumping
    just after each arrival.
    """
    order = np.argsort(times, kind="stable")
    ts = np.asarray(times, dtype=float)[order]
    ids = np.asarray(identities)[order]
    logq = np.log(np.asarray(policy.q))
    log_eps = math.log(policy.epsilon)
    contrib = logq[ids]
    # suffix[j] = log prod_{m >= j} q_{id_m}
    suffix = np.concatenate((np.cumsum(contrib[::-1])[::-1], [0.0]))
    ok = np.nonzero(suffix[: len(ts)] <= log_eps)[0]
    if len(ok) == 0:
        return 0.0  # q(0) already exceeds epsilon; switch immediately
    return float(ts[ok[-1]])

"""The four algorithm classes as executable accept/reject rules.

Threshold schedules are piecewise-constant randomized thresholds; activation
policies attach per-identity, piecewise-constant-in-time activation tables;
the adaptive two-threshold policy switches from a high to a low threshold at
a data-dependent time set by the identities of the rewards still to arrive.

Every policy answers ``num_pieces``, ``pieces_at(times, identities, out=None)``
(the piece of every arrival in a block of replications, written into ``out``
when one is given), ``case_quantiles`` (the
OPT quantiles where its proof switches cases) and ``piece_stack(identity)``,
the only form in which it gives its rules: one identity's rules of all
pieces, built once.  A stack answers ``buckets()``, its rules as padded
value-bucket tables (Monte Carlo's form), and asks each law's questions
(``cdf``, ``left_and_atom``, ``mean_between``) once on arrays for all pieces
(the exact integrator's form).  A threshold schedule and the adaptive rule
hold one ``ThresholdStack`` for every identity; the adaptive rule's two
pieces are its phases, found from packed 64-bit keys, each time above its
column index: one sort, or one ``np.partition`` when every identity has the
same q (a stable argsort past N = 2048).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .distributions import Distribution, RandomizedThreshold
from .errors import InvalidParameterError, PolicyMismatchError, is_integer
from .instance import Instance, OptLaw

__all__ = [
    "ThresholdSchedule",
    "ValueBuckets",
    "ThresholdStack",
    "BucketStack",
    "ActivationPolicy",
    "AdaptiveTwoThreshold",
    "Policy",
    "adaptive_ell",
    "log_inverse",
    "make_single_threshold",
    "make_blind_schedule",
    "make_adaptive",
    "check_shape",
    "sort_nonincreasing",
]


_TAU1_QUANTILE = 0.75  # the adaptive rule's high threshold, as an OPT quantile


class _TimePieces:
    """Time pieces [s_r, s_{r+1}) of ``self.breakpoints``, 0 = s_0 < ... < s_m = 1,
    checked to cover [0, 1] in increasing order."""

    case_quantiles = ()  # a time-pieced policy's proofs switch at no further quantile

    def __post_init__(self):
        b = self.breakpoints
        if len(b) < 2 or b[0] != 0.0 or b[-1] != 1.0:
            raise InvalidParameterError("time pieces must cover [0, 1]")
        if not all(s < t for s, t in zip(b, b[1:])):
            raise InvalidParameterError("time breakpoints must be strictly increasing")

    @property
    def num_pieces(self) -> int:
        return len(self.breakpoints) - 1

    def pieces_at(self, times: np.ndarray, identities: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        found = np.searchsorted(self.breakpoints, times, side="right")
        return np.subtract(found, 1, out=out)  # times lie in [0, 1)


class ThresholdSchedule(_TimePieces):
    """Breakpoints 0 = s_0 < ... < s_m = 1 with one randomized threshold per
    piece, given as ``RandomizedThreshold`` rules or as a ``ThresholdStack``
    and held as that one stack, which serves every identity.  ``pieces``
    lists the same rules by piece in Python floats, built on first use, for
    ``p_tau_single``, which asks one threshold at a time."""

    def __init__(self, breakpoints, thresholds):
        self.breakpoints = tuple(breakpoints)
        if not isinstance(thresholds, ThresholdStack):  # a sequence of rules
            thresholds = ThresholdStack([rt.tau for rt in thresholds],
                                        [rt.accept_prob for rt in thresholds])
        self.stack = thresholds
        super().__post_init__()
        if len(self.breakpoints) != len(self.stack.tau) + 1:
            raise InvalidParameterError("need exactly one threshold per piece")

    @cached_property
    def pieces(self) -> tuple[tuple[float, float, float, float], ...]:
        """(lo, hi, tau, accept_prob) of every piece, in Python floats."""
        b = [float(s) for s in self.breakpoints]
        return tuple(zip(b[:-1], b[1:], self.stack.tau.tolist(), self.stack.accept_prob.tolist()))

    @cached_property
    def thresholds(self) -> tuple[RandomizedThreshold, ...]:
        """The rule of every piece."""
        return tuple(map(RandomizedThreshold, self.stack.tau.tolist(),
                         self.stack.accept_prob.tolist()))

    def piece_stack(self, identity: int) -> ThresholdStack:
        return self.stack


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


# The rules of all pieces at once.  Each answers a question for every piece
# with the arithmetic of asking each piece's rule alone, bit for bit, and
# ``buckets()`` gives them as (edges, probs), one row per piece: a value's
# bucket is the number of edges at or below it.


class ThresholdStack:
    """Randomized thresholds, one per piece: the arrays ``tau`` and
    ``accept_prob``, checked as a ``RandomizedThreshold`` checks its own.
    Both are read-only copies, since one stack serves every identity."""

    def __init__(self, tau, accept_prob):
        self.tau = np.array(tau, dtype=float)
        self.accept_prob = np.array(accept_prob, dtype=float)
        self.tau.setflags(write=False)
        self.accept_prob.setflags(write=False)
        if self.tau.ndim != 1 or self.tau.shape != self.accept_prob.shape:
            raise InvalidParameterError("need one accept probability per threshold")
        if np.isnan(self.tau).any():
            raise InvalidParameterError("a threshold tau must be a number, got nan")
        if not ((self.accept_prob >= 0.0) & (self.accept_prob <= 1.0)).all():  # NaN fails too
            raise InvalidParameterError("accept probability must lie in [0, 1]")

    def buckets(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges tau and the double above it, probs (0, a, 1): reject below
        tau, accept with ``accept_prob`` at tau, always above it."""
        edges = np.stack([self.tau, np.nextafter(self.tau, math.inf)], axis=1)
        a = self.accept_prob
        return edges, np.stack([np.zeros_like(a), a, np.ones_like(a)], axis=1)

    def accepted_mass(self, d: Distribution) -> np.ndarray:
        """Pr[accepted] per piece: 1 - (Pr[V < tau] + (1 - a) Pr[V = tau])."""
        left, atom = d.left_and_atom(self.tau)
        return 1.0 - (left + (1.0 - self.accept_prob) * atom)

    def accepted_mean(self, d: Distribution) -> np.ndarray:
        """E[V * 1{accepted}] per piece."""
        _, atom = d.left_and_atom(self.tau)
        above = d.mean_between(self.tau, np.inf, open_left=True)
        return above + self.accept_prob * self.tau * atom

    def accepted_mass_above(self, d: Distribution, xs: np.ndarray) -> np.ndarray:
        """Pr[accepted and V > x] per (x, piece): 1 - F(tau) + a Pr[V = tau]
        where tau > x, else 1 - F(x); ``cdf`` is asked only at the taus and xs."""
        x = np.asarray(xs, dtype=float)[:, None]
        _, atom = d.left_and_atom(self.tau)
        over_tau = (1.0 - d.cdf(self.tau)) + self.accept_prob * atom
        return np.where(self.tau > x, over_tau, 1.0 - d.cdf(x))


class BucketStack:
    """``ValueBuckets``, one per piece, as one read-only table padded to a
    common width with edges +inf (no value reaches them) and probs 0; bucket
    b of a piece is [lo, hi) with lo clipped at 0."""

    def __init__(self, buckets):
        width = max(len(vb.edges) for vb in buckets)
        pads = [(math.inf,) * (width - len(vb.edges)) for vb in buckets]
        edges = np.array([vb.edges + pad for vb, pad in zip(buckets, pads)])
        self.edges = edges.reshape(len(buckets), width)
        self.probs = np.array([vb.probs + (0.0,) * len(pad) for vb, pad in zip(buckets, pads)])
        inf = np.full((len(buckets), 1), math.inf)
        self.lo = np.maximum(np.concatenate([-inf, self.edges], axis=1), 0.0)
        self.hi = np.concatenate([self.edges, inf], axis=1)
        for table in (self.edges, self.probs, self.lo, self.hi):
            table.setflags(write=False)

    def buckets(self) -> tuple[np.ndarray, np.ndarray]:
        return self.edges, self.probs

    def _between(self, d: Distribution) -> tuple[np.ndarray, np.ndarray]:
        """Pr[lo <= V < hi] and Pr[V < hi] per (piece, bucket)."""
        left_lo, left_hi = d.left_and_atom(np.stack([self.lo, self.hi]))[0]
        return np.where(self.hi <= self.lo, 0.0, left_hi - left_lo), left_hi

    def _summed(self, per_bucket: np.ndarray) -> np.ndarray:
        """The sum over buckets, in bucket order, of prob * ``per_bucket``
        (buckets on its last axis)."""
        total = 0.0
        for b, p in enumerate(self.probs.T):
            total = total + p * per_bucket[..., b]
        return total

    def accepted_mass(self, d: Distribution) -> np.ndarray:
        """Pr[accepted] per piece."""
        return self._summed(self._between(d)[0])

    def accepted_mean(self, d: Distribution) -> np.ndarray:
        """E[V * 1{accepted}] per piece."""
        return self._summed(d.mean_between(self.lo, self.hi))

    def accepted_mass_above(self, d: Distribution, xs: np.ndarray) -> np.ndarray:
        """Pr[accepted and V > x] per (x, piece); ``cdf`` is asked only at the xs."""
        x = np.asarray(xs, dtype=float)[:, None, None]
        mass, left_hi = self._between(d)
        above = np.where(x >= self.hi, 0.0, np.where(x < self.lo, mass, left_hi - d.cdf(x)))
        return self._summed(above)


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

    @cached_property
    def _stacks(self) -> tuple[BucketStack, ...]:
        return tuple(BucketStack([row[i] for row in self.tables]) for i in range(self.n))

    def piece_stack(self, identity: int) -> BucketStack:
        return self._stacks[identity]


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

    @cached_property
    def _stack(self) -> ThresholdStack:
        return ThresholdStack((self.tau1.tau, self.tau2.tau),
                              (self.tau1.accept_prob, self.tau2.accept_prob))

    def piece_stack(self, identity: int) -> ThresholdStack:
        """The same two thresholds, (tau1, tau2), for every identity."""
        return self._stack

    @property
    def case_quantiles(self) -> tuple[float, float]:
        """The OPT quantiles of tau1 and tau2."""
        return _TAU1_QUANTILE, math.exp(-self.ell)

    @cached_property
    def _log_q(self) -> np.ndarray:
        return np.log(np.asarray(self.q))

    def pieces_at(self, times: np.ndarray, identities: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """The phase of every arrival in a (rows, N) block of ``times``, column
        j being identity ``identities[j]``: 1 (tau2) once the rewards arriving
        strictly later all fall below tau2 with probability above epsilon, a
        suffix product in arrival order, equal times in column order.

        The arrival order comes from packed keys.  With s the bit length of
        N - 1, a time t in [0, 1) makes the integer floor(t * 2^53), shifted
        up s bits, whose low s bits take the column index: a time off the
        2^-53 grid of ``Generator.random`` counts as the grid time below it.
        The keys are distinct, so they order as the stable order of the
        times.  They fit 64 bits for N <= 2048; above that the times are
        argsorted stably.

        The log q of the arrivals still to come are summed from the last
        arrival back, the additions of ``cumsum`` over the reversed order.
        When every identity has the same q, those sums depend on the arrival
        rank alone, so they are taken once per (q, epsilon, N) on one row
        (``_rank_step``).  Where the phases by rank step from 0 to 1 at rank
        r0 and the keys fit, an arrival's phase is whether its key is at
        least the r0-th smallest of its row, which ``np.partition`` finds
        without a sort.

        The phases go to ``out``, a C-contiguous (rows, N) intp array, when
        one is given; it may not overlap ``times``."""
        rows, N = times.shape
        log_q, log_eps = self._log_q, math.log(self.epsilon)
        shift = (N - 1).bit_length()
        phase = np.empty(times.shape, dtype=np.intp) if out is None else out
        if 53 + shift <= 64:
            r0 = _rank_step(float(log_q[0]), log_eps, N) if (log_q == log_q[0]).all() else None
            # by rank, each key is read before its phase is written over it
            key = phase if r0 is not None else np.empty_like(phase)
            np.multiply(times, 2.0 ** 53, out=key, casting="unsafe")  # truncates to the grid
            key = key.view(np.uint64)
            key <<= shift
            key |= np.arange(N, dtype=np.uint64)
            if r0 is not None:
                if 0 < r0 < N:
                    np.greater_equal(key, np.partition(key, r0, axis=1)[:, r0, None], out=phase)
                else:
                    phase.fill(r0 == 0)
                return phase
            key.sort(axis=1)
            key &= np.uint64((1 << shift) - 1)
            order = key.view(np.intp)
        else:
            order = np.argsort(times, axis=1, kind="stable")
        # contrib lives in the output's memory until the phases overwrite it,
        # and the phases in later's, so a call makes two (rows, N) arrays
        # besides its output
        contrib = phase.view(np.float64)
        np.take(log_q[identities], order, out=contrib, mode="clip")  # "raise" would buffer out
        later = np.empty_like(contrib)
        np.cumsum(contrib[:, ::-1], axis=1, out=later[:, ::-1])
        later -= contrib
        switched = later.view(np.intp)
        np.greater(later, log_eps, out=switched)
        order += np.arange(0, rows * N, N)[:, None]  # flat index of each arrival
        phase.ravel()[order] = switched
        return phase


@lru_cache(maxsize=1024)
def _rank_step(log_q: float, log_eps: float, N: int) -> int | None:
    """The rank r0 from which on N arrivals that all have ``log_q`` are in
    phase 1, or None if their phases by rank are no step from 0 to 1: the
    suffix sums of ``AdaptiveTwoThreshold.pieces_at``, taken by the same
    ``cumsum`` additions on one row."""
    contrib = np.full(N, log_q)
    later = np.cumsum(contrib[::-1])[::-1] - contrib
    switched = later > log_eps
    r0 = N - int(switched.sum())
    return r0 if switched[r0:].all() else None


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
    if not is_integer(k) or k < 1:
        raise InvalidParameterError(f"copy count must be a positive integer, got {k!r}")
    if not is_integer(grid_resolution) or grid_resolution < 1:
        raise InvalidParameterError(
            f"grid_resolution must be a positive integer, got {grid_resolution!r}")
    switch = 2.0 / k
    if switch >= 1.0:
        return make_single_threshold(opt)
    grid = np.linspace(switch, 1.0, grid_resolution + 1)
    tau, accept = opt.quantile_arrays(np.concatenate([[0.5], 1.0 / (grid[:-1] * k)]))
    return ThresholdSchedule((0.0, switch, *grid[1:].tolist()), ThresholdStack(tau, accept))


def log_inverse(epsilon: float) -> float:
    """ln(1/eps), after checking that epsilon lies in (0, 1/e]; finite also
    for a subnormal epsilon, whose 1/eps overflows to inf."""
    if not (0.0 < epsilon <= 1.0 / math.e):
        raise InvalidParameterError(f"epsilon must be in (0, 1/e], got {epsilon!r}")
    inverse = 1.0 / epsilon
    return math.log(inverse) if inverse < math.inf else -math.log(epsilon)


def adaptive_ell(epsilon: float) -> int:
    """ell = max(1, ceil(sqrt(ln 1/eps))) of the adaptive rule."""
    return max(1, math.ceil(math.sqrt(log_inverse(epsilon)) - 1e-12))


def make_adaptive(opt: OptLaw, inst: Instance, epsilon: float) -> AdaptiveTwoThreshold:
    """Two-threshold adaptive policy: tau1 at OPT-quantile 3/4, tau2 at e^-ell."""
    ell = adaptive_ell(epsilon)
    tau, accept = opt.quantile_arrays((_TAU1_QUANTILE, math.exp(-ell)))
    tau1, tau2 = map(RandomizedThreshold, tau.tolist(), accept.tolist())
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

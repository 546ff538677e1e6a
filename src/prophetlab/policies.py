"""The four algorithm classes as executable accept/reject rules.

A randomized threshold accepts values above tau always and values equal to
tau with probability accept_prob.  It has one form, a row of a
``ThresholdStack``: a single-threshold rule is a one-row stack, a blind
schedule one row per time piece, and the adaptive rule two rows (tau1, then
tau2) between which it switches online, at a data-dependent time set by the
identities of the rewards still to arrive.  An activation rule has one form
too, a row of a ``BucketStack`` (value buckets, each activating with its own
probability): an activation policy holds one stack per identity with one row
per time piece, and policies may share a stack.

Every policy answers ``num_pieces``, ``pieces_at(times, identities, out=None)``
(the piece of every arrival in a block of replications, written into ``out``
when one is given), ``case_quantiles`` (the
OPT quantiles where its proof switches cases) and ``piece_stack(identity)``,
the only form in which it gives its rules: one identity's rules of all
pieces, built once.  A stack answers ``buckets()``, its rules as padded
value-bucket tables (Monte Carlo's form), and asks each law's questions
(``cdf``, ``left_and_atom``, ``mean_between``) once on arrays for all pieces
(the exact integrator's form).  The adaptive rule's two pieces are its
phases, found from packed 64-bit keys, each time above its column index: one
sort, or one ``np.partition`` when every identity has the same q (a stable
argsort past N = 2048).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .distributions import Distribution
from .errors import InvalidParameterError, PolicyMismatchError, is_integer
from .instance import Instance, OptLaw

__all__ = [
    "ThresholdSchedule",
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
    """Breakpoints 0 = s_0 < ... < s_m = 1 and a ``ThresholdStack`` with one
    row per piece, which serves every identity.  ``pieces`` lists the same
    rows by piece in Python floats, built on first use, for ``p_tau_single``,
    which asks one threshold at a time."""

    def __init__(self, breakpoints, stack):
        if not isinstance(stack, ThresholdStack):
            raise InvalidParameterError(
                f"a threshold schedule needs a ThresholdStack, got {type(stack).__name__}")
        self.breakpoints = tuple(breakpoints)
        self.stack = stack
        super().__post_init__()
        if len(self.breakpoints) != len(self.stack.tau) + 1:
            raise InvalidParameterError("need exactly one threshold per piece")

    @cached_property
    def pieces(self) -> tuple[tuple[float, float, float, float], ...]:
        """(lo, hi, tau, accept_prob) of every piece, in Python floats."""
        b = [float(s) for s in self.breakpoints]
        return tuple(zip(b[:-1], b[1:], self.stack.tau.tolist(), self.stack.accept_prob.tolist()))

    def piece_stack(self, identity: int) -> ThresholdStack:
        return self.stack


# The rules of all pieces at once.  Each answers a question for every piece
# with the arithmetic of asking each piece's rule alone, bit for bit, and
# ``buckets()`` gives them as (edges, probs), one row per piece: a value's
# bucket is the number of edges at or below it.


class ThresholdStack:
    """Randomized thresholds, one per piece: the arrays ``tau`` (any number,
    infinities included) and ``accept_prob`` (in [0, 1]).  Row r accepts
    values above tau[r] always and values equal to tau[r] with probability
    accept_prob[r].  Both are read-only copies, since one stack serves every
    identity."""

    def __init__(self, tau, accept_prob):
        self.tau = np.array(tau, dtype=float)
        self.accept_prob = np.array(accept_prob, dtype=float)
        self.tau.setflags(write=False)
        self.accept_prob.setflags(write=False)
        if self.tau.ndim != 1 or self.tau.shape != self.accept_prob.shape:
            raise InvalidParameterError("need one accept probability per threshold")
        if np.isnan(self.tau).any():
            raise InvalidParameterError("a threshold tau must be a number, got nan")
        bad = self.accept_prob[~((self.accept_prob >= 0.0) & (self.accept_prob <= 1.0))]
        if bad.size:  # NaN is bad too
            raise InvalidParameterError(
                f"accept probability must lie in [0, 1], got {bad[0].item()!r}")

    def buckets(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges tau and the double above it, probs (0, a, 1): reject below
        tau, accept with ``accept_prob`` at tau, always above it."""
        edges = np.stack([self.tau, np.nextafter(self.tau, math.inf)], axis=1)
        a = self.accept_prob
        return edges, np.stack([np.zeros_like(a), a, np.ones_like(a)], axis=1)

    def rejected_mass(self, d: Distribution) -> np.ndarray:
        """Pr[rejected] per piece: Pr[V < tau] + (1 - a) Pr[V = tau]."""
        left, atom = d.left_and_atom(self.tau)
        return left + (1.0 - self.accept_prob) * atom

    def accepted_mass(self, d: Distribution) -> np.ndarray:
        """Pr[accepted] per piece."""
        return 1.0 - self.rejected_mass(d)

    def accepted_mean(self, d: Distribution) -> np.ndarray:
        """E[V * 1{accepted}] per piece: E[V 1{V > tau}] plus a tau Pr[V = tau]
        where that atom is positive, so an infinite tau adds no inf * 0."""
        _, atom = d.left_and_atom(self.tau)
        above = d.mean_between(self.tau, np.inf, open_left=True)
        at_tau = np.multiply(self.accept_prob, self.tau, out=np.zeros_like(atom),
                             where=atom > 0.0)
        return above + at_tau * atom

    def accepted_mass_above(self, d: Distribution, xs: np.ndarray) -> np.ndarray:
        """Pr[accepted and V > x] per (x, piece): 1 - F(tau) + a Pr[V = tau]
        where tau > x, else 1 - F(x); ``cdf`` is asked only at the taus and xs."""
        x = np.asarray(xs, dtype=float)[:, None]
        _, atom = d.left_and_atom(self.tau)
        over_tau = (1.0 - d.cdf(self.tau)) + self.accept_prob * atom
        return np.where(self.tau > x, over_tau, 1.0 - d.cdf(x))


class BucketStack:
    """Activation probabilities over the value axis, one row per piece:
    ``pieces`` gives each row's (edges, probs), edges finite and strictly
    increasing and one more prob than edges, each in [0, 1].  A value's
    bucket is the number of edges at or below it, so buckets are closed on
    the left: (-inf, e0), [e0, e1), ...  The rows are one read-only table
    padded to a common width with edges +inf (no value reaches them) and
    probs 0; bucket b of a piece is [lo, hi) with lo clipped at 0."""

    def __init__(self, pieces):
        pieces = list(pieces)
        width = max((len(edges) for edges, _ in pieces), default=0)
        self.edges = np.full((len(pieces), width), math.inf)
        self.probs = np.zeros((len(pieces), width + 1))
        for r, (edges, probs) in enumerate(pieces):
            if len(probs) != len(edges) + 1:
                raise InvalidParameterError("need len(edges) + 1 bucket probabilities")
            e, p = self.edges[r, :len(edges)], self.probs[r, :len(probs)]
            e[:], p[:] = edges, probs
            if not ((p >= 0.0) & (p <= 1.0)).all():  # NaN fails too
                raise InvalidParameterError("activation probabilities must lie in [0, 1]")
            if not (np.isfinite(e).all() and (np.diff(e) > 0).all()):
                raise InvalidParameterError("bucket edges must be finite and strictly increasing")
        self.lo = np.concatenate([np.zeros((len(pieces), 1)), np.maximum(self.edges, 0.0)], axis=1)
        self.hi = np.concatenate([self.edges, np.full((len(pieces), 1), math.inf)], axis=1)
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
    """Per-identity activation tables, piecewise constant in time: identity
    i's is the ``BucketStack`` ``stacks[i]``, one row per time piece."""

    breakpoints: tuple[float, ...]
    stacks: tuple[BucketStack, ...]

    def __post_init__(self):
        super().__post_init__()
        if not all(isinstance(stack, BucketStack) and len(stack.edges) == self.num_pieces
                   for stack in self.stacks):
            raise InvalidParameterError("need a BucketStack per identity, one row per time piece")

    @property
    def n(self) -> int:
        return len(self.stacks)

    def piece_stack(self, identity: int) -> BucketStack:
        return self.stacks[identity]


@dataclass(frozen=True)
class AdaptiveTwoThreshold:
    """The high threshold tau1 (row 0 of ``stack``) until the online switch
    time, the low threshold tau2 (row 1) after: its pieces are these two
    phases, not spans of time."""

    epsilon: float
    ell: int
    stack: ThresholdStack  # rows (tau1, tau2)
    q: tuple[float, ...]  # per-identity Pr[V_i rejected at tau2]
    copies: int

    num_pieces = 2

    def __post_init__(self):
        if len(self.stack.tau) != 2:
            raise InvalidParameterError("the adaptive rule needs a two-row stack (tau1, tau2)")

    @property
    def n(self) -> int:
        return len(self.q)

    def piece_stack(self, identity: int) -> ThresholdStack:
        """The same two thresholds, (tau1, tau2), for every identity."""
        return self.stack

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
    return ThresholdSchedule((0.0, 1.0), ThresholdStack(*opt.quantile_threshold((0.5,))))


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
    stack = ThresholdStack(*opt.quantile_threshold(np.concatenate([[0.5], 1.0 / (grid[:-1] * k)])))
    return ThresholdSchedule((0.0, switch, *grid[1:].tolist()), stack)


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
    stack = ThresholdStack(*opt.quantile_threshold((_TAU1_QUANTILE, math.exp(-ell))))
    q = tuple(stack.rejected_mass(d)[1].item() for d in inst.base)
    return AdaptiveTwoThreshold(float(epsilon), ell, stack, q, inst.copies)


def sort_nonincreasing(schedule: ThresholdSchedule) -> ThresholdSchedule:
    """Rearrange the pieces (keeping their lengths) into nonincreasing order:
    tau falling, then accept_prob rising, ties in piece order.  A rearranged
    sum of lengths can round up to its successor (or to 1.0); each such
    breakpoint moves down to the double below its successor."""
    stack = schedule.stack
    order = np.lexsort((stack.accept_prob, -stack.tau))
    breaks = [0.0, *itertools.accumulate(np.diff(schedule.breakpoints)[order].tolist())]
    breaks[-1] = 1.0
    for r in range(len(breaks) - 2, 0, -1):
        if breaks[r] >= breaks[r + 1]:
            breaks[r] = math.nextafter(breaks[r + 1], 0.0)
    return ThresholdSchedule(breaks, ThresholdStack(stack.tau[order], stack.accept_prob[order]))


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

"""Closed-form evaluators for threshold and activation policies.

The stopping-probability calculus: with a piecewise-constant schedule the
per-reward stop intensity is constant on each time piece, so stop
probabilities are piecewise linear in t and every policy-value integrand is
piecewise polynomial of degree at most n*k.  Each piece is integrated with a
Gauss-Legendre rule of order g = n*k/2 + 2, which is exact for polynomials, so
the only error left is roundoff.  The nodes come from ``quadrature.leggauss``
(Newton's method on the three-term recurrence: O(g^2) time, O(g) memory,
cached per order); the evaluator calls it through this module's name
``leggauss``, once per construction.

The rate, mean and exceedance weights of every (identity, piece) come from
the policy's ``piece_stack(identity)``: each identity's law is asked each
question once, for all time pieces together, with the arithmetic of asking
each piece's rule alone, so the weights equal the per-piece ones bit for bit.

Also houses the DP table for the optimal online policy on small discrete
instances.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .distributions import Distribution
from .errors import (InvalidInstanceError, InvalidParameterError, PolicyMismatchError,
                     TooLargeInstanceError, is_integer)
from .instance import Instance
from .policies import ThresholdSchedule, check_shape
from .quadrature import leggauss
from .results import EvalResult

__all__ = [
    "p_tau_single",
    "p_tau_multi",
    "ExactEvaluator",
    "optimal_online_dp",
    "optimal_online_value",
]

_LOG_FLOOR = 1e-300
_DP_STATE_CAP = 10**6  # the most count vectors optimal_online_dp will tabulate


def p_tau_single(schedule: ThresholdSchedule, d: Distribution, t: float) -> float:
    """Pr[the threshold policy stops strictly before time t] for one reward."""
    if math.isnan(t):
        raise InvalidParameterError("time t must be a number, got nan")
    b = schedule.breakpoints
    total = 0.0
    for lo, hi, rt in zip(b[:-1], b[1:], schedule.thresholds):
        hi = min(hi, t)
        if hi <= lo:
            break
        total += (hi - lo) * rt.accepted_mass(d)
    return min(total, 1.0)


def p_tau_multi(
    schedule: ThresholdSchedule, dist_multiset: Sequence[tuple[Distribution, int]], t: float
) -> float:
    """1 - prod over the (law, multiplicity) multiset of (1 - p_tau_single)."""
    out = 1.0
    for d, mult in dist_multiset:
        if not is_integer(mult) or mult < 1:
            raise InvalidInstanceError(f"multiplicities must be integers >= 1, got {mult!r}")
        out *= (1.0 - p_tau_single(schedule, d, t)) ** mult
    return 1.0 - out


# ----------------------------------------------------------- the integrator


class ExactEvaluator:
    """Caches the per-identity stop intensities of a policy on an instance.

    Works for every policy whose pieces are time pieces (``breakpoints``):
    threshold schedules and activation policies.  The adaptive two-threshold
    policy's phases couple all arrival times and have no product-form stop
    probability, so it is Monte Carlo only.
    """

    def __init__(self, inst: Instance, policy):
        if not hasattr(policy, "breakpoints"):
            raise PolicyMismatchError(
                f"{type(policy).__name__} has no exact evaluator; estimate it by Monte Carlo"
            )
        check_shape(policy, inst.n, inst.copies)
        self.inst = inst
        self.policy = policy
        self.breaks = np.asarray(policy.breakpoints, dtype=float)
        n = inst.n
        self.rate = self._weights(lambda stack, d: stack.accepted_mass(d))
        lens = np.diff(self.breaks)
        cum = np.concatenate(
            [np.zeros((n, 1)), np.cumsum(self.rate * lens[None, :], axis=1)], axis=1
        )
        self._stop_by_end = np.minimum(cum[:, -1], 1.0)  # Pr[one reward is accepted at all]
        N = inst.total_rewards
        g = N // 2 + 2
        nodes, wts = leggauss(g)
        mids = (self.breaks[:-1] + self.breaks[1:]) / 2.0
        halves = lens / 2.0
        tnodes = mids[:, None] + halves[:, None] * nodes[None, :]  # (m, g)
        # survivor products at the nodes (independent of the value weights)
        p = cum[:, :-1, None] + self.rate[:, :, None] * (
            tnodes[None, :, :] - self.breaks[:-1][None, :, None]
        )
        s = np.clip(1.0 - p, 0.0, 1.0)
        logs = np.log(np.maximum(s, _LOG_FLOOR))  # (n, m, g)
        logtot = inst.copies * logs.sum(axis=0)
        others = np.exp(logtot[None, :, :] - logs)  # (n, m, g): s_i^(k-1) prod s_j^k
        # (n, m): int over piece r of others_i, exact by Gauss-Legendre
        self._piece_int = (others @ wts) * halves[None, :]

    def _weights(self, question, lead: tuple[int, ...] = ()) -> np.ndarray:
        """question(piece stack, law) of every identity, its answer for all
        pieces on the last axis and the identities on the one before."""
        weight = np.empty((*lead, self.inst.n, len(self.breaks) - 1))
        for i, d in enumerate(self.inst.base):
            weight[..., i, :] = question(self.policy.piece_stack(i), d)
        return weight

    def expected_value(self) -> EvalResult:
        """E[selected value] = sum_i k * int_0^1 mean_i(piece(t)) * others_i(t) dt, exact;
        clipped to [0, support_max], as the reduction's roundoff can leave it above."""
        weight = self._weights(lambda stack, d: stack.accepted_mean(d))
        val = float(self.inst.copies * np.sum(weight * self._piece_int))
        return EvalResult(min(max(val, 0.0), self.inst.support_max), 0.0, "exact")

    def exceedance_many(self, xs) -> np.ndarray:
        """Pr[selected value > x] for a vector of x, sharing the cached nodes."""
        xs = np.asarray(xs, dtype=float)
        weight = self._weights(lambda stack, d: stack.accepted_mass_above(d, xs), (len(xs),))
        vals = self.inst.copies * np.einsum("xim,im->x", weight, self._piece_int)
        return np.minimum(vals, 1.0)

    def selection_by_identity(self) -> np.ndarray:
        """Pr[the selected reward has identity i] for each identity i, exact:
        no difference of exceedances, so a small probability keeps its digits."""
        return self.inst.copies * np.sum(self.rate * self._piece_int, axis=1)

    def no_stop_prob(self) -> float:
        """Pr[no reward is accepted], exact in log space."""
        out = 0.0
        for p in self._stop_by_end:
            out += self.inst.copies * math.log(max(1.0 - p, _LOG_FLOOR))
        return math.exp(out)


# --------------------------------------------------------------------- DP


def optimal_online_value(atom_sets: Sequence[Sequence[tuple]], counts: Sequence[int]):
    """Optimal online expected value under a uniform random arrival order.

    ``atom_sets[i]`` lists (value, mass) for identity i; ``counts[i]`` is how
    many copies of identity i remain.  Number-type agnostic: works with
    floats, Fractions, or mpmath values alike.

    The table holds every count vector up to ``counts`` in lexicographic
    order, so c - e_i comes before c, ``strides[i]`` entries earlier.
    """
    strides = [math.prod(c + 1 for c in counts[i + 1 :]) for i in range(len(counts))]
    table = []
    for state in itertools.product(*(range(c + 1) for c in counts)):
        total = sum(state)
        acc = 0
        for i, c in enumerate(state):
            if c == 0:
                continue
            rest = table[len(table) - strides[i]]
            gain = 0
            for v, mass in atom_sets[i]:
                gain += mass * (v if v > rest else rest)
            acc += c * gain
        table.append(acc / total if total else 0)
    return table[-1]


def optimal_online_dp(inst: Instance) -> EvalResult:
    """Exact optimal online expected value for a discrete instance; one with
    more than ``_DP_STATE_CAP`` DP states raises TooLargeInstanceError."""
    if any(d.kind != "discrete" for d in inst.base):
        raise InvalidInstanceError("optimal_online_dp needs discrete base distributions")
    states = (inst.copies + 1) ** inst.n
    if states > _DP_STATE_CAP:
        raise TooLargeInstanceError(f"DP state space {states} exceeds cap {_DP_STATE_CAP}")
    atom_sets = [
        [(float(v), float(p)) for v, p in zip(d.xs, d.Fr - d.Fl)] for d in inst.base
    ]
    val = optimal_online_value(atom_sets, [inst.copies] * inst.n)
    return EvalResult(float(val), 0.0, "exact")

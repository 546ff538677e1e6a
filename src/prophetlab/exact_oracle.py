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

One evaluator takes a family of policies with one number of time pieces, as
the hardness sweeps and the lemma suite's sorted pairs need: every table has a
leading policy axis, a stack that several policies share is asked once, and
the survivor tables are built a slice of policies at a time, so their size
stays bounded.  Every per-policy number has the bits of evaluating that
policy alone; a single policy is the family of one.  A certificates round
builds about 200 evaluators, where one per policy made 1,522.

Also houses ``optimal_online_value(atom_sets, counts)``, the DP table of the
optimal online policy over atom lists and copy counts, which certifies the
general-algorithm hardness bound.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .distributions import Distribution
from .errors import InvalidInstanceError, InvalidParameterError, PolicyMismatchError, is_integer
from .instance import Instance
from .policies import ThresholdSchedule, check_shape
from .quadrature import leggauss
from .results import EvalResult

__all__ = [
    "p_tau_single",
    "p_tau_multi",
    "ExactEvaluator",
    "optimal_online_value",
]

_LOG_FLOOR = 1e-300


def _pieces(schedule: ThresholdSchedule) -> tuple[tuple[float, float, float, float], ...]:
    """The schedule's (lo, hi, tau, accept_prob) pieces; other policies have
    no single threshold per piece."""
    if not isinstance(schedule, ThresholdSchedule):
        raise PolicyMismatchError(
            f"the stop probability p_tau needs a ThresholdSchedule, got {type(schedule).__name__}")
    return schedule.pieces


def p_tau_single(schedule: ThresholdSchedule, d: Distribution, t: float) -> float:
    """Pr[the threshold policy stops strictly before time t] for one reward:
    the length of each piece before t times its Pr[accepted], with the
    arithmetic of ``RandomizedThreshold.accepted_mass``, one scalar lookup
    per piece."""
    pieces = _pieces(schedule)
    if math.isnan(t):
        raise InvalidParameterError("time t must be a number, got nan")
    total = 0.0
    for lo, hi, tau, accept in pieces:
        hi = min(hi, t)
        if hi <= lo:
            break
        left, atom = d.left_and_atom(tau)
        total += (hi - lo) * (1.0 - (left + (1.0 - accept) * atom))
    return min(total, 1.0)


def p_tau_multi(
    schedule: ThresholdSchedule, dist_multiset: Sequence[tuple[Distribution, int]], t: float
) -> float:
    """1 - prod over the (law, multiplicity) multiset of (1 - p_tau_single)."""
    _pieces(schedule)  # refuses another policy even for an empty multiset
    out = 1.0
    for d, mult in dist_multiset:
        if not is_integer(mult) or mult < 1:
            raise InvalidInstanceError(f"multiplicities must be integers >= 1, got {mult!r}")
        out *= (1.0 - p_tau_single(schedule, d, t)) ** mult
    return 1.0 - out


# ----------------------------------------------------------- the integrator

# the most doubles one slice of a family puts in its (policy, identity, piece,
# node) table, unless one policy alone needs more: over two rounds of the
# certificates commands in one process, 2^15 raised the peak RSS by 2%
# (41.5 to 42.4 MB) and 2^12 left it within 0.1 MB
_TABLE_DOUBLES = 2**12


class ExactEvaluator:
    """Caches the per-identity stop intensities of a family of policies on an
    instance.

    Works for every policy whose pieces are time pieces (``breakpoints``):
    threshold schedules and activation policies.  The adaptive two-threshold
    policy's phases couple all arrival times and have no product-form stop
    probability, so it is Monte Carlo only.

    ``policies`` is one policy or a sequence of policies with one number of
    time pieces; their breakpoints may differ.  Every table has a leading
    policy axis, and each answer of a sequence holds one value per policy,
    each the bits of evaluating that policy alone; a single policy is the
    family of one, answered without the policy axis.
    """

    def __init__(self, inst: Instance, policies):
        self._one = hasattr(policies, "num_pieces")
        family = (policies,) if self._one else tuple(policies)
        for policy in family:
            if not hasattr(policy, "breakpoints"):
                raise PolicyMismatchError(
                    f"{type(policy).__name__} has no exact evaluator; estimate it by Monte Carlo"
                )
            check_shape(policy, inst.n, inst.copies)
        pieces = sorted({policy.num_pieces for policy in family})
        if len(pieces) != 1:
            raise PolicyMismatchError(
                f"a family's policies need one number of time pieces, got {pieces}")
        self.inst = inst
        self.policies = family
        self.breaks = np.asarray([policy.breakpoints for policy in family], dtype=float)
        P, n, m = len(family), inst.n, pieces[0]
        self.rate = self._weights(lambda stack, d: stack.accepted_mass(d))  # (P, n, m)
        self._stop_by_end = np.empty((P, n))  # Pr[one reward is accepted at all]
        self._piece_int = np.empty((P, n, m))  # int over piece r of others_i
        g = inst.total_rewards // 2 + 2
        nodes, wts = leggauss(g)
        step = max(1, _TABLE_DOUBLES // (n * m * g))
        for lo in range(0, P, step):
            sl = slice(lo, lo + step)
            b, rate = self.breaks[sl], self.rate[sl]
            lens = np.diff(b)
            cum = np.zeros((len(b), n, m + 1))
            np.cumsum(rate * lens[:, None, :], axis=2, out=cum[:, :, 1:])
            np.minimum(cum[:, :, -1], 1.0, out=self._stop_by_end[sl])
            mids = (b[:, :-1] + b[:, 1:]) / 2.0
            halves = lens / 2.0
            tnodes = mids[:, :, None] + halves[:, :, None] * nodes  # (P', m, g)
            # survivor products at the nodes (independent of the value weights):
            # the stop probability p, the survivor clip(1 - p), its log and
            # others_i = s_i^(k-1) prod s_j^k take one (P', n, m, g) table in turn
            table = rate[:, :, :, None] * (tnodes[:, None, :, :] - b[:, None, :-1, None])
            table += cum[:, :, :-1, None]
            np.subtract(1.0, table, out=table)
            np.clip(table, 0.0, 1.0, out=table)
            np.maximum(table, _LOG_FLOOR, out=table)
            np.log(table, out=table)
            logtot = inst.copies * table.sum(axis=1)
            np.subtract(logtot[:, None, :, :], table, out=table)
            np.exp(table, out=table)
            # exact by Gauss-Legendre
            np.multiply(table @ wts, halves[:, None, :], out=self._piece_int[sl])

    def _weights(self, question, lead: tuple[int, ...] = ()) -> np.ndarray:
        """question(piece stack, law) of every identity, asked once per
        distinct stack of the family: the answers of the policies on the first
        axis, then ``lead``, the identities, and all pieces on the last."""
        weight = np.empty((len(self.policies), *lead, self.inst.n, self.breaks.shape[1] - 1))
        for i, d in enumerate(self.inst.base):
            users: dict[int, tuple] = {}
            for j, policy in enumerate(self.policies):
                stack = policy.piece_stack(i)
                users.setdefault(id(stack), (stack, []))[1].append(j)
            for stack, js in users.values():
                # a stack of one policy takes basic indexing, 2 us cheaper
                weight[js[0] if len(js) == 1 else js, ..., i, :] = question(stack, d)
        return weight

    def _answer(self, values):
        """A family's answer, or its one value for a single policy."""
        return values[0] if self._one else values

    def expected_value(self):
        """E[selected value] = sum_i k * int_0^1 mean_i(piece(t)) * others_i(t) dt, exact;
        clipped to [0, support_max], as the reduction's roundoff can leave it above."""
        weight = self._weights(lambda stack, d: stack.accepted_mean(d))
        vals = self.inst.copies * np.sum(weight * self._piece_int, axis=(1, 2))
        top = self.inst.support_max
        return self._answer([EvalResult(min(max(v, 0.0), top), 0.0, "exact")
                             for v in vals.tolist()])

    def exceedance_many(self, xs) -> np.ndarray:
        """Pr[selected value > x] for a vector of x, sharing the cached nodes."""
        xs = np.asarray(xs, dtype=float)
        weight = self._weights(lambda stack, d: stack.accepted_mass_above(d, xs), (len(xs),))
        vals = self.inst.copies * np.einsum("pxim,pim->px", weight, self._piece_int)
        return self._answer(np.minimum(vals, 1.0))

    def selection_by_identity(self) -> np.ndarray:
        """Pr[the selected reward has identity i] for each identity i, exact:
        no difference of exceedances, so a small probability keeps its digits."""
        return self._answer(self.inst.copies * np.sum(self.rate * self._piece_int, axis=2))

    def no_stop_prob(self):
        """Pr[no reward is accepted] = prod_i (1 - p_i)^k, summed as logs with
        each 1 - p_i clamped at ``_LOG_FLOOR`` = 1e-300 and exponentiated in
        doubles: an answer below about e^-745 reads 0.0."""
        out = []
        for stops in self._stop_by_end:
            total = 0.0
            for p in stops:
                total += self.inst.copies * math.log(max(1.0 - p, _LOG_FLOOR))
            out.append(math.exp(total))
        return self._answer(out)


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

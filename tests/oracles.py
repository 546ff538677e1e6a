"""Slow reference implementations that pin the fast code paths.

The enumeration oracles are deliberately slow and dumb: sums over value
assignments, time-piece assignments, and within-piece arrival orders.
Feasible only for N = n * k <= 5 rewards with small supports, which is
exactly the regime the unit tests use to pin the fast evaluators.

``reference_quantile_threshold`` is the scalar, one-q-at-a-time OPT quantile
search that ``OptLaw.quantile_thresholds`` must reproduce bit for bit.
"""

import itertools
import math

import numpy as np

from prophetlab import ActivationPolicy, Instance, RandomizedThreshold, ThresholdSchedule


def atoms(d):
    """(value, mass) pairs of a purely discrete law."""
    pairs = [(float(x), float(fr - fl)) for x, fl, fr in zip(d.xs, d.Fl, d.Fr) if fr > fl]
    total = sum(p for _, p in pairs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError("enumeration oracle only handles discrete laws")
    return pairs


def _accept_prob(policy, identity, value, piece):
    if isinstance(policy, ThresholdSchedule):
        rt = policy.thresholds[piece]
        if value > rt.tau:
            return 1.0
        return rt.accept_prob if value == rt.tau else 0.0
    if isinstance(policy, ActivationPolicy):
        return policy.tables[piece][identity].prob(value)
    raise TypeError(f"no enumeration rule for {type(policy).__name__}")


def enumerate_stop_statistics(inst: Instance, policy, payoff=None):
    """(E[payoff(selected value)], Pr[never stop]) by full enumeration.

    Arrival randomness is decomposed as: which time piece each reward lands
    in (probability = product of piece lengths), then a uniform order within
    each piece.  Acceptance randomness enters through the per-reward accept
    probability, so one survival chain per ordering covers all tiebreaks.
    """
    if payoff is None:
        payoff = lambda v: v
    bps = policy.breakpoints
    lengths = [b - a for a, b in zip(bps, bps[1:])]
    num_pieces = len(lengths)
    identities = [i for i in range(inst.n) for _ in range(inst.copies)]
    supports = [atoms(inst.base[i]) for i in identities]
    N = len(identities)

    total_value = 0.0
    total_no_stop = 0.0
    for vals in itertools.product(*supports):
        pv = math.prod(p for _, p in vals)
        for pieces in itertools.product(range(num_pieces), repeat=N):
            pp = math.prod(lengths[j] for j in pieces)
            if pp == 0.0:
                continue
            groups = [[m for m in range(N) if pieces[m] == j] for j in range(num_pieces)]
            norm = math.prod(math.factorial(len(g)) for g in groups)
            chain_val = 0.0
            chain_no_stop = 0.0
            for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
                order = [m for part in parts for m in part]
                survive = 1.0
                val = 0.0
                for m in order:
                    a = _accept_prob(policy, identities[m], vals[m][0], pieces[m])
                    val += survive * a * payoff(vals[m][0])
                    survive *= 1.0 - a
                chain_val += val
                chain_no_stop += survive
            total_value += pv * pp * chain_val / norm
            total_no_stop += pv * pp * chain_no_stop / norm
    return total_value, total_no_stop


def enumerate_expected_value(inst: Instance, policy) -> float:
    return enumerate_stop_statistics(inst, policy)[0]


def enumerate_exceedance(inst: Instance, policy, x: float) -> float:
    val, _ = enumerate_stop_statistics(inst, policy, payoff=lambda v: 1.0 if v > x else 0.0)
    return val


def enumerate_opt_value(base) -> float:
    """E[max of one draw per law] for discrete laws."""
    supports = [atoms(d) for d in base]
    return sum(
        math.prod(p for _, p in vals) * max(v for v, _ in vals)
        for vals in itertools.product(*supports)
    )


def reference_quantile_threshold(opt, q: float) -> RandomizedThreshold:
    """Scalar OPT quantile search: rebuild the product CDF on the merged grid,
    then bisect either tau inside a segment or the accept probability at an
    atom, up to 200 steps each."""
    grid = np.unique(np.concatenate([d.xs for d in opt.base]))
    Fr = np.array([opt.cdf(x) for x in grid])
    j = min(int(np.searchsorted(Fr, q, side="left")), len(grid) - 1)
    tau = float(grid[j])
    Fl_j = opt.cdf_left(tau)
    if j > 0 and Fl_j > q and Fl_j > Fr[j - 1]:
        lo, hi = float(grid[j - 1]), tau
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if opt.cdf(mid) >= q:
                hi = mid
            else:
                lo = mid
        return RandomizedThreshold(hi, 0.0)

    def rejected(a: float) -> float:
        out = 1.0
        for d in opt.base:
            out *= d.cdf_left(tau) + (1.0 - a) * d.point_mass(tau)
        return out

    if rejected(0.0) <= q:
        return RandomizedThreshold(tau, 0.0)
    if rejected(1.0) >= q:
        return RandomizedThreshold(tau, 1.0)
    lo_a, hi_a = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo_a + hi_a)
        if mid <= lo_a or mid >= hi_a:
            break
        if rejected(mid) > q:
            lo_a = mid
        else:
            hi_a = mid
    return RandomizedThreshold(tau, hi_a)

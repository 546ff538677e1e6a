"""Vectorized Monte Carlo simulation of any policy with reproducible seeding.

Replications are partitioned into fixed-size blocks; block b draws from a
Philox stream keyed by (master_seed, b), so results are bit-identical no
matter how blocks are scheduled across workers.  Accumulation sums block
statistics in block order.

It reads a policy only through ``num_pieces``, ``rule(piece, identity)`` and
``pieces_at(times, identities)``, so every policy runs down one path.

A block draws arrival times, value uniforms and tiebreaks, and decides
acceptance on the uniform scale: each value-bucket edge of the policy is
turned, once per simulation, into the cut on its identity's uniforms above
which ``ppf`` reaches the edge.  Only the selected reward's uniform is mapped
through ``ppf``.  A block is worked in chunks of rows, so its temporaries stay
small beside the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import InvalidParameterError
from .instance import Instance
from .policies import Policy, bucket_table, check_shape
from .results import EvalResult

__all__ = ["McConfig", "estimate_expected_value", "estimate_exceedance", "estimate_no_stop",
           "estimate_value_and_no_stop"]

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_BLOCK = 8192
_CHUNK = 1024  # rows of a block worked at once, so its temporaries stay small
_ONE_BITS = np.float64(1.0).view(np.int64)


@dataclass(frozen=True)
class McConfig:
    replications: int
    master_seed: int
    ci_method: str = "normal"

    def __post_init__(self):
        if self.replications < 1:
            raise InvalidParameterError("replications must be >= 1")
        if self.ci_method not in ("normal", "hoeffding"):
            raise InvalidParameterError(f"unknown ci_method {self.ci_method!r}")


def _block_rng(master_seed: int, block: int) -> np.random.Generator:
    key = np.array([master_seed & (2**64 - 1), block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _cuts(d: Distribution, edges: np.ndarray) -> np.ndarray:
    """For each edge e, the largest double u < 1 with ``d.ppf(u) < e``, or -1
    where there is none.  Where ``ppf`` is nondecreasing on doubles, for every
    uniform draw u, ``d.ppf(u) >= e`` exactly when ``u > cut``.  Found by
    bisection over the bit patterns of nonnegative doubles, which order as
    their values do."""
    # ppf(u) < e for every u <= lo and ppf(u) >= e for every u in [hi, 1),
    # which holds vacuously at the start, lo = -1 and hi = 1.0
    lo = np.full(edges.shape, -1, dtype=np.int64)
    hi = np.full(edges.shape, _ONE_BITS)
    while True:
        mid = (lo + hi) // 2
        open_ = mid > lo
        if not open_.any():
            break
        below = d.ppf(np.maximum(mid, 0).view(np.float64)) < edges
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)
    return np.where(lo < 0, -1.0, lo.view(np.float64))


def _acceptance_table(inst: Instance, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """The acceptance table on the uniform scale, as (cuts, probs) with one row
    per cell.  Cell ``c * n + i`` holds ``policy.rule(c, i)``, identity i's
    rule in piece c (a phase, for the adaptive rule).  Each rule's bucket
    form gives its edges, padded with +inf (no value reaches them), and its
    probabilities, padded with 0; each edge is stored as its cut on the value
    uniforms of its identity (``_cuts``), so a value's bucket is the number
    of cuts its uniform exceeds."""
    n = inst.n
    edges, probs = bucket_table(
        [policy.rule(c, i) for c in range(policy.num_pieces) for i in range(n)])
    cuts = np.empty_like(edges)
    for i, d in enumerate(inst.base):
        cuts[i::n] = _cuts(d, edges[i::n])
    return cuts, probs


def _simulate_block(inst: Instance, policy: Policy, table: tuple[np.ndarray, np.ndarray],
                    rng: np.random.Generator, nrep: int):
    """Returns (selected values, stopped mask) for nrep replications.

    Each reward reads one cell of the acceptance ``table``: its (piece,
    identity) rule, the piece coming from ``policy.pieces_at``.  It is
    accepted when its tiebreak is below the cell's probability for the
    bucket of its value uniform; the earliest accepted reward is selected,
    equal times going to the lower (identity, copy) column.  Only the
    selected rewards' uniforms are mapped to values.  The block is worked
    ``_CHUNK`` rows at a time.
    """
    n, k = inst.n, inst.copies
    N = n * k
    identities = np.repeat(np.arange(n), k)
    cuts, probs = table
    # the same numbers as three draws in a row, in one allocation
    times, uvals, ties = rng.random((3, nrep, N))
    stopped = np.empty(nrep, dtype=bool)
    picked = np.empty(nrep, dtype=np.intp)  # column of the selected reward
    for start in range(0, nrep, _CHUNK):
        rows = slice(start, start + _CHUNK)
        t, u = times[rows], uvals[rows]
        cell = policy.pieces_at(t, identities) * n + identities
        flat = cell * probs.shape[1]  # index of (cell, bucket) in probs, bucket counted below
        for column in cuts.T:
            flat += u > column.take(cell)
        accept = ties[rows] < probs.take(flat)
        stopped[rows] = accept.any(axis=1)
        np.copyto(t, np.inf, where=~accept)  # a rejected reward is never the earliest
        picked[rows] = t.argmin(axis=1)
    chosen = uvals[np.arange(nrep), picked]
    owner = identities[picked]
    selected = np.zeros(nrep)
    for i, d in enumerate(inst.base):
        mine = stopped & (owner == i)
        selected[mine] = d.ppf(chosen[mine])
    return selected, stopped


def _run(inst: Instance, policy: Policy, cfg: McConfig, reduce, caps) -> list[EvalResult]:
    """One simulation.  ``reduce(selected, stopped)`` turns each block into
    two arrays, the sums and the sums of squares of its statistics, one entry
    per statistic.  The sums add up in block order; the result is one
    estimate per statistic.  ``caps`` bounds each statistic for Hoeffding,
    ``None`` standing for the instance's largest value."""
    check_shape(policy, inst.n, inst.copies)
    table = _acceptance_table(inst, policy)
    R = cfg.replications
    total = total_sq = 0.0
    done = block = 0
    while done < R:
        nrep = min(_BLOCK, R - done)
        rng = _block_rng(cfg.master_seed, block)
        selected, stopped = _simulate_block(inst, policy, table, rng, nrep)
        s, s2 = reduce(selected, stopped)
        total = total + s
        total_sq = total_sq + s2
        done += nrep
        block += 1
    results = []
    for t, t2, cap in zip(total, total_sq, caps):
        mean = float(t) / R
        if cfg.ci_method == "hoeffding":
            cap = inst.support_max if cap is None else cap
            hw = cap * math.sqrt(math.log(2.0 / 0.01) / (2.0 * R))
        else:
            var = max(float(t2) / R - mean * mean, 0.0)
            hw = _Z99 * math.sqrt(var / R)
        results.append(EvalResult(mean, hw, "monte-carlo", replications=R, seed=cfg.master_seed))
    return results


def estimate_value_and_no_stop(
    inst: Instance, policy: Policy, cfg: McConfig
) -> tuple[EvalResult, EvalResult]:
    """Mean selected value and fraction of replications selecting nothing,
    both from one simulation (the no-stop Hoeffding cap is 1)."""

    def moments(selected, stopped):
        xs = np.stack((selected, ~stopped))
        return xs.sum(axis=1), (xs * xs).sum(axis=1)

    return tuple(_run(inst, policy, cfg, moments, caps=(None, 1.0)))


def estimate_expected_value(inst: Instance, policy: Policy, cfg: McConfig) -> EvalResult:
    """Mean selected value over the replications."""
    return estimate_value_and_no_stop(inst, policy, cfg)[0]


def estimate_no_stop(inst: Instance, policy: Policy, cfg: McConfig) -> EvalResult:
    """Fraction of replications selecting nothing."""
    return estimate_value_and_no_stop(inst, policy, cfg)[1]


def estimate_exceedance(inst: Instance, policy: Policy, xs, cfg: McConfig) -> list[EvalResult]:
    """Fraction of replications selecting a value > x, for each x of ``xs``
    (Hoeffding cap is 1).  One simulation serves every x: each block's
    counts are exact integers, so each estimate equals a run for its x alone."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))

    def counts(selected, stopped):
        above = (len(selected) - np.searchsorted(np.sort(selected), xs, side="right")) * 1.0
        return above, above  # a 0/1 statistic squares to itself

    return _run(inst, policy, cfg, counts, caps=(1.0,) * len(xs))

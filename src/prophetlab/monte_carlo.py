"""Vectorized Monte Carlo simulation of any policy with reproducible seeding.

Replications are partitioned into fixed-size blocks; block b draws from a
Philox stream keyed by (master_seed, b), so results are bit-identical no
matter how blocks are scheduled across workers.  Accumulation sums block
statistics in block order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .instance import Instance
from .policies import AdaptiveTwoThreshold, Policy, check_shape
from .results import EvalResult

__all__ = ["McConfig", "estimate_expected_value", "estimate_exceedance", "estimate_no_stop",
           "estimate_value_and_no_stop"]

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_BLOCK = 8192


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


def _acceptance_table(rules) -> tuple[np.ndarray, np.ndarray]:
    """One row per cell: each rule's bucket form, edges padded with +inf (no
    finite value reaches them) and probabilities with 0."""
    forms = [rule.bucket_form() for rule in rules]
    width = max(len(edges) for edges, _ in forms)
    pads = [(math.inf,) * (width - len(edges)) for edges, _ in forms]
    edges = np.array([e + pad for (e, _), pad in zip(forms, pads)]).reshape(len(forms), width)
    probs = np.array([p + (0.0,) * len(pad) for (_, p), pad in zip(forms, pads)])
    return edges, probs


def _simulate_block(inst: Instance, policy: Policy, rng: np.random.Generator, nrep: int):
    """Returns (selected values, stopped mask) for nrep replications.

    Each reward reads one cell of an acceptance table: its (piece, identity)
    rule for a piecewise policy, its phase for the adaptive rule.  It is
    accepted when its tiebreak is below the cell's probability for its value
    bucket; the earliest accepted reward is selected, equal times going to the
    lower (identity, copy) column.
    """
    n, k = inst.n, inst.copies
    N = n * k
    identities = np.repeat(np.arange(n), k)
    # the same numbers as three draws in a row, in one allocation; the value
    # uniforms become values in place
    times, values, ties = rng.random((3, nrep, N))
    for i, d in enumerate(inst.base):
        cols = identities == i
        values[:, cols] = d.ppf(values[:, cols])

    if isinstance(policy, AdaptiveTwoThreshold):
        # tau2 once the rewards arriving strictly later all fall below tau2
        # with probability above epsilon: a suffix product in arrival order
        order = np.argsort(times, axis=1, kind="stable")  # ties fall back to (i, j) order
        contrib = np.log(np.asarray(policy.q))[identities[order]]
        later = np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1] - contrib
        cell = np.empty((nrep, N), dtype=np.intp)
        np.put_along_axis(cell, order, later > math.log(policy.epsilon), axis=1)
        rules = (policy.tau1, policy.tau2)
    else:  # times lie in [0, 1), so every time falls in a piece
        piece = np.searchsorted(policy.breakpoints, times, side="right") - 1
        cell = piece * n + identities
        rules = [policy.rule(r, i) for r in range(policy.num_pieces) for i in range(n)]
    edges, probs = _acceptance_table(rules)
    flat = cell * probs.shape[1]  # index of (cell, bucket) in probs, bucket counted below
    for column in edges.T:
        flat += values >= column.take(cell)
    accept = ties < probs.take(flat)

    stopped = accept.any(axis=1)
    np.copyto(times, np.inf, where=~accept)  # a rejected reward is never the earliest
    selected = values[np.arange(nrep), times.argmin(axis=1)]
    return np.where(stopped, selected, 0.0), stopped


def _run(inst: Instance, policy: Policy, cfg: McConfig, reduce, caps) -> list[EvalResult]:
    """One simulation.  ``reduce(selected, stopped)`` turns each block into
    two arrays, the sums and the sums of squares of its statistics, one entry
    per statistic.  The sums add up in block order; the result is one
    estimate per statistic.  ``caps`` bounds each statistic for Hoeffding,
    ``None`` standing for the instance's largest value."""
    check_shape(policy, inst.n, inst.copies)
    R = cfg.replications
    total = total_sq = 0.0
    done = block = 0
    while done < R:
        nrep = min(_BLOCK, R - done)
        selected, stopped = _simulate_block(inst, policy, _block_rng(cfg.master_seed, block), nrep)
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

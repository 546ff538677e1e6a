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

from .errors import InvalidParameterError, PolicyMismatchError
from .instance import Instance
from .policies import (
    ActivationPolicy,
    AdaptiveTwoThreshold,
    Policy,
    ThresholdSchedule,
    check_shape,
)
from .results import EvalResult

__all__ = ["McConfig", "estimate_expected_value", "estimate_exceedance", "estimate_no_stop"]

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_BLOCK = 8192


@dataclass(frozen=True)
class McConfig:
    replications: int
    master_seed: int
    ci_method: str = "normal"
    value_cap: float | None = None

    def __post_init__(self):
        if self.replications < 1:
            raise InvalidParameterError("replications must be >= 1")
        if self.ci_method not in ("normal", "hoeffding"):
            raise InvalidParameterError(f"unknown ci_method {self.ci_method!r}")


def _block_rng(master_seed: int, block: int) -> np.random.Generator:
    key = np.array([master_seed & (2**64 - 1), block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_block(inst: Instance, policy: Policy, rng: np.random.Generator, nrep: int):
    """Returns (selected values, stopped mask) for nrep replications."""
    n, k = inst.n, inst.copies
    N = n * k
    identities = np.repeat(np.arange(n), k)
    times = rng.random((nrep, N))
    uvals = rng.random((nrep, N))
    ties = rng.random((nrep, N))
    values = np.empty((nrep, N))
    for i, d in enumerate(inst.base):
        cols = identities == i
        values[:, cols] = d.ppf(uvals[:, cols])
    order = np.argsort(times, axis=1, kind="stable")  # ties fall back to (i, j) order
    st = np.take_along_axis(times, order, 1)
    sv = np.take_along_axis(values, order, 1)
    su = np.take_along_axis(ties, order, 1)
    sid = identities[order]

    if isinstance(policy, ThresholdSchedule):
        piece = np.clip(
            np.searchsorted(policy.breakpoints, st, side="right") - 1,
            0,
            policy.num_pieces - 1,
        )
        taus = np.array([rt.tau for rt in policy.thresholds])[piece]
        aps = np.array([rt.accept_prob for rt in policy.thresholds])[piece]
        accept = (sv > taus) | ((sv == taus) & (su < aps))
    elif isinstance(policy, AdaptiveTwoThreshold):
        logq = np.log(np.asarray(policy.q))
        contrib = logq[sid]
        # log product of q over strictly-later arrivals, per event
        later = np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1] - contrib
        use_low = later > math.log(policy.epsilon)
        t1, t2 = policy.tau1, policy.tau2
        taus = np.where(use_low, t2.tau, t1.tau)
        aps = np.where(use_low, t2.accept_prob, t1.accept_prob)
        accept = (sv > taus) | ((sv == taus) & (su < aps))
    elif isinstance(policy, ActivationPolicy):
        piece = np.clip(
            np.searchsorted(policy.breakpoints, st, side="right") - 1,
            0,
            len(policy.tables) - 1,
        )
        g = np.zeros((nrep, N))
        for r, table in enumerate(policy.tables):
            for i in range(n):
                mask = (piece == r) & (sid == i)
                if not mask.any():
                    continue
                vb = table[i]
                idx = np.searchsorted(np.asarray(vb.edges), sv[mask], side="right")
                g[mask] = np.asarray(vb.probs)[idx]
        accept = su < g
    else:  # pragma: no cover
        raise PolicyMismatchError(f"unknown policy type {type(policy)!r}")

    any_accept = accept.any(axis=1)
    first = np.argmax(accept, axis=1)
    rows = np.arange(nrep)
    selected = np.where(any_accept, sv[rows, first], 0.0)
    return selected, any_accept


def _run(inst: Instance, policy: Policy, cfg: McConfig, reduce, cap: float | None = None):
    """One simulation.  ``reduce(selected, stopped)`` turns each block into
    the (sum, sum of squares) of its statistic: two floats, or two arrays with
    one entry per statistic.  The sums add up in block order; the result is
    one estimate per entry.  ``cap`` bounds the statistic for Hoeffding
    (default: the value cap)."""
    check_shape(policy, inst.n, inst.copies)
    value_cap = cfg.value_cap if cfg.value_cap is not None else inst.support_max
    if cfg.ci_method == "hoeffding" and value_cap < inst.support_max:
        raise InvalidParameterError("value_cap must cover the instance support")
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
    for t, t2 in zip(np.atleast_1d(total), np.atleast_1d(total_sq)):
        mean = float(t) / R
        if cfg.ci_method == "hoeffding":
            hw = (value_cap if cap is None else cap) * math.sqrt(math.log(2.0 / 0.01) / (2.0 * R))
        else:
            var = max(float(t2) / R - mean * mean, 0.0)
            hw = _Z99 * math.sqrt(var / R)
        results.append(EvalResult(mean, hw, "monte-carlo", replications=R, seed=cfg.master_seed))
    return results


def _moments(xs: np.ndarray) -> tuple[float, float]:
    return float(xs.sum()), float((xs * xs).sum())


def estimate_expected_value(inst: Instance, policy: Policy, cfg: McConfig) -> EvalResult:
    """Mean selected value over the replications."""
    return _run(inst, policy, cfg, lambda selected, stopped: _moments(selected))[0]


def estimate_exceedance(inst: Instance, policy: Policy, xs, cfg: McConfig) -> list[EvalResult]:
    """Fraction of replications selecting a value > x, for each x of ``xs``
    (Hoeffding cap is 1).  One simulation serves every x: each block's
    counts are exact integers, so each estimate equals a run for its x alone."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))

    def counts(selected, stopped):
        above = (len(selected) - np.searchsorted(np.sort(selected), xs, side="right")) * 1.0
        return above, above  # a 0/1 statistic squares to itself

    return _run(inst, policy, cfg, counts, cap=1.0)


def estimate_no_stop(inst: Instance, policy: Policy, cfg: McConfig) -> EvalResult:
    """Fraction of replications selecting nothing."""
    return _run(
        inst, policy, cfg, lambda selected, stopped: _moments((~stopped).astype(float)), cap=1.0
    )[0]

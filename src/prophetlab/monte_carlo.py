"""Vectorized Monte Carlo simulation of any policy with reproducible seeding.

Replications are partitioned into fixed-size blocks; block b draws from a
Philox stream keyed by (master_seed, b).  The blocks are simulated on one
thread per available core (numpy releases the GIL in the kernels that do
the work), and their statistics are summed in block order, so every
estimate is bit-identical whatever the core count.

It reads a policy only through ``num_pieces``, ``rule(piece, identity)`` and
``pieces_at(times, identities)``, so every policy runs down one path.  No
step here sorts the arrivals: the earliest accepted reward is an ``argmin``,
and the adaptive rule's ``pieces_at`` finds the arrival order it needs by
one sort of packed keys, the time on its 2^-53 grid above the column index.

A block draws arrival times, value uniforms and tiebreaks, and decides
acceptance on the uniform scale: each value-bucket edge of the policy is
turned, once per simulation, into the cut on its identity's uniforms above
which ``ppf`` reaches the edge.  Only the selected reward's uniform is mapped
through ``ppf``.  A block is worked in chunks of rows, and its three draws
are streamed by chunk: three generators on the block's key each start where
one of them begins in the block's stream and reads each chunk into one
reused buffer, so a block holds one chunk of draws, not all of them.
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
_CHUNK = 1024  # rows of a block drawn and worked at once, so a block stays small
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
        seed = self.master_seed
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
            raise InvalidParameterError(
                f"master_seed must be an integer in [0, 2^64), got {seed!r}")


def _block_rng(master_seed: int, block: int, skip: int = 0) -> np.random.Generator:
    """Block ``block``'s generator, past the first ``skip`` doubles of its stream."""
    key = np.array([master_seed, block], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.advance(skip // 4)  # one Philox step gives 4 doubles
    rng.random(skip % 4)
    return rng


def _cores() -> int:
    """The number of cores this process may run on."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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


def _draws(master_seed: int, block: int, nrep: int, N: int):
    """Block ``block``'s (rows, times, value uniforms, tiebreaks), ``_CHUNK``
    rows at a time: the rows of ``_block_rng(master_seed, block).random((3,
    nrep, N))``, read from three generators that each start where one of the
    three begins in the stream.  Every chunk is read into the same buffer,
    so a chunk's arrays hold until the next one is asked for."""
    parts = [_block_rng(master_seed, block, part * nrep * N) for part in range(3)]
    buf = np.empty((3, min(_CHUNK, nrep), N))
    for start in range(0, nrep, _CHUNK):
        rows = min(_CHUNK, nrep - start)
        times, uvals, ties = (rng.random(out=out[:rows]) for rng, out in zip(parts, buf))
        yield slice(start, start + rows), times, uvals, ties


def _simulate_block(inst: Instance, policy: Policy, table: tuple[np.ndarray, np.ndarray],
                    master_seed: int, block: int, nrep: int):
    """Returns (selected values, stopped mask) for the nrep replications of
    block ``block``.

    Each reward reads one cell of the acceptance ``table``: its (piece,
    identity) rule, the piece coming from ``policy.pieces_at``.  It is
    accepted when its tiebreak is below the cell's probability for the
    bucket of its value uniform; the earliest accepted reward is selected,
    equal times going to the lower (identity, copy) column.  Only the
    selected rewards' uniforms are mapped to values.  The draws are read and
    worked ``_CHUNK`` rows at a time.
    """
    n, k = inst.n, inst.copies
    identities = np.repeat(np.arange(n), k)
    cuts, probs = table
    stopped = np.empty(nrep, dtype=bool)
    owner = np.empty(nrep, dtype=np.intp)  # identity of the selected reward
    chosen = np.empty(nrep)  # its value uniform
    for rows, t, u, ties in _draws(master_seed, block, nrep, n * k):
        cell = policy.pieces_at(t, identities) * n + identities
        flat = cell * probs.shape[1]  # index of (cell, bucket) in probs, bucket counted below
        for column in cuts.T:
            flat += u > column.take(cell)
        accept = ties < probs.take(flat)
        stopped[rows] = accept.any(axis=1)
        np.copyto(t, np.inf, where=~accept)  # a rejected reward is never the earliest
        picked = t.argmin(axis=1)
        owner[rows] = identities[picked]
        chosen[rows] = u[np.arange(len(picked)), picked]
    selected = np.zeros(nrep)
    for i, d in enumerate(inst.base):
        mine = stopped & (owner == i)
        selected[mine] = d.ppf(chosen[mine])
    return selected, stopped


def _block_sums(inst: Instance, policy: Policy, cfg: McConfig, reduce) -> list:
    """``reduce(selected, stopped)`` of every block, in block order.  The
    blocks go round-robin to ``min(_cores(), blocks)`` threads, this one
    among them.  If a block raises, every thread stops taking blocks, all
    are joined, and the first exception is raised here."""
    import threading

    table = _acceptance_table(inst, policy)
    R = cfg.replications
    blocks = -(-R // _BLOCK)
    workers = min(_cores(), blocks)
    sums = [None] * blocks
    errors = []

    def work(first):
        for b in range(first, blocks, workers):
            if errors:
                return
            try:
                nrep = min(_BLOCK, R - b * _BLOCK)
                sums[b] = reduce(*_simulate_block(inst, policy, table, cfg.master_seed, b, nrep))
            except BaseException as exc:  # raised below, once every thread has stopped
                errors.append(exc)

    helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in helpers:
        thread.start()
    work(0)
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return sums


def _run(inst: Instance, policy: Policy, cfg: McConfig, reduce, caps,
         scales) -> list[EvalResult]:
    """One simulation.  ``reduce(selected, stopped)`` turns each block into
    two arrays, the sums of its statistics and the sums of their squares,
    each statistic divided by its entry of ``scales``, one entry per
    statistic.  The sums add up in block order; the result is one estimate
    per statistic, its mean scaled back.  ``caps`` bounds each statistic for
    Hoeffding, ``None`` standing for the instance's largest value."""
    check_shape(policy, inst.n, inst.copies)
    R = cfg.replications
    total = total_sq = 0.0
    for s, s2 in _block_sums(inst, policy, cfg, reduce):
        total = total + s
        total_sq = total_sq + s2
    results = []
    for t, t2, cap, scale in zip(total, total_sq, caps, scales):
        unit_mean = float(t) / R
        mean = scale * unit_mean
        if cfg.ci_method == "hoeffding":
            cap = inst.support_max if cap is None else cap
            hw = cap * math.sqrt(math.log(2.0 / 0.01) / (2.0 * R))
        else:
            var = max(float(t2) / R - unit_mean * unit_mean, 0.0)
            hw = scale * (_Z99 * math.sqrt(var / R))
        results.append(EvalResult(mean, hw, "monte-carlo", replications=R, seed=cfg.master_seed))
    return results


def estimate_value_and_no_stop(
    inst: Instance, policy: Policy, cfg: McConfig
) -> tuple[EvalResult, EvalResult]:
    """Mean selected value and fraction of replications selecting nothing,
    both from one simulation (the no-stop Hoeffding cap is 1).  Values add
    and square in units of the power of two at or below the largest value
    (0.5 when every value is 0), so each is below 2: a block's sums cannot
    overflow, and the largest values' squares do not underflow, at any
    scale from subnormal to the largest double.  Dividing and
    multiplying by a power of two is exact, so every estimate has the bits
    of summing the values themselves wherever those sums stay finite and
    normal."""
    scales = (math.ldexp(1.0, math.frexp(inst.support_max)[1] - 1), 1.0)
    units = np.array(scales)[:, None]

    def moments(selected, stopped):
        ys = np.stack((selected, ~stopped)) / units
        return ys.sum(axis=1), (ys * ys).sum(axis=1)

    return tuple(_run(inst, policy, cfg, moments, caps=(None, 1.0), scales=scales))


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

    return _run(inst, policy, cfg, counts, caps=(1.0,) * len(xs), scales=(1.0,) * len(xs))

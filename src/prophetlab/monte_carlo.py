"""Vectorized Monte Carlo simulation of any policy with reproducible seeding.

Replications are partitioned into fixed-size blocks; block b draws from a
Philox stream keyed by (master_seed, b).  The blocks are simulated on up to
one thread per available core (numpy releases the GIL in the kernels that
do the work), claimed on demand, in block order, so a slow thread holds up
no other, and their statistics are summed in block order, so every
estimate is bit-identical whatever the core count and whichever thread
simulated which block.

It reads a policy only through ``num_pieces``, ``piece_stack(identity)`` and
``pieces_at(times, identities)``, so every policy runs down one path.  No
step here sorts the arrivals: a rejected reward's time is moved up by 1, so
the earliest accepted reward is the ``argmin`` of the times, and the
adaptive rule's ``pieces_at`` finds the arrival order it needs from packed
keys, the time on its 2^-53 grid above the column index: one sort, or one
``np.partition`` when every identity has the same q.

A block draws arrival times, value uniforms and tiebreaks, and decides
acceptance on the uniform scale: each edge of the stacks' ``buckets()`` is
turned, once per simulation, into the cut on its identity's uniforms above
which ``ppf`` reaches the edge.  Only the selected reward's uniform is mapped
through ``ppf``.  When every acceptance probability is 0 or 1 the tiebreaks
cannot matter and are not drawn.  A block is worked in chunks of rows, and
its two or three draw parts are streamed by chunk: one generator per part,
on the block's key, starts where its part begins in the block's stream and
reads each chunk into one reused buffer, so a block holds one chunk of
draws, not all of them.  Each worker reuses its chunk work arrays (cell and
bucket indices, gathered table entries, comparisons, the policy's pieces
through ``pieces_at(..., out=)``) from chunk to chunk and block to block, so
the heap is not trimmed and faulted back in every chunk.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import InvalidParameterError, is_integer
from .instance import Instance, _bisect
from .policies import Policy, check_shape
from .results import EvalResult

__all__ = ["McConfig", "estimate_expected_value", "estimate_exceedance",
           "estimate_value_and_no_stop"]

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_BLOCK = 8192
_CHUNK = 1024  # rows of a block drawn and worked at once, so a block stays small
_per_thread = threading.local()  # a thread's chunk work arrays (``_work_arrays``)


@dataclass(frozen=True)
class McConfig:
    replications: int
    master_seed: int

    def __post_init__(self):
        if not is_integer(self.replications) or self.replications < 1:
            raise InvalidParameterError(
                f"replications must be an integer >= 1, got {self.replications!r}")
        seed = self.master_seed
        if not is_integer(seed) or not 0 <= seed < 2**64:
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
    uniform draw u, ``d.ppf(u) >= e`` exactly when ``u > cut``.  The cut is
    the double just below the smallest u in [0, 1] with ``d.ppf(u) >= e``
    (1.0 standing in for "none below 1"), found by the OPT quantiles' search
    over bit patterns, ``_bisect``, on (-1, 1] from the estimate Pr[V < e];
    the search's answer does not depend on its estimate."""
    e = edges.ravel()
    first = _bisect(np.full(e.shape, -1.0), np.ones(e.shape), lambda u: d.ppf(u) >= e,
                    d.left_and_atom(e)[0])
    return np.where(first > 0.0, np.nextafter(first, -np.inf), -1.0).reshape(edges.shape)


def _acceptance_table(inst: Instance, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """The acceptance table on the uniform scale, as (cuts, probs) with one row
    per cell.  Cell ``c * n + i`` holds identity i's rule in piece c (a phase,
    for the adaptive rule): row c of ``policy.piece_stack(i).buckets()``, its
    edges padded across identities with +inf (no value reaches them) and its
    probabilities with 0.  Each edge is stored as its cut on the value
    uniforms of its identity (``_cuts``), so a value's bucket is the number
    of cuts its uniform exceeds."""
    n = inst.n
    tables = [policy.piece_stack(i).buckets() for i in range(n)]
    width = max(edges.shape[1] for edges, _ in tables)
    edges = np.full((policy.num_pieces * n, width), math.inf)
    probs = np.zeros((policy.num_pieces * n, width + 1))
    cuts = np.empty_like(edges)
    for i, (d, (e, p)) in enumerate(zip(inst.base, tables)):
        edges[i::n, :e.shape[1]] = e
        probs[i::n, :p.shape[1]] = p
        cuts[i::n] = _cuts(d, edges[i::n])
    return cuts, probs


def _draws(master_seed: int, block: int, nrep: int, N: int, tiebreaks: bool = True):
    """Block ``block``'s (rows, times, value uniforms, tiebreaks), ``_CHUNK``
    rows at a time: the rows of ``_block_rng(master_seed, block).random((3,
    nrep, N))``, read from generators that each start where one of the
    three parts begins in the stream.  Without ``tiebreaks`` the third part
    is never drawn and comes as None; the other two keep their numbers.
    Every chunk is read into the same buffer, so a chunk's arrays hold until
    the next one is asked for."""
    parts = [_block_rng(master_seed, block, part * nrep * N) for part in range(2 + tiebreaks)]
    buf = np.empty((len(parts), min(_CHUNK, nrep), N))
    for start in range(0, nrep, _CHUNK):
        rows = min(_CHUNK, nrep - start)
        times, uvals, *ties = (rng.random(out=out[:rows]) for rng, out in zip(parts, buf))
        yield slice(start, start + rows), times, uvals, (ties[0] if ties else None)


def _work_arrays(rows: int, N: int) -> tuple[np.ndarray, ...]:
    """The calling thread's work arrays for chunks of up to ``rows`` rows of N
    rewards: cell, flat (intp), looked (float), above (bool), each (rows, N)
    or longer, then picked (intp) and the row numbers, one per row.  They are
    kept for the thread's next block with N rewards, so a worker's blocks
    allocate them once; every chunk writes an array's rows before it reads
    them.  ``_block_sums`` drops a worker's arrays when no block is left."""
    kept = getattr(_per_thread, "arrays", None)
    if kept is None or kept[0].shape[1] != N or len(kept[0]) < rows:
        shape = (rows, N)
        kept = _per_thread.arrays = (
            np.empty(shape, dtype=np.intp), np.empty(shape, dtype=np.intp), np.empty(shape),
            np.empty(shape, dtype=bool), np.empty(rows, dtype=np.intp), np.arange(rows))
    return kept


def _simulate_block(inst: Instance, policy: Policy, table: tuple[np.ndarray, np.ndarray],
                    master_seed: int, block: int, nrep: int):
    """Returns (selected values, stopped mask) for the nrep replications of
    block ``block``.

    Each reward reads one cell of the acceptance ``table``: its (piece,
    identity) rule, the piece coming from ``policy.pieces_at``.  It is
    accepted when its tiebreak is below the cell's probability for the
    bucket of its value uniform.  When every probability of the table is 0
    or 1 the tiebreak cannot matter and is not drawn.  A rejected reward's
    time is moved up by 1, to 1 or later, so the earliest accepted reward is
    the ``argmin`` of the times, equal times going to the lower (identity,
    copy) column, and a replication stopped when its ``argmin`` is below 1.
    Only the selected rewards' uniforms are mapped to values.  The draws are
    read and worked ``_CHUNK`` rows at a time, each chunk in the thread's
    work arrays (``_work_arrays``) and the policy's pieces written into one
    of them.
    """
    n, k = inst.n, inst.copies
    identities = np.repeat(np.arange(n), k)
    cuts, probs = table
    tiebreaks = bool(((probs > 0.0) & (probs < 1.0)).any())
    rejected = 1.0 - probs  # the rejected mass of a cell's bucket: 0 or 1 without tiebreaks
    stopped = np.empty(nrep, dtype=bool)
    owner = np.empty(nrep, dtype=np.intp)  # identity of the selected reward
    chosen = np.empty(nrep)  # its value uniform
    work = _work_arrays(min(_CHUNK, nrep), n * k)
    for rows, t, u, ties in _draws(master_seed, block, nrep, n * k, tiebreaks):
        cell, flat, looked, above, picked, at = (a[:len(t)] for a in work)
        policy.pieces_at(t, identities, out=cell)
        cell *= n
        cell += identities
        np.multiply(cell, probs.shape[1], out=flat)  # (cell, bucket) in probs, bucket counted below
        for column in cuts.T:  # "clip" takes straight into out; every index is in range
            column.take(cell, out=looked, mode="clip")
            np.greater(u, looked, out=above)
            flat += above
        if tiebreaks:
            probs.take(flat, out=looked, mode="clip")
            np.greater_equal(ties, looked, out=above)
            t += above
        else:
            rejected.take(flat, out=looked, mode="clip")
            t += looked
        t.argmin(axis=1, out=picked)
        stopped[rows] = t[at, picked] < 1.0
        owner[rows] = identities[picked]
        chosen[rows] = u[at, picked]
    selected = np.zeros(nrep)
    for i, d in enumerate(inst.base):
        mine = stopped & (owner == i)
        selected[mine] = d.ppf(chosen[mine])
    return selected, stopped


def _block_sums(inst: Instance, policy: Policy, cfg: McConfig, reduce) -> list:
    """``reduce(selected, stopped)`` of every block, in block order.  The
    blocks are simulated on ``min(_cores(), blocks)`` threads, this one among
    them: worker w takes block w, so every thread simulates at least one,
    then each claims the next unclaimed block on demand, in block order, so
    a slow thread holds up no other.  A worker reuses its chunk work arrays
    from block to block (``_work_arrays``) and drops them when no block is
    left.  If a block raises, every thread stops taking blocks, all are
    joined, and the first exception is raised here."""
    table = _acceptance_table(inst, policy)
    R = cfg.replications
    blocks = -(-R // _BLOCK)
    workers = min(_cores(), blocks)
    sums = [None] * blocks
    errors = []
    claim = threading.Lock()
    unclaimed = workers

    def work(b):
        nonlocal unclaimed
        while b < blocks and not errors:
            try:
                nrep = min(_BLOCK, R - b * _BLOCK)
                sums[b] = reduce(*_simulate_block(inst, policy, table, cfg.master_seed, b, nrep))
            except BaseException as exc:  # raised below, once every thread has stopped
                errors.append(exc)
            with claim:
                b, unclaimed = unclaimed, unclaimed + 1
        _per_thread.arrays = None  # a thread holds its chunk arrays for one simulation

    helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in helpers:
        thread.start()
    work(0)
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return sums


def _run(inst: Instance, policy: Policy, cfg: McConfig, reduce, scales) -> list[EvalResult]:
    """One simulation.  ``reduce(selected, stopped)`` turns each block into
    two arrays, the sums of its statistics and the sums of their squares,
    each statistic divided by its entry of ``scales``, one entry per
    statistic.  The sums add up in block order; the result is one estimate
    per statistic, its mean scaled back, with the half-width of its 99%
    normal interval."""
    check_shape(policy, inst.n, inst.copies)
    R = cfg.replications
    total = total_sq = 0.0
    for s, s2 in _block_sums(inst, policy, cfg, reduce):
        total = total + s
        total_sq = total_sq + s2
    results = []
    for t, t2, scale in zip(total, total_sq, scales):
        unit_mean = float(t) / R
        mean = scale * unit_mean
        var = max(float(t2) / R - unit_mean * unit_mean, 0.0)
        hw = scale * (_Z99 * math.sqrt(var / R))
        results.append(EvalResult(mean, hw, "monte-carlo", replications=R, seed=cfg.master_seed))
    return results


def estimate_value_and_no_stop(
    inst: Instance, policy: Policy, cfg: McConfig
) -> tuple[EvalResult, EvalResult]:
    """Mean selected value and fraction of replications selecting nothing,
    both from one simulation.  Values add and square in units of the power
    of two at or below the largest value (0.5 when every value is 0), so
    each is below 2: a block's sums cannot overflow, and the largest values'
    squares do not underflow, at any scale from subnormal to the largest
    double.  Dividing and multiplying by a power of two is exact, so every
    estimate has the bits of summing the values themselves wherever those
    sums stay finite and normal."""
    scales = (math.ldexp(1.0, math.frexp(inst.support_max)[1] - 1), 1.0)
    units = np.array(scales)[:, None]

    def moments(selected, stopped):
        ys = np.stack((selected, ~stopped)) / units
        return ys.sum(axis=1), (ys * ys).sum(axis=1)

    return tuple(_run(inst, policy, cfg, moments, scales))


def estimate_expected_value(inst: Instance, policy: Policy, cfg: McConfig) -> EvalResult:
    """Mean selected value over the replications."""
    return estimate_value_and_no_stop(inst, policy, cfg)[0]


def estimate_exceedance(inst: Instance, policy: Policy, xs, cfg: McConfig) -> list[EvalResult]:
    """Fraction of replications selecting a value > x, for each x of ``xs``.
    One simulation serves every x: each block's
    counts are exact integers, so each estimate equals a run for its x alone."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))

    def counts(selected, stopped):
        above = (len(selected) - np.searchsorted(np.sort(selected), xs, side="right")) * 1.0
        return above, above  # a 0/1 statistic squares to itself

    return _run(inst, policy, cfg, counts, (1.0,) * len(xs))

"""Monte Carlo engine: determinism, CI arithmetic, agreement with the oracle."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import oracles
from oracles import ArrivalSequence, run_policy

from prophetlab import (
    ActivationPolicy,
    Distribution,
    McConfig,
    RandomizedThreshold,
    ThresholdSchedule,
    ValueBuckets,
    estimate_exceedance,
    estimate_expected_value,
    estimate_value_and_no_stop,
    expected_value,
    make_adaptive,
    make_blind_schedule,
    make_instance,
    make_single_threshold,
    opt_law,
)
from prophetlab import monte_carlo
from prophetlab.errors import InvalidParameterError
from prophetlab.experiments import regression_instances

COIN = Distribution.discrete([(0.0, 0.5), (1.0, 0.5)])
TRI = Distribution.discrete([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)])
U02 = Distribution.piecewise([(0.0, 0.0), (2.0, 1.0)])
LUMP = Distribution.piecewise([(0.5, 0.3), (2.0, 1.0)])  # an atom of 0.3 at its first breakpoint


def const_schedule(tau, accept_prob=0.0):
    return ThresholdSchedule((0.0, 1.0), (RandomizedThreshold(tau, accept_prob),))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        inst = make_instance([COIN, TRI], 3)
        cfg = McConfig(replications=100_000, master_seed=77)
        a = estimate_expected_value(inst, const_schedule(0.5), cfg)
        b = estimate_expected_value(inst, const_schedule(0.5), cfg)
        assert a.estimate == b.estimate and a.half_width == b.half_width

    @pytest.mark.parametrize("seed", [-1, 2**64, 0.5])
    def test_seed_outside_the_key_word_rejected(self, seed):
        with pytest.raises(InvalidParameterError, match="master_seed"):
            McConfig(replications=10, master_seed=seed)

    def test_largest_seed_has_its_own_stream(self):
        inst = make_instance([COIN, TRI], 3)
        top = estimate_expected_value(inst, const_schedule(0.5), McConfig(10_000, 2**64 - 1))
        assert top.seed == 2**64 - 1
        assert top.estimate != estimate_expected_value(
            inst, const_schedule(0.5), McConfig(10_000, 0)).estimate

    def test_different_seed_differs(self):
        inst = make_instance([COIN, TRI], 3)
        a = estimate_expected_value(inst, const_schedule(0.5), McConfig(50_000, 1))
        b = estimate_expected_value(inst, const_schedule(0.5), McConfig(50_000, 2))
        assert a.estimate != b.estimate


class TestConfidenceIntervals:
    def test_deterministic_reward_zero_width(self):
        inst = make_instance([Distribution.discrete([(2.0, 1.0)])], 1)
        res = estimate_expected_value(inst, const_schedule(0.0), McConfig(10_000, 5))
        assert res.estimate == 2.0
        assert res.half_width == 0.0


class TestAgainstExact:
    def test_fair_coin_expected_value(self):
        inst = make_instance([COIN], 2)
        res = estimate_expected_value(inst, const_schedule(0.5), McConfig(1_000_000, 123))
        assert abs(res.estimate - 0.75) <= 0.002

    def test_exceedance_edges(self):
        inst = make_instance([COIN, TRI], 2)
        cfg = McConfig(100_000, 6)
        assert estimate_exceedance(inst, const_schedule(0.5), [5.0], cfg)[0].estimate == 0.0
        (stopped,) = estimate_exceedance(inst, const_schedule(5.0), [0.0], cfg)
        assert stopped.estimate == 0.0  # nothing ever exceeds the threshold

    def test_no_stop_edges(self):
        d = Distribution.discrete([(1.0, 0.5), (2.0, 0.5)])
        inst = make_instance([d], 2)
        cfg = McConfig(20_000, 8)
        low = ThresholdSchedule((0.0, 1.0), (RandomizedThreshold(0.0, 1.0),))
        assert estimate_value_and_no_stop(inst, low, cfg)[1].estimate == 0.0
        high = const_schedule(9.0)
        assert estimate_value_and_no_stop(inst, high, cfg)[1].estimate == 1.0

    def test_mc_within_ci_on_random_instances(self):
        # 99% CIs, 12 instances; allow a single retry on a fresh substream
        rng = np.random.default_rng(321)
        pool = [COIN, TRI, Distribution.piecewise([(0.0, 0.0), (2.0, 1.0)])]
        misses = 0
        for trial in range(12):
            base = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 3))]
            k = int(rng.integers(1, 4))
            inst = make_instance(base, k)
            tau = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            sched = const_schedule(tau, float(rng.random()))
            exact = expected_value(inst, sched).estimate
            res = estimate_expected_value(inst, sched, McConfig(200_000, 1000 + trial))
            if abs(res.estimate - exact) > res.half_width + 1e-12:
                res = estimate_expected_value(inst, sched, McConfig(200_000, 5000 + trial))
                if abs(res.estimate - exact) > res.half_width + 1e-12:
                    misses += 1
        assert misses == 0

    def test_adaptive_no_stop_small(self):
        inst = make_instance([COIN, TRI], 16)
        pol = make_adaptive(opt_law(inst), inst, math.exp(-4))
        res = estimate_value_and_no_stop(inst, pol, McConfig(100_000, 55))[1]
        assert res.estimate <= math.exp(-4) + res.half_width


def _replayed_block(inst, seed, nrep):
    """The draws of Monte Carlo block 0 (times, value uniforms, tiebreaks, in
    that order), one ArrivalSequence per replication."""
    rng = monte_carlo._block_rng(seed, 0)
    n, k = inst.n, inst.copies
    identities = np.repeat(np.arange(n), k)
    copy_index = np.tile(np.arange(k), n)
    times, uvals, ties = (rng.random((nrep, n * k)) for _ in range(3))
    values = np.empty((nrep, n * k))
    for i, d in enumerate(inst.base):
        values[:, identities == i] = d.ppf(uvals[:, identities == i])
    for r in range(nrep):
        order = np.lexsort((copy_index, identities, times[r]))
        yield ArrivalSequence(n, k, times[r][order], identities[order], copy_index[order],
                              values[r][order], ties[r][order])


def _block_case(kind):
    if kind == "single":
        inst = make_instance([COIN, TRI], 4)
        return inst, make_single_threshold(opt_law(inst))
    if kind == "blind":
        inst = make_instance([COIN, TRI, U02], 8)
        return inst, make_blind_schedule(opt_law(inst), 8)
    if kind == "activation":
        inst = make_instance([COIN, TRI, U02], 3)
        tables = tuple(
            (
                ValueBuckets((1.0,), (0.0, g)),
                ValueBuckets((1.0, 3.0), (0.1, g, 1.0 - g)),
                ValueBuckets((0.5, 1.0, 1.5), (0.0, 0.3, g, 1.0)),
            )
            for g in (0.2, 0.5, 0.9)
        )
        return inst, ActivationPolicy((0.0, 0.3, 0.7, 1.0), tables)
    if kind == "atom-edge":  # both thresholds sit on atoms and accept part of them
        inst = make_instance([COIN, TRI], 4)
        return inst, ThresholdSchedule(
            (0.0, 0.5, 1.0), (RandomizedThreshold(1.0, 0.4), RandomizedThreshold(0.0, 0.7))
        )
    if kind == "piecewise-atom":
        inst = make_instance([LUMP, COIN], 4)
        return inst, ThresholdSchedule(
            (0.0, 0.6, 1.0), (RandomizedThreshold(0.5, 0.5), RandomizedThreshold(1.0, 0.25))
        )
    if kind == "activation-between":  # 0.5 between COIN's atoms, 2.0 between TRI's
        inst = make_instance([COIN, TRI], 3)
        tables = tuple(
            (ValueBuckets((0.5,), (0.2, g)), ValueBuckets((2.0,), (0.1, g)))
            for g in (0.6, 0.9)
        )
        return inst, ActivationPolicy((0.0, 0.5, 1.0), tables)
    # epsilon = 0.018 keeps ln(eps) away from the suffix products, whose float
    # sums can land on either side of an exact tie at eps = e^(-ell^2)
    inst = make_instance([COIN, TRI], 8)
    return inst, make_adaptive(opt_law(inst), inst, 0.018)


@pytest.mark.parametrize("kind", ["single", "blind", "activation", "adaptive", "atom-edge",
                                  "piecewise-atom", "activation-between"])
def test_block_matches_event_scan(kind):
    # the vectorized block selects what the event scan selects, rep for rep
    inst, policy = _block_case(kind)
    nrep = 3000
    selected, stopped = monte_carlo._simulate_block(
        inst, policy, monte_carlo._acceptance_table(inst, policy), 61, 0, nrep
    )
    if kind == "blind":
        assert policy.num_pieces == 513
    for r, seq in enumerate(_replayed_block(inst, 61, nrep)):
        out = run_policy(policy, seq)
        assert (bool(stopped[r]), float(selected[r])) == (out.stopped, out.selected_value), r
    assert stopped.any()


@pytest.mark.parametrize("nrep", [7, 1024, 8191])
@pytest.mark.parametrize("kind", ["single", "blind", "activation", "adaptive"])
def test_block_matches_the_reference_kernel(kind, nrep):
    # selection by shifted times, phases by rank, skipped tiebreaks and cells
    # built in place give the plain kernel's selected values and stopped
    # rows bit for bit, on every regression law, in one chunk and across several
    table_kinds = set()
    for name, base in regression_instances():
        inst, policy = _table_case(base, kind)
        table = monte_carlo._acceptance_table(inst, policy)
        got = monte_carlo._simulate_block(inst, policy, table, 37, 2, nrep)
        want = oracles.simulate_block_reference(inst, policy, table, 37, 2, nrep)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        probs = table[1]
        table_kinds.add(bool(((probs > 0.0) & (probs < 1.0)).any()))
    if kind != "activation":  # every activation table here has fractional probabilities
        assert table_kinds == {False, True}  # some laws draw tiebreaks, some do not


def test_uniform_block_draws_no_tiebreaks(monkeypatch):
    # the adaptive rule on the uniform law accepts with probability 0 or 1 in
    # every bucket, so a block opens the times and value parts of its stream
    # only, and still selects what the event scan selects
    inst, policy = _table_case(dict(regression_instances())["uniform"], "adaptive")
    table = monte_carlo._acceptance_table(inst, policy)
    assert set(table[1].ravel()) == {0.0, 1.0}
    block_rng, opened = monte_carlo._block_rng, []

    def recorded(master_seed, block, skip=0):
        opened.append(skip)
        return block_rng(master_seed, block, skip)

    monkeypatch.setattr(monte_carlo, "_block_rng", recorded)
    nrep = 3000
    selected, stopped = monte_carlo._simulate_block(inst, policy, table, 61, 0, nrep)
    assert opened == [0, nrep * inst.total_rewards]
    for r, seq in enumerate(_replayed_block(inst, 61, nrep)):
        out = run_policy(policy, seq)
        assert (bool(stopped[r]), float(selected[r])) == (out.stopped, out.selected_value), r
    assert 0 < stopped.sum() < nrep


def test_value_and_no_stop_from_one_simulation():
    inst = make_instance([COIN, TRI], 16)
    pol = make_adaptive(opt_law(inst), inst, math.exp(-4))
    cfg = McConfig(20_000, 3)
    value, no_stop = estimate_value_and_no_stop(inst, pol, cfg)
    assert value == estimate_expected_value(inst, pol, cfg)
    assert 0.0 < no_stop.estimate < 1.0 and no_stop.half_width > 0.0


def _table_case(base, kind):
    """A policy of each class on a regression law; the activation policy's
    first piece puts an edge on every breakpoint of each law and one between
    each pair, its second an edge on every breakpoint only."""
    k = 16 if kind == "adaptive" else 4
    inst = make_instance(list(base), k)
    opt = opt_law(inst)
    if kind == "single":
        return inst, make_single_threshold(opt)
    if kind == "blind":
        return inst, make_blind_schedule(opt, k)
    if kind == "adaptive":
        return inst, make_adaptive(opt, inst, math.exp(-4))
    early, late = [], []
    for d in base:
        edges = np.unique(np.concatenate((d.xs, (d.xs[:-1] + d.xs[1:]) / 2)))
        early.append(ValueBuckets(tuple(edges), tuple(np.linspace(0.1, 0.9, len(edges) + 1))))
        late.append(ValueBuckets(tuple(d.xs), tuple(np.linspace(0.8, 0.2, len(d.xs) + 1))))
    return inst, ActivationPolicy((0.0, 0.4, 1.0), (tuple(early), tuple(late)))


@pytest.mark.parametrize("kind", ["single", "blind", "adaptive", "activation"])
def test_table_is_the_rules_bucket_table(kind):
    # the piece stacks' buckets() give the table the rules' bucket forms gave,
    # padding and cell order included, bit for bit
    for name, base in regression_instances():
        inst, policy = _table_case(base, kind)
        got = monte_carlo._acceptance_table(inst, policy)
        want = oracles.acceptance_table(inst, policy)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


def test_integer_bucket_edges_read_as_their_floats():
    # integer edges made an integer table whose cuts truncated to 0 or -1:
    # a fair coin with edge 1 was accepted at 0 too (no-stop 0, not 1/4)
    inst, cfg = make_instance([COIN], 2), McConfig(20_000, 1)
    got = [estimate_value_and_no_stop(
        inst, ActivationPolicy((0.0, 1.0), ((ValueBuckets(edges, probs),),)), cfg)
        for edges, probs in (((1,), (0, 1)), ((1.0,), (0.0, 1.0)))]
    assert got[0] == got[1]


@pytest.mark.parametrize("kind", ["single", "adaptive", "activation"])
def test_rules_are_read_only_through_the_piece_stacks(kind):
    class Guarded:
        def __init__(self, policy):
            self.policy, self.stacks = policy, []

        def __getattr__(self, name):
            if name in ("thresholds", "tables", "tau1", "tau2"):
                raise AssertionError("Monte Carlo read a single piece's rule")
            return getattr(self.policy, name)

        def piece_stack(self, identity):
            self.stacks.append(identity)
            return self.policy.piece_stack(identity)

    inst, policy = _table_case(regression_instances()[7][1], kind)  # mixed-four
    guarded, cfg = Guarded(policy), McConfig(3000, 5)
    assert estimate_expected_value(inst, guarded, cfg) == estimate_expected_value(inst, policy, cfg)
    assert guarded.stacks == list(range(inst.n))


@pytest.mark.parametrize("kind", ["single", "blind", "adaptive", "activation"])
def test_cut_decides_each_edge_on_the_uniform_scale(kind):
    # ppf(u) >= e exactly when u > cut, for every edge of the table, padding
    # included, at the cut, 1 ulp either side of it, at both ends of [0, 1)
    # and at random draws
    rng = np.random.default_rng(2024)
    ends = np.array([0.0, np.nextafter(1.0, 0.0)])
    for name, base in regression_instances():
        inst, policy = _table_case(base, kind)
        cuts, _ = monte_carlo._acceptance_table(inst, policy)
        n = inst.n
        for i, d in enumerate(inst.base):
            edges = policy.piece_stack(i).buckets()[0]
            pad = np.full((len(edges), cuts.shape[1] - edges.shape[1]), math.inf)
            e, c = np.hstack((edges, pad)).ravel()[:, None], cuts[i::n].ravel()[:, None]
            assert np.all((c == -1.0) | ((c >= 0.0) & (c < 1.0))), name
            near = np.hstack((c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf),
                              np.broadcast_to(ends, (len(c), 2))))
            draw = (near >= 0.0) & (near < 1.0)
            want = d.ppf(np.where(draw, near, 0.0)) >= e
            assert np.array_equal(want[draw], (near > c)[draw]), name
            u = rng.random(10_000)
            assert np.array_equal(d.ppf(u) >= e, u > c), name


def test_cuts_do_not_depend_on_the_estimate():
    # the estimate Pr[V < e] only narrows the search: on every regression law
    # and 200 random ones, at each breakpoint, an ulp either side of it and
    # +inf padding, the cuts equal those of the bisection with no estimate
    rng = np.random.default_rng(11)
    laws = [d for _, base in regression_instances() for d in base]
    laws += [oracles.random_distribution(rng) for _ in range(200)]
    for d in laws:
        xs = d.xs
        edges = np.full((3, len(xs) + 2), math.inf)
        edges[:, :len(xs)] = (xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf))
        got, want = monte_carlo._cuts(d, edges), oracles.cuts_by_bisection(d, edges)
        assert got.shape == edges.shape and got.tobytes() == want.tobytes(), xs


def test_block_peak_memory():
    # a block holds one chunk of draws, 3 * 1024 * 48 doubles = 1.1 MiB, the
    # thread's chunk work arrays (1.2 MiB, allocated by the thread's first
    # block) and pieces_at's temporaries: a peak of 4.0 MiB at this block, 2.1
    # MiB once the thread holds its work arrays; the block's draws held at
    # once would take 9 MiB alone
    inst = make_instance(list(dict(regression_instances())["tiered"]), 16)
    policy = make_adaptive(opt_law(inst), inst, math.exp(-4))
    table = monte_carlo._acceptance_table(inst, policy)
    tracemalloc.start()
    try:
        monte_carlo._simulate_block(inst, policy, table, 1, 0, monte_carlo._BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


@pytest.mark.parametrize("base, k, block, nrep", [
    ([COIN, TRI], 4, 3, monte_carlo._BLOCK),
    ([COIN], 3, 2, monte_carlo._BLOCK - 1),  # a partial last block, nrep * N = 24,573
    ([TRI], 1, 5, 7),  # fewer rows than a chunk, 21 draws per part
], ids=["full-block", "partial-block", "short-block"])
@pytest.mark.parametrize("tiebreaks", [True, False], ids=["tiebreaks", "no-tiebreaks"])
def test_streamed_draws_equal_the_block_stream(base, k, block, nrep, tiebreaks):
    # generators started inside the block's stream, read chunk by chunk,
    # give the numbers of one call drawing the whole block; without the
    # tiebreaks, the times and value uniforms keep theirs.  The next chunk
    # reuses the arrays, so each chunk is copied
    N = len(base) * k
    chunks = [(rows, *(None if part is None else part.copy() for part in parts))
              for rows, *parts in monte_carlo._draws(19, block, nrep, N, tiebreaks)]
    assert [c[0] for c in chunks] == [slice(s, min(s + monte_carlo._CHUNK, nrep))
                                      for s in range(0, nrep, monte_carlo._CHUNK)]
    drawn = (1, 2, 3) if tiebreaks else (1, 2)
    assert all((c[3] is None) != tiebreaks for c in chunks)
    streamed = np.stack([np.concatenate([c[part] for c in chunks]) for part in drawn])
    whole = monte_carlo._block_rng(19, block).random((3, nrep, N))
    assert np.array_equal(streamed, whole[:len(drawn)])


def _per_core_count_results(monkeypatch, cores, kind):
    """Both estimators at ``cores`` cores, and the number of threads that
    simulated blocks in each run."""
    inst, policy = _block_case(kind)
    cfg = McConfig(2 * monte_carlo._BLOCK + 1000, 29)  # three blocks, the last partial
    monkeypatch.setattr(monte_carlo, "_cores", lambda: cores)
    simulate, threads = monte_carlo._simulate_block, []

    def recorded(*args):
        threads[-1].add(threading.current_thread())
        return simulate(*args)

    monkeypatch.setattr(monte_carlo, "_simulate_block", recorded)
    threads.append(set())
    value_and_no_stop = estimate_value_and_no_stop(inst, policy, cfg)
    threads.append(set())
    exceedance = estimate_exceedance(inst, policy, [0.0, 0.5, 1.0, 2.5], cfg)
    return (value_and_no_stop, exceedance), [len(t) for t in threads]


@pytest.mark.parametrize("kind", ["atom-edge", "activation", "adaptive"])
def test_estimates_do_not_depend_on_the_core_count(monkeypatch, kind):
    serial, threads = _per_core_count_results(monkeypatch, 1, kind)
    assert threads == [1, 1]
    for cores in (2, 3):
        parallel, threads = _per_core_count_results(monkeypatch, cores, kind)
        assert threads == [cores, cores]
        assert parallel == serial, cores


def test_more_threads_than_cores_sum_every_block(monkeypatch):
    # eight threads on ten blocks, switching as often as the interpreter
    # allows: a lost or misplaced block sum would change the estimates
    inst = make_instance([COIN, TRI], 1)
    cfg = McConfig(10 * monte_carlo._BLOCK - 5, 13)
    policy = const_schedule(1.0, 0.5)
    monkeypatch.setattr(monte_carlo, "_cores", lambda: 1)
    serial = estimate_value_and_no_stop(inst, policy, cfg)
    monkeypatch.setattr(monte_carlo, "_cores", lambda: 8)
    interval, got = sys.getswitchinterval(), []
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: got.append(estimate_value_and_no_stop(inst, policy, cfg)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == [serial]


@pytest.mark.parametrize("switch", [None, 1e-6], ids=["default-switching", "fast-switching"])
def test_a_slow_worker_leaves_its_blocks_to_the_others(monkeypatch, switch):
    # blocks are claimed on demand: while a helper sleeps 0.1 s before each
    # of its blocks, the calling thread claims at least 7 of the 10 (a
    # round-robin deal gives each thread five), and no estimate moves
    inst = make_instance([COIN, TRI], 1)
    policy = const_schedule(1.0, 0.5)
    cfg = McConfig(10 * monte_carlo._BLOCK - 5, 13)
    xs = [0.0, 0.5, 1.0, 2.5]

    def both():
        return estimate_value_and_no_stop(inst, policy, cfg), estimate_exceedance(inst, policy, xs, cfg)

    monkeypatch.setattr(monte_carlo, "_cores", lambda: 1)
    serial = both()
    monkeypatch.setattr(monte_carlo, "_cores", lambda: 2)
    simulate, caller_blocks = monte_carlo._simulate_block, []

    def slow_helpers(*args):
        if threading.current_thread() is runner:
            caller_blocks.append(args[4])
        else:
            time.sleep(0.1)
        return simulate(*args)

    monkeypatch.setattr(monte_carlo, "_simulate_block", slow_helpers)
    got = []
    runner = threading.Thread(target=lambda: got.append(both()))
    interval = sys.getswitchinterval()
    if switch is not None:
        sys.setswitchinterval(switch)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == [serial]
    assert caller_blocks.count(0) == 2  # one per estimator, both on the calling thread
    second = caller_blocks.index(0, 1)
    for run in (caller_blocks[:second], caller_blocks[second:]):
        assert len(run) >= 7 and run == sorted(run), run


_SECOND_RUN_FAULTS = """
import math, resource
from prophetlab import McConfig, estimate_value_and_no_stop, make_adaptive, make_instance, opt_law
from prophetlab import monte_carlo
from prophetlab.experiments import regression_instances
monte_carlo._cores = lambda: 1
inst = make_instance(list(dict(regression_instances())["tiered"]), 16)
policy = make_adaptive(opt_law(inst), inst, math.exp(-4))
cfg = McConfig(25 * monte_carlo._BLOCK, 1)
first = estimate_value_and_no_stop(inst, policy, cfg)
before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
second = estimate_value_and_no_stop(inst, policy, cfg)
print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before, second == first)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="per-thread rusage is Linux's")
def test_a_repeated_simulation_faults_in_few_pages():
    # a worker keeps its chunk arrays from block to block, so a second run of
    # tiered's 25 blocks (k = 16, N = 48) faults in few pages: 368 with
    # glibc 2.36 on x86-64 Linux, against 18,400 when every chunk allocated
    # its (1024, 48) arrays and the heap was trimmed and faulted back in each
    # time.  A fresh interpreter runs it, so no earlier test's allocations
    # set the heap's trim threshold
    src = os.path.dirname(os.path.dirname(monte_carlo.__file__))
    proc = subprocess.run([sys.executable, "-c", _SECOND_RUN_FAULTS], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    faults, same = proc.stdout.split()
    assert same == "True"
    assert int(faults) <= 2000


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_block_error_reaches_the_caller_and_no_thread_outlives_it(monkeypatch, failing):
    # with two workers, the calling thread starts on block 0 and a helper on
    # block 1; block 2 goes to whichever claims it first
    class Boom(RuntimeError):
        pass

    inst, policy = _block_case("adaptive")
    simulate = monte_carlo._simulate_block

    def faulty(inst, policy, table, seed, block, nrep):
        if block == failing:
            raise Boom(block)
        return simulate(inst, policy, table, seed, block, nrep)

    monkeypatch.setattr(monte_carlo, "_cores", lambda: 2)
    monkeypatch.setattr(monte_carlo, "_simulate_block", faulty)
    before = threading.active_count()
    with pytest.raises(Boom) as caught:
        estimate_expected_value(inst, policy, McConfig(3 * monte_carlo._BLOCK, 7))
    assert caught.value.args == (failing,)
    assert threading.active_count() == before

"""Monte Carlo engine: determinism, CI arithmetic, agreement with the oracle."""

import math

import numpy as np
import pytest
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
    estimate_no_stop,
    estimate_value_and_no_stop,
    expected_value,
    make_adaptive,
    make_blind_schedule,
    make_instance,
    make_single_threshold,
    opt_law,
)
from prophetlab import monte_carlo

COIN = Distribution.discrete([(0.0, 0.5), (1.0, 0.5)])
TRI = Distribution.discrete([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)])
U02 = Distribution.piecewise([(0.0, 0.0), (2.0, 1.0)])


def const_schedule(tau, accept_prob=0.0):
    return ThresholdSchedule((0.0, 1.0), (RandomizedThreshold(tau, accept_prob),))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        inst = make_instance([COIN, TRI], 3)
        cfg = McConfig(replications=100_000, master_seed=77)
        a = estimate_expected_value(inst, const_schedule(0.5), cfg)
        b = estimate_expected_value(inst, const_schedule(0.5), cfg)
        assert a.estimate == b.estimate and a.half_width == b.half_width

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

    def test_hoeffding_formula(self):
        inst = make_instance([COIN], 2)
        reps = 40_000
        cfg = McConfig(replications=reps, master_seed=9, ci_method="hoeffding")
        res = estimate_expected_value(inst, const_schedule(0.5), cfg)
        want = 1.0 * math.sqrt(math.log(2 / 0.01) / (2 * reps))
        assert res.half_width == pytest.approx(want, rel=1e-12)

    def test_probability_estimates_capped_at_one(self):
        inst = make_instance([TRI], 2)
        cfg = McConfig(replications=30_000, master_seed=4, ci_method="hoeffding")
        (res,) = estimate_exceedance(inst, const_schedule(0.5), [0.5], cfg)
        # exceedance is a probability; its Hoeffding width uses cap 1, not 3
        want = math.sqrt(math.log(2 / 0.01) / (2 * 30_000))
        assert res.half_width == pytest.approx(want, rel=1e-12)


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
        assert estimate_no_stop(inst, low, cfg).estimate == 0.0
        high = const_schedule(9.0)
        assert estimate_no_stop(inst, high, cfg).estimate == 1.0

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
        res = estimate_no_stop(inst, pol, McConfig(100_000, 55))
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
    # epsilon = 0.018 keeps ln(eps) away from the suffix products, whose float
    # sums can land on either side of an exact tie at eps = e^(-ell^2)
    inst = make_instance([COIN, TRI], 8)
    return inst, make_adaptive(opt_law(inst), inst, 0.018)


@pytest.mark.parametrize("kind", ["single", "blind", "activation", "adaptive"])
def test_block_matches_event_scan(kind):
    # the vectorized block selects what the event scan selects, rep for rep
    inst, policy = _block_case(kind)
    nrep = 3000
    selected, stopped = monte_carlo._simulate_block(
        inst, policy, monte_carlo._block_rng(61, 0), nrep
    )
    if kind == "blind":
        assert policy.num_pieces == 513
    for r, seq in enumerate(_replayed_block(inst, 61, nrep)):
        out = run_policy(policy, seq)
        assert (bool(stopped[r]), float(selected[r])) == (out.stopped, out.selected_value), r
    assert stopped.any()


def test_value_and_no_stop_from_one_simulation():
    inst = make_instance([COIN, TRI], 16)
    pol = make_adaptive(opt_law(inst), inst, math.exp(-4))
    for cfg in (McConfig(20_000, 3), McConfig(20_000, 3, "hoeffding")):
        value, no_stop = estimate_value_and_no_stop(inst, pol, cfg)
        assert value == estimate_expected_value(inst, pol, cfg)
        assert no_stop == estimate_no_stop(inst, pol, cfg)
    # Hoeffding caps per statistic: the largest value for the value, 1 for no-stop
    width = math.sqrt(math.log(2 / 0.01) / (2 * 20_000))
    assert value.half_width == pytest.approx(3.0 * width, rel=1e-12)
    assert no_stop.half_width == pytest.approx(width, rel=1e-12)

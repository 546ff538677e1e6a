"""Monte Carlo engine: determinism, CI arithmetic, agreement with the oracle."""

import math

import numpy as np
import pytest

from prophetlab import (
    Distribution,
    McConfig,
    RandomizedThreshold,
    ThresholdSchedule,
    estimate_exceedance,
    estimate_expected_value,
    estimate_no_stop,
    expected_value,
    make_adaptive,
    make_instance,
    opt_law,
)

COIN = Distribution.discrete([(0.0, 0.5), (1.0, 0.5)])
TRI = Distribution.discrete([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)])


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
        cfg = McConfig(replications=reps, master_seed=9, ci_method="hoeffding", value_cap=1.0)
        res = estimate_expected_value(inst, const_schedule(0.5), cfg)
        want = 1.0 * math.sqrt(math.log(2 / 0.01) / (2 * reps))
        assert res.half_width == pytest.approx(want, rel=1e-12)

    def test_probability_estimates_capped_at_one(self):
        inst = make_instance([TRI], 2)
        cfg = McConfig(replications=30_000, master_seed=4, ci_method="hoeffding", value_cap=3.0)
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

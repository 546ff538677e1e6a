"""Instance assembly, the benchmark law, and arrival sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_quantile_threshold
from test_distributions import discrete_laws, piecewise_laws

from prophetlab import (
    Distribution,
    InvalidInstanceError,
    InvalidQuantileError,
    OptLaw,
    instance_from_json,
    instance_to_json,
    make_instance,
    opt_law,
    sample_arrivals,
)
from prophetlab.experiments import regression_instances

ATOM1 = Distribution.discrete([(1.0, 1.0)])
COIN = Distribution.discrete([(0.0, 0.5), (1.0, 0.5)])


def two_type_base(p: float, eps: float):
    """A deterministic 1 next to a coin that pays 1 + sqrt(eps) or nothing."""
    risky = Distribution.discrete([(0.0, p), (1.0 + math.sqrt(eps), 1.0 - p)])
    return [ATOM1, risky]


class TestMakeInstance:
    def test_single_reward(self):
        inst = make_instance([ATOM1], 1)
        assert inst.n == 1 and inst.copies == 1

    def test_two_type_size(self):
        inst = make_instance(two_type_base(0.25, 0.0625), 7)
        assert inst.n * inst.copies == 14

    def test_copies_do_not_change_opt(self):
        # OPT is the max over one copy per identity, whatever k is
        v1 = opt_law(make_instance([COIN], 1)).expected_value
        v10 = opt_law(make_instance([COIN], 10)).expected_value
        assert v1 == v10 == pytest.approx(0.5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidInstanceError):
            make_instance([], 1)
        with pytest.raises(InvalidInstanceError):
            make_instance([ATOM1], 0)


class TestOptLaw:
    def test_point_mass(self):
        assert opt_law(make_instance([Distribution.discrete([(2.5, 1.0)])], 3)).expected_value == pytest.approx(2.5)

    def test_two_fair_coins(self):
        inst = make_instance([COIN, COIN], 2)
        assert opt_law(inst).expected_value == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("p,eps", [(0.25, 0.0625), (0.5, 0.25), (0.04, 0.01)])
    def test_two_type_closed_form(self, p, eps):
        # max(1, coin) pays 1 + sqrt(eps) unless the coin comes up empty
        inst = make_instance(two_type_base(p, eps), 1)
        closed = 1.0 + math.sqrt(eps) - p * math.sqrt(eps)
        assert opt_law(inst).expected_value == pytest.approx(closed, abs=1e-9)


def _bits(rt):
    return rt.tau.hex(), rt.accept_prob.hex()


def _blind_quantiles(k: int) -> list[float]:
    """The 1 + 512 quantiles of the blind schedule for k copies (just the
    median when the schedule collapses to one threshold)."""
    if 2.0 / k >= 1.0:
        return [0.5]
    grid = np.linspace(2.0 / k, 1.0, 513)
    return [0.5, *(1.0 / (grid[:-1] * k))]


class TestQuantileThresholds:
    @pytest.mark.parametrize(
        "base", [pytest.param(base, id=name) for name, base in regression_instances()]
    )
    def test_product_tables_match_scalar_products(self, base):
        opt = OptLaw(base)
        grid = np.unique(np.concatenate([d.xs for d in base]))
        np.testing.assert_array_equal(opt.dist.xs, grid)
        assert [x.hex() for x in opt.dist.Fr] == [opt.cdf(x).hex() for x in grid]
        assert [x.hex() for x in opt.dist.Fl] == [opt.cdf_left(x).hex() for x in grid]

    @pytest.mark.parametrize("k", [1, 2, 6, 64])
    def test_blind_grids_match_reference_bitwise(self, k):
        qs = _blind_quantiles(k)
        for name, base in regression_instances():
            got = OptLaw(base).quantile_thresholds(qs)
            ref = OptLaw(base)
            for q, rt in zip(qs, got):
                assert _bits(rt) == _bits(reference_quantile_threshold(ref, q)), (name, q)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(discrete_laws() | piecewise_laws(), min_size=1, max_size=3),
        st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=20),
    )
    def test_random_bases_match_reference_and_reject_q(self, base, extra):
        opt = OptLaw(base)
        # the product CDF's own values put q exactly on atoms and segment ends
        qs = [float(v) for v in np.concatenate([opt.dist.Fr, opt.dist.Fl]) if v < 1.0] + extra
        for q, rt in zip(qs, opt.quantile_thresholds(qs)):
            assert _bits(rt) == _bits(reference_quantile_threshold(opt, q))
            rejected = math.prod(d.reject_prob(rt) for d in base)
            assert rejected == pytest.approx(q, abs=1e-12)

    def test_batch_keeps_order_and_duplicates(self):
        opt = OptLaw(regression_instances()[7][1])
        qs = [0.9, 0.1, 0.5, 0.1]
        batch = opt.quantile_thresholds(qs)
        fresh = OptLaw(opt.base)
        assert batch == [fresh.quantile_threshold(q) for q in qs]
        assert batch[1] is batch[3]

    @pytest.mark.parametrize("bad", [1.0, -0.1, float("nan")])
    def test_batch_with_bad_quantile_raises(self, bad):
        opt = OptLaw([COIN, ATOM1])
        with pytest.raises(InvalidQuantileError):
            opt.quantile_thresholds([0.25, bad, 0.5])
        assert opt.quantile_thresholds([]) == []


class TestSampleArrivals:
    def test_count_and_sorted(self):
        inst = make_instance([COIN, ATOM1, COIN], 4)
        seq = sample_arrivals(inst, np.random.default_rng(3))
        assert len(seq) == 12
        assert np.all(np.diff(seq.times) >= 0)

    def test_identity_multiplicities(self):
        inst = make_instance([COIN, ATOM1], 5)
        seq = sample_arrivals(inst, np.random.default_rng(11))
        counts = np.bincount(seq.identities, minlength=2)
        assert list(counts) == [5, 5]

    def test_arrival_times_uniform(self):
        inst = make_instance([COIN, ATOM1], 3)
        rng = np.random.default_rng(2024)
        total, draws = 0.0, 2000
        for _ in range(draws):
            total += sample_arrivals(inst, rng).times.mean()
        assert abs(total / draws - 0.5) <= 0.005

    def test_fixed_seed_reproduces(self):
        inst = make_instance([COIN, ATOM1], 2)
        a = sample_arrivals(inst, np.random.default_rng(99))
        b = sample_arrivals(inst, np.random.default_rng(99))
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.tiebreaks, b.tiebreaks)


def test_json_roundtrip():
    inst = make_instance(two_type_base(0.3, 0.04), 6)
    back = instance_from_json(instance_to_json(inst))
    assert back.copies == 6 and back.n == 2
    assert opt_law(back).expected_value == pytest.approx(opt_law(inst).expected_value)

"""Instance assembly, the benchmark law, and the reference arrival sampling."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    RandomizedThreshold,
    is_discrete,
    opt_cdf_left,
    reference_quantile_threshold,
    sample_arrivals,
)
from test_distributions import atom_lists, discrete_laws, piecewise_laws, point_lists, same_law

from prophetlab import (
    Distribution,
    InvalidInstanceError,
    InvalidParameterError,
    InvalidQuantileError,
    McConfig,
    OptLaw,
    instance_from_json,
    make_instance,
    nth_root,
    opt_law,
)
from prophetlab import instance
from prophetlab.experiments import (
    hardness_activation,
    hardness_general,
    hardness_time_based,
    lemma_suite,
    regression_instances,
)
from prophetlab.instance import _bisect
from prophetlab.policies import make_blind_schedule

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


    def test_point_mass_at_one_is_exactly_one(self):
        # a flat segment takes no quadrature: leggauss(2)'s weights sum to 2 - 9e-16
        assert OptLaw([ATOM1]).expected_value == 1.0

    @pytest.mark.parametrize("base", [
        pytest.param(base, id=name) for name, base in regression_instances()
        if all(is_discrete(d) for d in base)
    ])
    def test_discrete_law_matches_a_rational_sum(self, base):
        got = OptLaw(base).expected_value
        assert abs(Fraction(got) - _rational_opt_value(base)) <= Fraction(1, 10**16)


def _rational_opt_value(base) -> Fraction:
    """E[max] of discrete laws as the exact sum over the merged support of
    width times 1 - prod_i F_i, each F_i a law's stored CDF."""
    points = sorted({0.0, *(float(x) for d in base for x in d.xs)})
    total = Fraction(0)
    for a, b in zip(points, points[1:]):
        below = Fraction(1)
        for d in base:
            at_or_below = [Fraction(float(fr)) for x, fr in zip(d.xs, d.Fr) if x <= a]
            below *= at_or_below[-1] if at_or_below else 0
        total += (Fraction(b) - Fraction(a)) * (1 - below)
    return total


def _rejected(base, tau, accept_prob):
    """Pr[OPT rejected] by (tau, accept_prob): the product in base order."""
    return math.prod(RandomizedThreshold(tau, accept_prob).rejected_mass(d) for d in base)


def _bits(rt):
    return rt.tau.hex(), rt.accept_prob.hex()


def _rules(opt, qs):
    """``opt.quantile_threshold(qs)``, one ``RandomizedThreshold`` per q."""
    tau, accept = opt.quantile_threshold(qs)
    return [RandomizedThreshold(t, a) for t, a in zip(tau.tolist(), accept.tolist())]


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
        assert [x.hex() for x in opt.dist.Fl] == [opt_cdf_left(opt, x).hex() for x in grid]

    @pytest.mark.parametrize("k", [1, 2, 6, 64])
    def test_blind_grids_match_reference_bitwise(self, k):
        qs = _blind_quantiles(k)
        for name, base in regression_instances():
            got = _rules(OptLaw(base), qs)
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
        for q, rt in zip(qs, _rules(opt, qs)):
            assert _bits(rt) == _bits(reference_quantile_threshold(opt, q))
            rejected = _rejected(base, rt.tau, rt.accept_prob)
            assert rejected == pytest.approx(q, abs=1e-12)
            # exactly the first double where the search's predicate holds
            if rt.tau not in opt.dist.xs:
                assert opt.cdf(rt.tau) >= q > opt.cdf(np.nextafter(rt.tau, -np.inf))
            elif 0.0 < rt.accept_prob < 1.0:
                below = np.nextafter(rt.accept_prob, -np.inf)
                assert rejected <= q < _rejected(base, rt.tau, below)

    @pytest.mark.parametrize("c", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("q", [1e-50, 1e-100, 1e-300, 5e-324])
    def test_tiny_q_is_the_first_double_at_or_above_q(self, c, q):
        opt = OptLaw([Distribution.piecewise([(0.0, 0.0), (c, 1.0)])])
        (tau,), _ = opt.quantile_threshold([q])
        assert opt.cdf(tau) >= q > opt.cdf(np.nextafter(tau, -np.inf))

    def test_law_from_negative_zero(self):
        opt = OptLaw([Distribution.piecewise([(-0.0, 0.0), (1.0, 1.0)])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _rules(opt, [0.3, 1e-300])
        assert [rt.tau for rt in got] == [0.3, 1e-300]

    def test_batch_keeps_order_and_duplicates(self):
        opt = OptLaw(regression_instances()[7][1])
        qs = [0.9, 0.1, 0.5, 0.1]
        batch = _rules(opt, qs)
        assert [_bits(rt) for rt in batch] == [_bits(_rules(opt, [q])[0]) for q in qs]
        # a lone q, inside a segment or at an atom, is the batch [q]
        for q in (0.1, 0.9):
            assert _bits(_rules(opt, q)[0]) == _bits(_rules(opt, [q])[0])

    @pytest.mark.parametrize("bad", [1.0, -0.1, float("nan")])
    def test_batch_with_bad_quantile_raises(self, bad):
        opt = OptLaw([COIN, ATOM1])
        with pytest.raises(InvalidQuantileError):
            opt.quantile_threshold([0.25, bad, 0.5])
        assert [a.shape for a in opt.quantile_threshold([])] == [(0,), (0,)]

    def test_arrays_are_the_thresholds_and_name_a_bad_quantile_plainly(self):
        opt = OptLaw(regression_instances()[7][1])
        qs = np.array([0.9, 0.1, 0.5, 1e-300])
        tau, accept = opt.quantile_threshold(qs)
        assert list(zip(tau.tolist(), accept.tolist())) == [
            (rt.tau, rt.accept_prob) for q in qs.tolist() for rt in _rules(opt, [q])]
        with pytest.raises(InvalidQuantileError, match=r"got 1\.0$"):
            opt.quantile_threshold(np.array([0.5, 1.0, 2.0]))


def _shift(x: np.ndarray, ulps: int) -> np.ndarray:
    """x moved by ``ulps`` bit patterns, kept at or above 0.0."""
    return np.maximum(x.view(np.int64) + ulps, 0).view(np.float64)


class TestBisectWithEstimate:
    """Any estimate leaves ``_bisect``'s answer as it is without one, bit for bit."""

    ANSWERS = np.array([0.0, 5e-324, 1e-310, 1e-300, 1e-5, 0.3, 1.0, 1e300, 1.7e308])

    @pytest.mark.parametrize("lo", [0.0, -0.0, -1.0])
    @pytest.mark.parametrize("wide", [True, False], ids=["hi-max", "hi-3-ulps-up"])
    def test_threshold_predicate(self, lo, wide):
        ans = self.ANSWERS
        los = np.full(ans.shape, lo)
        his = np.full(ans.shape, np.finfo(float).max) if wide else _shift(ans, 3)

        def holds(x):
            return x >= ans

        plain = _bisect(los, his, holds)
        # 0.0 lies in (lo, hi] only when lo is negative
        expected = ans if lo < 0.0 else np.maximum(ans, 5e-324)
        assert plain.tolist() == expected.tolist()
        estimates = {
            "answer": ans, "1-below": _shift(ans, -1), "1-above": _shift(ans, 1),
            "1e6-below": _shift(ans, -10**6), "1e6-above": _shift(ans, 10**6),
            "nan": np.full(ans.shape, np.nan), "lo": los, "hi": his,
            "below-lo": los - 5.0, "above-hi": np.full(ans.shape, np.inf),
        }
        for name, guess in estimates.items():
            got = _bisect(los, his, holds, guess)
            assert got.view(np.int64).tolist() == plain.view(np.int64).tolist(), name

    def test_rounding_plateau(self):
        # 1 - a rounds to the same double for hundreds of small a, so the
        # predicate turns true at the edge of a plateau the estimate lands in
        q = np.array([1.0 - 2.0**-k for k in (3, 9, 20, 40, 52)])

        def holds(a):
            return 0.5 + (1.0 - a) * 0.5 <= q

        lo, hi = np.zeros_like(q), np.ones_like(q)
        plain = _bisect(lo, hi, holds)
        assert (holds(plain) & ~holds(np.nextafter(plain, -np.inf))).all()
        root = 2.0 * (1.0 - q)
        for guess in (root, _shift(root, 300), _shift(root, -300), _shift(root, 10**9)):
            assert _bisect(lo, hi, holds, guess).tolist() == plain.tolist()


class TestQuantileSearchCost:
    """The secant estimates and the probe bracket leave a blind schedule few
    passes over its 513 quantiles; halving all of (lo, hi] took 52 cdf calls
    on mixed-four and two-piecewise and 64 rejected-mass passes on fair-coin."""

    @pytest.mark.parametrize("name", ["mixed-four", "two-piecewise"])
    def test_cdf_calls(self, name):
        opt = OptLaw(dict(regression_instances())[name])
        calls = []
        cdf = opt.cdf
        opt.cdf = lambda x: calls.append(x) or cdf(x)
        make_blind_schedule(opt, 6)
        assert 0 < len(calls) <= 20

    def test_rejected_mass_passes(self, monkeypatch):
        calls = []
        rejected = instance._rejected
        monkeypatch.setattr(instance, "_rejected", lambda *a: calls.append(a) or rejected(*a))
        make_blind_schedule(OptLaw(dict(regression_instances())["fair-coin"]), 6)
        assert 0 < len(calls) <= 20


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


_LAW_TYPES = {"atoms": ("discrete", Distribution.discrete),
              "points": ("piecewise", Distribution.piecewise)}


@given(st.lists(atom_lists().map(lambda pairs: ("atoms", pairs))
                | point_lists().map(lambda pairs: ("points", pairs)), min_size=1, max_size=3),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_json_reader_builds_each_law_with_its_constructor(laws, k):
    text = json.dumps({"base": [{"type": _LAW_TYPES[key][0], key: pairs} for key, pairs in laws],
                       "copies": k})
    inst = instance_from_json(json.loads(text))
    assert inst.copies == k and inst.n == len(laws)
    for got, (key, pairs) in zip(inst.base, laws):
        assert same_law(got, _LAW_TYPES[key][1](pairs))


# every integer parameter of the library, with the error class its site raises
_INTEGER_SITES = {
    "make_instance k": (lambda v: make_instance([COIN], v), InvalidInstanceError),
    "McConfig replications": (lambda v: McConfig(v, 0), InvalidParameterError),
    "McConfig master_seed": (lambda v: McConfig(10, v), InvalidParameterError),
    "make_blind_schedule k": (lambda v: make_blind_schedule(OptLaw([COIN]), v),
                              InvalidParameterError),
    "make_blind_schedule grid_resolution": (
        lambda v: make_blind_schedule(OptLaw([COIN]), 8, grid_resolution=v),
        InvalidParameterError),
    "nth_root n": (lambda v: nth_root(COIN, v), InvalidParameterError),
    "hardness_general k": (lambda v: hardness_general(v), InvalidParameterError),
    "hardness_time_based k": (lambda v: hardness_time_based(v, 11), InvalidParameterError),
    "hardness_activation grid": (lambda v: hardness_activation(3, v), InvalidParameterError),
    "lemma_suite trials": (lambda v: lemma_suite(seed=0, trials=v), InvalidParameterError),
}


@pytest.mark.parametrize("value", [True, np.bool_(True), 3.5, 3.0, "3"])
@pytest.mark.parametrize("site", sorted(_INTEGER_SITES))
def test_every_integer_parameter_rejects_bools_and_non_integers(site, value):
    call, error = _INTEGER_SITES[site]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("site", sorted(_INTEGER_SITES))
def test_every_integer_parameter_takes_numpy_integers(site):
    call, _ = _INTEGER_SITES[site]
    call(np.int64(3))

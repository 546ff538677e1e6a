"""Exact evaluator vs closed forms and full enumeration on tiny instances."""

import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import oracles
import pytest
from oracles import (
    ScalarPieces,
    activation_from_threshold,
    constant_activation,
    enumerate_exceedance,
    enumerate_expected_value,
    enumerate_stop_statistics,
)

from prophetlab import (
    Distribution,
    ExactEvaluator,
    InvalidInstanceError,
    InvalidParameterError,
    PolicyMismatchError,
    RandomizedThreshold,
    ThresholdSchedule,
    exceedance,
    expected_value,
    make_adaptive,
    make_instance,
    nth_root,
    opt_law,
    p_tau_multi,
    p_tau_single,
)
from prophetlab import exact_oracle, experiments
from prophetlab.experiments import regression_instances
from prophetlab.policies import (
    ActivationPolicy,
    ThresholdStack,
    ValueBuckets,
    make_blind_schedule,
    sort_nonincreasing,
)

COIN = Distribution.discrete([(0.0, 0.5), (1.0, 0.5)])
TRI = Distribution.discrete([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)])
ATOM1 = Distribution.discrete([(1.0, 1.0)])


def const_schedule(tau, accept_prob=0.0):
    return ThresholdSchedule((0.0, 1.0), (RandomizedThreshold(tau, accept_prob),))


def exceedance_at(inst, policy, x):
    (res,) = exceedance(inst, policy, [x])
    return res.estimate


class TestPTau:
    def test_threshold_above_support(self):
        assert p_tau_single(const_schedule(5.0), TRI, 1.0) == 0.0

    def test_threshold_below_support(self):
        d = Distribution.discrete([(1.0, 0.5), (2.0, 0.5)])
        assert p_tau_single(const_schedule(0.0), d, 0.3) == pytest.approx(0.3)

    def test_fair_coin_median(self):
        assert p_tau_single(const_schedule(0.5), COIN, 1.0) == pytest.approx(0.5)

    def test_multi_single_entry(self):
        got = p_tau_multi(const_schedule(0.5), ((COIN, 1),), 0.7)
        assert got == pytest.approx(p_tau_single(const_schedule(0.5), COIN, 0.7))

    def test_multi_two_coins(self):
        assert p_tau_multi(const_schedule(0.5), ((COIN, 2),), 1.0) == pytest.approx(0.75)

    @pytest.mark.parametrize("mult", [1.5, True, 2.0, 0, -1], ids=repr)
    def test_multiplicity_must_be_a_positive_integer(self, mult):
        # 1.5 read 0.3505 and True 0.25 on the coin at t = 0.5
        with pytest.raises(InvalidInstanceError, match="multiplicities"):
            p_tau_multi(const_schedule(0.5), ((COIN, mult),), 0.5)
        assert p_tau_multi(const_schedule(0.5), ((COIN, np.int64(2)),), 1.0) == 0.75

    def test_nan_time_is_refused(self):
        # t = nan answered as t = 1 (0.5 on the coin)
        with pytest.raises(InvalidParameterError, match="nan"):
            p_tau_single(const_schedule(0.5), COIN, math.nan)
        with pytest.raises(InvalidParameterError, match="nan"):
            p_tau_multi(const_schedule(0.5), ((COIN, 1),), math.nan)

    def test_piece_walk_equals_the_retired_rule_loop(self):
        # t <= 0, t on and an ulp either side of each breakpoint, t >= 1 and
        # t = inf, on random laws and on a hand-built one with Fl[0] != 0
        rng = np.random.default_rng(27)
        fl0 = Distribution(np.array([0.5, 1.0, 2.0]), np.array([0.25, 0.5, 0.75]),
                           np.array([0.4, 0.6, 1.0]))
        for trial in range(600):
            sched = experiments._random_schedule(rng)
            law = fl0 if trial % 20 == 0 else experiments._random_distribution(rng)
            b = np.array(sched.breakpoints)
            times = [-1.0, -0.0, *b.tolist(), *np.nextafter(b, -1.0).tolist(),
                     *np.nextafter(b, 2.0).tolist(), float(rng.random()), 1.5, math.inf]
            for t in times:
                want = oracles.p_tau_single(sched, law, t)
                assert p_tau_single(sched, law, t).hex() == want.hex(), (trial, t)
                got = p_tau_multi(sched, ((law, 2), (fl0, 1)), t)
                want = 1.0 - (1.0 - want) ** 2 * (1.0 - oracles.p_tau_single(sched, fl0, t))
                assert got.hex() == want.hex(), (trial, t)

    @pytest.mark.parametrize("policy", [
        ActivationPolicy((0.0, 1.0), ((ValueBuckets((0.5,), (0.0, 1.0)),),)),
        make_adaptive(opt_law(make_instance([COIN], 2)), make_instance([COIN], 2), 0.05),
    ], ids=["activation", "adaptive"])
    def test_a_policy_without_one_threshold_per_piece_is_refused(self, policy):
        # each raised AttributeError: no attribute 'thresholds'
        name = type(policy).__name__
        with pytest.raises(PolicyMismatchError, match=f"got {name}$"):
            p_tau_single(policy, COIN, 0.5)
        with pytest.raises(PolicyMismatchError, match=f"got {name}$"):
            p_tau_multi(policy, ((COIN, 1),), 0.5)

    def test_root_copy_closed_form(self):
        # OPT-median threshold on n k root copies:
        # p = 1 - (1 - t + t q^{1/n})^{nk} with q = Pr[root rejected]
        n, k = 2, 3
        base = [COIN, TRI]
        opt = opt_law(make_instance(base, k))
        rt = opt.quantile_threshold(0.5)
        root = nth_root(opt.dist, n)
        sched = ThresholdSchedule((0.0, 1.0), (rt,))
        q = rt.rejected_mass(root)
        for t in (0.25, 0.7, 1.0):
            got = p_tau_multi(sched, ((root, n * k),), t)
            assert got == pytest.approx(1.0 - (1.0 - t + t * q) ** (n * k), abs=1e-12)


class TestExpectedValueThreshold:
    def test_one_coin(self):
        inst = make_instance([COIN], 1)
        assert expected_value(inst, const_schedule(0.5)).estimate == pytest.approx(0.5)

    def test_two_coin_copies(self):
        inst = make_instance([COIN], 2)
        res = expected_value(inst, const_schedule(0.5))
        assert res.estimate == pytest.approx(0.75, abs=1e-12)
        assert res.method == "exact"

    def test_matches_enumeration_on_mixed_schedule(self):
        inst = make_instance([COIN, TRI], 2)
        sched = ThresholdSchedule(
            (0.0, 0.4, 1.0),
            (RandomizedThreshold(1.0, 0.3), RandomizedThreshold(0.0, 0.6)),
        )
        exact = expected_value(inst, sched).estimate
        assert exact == pytest.approx(enumerate_expected_value(inst, sched), abs=1e-10)

    # the reduction's roundoff put each of these above the largest value
    @pytest.mark.parametrize("name,algorithm_class,k", [
        ("point-mass", "blind", 32),
        ("det-plus-risky", "single", 1024),
        ("mixed-four", "single", 512),
        ("skewed-discrete", "single", 1024),
    ])
    def test_never_above_the_largest_value(self, name, algorithm_class, k):
        inst = make_instance(dict(regression_instances())[name], k)
        policy = experiments.build_policy(inst, opt_law(inst), algorithm_class, 0.05)
        assert 0.0 <= expected_value(inst, policy).estimate <= inst.support_max


class TestExceedance:
    def test_above_all_supports(self):
        inst = make_instance([COIN, TRI], 2)
        assert exceedance_at(inst, const_schedule(0.5), 5.0) == 0.0

    def test_at_zero_equals_stop_prob(self):
        # positive-support instance: selecting anything means selecting > 0
        d = Distribution.discrete([(1.0, 0.5), (2.0, 0.5)])
        inst = make_instance([d], 3)
        sched = const_schedule(1.0, 0.5)
        got = exceedance_at(inst, sched, 0.0)
        want = p_tau_multi(sched, ((d, 3),), 1.0)
        assert got == pytest.approx(want, abs=1e-12)

    def test_fair_coin_half(self):
        inst = make_instance([COIN], 2)
        assert exceedance_at(inst, const_schedule(0.5), 0.5) == pytest.approx(0.75, abs=1e-12)

    def test_exceedance_many_matches_scalar(self):
        inst = make_instance([COIN, TRI], 2)
        sched = ThresholdSchedule(
            (0.0, 0.3, 1.0),
            (RandomizedThreshold(1.0, 0.0), RandomizedThreshold(0.5, 0.0)),
        )
        ev = ExactEvaluator(inst, sched)
        xs = np.array([0.0, 0.5, 1.0, 2.9])
        many = ev.exceedance_many(xs)
        for x, m in zip(xs, many):
            assert m == pytest.approx(exceedance_at(inst, sched, float(x)), abs=1e-12)


class TestActivation:
    def test_indicator_tables_match_threshold(self):
        inst = make_instance([COIN, TRI], 2)
        sched = ThresholdSchedule(
            (0.0, 0.4, 1.0),
            (RandomizedThreshold(1.0, 0.3), RandomizedThreshold(0.0, 0.6)),
        )
        act = activation_from_threshold(sched, inst.n)
        a = expected_value(inst, act).estimate
        b = expected_value(inst, sched).estimate
        assert a == pytest.approx(b, abs=1e-12)

    def test_never_activate(self):
        inst = make_instance([COIN, TRI], 2)
        act = constant_activation([ValueBuckets((), (0.0,))] * 2)
        assert expected_value(inst, act).estimate == 0.0

    def test_one_greedy_identity(self):
        # identity 0 always activates, identity 1 never: ALG gets V_0 always
        inst = make_instance([TRI, COIN], 1)
        act = constant_activation(
            [ValueBuckets((), (1.0,)), ValueBuckets((), (0.0,))]
        )
        got = expected_value(inst, act).estimate
        assert got == pytest.approx(enumerate_expected_value(inst, act), abs=1e-10)
        assert got == pytest.approx(1.4)  # E[TRI]


class TestShapeGuard:
    """The exact path refuses a policy built for another instance shape."""

    @pytest.mark.parametrize("tables", [2, 4])
    def test_activation_identity_count_must_match(self, tables):
        inst = make_instance([COIN, TRI, ATOM1], 2)
        act = constant_activation([ValueBuckets((), (1.0,))] * tables)
        for evaluate in (
            lambda: ExactEvaluator(inst, act),
            lambda: expected_value(inst, act),
            lambda: exceedance(inst, act, [0.5]),
        ):
            with pytest.raises(PolicyMismatchError):
                evaluate()

    def test_adaptive_has_no_exact_evaluator(self):
        inst = make_instance([COIN, TRI], 16)
        pol = make_adaptive(opt_law(inst), inst, math.exp(-4))
        with pytest.raises(PolicyMismatchError) as info:
            ExactEvaluator(inst, pol)
        assert "\n" not in str(info.value) and "Monte Carlo" in str(info.value)


class TestEnumerationSweep:
    """Every (base-combo, k) with N <= 4 and supports <= 3, several schedules."""

    POOL = {
        "coin": COIN,
        "tri": TRI,
        "atom": Distribution.discrete([(2.0, 1.0)]),
        "skew": Distribution.discrete([(0.0, 0.7), (2.5, 0.3)]),
    }
    SCHEDULES = [
        const_schedule(0.5),
        const_schedule(1.0, 0.5),
        ThresholdSchedule(
            (0.0, 0.3, 1.0),
            (RandomizedThreshold(2.0, 0.25), RandomizedThreshold(0.0, 0.9)),
        ),
    ]

    def combos(self):
        names = sorted(self.POOL)
        for n in (1, 2, 3, 4):
            for ids in itertools.combinations_with_replacement(names, n):
                for k in range(1, 4 // n + 1):
                    yield ids, k

    def test_value_and_no_stop_match(self):
        for ids, k in self.combos():
            inst = make_instance([self.POOL[i] for i in ids], k)
            for sched in self.SCHEDULES:
                want_val, want_ns = enumerate_stop_statistics(inst, sched)
                got = expected_value(inst, sched).estimate
                assert got == pytest.approx(want_val, abs=1e-7), (ids, k)
                ev = ExactEvaluator(inst, sched)
                assert ev.no_stop_prob() == pytest.approx(want_ns, abs=1e-7), (ids, k)

    def test_identity_selection_and_no_stop_sum_to_one(self):
        for ids, k in self.combos():
            inst = make_instance([self.POOL[i] for i in ids], k)
            for sched in self.SCHEDULES:
                ev = ExactEvaluator(inst, sched)
                picks = ev.selection_by_identity()
                assert picks.shape == (inst.n,) and (picks >= 0.0).all()
                assert picks.sum() + ev.no_stop_prob() == pytest.approx(1.0, abs=1e-12)

    def test_exceedance_matches(self):
        for ids, k in self.combos():
            inst = make_instance([self.POOL[i] for i in ids], k)
            sched = self.SCHEDULES[2]
            for x in (0.0, 1.0, 2.4):
                got = exceedance_at(inst, sched, x)
                assert got == pytest.approx(enumerate_exceedance(inst, sched, x), abs=1e-7)


def optimal_online(base, k):
    """The optimal online value of ``base`` at k copies each, from its atoms."""
    return exact_oracle.optimal_online_value([oracles.atoms(d) for d in base], [k] * len(base))


class TestOptimalOnlineDp:
    def test_single_deterministic(self):
        assert optimal_online([Distribution.discrete([(2.5, 1.0)])], 1) == pytest.approx(2.5)

    def test_two_reward_hand_enumeration(self):
        # deterministic 1 and a coin paying 1.5 w.p. 1/2, uniform order:
        # coin first -> take 1.5 if it shows, else fall back to the 1;
        # deterministic first -> take it (1 > E[coin] = 0.75)
        coin = Distribution.discrete([(0.0, 0.5), (1.5, 0.5)])
        want = 0.5 * (0.5 * 1.5 + 0.5 * 1.0) + 0.5 * 1.0
        assert optimal_online([ATOM1, coin], 1) == pytest.approx(want, abs=1e-12)

    def test_dominates_threshold_policies(self):
        inst = make_instance([COIN, TRI], 2)
        best = optimal_online(inst.base, inst.copies)
        for sched in TestEnumerationSweep.SCHEDULES:
            assert best >= expected_value(inst, sched).estimate - 1e-12

    def test_table_equals_recursive_reference(self):
        laws = [COIN, TRI, Distribution.discrete([(0.5, 0.25), (2.0, 0.75)])]
        atom_sets = [list(zip(d.xs.tolist(), (d.Fr - d.Fl).tolist())) for d in laws]
        for counts in ((3, 1, 2), (0, 4, 1), (5, 5, 5)):
            got = exact_oracle.optimal_online_value(atom_sets, counts)
            assert got == oracles.optimal_online_value(atom_sets, counts), counts
        assert exact_oracle.optimal_online_value(atom_sets, (0, 0, 0)) == 0

    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_general_hardness_equals_recursive_reference(self, k, monkeypatch):
        # the mpmath DP of hardness_general, compared at its own precision
        seen = []

        def both(atom_sets, counts):
            table = exact_oracle.optimal_online_value(atom_sets, counts)
            seen.append((table, oracles.optimal_online_value(atom_sets, counts), mp.mp.dps))
            return table

        monkeypatch.setattr(experiments, "optimal_online_value", both)
        experiments.hardness_general(k)
        ((table, reference, dps),) = seen
        assert isinstance(table, mp.mpf) and dps >= 60
        assert table == reference

    def test_more_copies_than_the_recursion_limit(self):
        # 1,201 states, one law: a recursion 1,200 deep
        assert optimal_online([COIN], 1200) == 1.0


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _dominance_grid(opt, k):
    """The OPT-quantile points of ``dominance_check`` for a time-pieced policy."""
    qs = sorted({q for q in [i / 100.0 for i in range(1, 100)] + [0.5, 1.0 - 1.0 / k]
                 if 0.0 <= q < 1.0})
    return np.asarray(opt.dist.ppf(np.asarray(qs)), dtype=float)


def _random_activation(rng, n):
    """Up to four time pieces, each identity with up to three bucket edges."""
    m = int(rng.integers(1, 5))
    cuts = np.sort(rng.choice(np.linspace(0.05, 0.95, 19), size=m - 1, replace=False))
    pool = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.7, 3.0]
    tables = []
    for _ in range(m):
        row = []
        for _ in range(n):
            edges = tuple(sorted(rng.choice(pool, size=int(rng.integers(0, 4)), replace=False)))
            probs = tuple(float(rng.choice([0.0, 0.3, 1.0, rng.random()]))
                          for _ in range(len(edges) + 1))
            row.append(ValueBuckets(tuple(map(float, edges)), probs))
        tables.append(tuple(row))
    return ActivationPolicy((0.0, *map(float, cuts), 1.0), tuple(tables))


class TestPieceStacksMatchScalarPieces:
    """Asking each law once for all pieces gives every exact output bit for
    bit as asking each (identity, piece) rule alone (``oracles.ScalarPieces``)."""

    @staticmethod
    def assert_same(inst, policy, xs):
        ref_policy = ScalarPieces(policy)
        for i, d in enumerate(inst.base):
            stack, ref = policy.piece_stack(i), ref_policy.piece_stack(i)
            assert _hex(stack.accepted_mass(d)) == _hex(ref.accepted_mass(d))
            assert _hex(stack.accepted_mean(d)) == _hex(ref.accepted_mean(d))
        fast = ExactEvaluator(inst, policy)
        ref = ExactEvaluator(inst, ref_policy)
        assert _hex(fast.rate) == _hex(ref.rate)
        assert _hex(fast.expected_value().estimate) == _hex(ref.expected_value().estimate)
        assert _hex(fast.exceedance_many(xs)) == _hex(ref.exceedance_many(xs))
        assert _hex(fast.selection_by_identity()) == _hex(ref.selection_by_identity())
        assert _hex(fast.no_stop_prob()) == _hex(ref.no_stop_prob())

    def test_each_law_is_asked_once_per_question(self):
        class Counting:
            def __init__(self, policy):
                self.policy, self.stacks = policy, []

            def __getattr__(self, name):
                if name in ("thresholds", "tables"):
                    raise AssertionError("the evaluator read a single piece's rule")
                return getattr(self.policy, name)

            def piece_stack(self, identity):
                self.stacks.append(identity)
                return self.policy.piece_stack(identity)

        base = regression_instances()[7][1]  # mixed-four: four laws
        inst = make_instance(base, 6)
        policy = Counting(make_blind_schedule(opt_law(inst), 6))
        ev = ExactEvaluator(inst, policy)
        ev.expected_value()
        ev.exceedance_many([0.5, 1.0])
        assert policy.stacks == [0, 1, 2, 3] * 3  # rate, mean, exceedance

    @pytest.mark.parametrize("k", [1, 2, 6, 64])
    def test_blind_schedules_on_the_regression_laws(self, k):
        for name, base in regression_instances():
            opt = opt_law(make_instance(base, k))
            self.assert_same(make_instance(base, k), make_blind_schedule(opt, k),
                             _dominance_grid(opt, k))

    def test_activation_hardness_grid(self):
        k = 61
        p = float(1 / experiments._fixed_point_L(k))
        inst = make_instance([ATOM1, Distribution.discrete([(0.0, p), (2.0, 1.0 - p)])], k)
        top = ValueBuckets((0.5,), (0.0, 1.0))
        gs = np.linspace(0.0, 1.0, 11)
        for early, late in itertools.product(gs, gs):
            policy = ActivationPolicy(
                (0.0, 2.0 / k, 1.0),
                tuple((ValueBuckets((), (float(g),)), top) for g in (early, late)))
            self.assert_same(inst, policy, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))

    def test_random_schedules_and_activation_tables(self):
        rng = np.random.default_rng(11)
        xs = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        for _ in range(150):
            base = [experiments._random_distribution(rng) for _ in range(int(rng.integers(1, 4)))]
            inst = make_instance(base, int(rng.integers(1, 5)))
            sched = experiments._random_schedule(rng, pieces=int(rng.integers(1, 6)))
            self.assert_same(inst, sched, np.concatenate([xs, rng.uniform(0, 3, 8)]))
            self.assert_same(inst, _random_activation(rng, inst.n), xs)


def _switches(count):
    """``count`` two-piece switch schedules, all holding one stack."""
    ts = np.linspace(0.0, 1.0, count + 2)[1:-1].tolist()
    return list(experiments._switch_schedules(ts))


class TestFamilies:
    """One evaluator for a family of policies answers, policy by policy, the
    bits of an evaluator for that policy alone."""

    XS = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])

    @staticmethod
    def assert_each_alone(inst, family, xs=XS):
        ev = ExactEvaluator(inst, family)
        values, no_stop = ev.expected_value(), ev.no_stop_prob()
        picks, over = ev.selection_by_identity(), ev.exceedance_many(xs)
        assert len(values) == len(no_stop) == len(family)
        assert picks.shape == (len(family), inst.n) and over.shape == (len(family), len(xs))
        for j, policy in enumerate(family):
            one = ExactEvaluator(inst, policy)
            assert _hex(values[j].estimate) == _hex(one.expected_value().estimate), j
            assert _hex(no_stop[j]) == _hex(one.no_stop_prob()), j
            assert _hex(picks[j]) == _hex(one.selection_by_identity()), j
            assert _hex(over[j]) == _hex(one.exceedance_many(xs)), j

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_families_of_one(self, k):
        for name, base in regression_instances():
            inst = make_instance(base, k)
            opt = opt_law(inst)
            for policy in (make_blind_schedule(opt, k), _random_activation(
                    np.random.default_rng(k), inst.n)):
                self.assert_each_alone(inst, [policy], _dominance_grid(opt, k))
                one = ExactEvaluator(inst, policy)
                assert isinstance(one.no_stop_prob(), float)
                assert one.selection_by_identity().shape == (inst.n,)

    @pytest.mark.parametrize("k", [1, 3])
    def test_schedules_sharing_a_stack(self, k):
        asked = []

        class Asked(ThresholdStack):
            def accepted_mass(self, d):
                asked.append(self)
                return super().accepted_mass(d)

        shared = Asked((1.0, 0.5), (0.25, 0.0))
        own = Asked((0.5, 1.5), (1.0, 0.5))
        family = [ThresholdSchedule((0.0, 0.3, 1.0), shared),
                  ThresholdSchedule((0.0, 0.6, 1.0), own),
                  ThresholdSchedule((0.0, 0.8, 1.0), shared)]
        for name, base in regression_instances():
            inst = make_instance(base, k)
            asked.clear()
            ExactEvaluator(inst, family)
            assert asked == [shared, own] * inst.n, name
            self.assert_each_alone(inst, family)

    def test_a_family_spanning_slices(self):
        for name, base in regression_instances():
            inst = make_instance(base, 4)
            g = inst.total_rewards // 2 + 2
            per_slice = exact_oracle._TABLE_DOUBLES // (inst.n * 2 * g)
            family = _switches(2 * per_slice + 3)  # three slices, the last of 3
            self.assert_each_alone(inst, family)

    def test_sorted_pairs_of_the_lemma_suite(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            base = [experiments._random_distribution(rng) for _ in range(int(rng.integers(1, 3)))]
            inst = make_instance(base, int(rng.integers(1, 4)))
            sched = experiments._random_schedule(rng, pieces=int(rng.integers(2, 4)))
            self.assert_each_alone(inst, [sched, sort_nonincreasing(sched)])

    def test_activation_families(self):
        rng = np.random.default_rng(17)
        for name, base in regression_instances():
            inst = make_instance(base, 2)
            tables = [_random_activation(rng, inst.n) for _ in range(12)]
            by_pieces = {}
            for policy in tables:
                by_pieces.setdefault(policy.num_pieces, []).append(policy)
            for family in by_pieces.values():
                self.assert_each_alone(inst, family)

    def test_activation_hardness_family(self):
        k = 61
        p = float(1 / experiments._fixed_point_L(k))
        inst = make_instance([ATOM1, Distribution.discrete([(0.0, p), (2.0, 1.0 - p)])], k)
        top = ValueBuckets((0.5,), (0.0, 1.0))
        gs = np.linspace(0.0, 1.0, 11).tolist()
        family = [ActivationPolicy((0.0, 2.0 / k, 1.0),
                                   tuple((ValueBuckets((), (g,)), top) for g in pair))
                  for pair in itertools.product(gs, gs)]
        self.assert_each_alone(inst, family)

    def test_mixed_piece_counts_are_refused(self):
        inst = make_instance([COIN, TRI], 2)
        family = [const_schedule(0.5), *_switches(2)]
        with pytest.raises(PolicyMismatchError, match=r"one number of time pieces, got \[1, 2\]"):
            ExactEvaluator(inst, family)
        with pytest.raises(PolicyMismatchError, match=r"got \[\]"):
            ExactEvaluator(inst, [])

    def test_every_member_is_checked(self):
        inst = make_instance([COIN, TRI], 16)
        adaptive = make_adaptive(opt_law(inst), inst, math.exp(-4))
        with pytest.raises(PolicyMismatchError, match="Monte Carlo"):
            ExactEvaluator(inst, [const_schedule(0.5), adaptive])
        act = constant_activation([ValueBuckets((), (1.0,))] * 3)
        with pytest.raises(PolicyMismatchError, match="n=3"):
            ExactEvaluator(inst, [constant_activation([ValueBuckets((), (1.0,))] * 2), act])

    def test_sliced_tables_bound_the_memory(self):
        # 1,001 switch schedules at k = 25: a (policy, identity, piece, node)
        # table of the whole family holds 1001 * 2 * 2 * 27 doubles, 845 KiB,
        # and building it unsliced peaked at 2.0 MiB; sliced, a table holds at
        # most 32 KiB and the peak was 304 KiB
        coins = Distribution.discrete([(0.0, 0.04), (2.0, 0.96)])
        inst, family = make_instance([ATOM1, coins], 25), _switches(1001)
        ExactEvaluator(inst, family[:2])  # the nodes are cached per order
        tracemalloc.start()
        try:
            ev = ExactEvaluator(inst, family)
            ev.no_stop_prob(), ev.selection_by_identity()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 2**10

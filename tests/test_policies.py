"""Policy constructors, and the event-scan reference of tests/oracles.py."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from oracles import (
    ArrivalSequence,
    AugmentedValue,
    accepts,
    activation_from_threshold,
    adaptive_phases,
    buckets_of,
    constant_activation,
    later_log_q,
    piece_at,
    rules_of,
    run_policy,
    sample_arrivals,
    switch_time_S,
    threshold_at,
)

from prophetlab import (
    ActivationPolicy,
    AdaptiveTwoThreshold,
    BucketStack,
    Distribution,
    InvalidParameterError,
    PolicyMismatchError,
    ThresholdSchedule,
    ThresholdStack,
    make_adaptive,
    make_blind_schedule,
    make_instance,
    make_single_threshold,
    opt_law,
    sort_nonincreasing,
)
from prophetlab import policies
from prophetlab.experiments import regression_instances

COIN = Distribution.discrete([(0.0, 0.5), (1.0, 0.5)])
U01 = Distribution.piecewise([(0.0, 0.0), (1.0, 1.0)])
TRI = Distribution.discrete([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)])


class TestSingleThreshold:
    def test_uniform_median(self):
        opt = opt_law(make_instance([U01], 1))
        sched = make_single_threshold(opt)
        assert sched.num_pieces == 1
        assert sched.stack.tau[0] == pytest.approx(0.5, abs=1e-12)

    def test_atom_median_randomizes(self):
        d = Distribution.discrete([(0.0, 0.25), (1.0, 0.75)])
        opt = opt_law(make_instance([d], 1))
        stack = make_single_threshold(opt).stack
        assert stack.tau.tolist() == [1.0]
        # induced rejection probability is exactly 1/2
        assert stack.rejected_mass(d)[0] == pytest.approx(0.5, abs=1e-12)

    def test_median_property_on_random_laws(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vals = np.sort(rng.choice(np.linspace(0.0, 3.0, 13), size=3, replace=False))
            w = rng.integers(1, 6, size=3)
            d = Distribution.discrete(list(zip(vals, w / w.sum())))
            opt = opt_law(make_instance([d], 1))
            (rejected,) = make_single_threshold(opt).stack.rejected_mass(d)
            assert abs(rejected - 0.5) <= 1e-12


class TestBlindSchedule:
    def test_early_phase_is_median(self):
        opt = opt_law(make_instance([U01], 10))
        sched = make_blind_schedule(opt, 10, grid_resolution=8)
        assert threshold_at(sched, 0.1).tau == pytest.approx(opt.dist.ppf(0.5), abs=1e-12)

    def test_late_phase_quantile(self):
        # with 8 pieces on (0.2, 1], t = 0.5 is a piece's left endpoint,
        # where the schedule holds the rejection quantile 1/(t k) = 0.2
        opt = opt_law(make_instance([U01], 10))
        sched = make_blind_schedule(opt, 10, grid_resolution=8)
        assert threshold_at(sched, 0.5).tau == pytest.approx(opt.dist.ppf(0.2), abs=1e-12)

    def test_thresholds_nonincreasing(self):
        opt = opt_law(make_instance([TRI, COIN], 6))
        sched = make_blind_schedule(opt, 6, grid_resolution=64)
        assert (np.diff(sched.stack.tau) <= 0.0).all()

    def test_small_k_collapses_to_single(self):
        opt = opt_law(make_instance([U01], 1))
        sched = make_blind_schedule(opt, 1)
        assert sched.num_pieces == 1

    @pytest.mark.parametrize("name", [name for name, _ in regression_instances()])
    def test_schedule_holds_the_quantile_search_bit_for_bit(self, name):
        base = dict(regression_instances())[name]
        opt = opt_law(make_instance(list(base), 6))
        sched = make_blind_schedule(opt, 6, grid_resolution=64)
        grid = np.linspace(2.0 / 6, 1.0, 65)
        tau, accept = opt.quantile_threshold([0.5, *(1.0 / (grid[:-1] * 6))])
        bits = list(zip(tau.tolist(), accept.tolist()))
        b = sched.breakpoints
        assert sched.pieces == tuple((lo, hi, *rt) for lo, hi, rt in zip(b, b[1:], bits))
        assert list(zip(sched.piece_stack(1).tau.tolist(),
                        sched.piece_stack(0).accept_prob.tolist())) == bits
        assert all(type(x) is float for piece in sched.pieces for x in piece)

    def test_one_stack_serves_every_identity(self):
        inst = make_instance([COIN, TRI, U01], 6)
        sched = make_blind_schedule(opt_law(inst), 6, grid_resolution=32)
        stacks = [sched.piece_stack(i) for i in range(inst.n)]
        assert stacks[0] is stacks[1] is stacks[2] is sched.stack

    def test_shared_stack_is_a_read_only_copy(self):
        tau, accept = np.array([1.0, 0.5]), np.array([0.25, 1.0])
        stack = ThresholdStack(tau, accept)
        tau[0], accept[0] = np.nan, 1.5  # the caller's arrays are not the stack's
        assert stack.tau.tolist() == [1.0, 0.5] and stack.accept_prob.tolist() == [0.25, 1.0]
        for arr in (stack.tau, stack.accept_prob):
            with pytest.raises(ValueError):
                arr[0] = 2.0


class TestAdaptive:
    def test_ell_and_quantiles(self):
        inst = make_instance([U01], 16)
        opt = opt_law(inst)
        pol = make_adaptive(opt, inst, math.exp(-4))
        assert pol.ell == 2
        tau1, tau2 = pol.stack.tau
        assert tau1 == pytest.approx(0.75, abs=1e-12)
        assert tau2 == pytest.approx(math.exp(-2), abs=1e-12)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_needs_two_thresholds(self, rows):
        # Monte Carlo broadcast a one-row stack to both phases and estimated
        # a value for a rule with no tau2
        with pytest.raises(InvalidParameterError, match="two-row stack"):
            AdaptiveTwoThreshold(math.exp(-2), 1, ThresholdStack([0.5] * rows, [1.0] * rows),
                                 (0.5,), 4)

    def test_rejection_product_is_quantile(self):
        inst = make_instance([COIN, TRI, U01], 16)
        pol = make_adaptive(opt_law(inst), inst, math.exp(-4))
        assert math.prod(pol.q) == pytest.approx(math.exp(-pol.ell), abs=1e-9)

    def test_single_identity_q(self):
        inst = make_instance([U01], 16)
        pol = make_adaptive(opt_law(inst), inst, math.exp(-4))
        assert pol.q[0] == pytest.approx(math.exp(-2), abs=1e-12)

    def test_epsilon_range_enforced(self):
        inst = make_instance([U01], 2)
        with pytest.raises(InvalidParameterError):
            make_adaptive(opt_law(inst), inst, 0.5)
        with pytest.raises(InvalidParameterError):
            make_adaptive(opt_law(inst), inst, 0.0)

    def test_ell_finite_for_every_positive_epsilon(self):
        # 1/eps is finite down to the smallest normal double: ln(1/eps) as before
        for eps in (math.exp(-1), 0.05, 1e-300, 2.2250738585072014e-308):
            assert policies.log_inverse(eps) == math.log(1.0 / eps)
        # below it 1/eps overflows, and ln(1/eps) is -ln(eps)
        for eps in (1e-310, 1e-320, 5e-324):
            assert policies.log_inverse(eps) == -math.log(eps)
        assert policies.adaptive_ell(5e-324) == 28  # ceil(sqrt(1074 ln 2))

    def test_online_switch_matches_offline_S(self):
        # the executor must use tau1 exactly on events strictly before S.
        # epsilon = 0.018 keeps ln(eps) away from the suffix products, which
        # are integer multiples of ell; at eps = e^{-ell^2} exact ties occur
        # and the accumulated float in the executor can land on either side.
        inst = make_instance([COIN, TRI], 8)
        pol = make_adaptive(opt_law(inst), inst, 0.018)
        tau1, tau2 = rules_of(pol.stack)
        rng = np.random.default_rng(31)
        switched = 0
        for _ in range(10_000):
            seq = sample_arrivals(inst, rng)
            S = switch_time_S(pol, seq.times, seq.identities)
            got = run_policy(pol, seq)
            expect = None
            for pos in range(len(seq)):
                rt = tau1 if seq.times[pos] < S else tau2
                av = AugmentedValue(float(seq.values[pos]), float(seq.tiebreaks[pos]))
                if accepts(rt, av):
                    expect = (float(seq.times[pos]), av.value)
                    break
            if expect is None:
                assert not got.stopped
            else:
                assert (got.stop_time, got.selected_value) == expect
                switched += got.stop_time >= S
        assert switched > 0  # both phases exercised


class TestRunPolicy:
    def test_accepts_single_event(self):
        inst = make_instance([Distribution.discrete([(1.0, 1.0)])], 1)
        seq = sample_arrivals(inst, np.random.default_rng(0))
        sched = ThresholdSchedule((0.0, 1.0), ThresholdStack([0.5], [0.0]))
        out = run_policy(sched, seq)
        assert out.stopped and out.selected_value == 1.0

    def test_shape_mismatch_raises(self):
        inst = make_instance([COIN, TRI], 2)
        seq = sample_arrivals(inst, np.random.default_rng(1))
        act = constant_activation([((0.0,), (0.0, 1.0))] * 3)
        with pytest.raises(PolicyMismatchError):
            run_policy(act, seq)

    def test_activation_contains_threshold_class(self):
        # indicator tables must replay the threshold run event for event
        inst = make_instance([COIN, TRI], 3)
        sched = ThresholdSchedule((0.0, 0.35, 1.0), ThresholdStack([1.0, 0.0], [0.25, 0.8]))
        act = activation_from_threshold(sched, inst.n)
        rng = np.random.default_rng(17)
        for _ in range(1000):
            seq = sample_arrivals(inst, rng)
            a, b = run_policy(sched, seq), run_policy(act, seq)
            assert (a.stopped, a.stop_time, a.selected_value) == (
                b.stopped,
                b.stop_time,
                b.selected_value,
            )

    def test_lowering_a_threshold_stops_no_later(self):
        inst = make_instance([COIN, TRI], 3)
        high = ThresholdSchedule((0.0, 0.5, 1.0), ThresholdStack([1.0, 0.5], [0.0, 0.0]))
        low = ThresholdSchedule((0.0, 0.5, 1.0), ThresholdStack([1.0, 0.0], [0.0, 0.0]))
        rng = np.random.default_rng(23)
        for _ in range(1000):
            seq = sample_arrivals(inst, rng)
            assert run_policy(low, seq).stop_time <= run_policy(high, seq).stop_time

    def test_increasing_transform_invariance(self):
        # squaring values and thresholds together cannot change the outcome
        inst = make_instance([COIN, TRI], 2)
        sched = ThresholdSchedule((0.0, 0.6, 1.0), ThresholdStack([1.0, 0.5], [0.4, 0.7]))
        squared = ThresholdSchedule(
            sched.breakpoints, ThresholdStack(sched.stack.tau**2, sched.stack.accept_prob))
        rng = np.random.default_rng(29)
        for _ in range(500):
            seq = sample_arrivals(inst, rng)
            seq2 = dataclasses.replace(seq, values=seq.values**2)
            a, b = run_policy(sched, seq), run_policy(squared, seq2)
            assert a.stopped == b.stopped and a.stop_time == b.stop_time


def test_sort_nonincreasing_preserves_lengths():
    sched = ThresholdSchedule((0.0, 0.25, 0.5, 1.0),
                              ThresholdStack([0.2, 1.5, 0.8], [0.0, 0.5, 0.0]))
    out = sort_nonincreasing(sched)
    taus = out.stack.tau.tolist()
    assert taus == sorted(taus, reverse=True)
    assert sorted(np.diff(out.breakpoints)) == pytest.approx(sorted(np.diff(sched.breakpoints)))


@pytest.mark.parametrize("breakpoints, taus", [
    ((0.0, 2.0**-60, 1.0 - 2.0**-53, 1.0), [0.0, 1.0, 2.0]),  # two sums round to 1.0
    ((0.0, 2.0**-60, 0.5, 1.0), [1.0, 2.0, 0.0]),  # 0.5 + 2^-60 rounds to 0.5
    ((0.0, 0.1, 0.35, 0.7, 1.0), [0.5, 2.0, 1.0, 0.0]),  # every sum increases
], ids=["at-one", "inside", "no-rounding"])
def test_sort_nonincreasing_moves_a_breakpoint_only_where_its_sum_stalls(breakpoints, taus):
    # a rearranged sum that rounded up to its successor refused the sorted
    # schedule as not strictly increasing
    sched = ThresholdSchedule(breakpoints, ThresholdStack(taus, [0.0] * len(taus)))
    out = sort_nonincreasing(sched)
    order = np.argsort(taus)[::-1]
    assert out.stack.tau.tolist() == sorted(taus, reverse=True)
    sums = [0.0, *itertools.accumulate(np.diff(breakpoints)[order].tolist())]
    sums[-1] = 1.0
    for r, (got, want) in enumerate(zip(out.breakpoints, sums)):
        if r == len(sums) - 1 or want < sums[r + 1]:
            assert got == want, r
        else:
            assert want - 4 * math.ulp(want) <= got < want, r


@pytest.mark.parametrize(
    "breakpoints",
    [(0.0, 0.5, 0.5, 1.0), (0.0, 0.7, 0.3, 1.0), (0.0, float("nan"), 1.0), (0.0, 0.5), (0.2, 1.0)],
    ids=["zero-length", "decreasing", "nan", "short", "late-start"],
)
def test_time_pieces_validated_for_both_classes(breakpoints):
    m = len(breakpoints) - 1
    with pytest.raises(InvalidParameterError):
        ThresholdSchedule(breakpoints, ThresholdStack([0.5] * m, [0.0] * m))
    with pytest.raises(InvalidParameterError):
        ActivationPolicy(breakpoints, (BucketStack([((), (1.0,))] * m),))


class TestThresholdRulesRefuseNonsense:
    """A threshold accepts with a probability in [0, 1] at a tau that is a
    number, in a stack of one row or of several."""

    @pytest.mark.parametrize("tau, accept_prob", [
        (1.0, 1.5), (1.0, -0.25), (1.0, float("nan")), (float("nan"), 0.5),
    ], ids=["above-one", "negative", "nan-prob", "nan-tau"])
    def test_rule_and_stack_refuse(self, tau, accept_prob):
        with pytest.raises(InvalidParameterError):
            ThresholdStack([tau], [accept_prob])
        with pytest.raises(InvalidParameterError):
            ThresholdStack([0.5, tau], [0.0, accept_prob])
        with pytest.raises(InvalidParameterError):
            ThresholdSchedule((0.0, 0.5, 1.0), ThresholdStack([0.5, tau],
                                                                      [0.0, accept_prob]))

    def test_over_accepting_rule_cannot_beat_the_prophet(self):
        # accepting the top atom w.p. 1.5 read E[ALG] = 0.984 on three fair
        # coins, above E[max of all three] = 0.875
        with pytest.raises(InvalidParameterError, match=r"\[0, 1\], got 1.5"):
            ThresholdSchedule((0.0, 1.0), ThresholdStack([1.0], [1.5]))

    def test_stack_needs_one_accept_probability_per_threshold(self):
        for tau, accept_prob in (([0.5, 1.0], [0.5]), ([[0.5]], [[0.5]]), (0.5, 0.5)):
            with pytest.raises(InvalidParameterError):
                ThresholdStack(tau, accept_prob)

    def test_edges_of_the_ranges_are_rules(self):
        for tau, accept_prob in ((0.0, 0.0), (math.inf, 1.0), (-math.inf, 0.0), (2.0, 1.0)):
            sched = ThresholdSchedule((0.0, 1.0), ThresholdStack([tau], [accept_prob]))
            assert sched.pieces == ((0.0, 1.0, tau, accept_prob),)

    @pytest.mark.parametrize("rules", [
        ((1.0, 0.25), (0.5, 1.0)), [[1.0, 0.5], [0.25, 1.0]], None,
    ], ids=["pairs", "lists", "none"])
    def test_schedule_takes_only_a_stack(self, rules):
        with pytest.raises(InvalidParameterError, match="needs a ThresholdStack"):
            ThresholdSchedule((0.0, 0.4, 1.0), rules)


@pytest.mark.parametrize("kind", ["blind", "activation", "adaptive"])
def test_each_stack_is_built_once(kind):
    inst = make_instance([COIN, TRI, U01], 6)
    opt = opt_law(inst)
    policy = {"blind": lambda: make_blind_schedule(opt, 6, grid_resolution=32),
              "activation": lambda: activation_from_threshold(make_blind_schedule(opt, 6), 3),
              "adaptive": lambda: make_adaptive(opt, inst, math.exp(-4))}[kind]()
    stacks = [policy.piece_stack(i) for i in range(inst.n)]
    assert all(policy.piece_stack(i) is stack for i, stack in enumerate(stacks))
    assert stacks[0] is stacks[1]  # each of these serves every identity with one stack


def test_threshold_buckets_are_its_indicator_table():
    stack = ThresholdStack([1.0, 0.5], [0.25, 1.0])
    edges, probs = stack.buckets()
    assert edges.tolist() == [[1.0, np.nextafter(1.0, np.inf)], [0.5, np.nextafter(0.5, np.inf)]]
    assert probs.tolist() == [[0.0, 0.25, 1.0], [0.0, 1.0, 1.0]]
    for r, rt in enumerate(rules_of(stack)):
        row = BucketStack([(edges[r], probs[r])])
        got = row.buckets()
        assert [a.tolist() for a in got] == [edges[r:r + 1].tolist(), probs[r:r + 1].tolist()]
        vb = buckets_of(row, 0)
        for value in (0.0, 0.5, 1.0, np.nextafter(rt.tau, np.inf), 3.0):
            for tie in (0.0, 0.2, 0.25, 0.9, np.nextafter(1.0, 0.0)):
                av = AugmentedValue(float(value), tie)
                assert accepts(vb, av) == accepts(rt, av)


def test_bucket_stack_pads_its_pieces_to_one_width():
    pieces = [((), (0.5,)), ((1.0, 2.0), (0.0, 0.3, 1.0))]
    edges, probs = BucketStack(pieces).buckets()
    assert edges.tolist() == [[math.inf, math.inf], [1.0, 2.0]]
    assert probs.tolist() == [[0.5, 0.0, 0.0], [0.0, 0.3, 1.0]]
    for table in (edges, probs):
        with pytest.raises(ValueError):
            table[0, 0] = 0.25
    edges, probs = BucketStack([((), (0.5,))] * 2).buckets()
    assert edges.shape == (2, 0) and probs.tolist() == [[0.5], [0.5]]


@pytest.mark.parametrize("bad, why", [
    (((0.5,), (0.0,)), "need len(edges) + 1 bucket probabilities"),
    (((), (1.5,)), "activation probabilities must lie in [0, 1]"),
    (((), (math.nan,)), "activation probabilities must lie in [0, 1]"),
    (((1.0, 0.5), (0.0, 0.5, 1.0)), "bucket edges must be finite and strictly increasing"),
    (((0.5, 0.5), (0.0, 0.5, 1.0)), "bucket edges must be finite and strictly increasing"),
    (((math.inf,), (0.0, 1.0)), "bucket edges must be finite and strictly increasing"),
], ids=["short-probs", "prob-above-one", "nan-prob", "decreasing", "repeated", "inf-edge"])
def test_bucket_stack_refuses_a_bad_piece(bad, why):
    for pieces in ([bad], [((), (0.5,)), bad]):  # the first piece or a later one
        with pytest.raises(InvalidParameterError, match=re.escape(why)):
            BucketStack(pieces)


def test_activation_policy_takes_one_bucket_stack_per_identity_with_a_row_per_piece():
    stack = BucketStack([((), (0.5,))] * 2)
    assert ActivationPolicy((0.0, 0.5, 1.0), (stack, stack)).n == 2
    others = (BucketStack([]), BucketStack([((), (0.5,))]), BucketStack([((), (0.5,))] * 3),
              ThresholdStack([0.5, 1.0], [0.0, 0.0]), (((), (0.5,)),) * 2)
    for other in others:
        with pytest.raises(InvalidParameterError, match="BucketStack per identity, one row per"):
            ActivationPolicy((0.0, 0.5, 1.0), (stack, other))


class TestPiecesAt:
    """Every policy's ``pieces_at`` against the piece the event scan uses."""

    TAUS = ThresholdStack([1.0, 1.0], [0.5, 0.5])  # the phases do not read them

    @pytest.mark.parametrize(
        "name", ["fair-coin", "det-plus-risky", "uniform", "three-point", "tiered"]
    )
    def test_adaptive_phase_matches_event_scan(self, name):
        # the test_03 laws at k = 16, eps = e^-4; the phase compares a sum of
        # logs with ln(eps) = -ell^2, which it can meet exactly (all ell
        # copies of every identity still to come), and there the two sum
        # orders may land either side, so only arrivals away from it count
        inst = make_instance(list(dict(regression_instances())[name]), 16)
        pol = make_adaptive(opt_law(inst), inst, math.exp(-4))
        n, k = inst.n, inst.copies
        identities, copies = np.repeat(np.arange(n), k), np.tile(np.arange(k), n)
        rng = np.random.default_rng(17)
        times = rng.random((300, n * k))
        times[150:] = np.floor(times[150:] * 8) / 8  # equal times arrive in column order
        got = pol.pieces_at(times, identities)
        # the stable-argsort reference adds the same log q in the same order,
        # so it agrees everywhere, also where the sum meets ln(eps)
        assert np.array_equal(got, adaptive_phases(pol, times, identities))
        log_eps = math.log(pol.epsilon)
        counted = switched = 0
        for row, t in zip(got, times):
            order = np.lexsort((copies, identities, t))  # the event scan's arrival order
            blank = np.zeros(n * k)
            seq = ArrivalSequence(n, k, t[order], identities[order], copies[order], blank, blank)
            later = np.array(later_log_q(pol, seq))
            away = np.abs(later - log_eps) > 1e-9
            assert np.array_equal(row[order][away], (later > log_eps)[away])
            counted += away.sum()
            switched += row.sum()
        assert counted > 0.9 * times.size and 0 < switched < times.size

    # N = 2048 fills the 64-bit packed key; N = 2049 takes the stable argsort
    @pytest.mark.parametrize("N", [1, 16, 48, 2048, 2049])
    def test_adaptive_phase_matches_argsort_reference_at_size(self, N):
        rng = np.random.default_rng(N)
        identities = rng.integers(0, 3, N)
        q = tuple(math.exp(-c * 8.0 / N) for c in (0.5, 1.0, 1.5))  # ln q sums to about -8
        pol = AdaptiveTwoThreshold(math.exp(-4), 2, self.TAUS, q, N)
        times = rng.random((40, N))
        times[20:] = np.floor(times[20:] * 8) / 8
        times[0] = np.where(rng.random(N) < 0.5, 0.0, np.nextafter(1.0, 0.0))  # the extreme keys
        got = pol.pieces_at(times, identities)
        assert np.array_equal(got, adaptive_phases(pol, times, identities))
        assert N == 1 or 0 < got.sum() < got.size

    # (q, epsilon, where the phase steps by rank): fair-coin's q = e^-2 at
    # eps = e^-4, where two copies still to come sum to ln(eps), tie and all;
    # q near 1 is in phase 1 from the first arrival, and at eps = 1 no
    # arrival ever is; ln q summing to about -8 steps halfway
    @pytest.mark.parametrize("q, epsilon, step", [
        (math.exp(-2), math.exp(-4), "tie"),
        (0.999, math.exp(-4), "first"),
        (0.5, 1.0, "never"),
        (None, math.exp(-4), "halfway"),
    ])
    @pytest.mark.parametrize("N", [1, 2, 16, 48, 2048])
    def test_equal_q_phase_by_rank_matches_argsort_reference(self, N, q, epsilon, step):
        q = math.exp(-8.0 / N) if q is None else q
        rng = np.random.default_rng(N)
        identities = rng.integers(0, 3, N)
        pol = AdaptiveTwoThreshold(epsilon, 2, self.TAUS, (q,) * 3, N)
        r0 = policies._rank_step(math.log(q), math.log(epsilon), N)
        if step == "first":
            assert r0 == 0
        elif step == "never":
            assert r0 == N
        elif N > 2:
            assert 0 < r0 < N
        times = rng.random((40, N))
        times[20:] = np.floor(times[20:] * 8) / 8
        times[0] = np.where(rng.random(N) < 0.5, 0.0, np.nextafter(1.0, 0.0))
        got = pol.pieces_at(times, identities)
        assert got.dtype == np.intp
        assert np.array_equal(got, adaptive_phases(pol, times, identities))

    @pytest.mark.parametrize("kind", ["blind", "activation", "equal-q", "unequal-q", "argsort"])
    def test_pieces_go_into_a_given_out(self, kind):
        # into the first rows of an array an earlier call left dirty, the
        # pieces of a call that allocates its own, and no row more
        if kind in ("blind", "activation"):
            inst = make_instance([COIN, TRI], 6)
            pol = make_blind_schedule(opt_law(inst), 6, grid_resolution=64)
            pol = pol if kind == "blind" else activation_from_threshold(pol, inst.n)
            N, identities = inst.total_rewards, np.repeat(np.arange(inst.n), 6)
        else:
            N = 2049 if kind == "argsort" else 48
            identities = np.arange(N) % 3
            q = (math.exp(-8.0 / N),) * 3 if kind == "equal-q" else (0.7, 0.8, 0.9)
            pol = AdaptiveTwoThreshold(math.exp(-4), 2, self.TAUS, q, N)
        times = np.random.default_rng(23).random((30, N))
        out = np.full((40, N), -7, dtype=np.intp)
        rows = out[:30]
        assert pol.pieces_at(times, identities, out=rows) is rows
        assert np.array_equal(out[:30], pol.pieces_at(times, identities))
        assert 0 < out[:30].sum() and (out[30:] == -7).all()

    @pytest.mark.parametrize("q", [(0.3, 0.3), (0.3, 0.6)], ids=["equal-q", "unequal-q"])
    def test_adaptive_phase_floors_off_grid_times(self, q):
        # a time off the 2^-53 grid counts as the grid time below it: scaled
        # by 2^55 before truncating, 2^-54 and 3 * 2^-55 reached the column
        # bits of a 4-column row, and a column's phase went unwritten
        pol = AdaptiveTwoThreshold(math.exp(-2), 1, self.TAUS, q, 2)
        identities = np.repeat(np.arange(2), 2)
        times = np.random.default_rng(8).random((36, 4))
        for r, t in enumerate((2.0**-54, 3 * 2.0**-55, 5e-324) * 12):
            times[r, r % 4] = t
        got = pol.pieces_at(times, identities)
        on_grid = np.floor(times * 2.0**53) / 2.0**53
        assert np.array_equal(got, adaptive_phases(pol, on_grid, identities))

    @pytest.mark.parametrize("kind", ["blind", "activation"])
    def test_time_pieces_match_piece_at(self, kind):
        inst = make_instance([COIN, TRI], 6)
        sched = make_blind_schedule(opt_law(inst), 6, grid_resolution=64)
        policy = sched if kind == "blind" else activation_from_threshold(sched, inst.n)
        b = np.asarray(policy.breakpoints)
        near = np.concatenate((b[:-1], np.nextafter(b[1:], 0.0), np.nextafter(b[:-1], 1.0)))
        N = inst.total_rewards
        times = np.concatenate((near, np.random.default_rng(3).random(-len(near) % N + 10 * N)))
        got = policy.pieces_at(times.reshape(-1, N), np.repeat(np.arange(inst.n), 6))
        assert got.ravel().tolist() == [piece_at(policy, t) for t in times]

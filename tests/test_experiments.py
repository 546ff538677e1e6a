"""Experiment drivers: copy-count bounds, search, dominance, hardness, lemmas."""

import hashlib
import itertools
import math
import warnings
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import oracles
import pytest

from prophetlab import (
    Distribution,
    InvalidParameterError,
    McConfig,
    estimate_exceedance,
    estimate_expected_value,
    make_adaptive,
    make_instance,
    opt_law,
)
from prophetlab import experiments
from prophetlab.experiments import (
    build_policy,
    dominance_check,
    exceedance,
    expected_value,
    hardness_activation,
    hardness_general,
    hardness_time_based,
    lemma_suite,
    paper_bound_k,
    regression_instances,
    search_k,
)

COIN = Distribution.discrete([(0.0, 0.5), (1.0, 0.5)])


class TestBoundFormulas:
    def test_single_at_one_over_e(self):
        assert paper_bound_k("single", 1 / math.e) == 2

    def test_single_at_005(self):
        assert paper_bound_k("single", 0.05) == 6  # ceil(2 ln 20) = ceil(5.99)

    def test_blind_at_005(self):
        # ceil(2 ln 20 / ln ln 20) = ceil(5.456)
        assert paper_bound_k("blind", 0.05) == 6

    def test_blind_falls_back_near_one_over_e(self):
        # ln ln(1/eps) <= 0 here, so the blind formula is vacuous and the
        # single-threshold bound applies
        assert paper_bound_k("blind", 1 / math.e) == 2

    def test_adaptive_at_exp_minus_four(self):
        assert paper_bound_k("adaptive", math.exp(-4)) == 16  # 8 * ell, ell = 2

    @pytest.mark.parametrize("eps", [1 / math.e, 0.1, math.exp(-4), 0.018, math.exp(-9), 1e-12])
    def test_adaptive_bound_uses_the_policy_ell(self, eps):
        inst = make_instance([COIN], 2)
        assert paper_bound_k("adaptive", eps) == 8 * make_adaptive(opt_law(inst), inst, eps).ell

    def test_epsilon_validation(self):
        for bad in (0.0, -0.1, 0.5, 1.0):
            with pytest.raises(InvalidParameterError):
                paper_bound_k("single", bad)
        with pytest.raises(InvalidParameterError):
            paper_bound_k("frontier", 0.1)


class TestSearchK:
    def test_fair_coin_single_small(self):
        res = search_k([COIN], 1 / math.e, "single")
        assert res.found_k == 1
        assert res.paper_bound_k == 2

    def test_found_k_monotone_in_epsilon(self):
        ks = [search_k([COIN], eps, "single").found_k for eps in (1 / math.e, 0.1, 0.05, 0.01)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_respects_bound_on_regression_set(self):
        for _, base in regression_instances()[:4]:
            res = search_k(list(base), 0.1, "single")
            assert res.found_k is not None and res.found_k <= res.paper_bound_k

    @pytest.mark.parametrize("unit", [1e-12, 1.0, 1e12])
    def test_point_mass_single_threshold_ladder(self, unit):
        # k copies under the median threshold all miss the atom w.p. 2^-k, so
        # k* = ceil(L / ln 2) at eps = e^-L; past L = 33 doubles cannot tell
        # E[ALG] at k* - 1 from the target
        base = [Distribution.discrete([(unit, 1.0)])]
        ladder = range(5, 34)
        found = [search_k(base, math.exp(-L), "single").found_k for L in ladder]
        assert found == [math.ceil(L / math.log(2)) for L in ladder]


def _scaled(d, c):
    """d with every value multiplied by c, rebuilt from its atoms or its CDF points."""
    if oracles.is_discrete(d):
        return Distribution.discrete([(x * c, p) for x, p in oracles.atoms(d)])
    return Distribution.piecewise([(x * c, F) for x, F in zip(d.xs.tolist(), d.Fr.tolist())])


@lru_cache(maxsize=None)
def _unit_free_numbers(name, c):
    """On regression law ``name`` scaled by c: (the values divided by c, the
    probabilities and margins, found_k).  Values: E[OPT], the OPT thresholds
    at q = 0.25, 0.5, 0.9, exact single and blind E[ALG] at k = 6, and the
    blind Monte Carlo estimate and half-width; probabilities: the exact
    blind dominance grid's Pr[ALG > x] and margins."""
    base = [_scaled(d, c) for d in dict(regression_instances())[name]]
    opt = opt_law(make_instance(base, 1))
    values = [opt.expected_value]
    values += opt.quantile_threshold((0.25, 0.5, 0.9))[0].tolist()
    inst = make_instance(base, 6)
    for cls in ("single", "blind"):
        policy = build_policy(inst, opt, cls, 0.01, 512)
        values.append(expected_value(inst, policy, "exact").estimate)
    mc = estimate_expected_value(inst, policy, McConfig(20_000, 11))
    values += [mc.estimate, mc.half_width]
    rows = dominance_check(inst, policy, 0.01, opt=opt).rows
    probabilities = [r[2] for r in rows] + [r[4] for r in rows]
    found_k = search_k(base, 0.01, "blind").found_k
    return np.array(values) / c, np.array(probabilities), found_k


class TestScaleInvariance:
    """Every certified number is the same in any unit: values divide by the
    unit, probabilities, margins and k* do not move, from subnormal-scale
    laws to laws whose top is near the largest double."""

    @pytest.mark.parametrize("name", [name for name, _ in regression_instances()])
    @pytest.mark.parametrize("unit", [1e-300, 1e-160, 1e-12, 1e12, 1e150, "top"])
    def test_numbers_do_not_depend_on_the_unit(self, name, unit):
        if unit == "top":  # the largest breakpoint lands near 1.5e308
            unit = 1.5e308 / max(d.support_max for d in dict(regression_instances())[name])
        want_values, want_probabilities, want_k = _unit_free_numbers(name, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, probabilities, found_k = _unit_free_numbers(name, unit)
        np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(probabilities, want_probabilities, rtol=1e-12, atol=0)
        assert found_k == want_k


class TestDominance:
    def test_margins_at_bound(self):
        eps = 0.1
        k = paper_bound_k("single", eps)
        inst = make_instance([COIN], k)
        policy = build_policy(inst, opt_law(inst), "single", eps)
        report = dominance_check(inst, policy, eps)
        assert report.min_margin >= -1e-6

    def test_above_support_margin_zero(self):
        inst = make_instance([COIN], 2)
        policy = build_policy(inst, opt_law(inst), "single", 0.1)
        report = dominance_check(inst, policy, 0.1)
        # every grid quantile maps into the support; top rows have x = 1
        assert report.rows[-1][1] <= 1.0

    @pytest.mark.parametrize("eps", [0.0, 1.0, 5.0, -3.0, math.nan])
    def test_epsilon_outside_unit_interval_rejected(self, eps):
        inst = make_instance([COIN], 2)
        policy = build_policy(inst, opt_law(inst), "single", 0.1)
        with pytest.raises(InvalidParameterError, match=r"epsilon in \(0, 1\)"):
            dominance_check(inst, policy, eps)

    def test_grid_holds_the_policy_case_quantiles(self):
        inst = make_instance([COIN, Distribution.discrete([(0.0, 0.2), (2.0, 0.8)])], 8)
        opt = opt_law(inst)
        adaptive = make_adaptive(opt, inst, math.exp(-4))
        assert adaptive.case_quantiles == (0.75, math.exp(-adaptive.ell))
        report = dominance_check(inst, adaptive, 0.1, "mc", McConfig(2_000, 1), opt=opt)
        assert {0.75, math.exp(-adaptive.ell)} <= {row[0] for row in report.rows}
        for cls in ("single", "blind"):
            assert build_policy(inst, opt, cls, 0.1).case_quantiles == ()

    def test_tiny_epsilon_small_k_fails(self):
        # one copy of a uniform law: the median rule stops with prob 1/2,
        # far below 0.99 * Pr[OPT > x] at small x
        inst = make_instance([Distribution.piecewise([(0.0, 0.0), (1.0, 1.0)])], 1)
        policy = build_policy(inst, opt_law(inst), "single", 0.01)
        report = dominance_check(inst, policy, 0.01)
        assert report.min_margin < 0.0


class TestSeam:
    """expected_value / exceedance route the adaptive rule to Monte Carlo."""

    def adaptive(self):
        inst = make_instance([COIN, Distribution.discrete([(0.0, 0.2), (2.0, 0.8)])], 8)
        return inst, make_adaptive(opt_law(inst), inst, math.exp(-4))

    def test_adaptive_expected_value_is_monte_carlo(self):
        inst, pol = self.adaptive()
        cfg = McConfig(4_000, 3)
        res = expected_value(inst, pol, mc=cfg)
        assert res == estimate_expected_value(inst, pol, cfg)
        assert res.method == "monte-carlo"

    def test_adaptive_exceedance_is_monte_carlo(self):
        inst, pol = self.adaptive()
        cfg = McConfig(4_000, 3)
        xs = [0.0, 0.5, 1.5]
        assert exceedance(inst, pol, xs, mc=cfg) == estimate_exceedance(inst, pol, xs, cfg)

    def test_adaptive_dominance_with_default_evaluator_runs_mc(self):
        inst, pol = self.adaptive()
        report = dominance_check(inst, pol, math.exp(-4), mc=McConfig(4_000, 3))
        assert report.evaluator == "mc"
        assert report.half_width > 0.0
        assert len(report.rows) >= 99

    def test_unknown_method_rejected(self):
        inst, pol = self.adaptive()
        with pytest.raises(InvalidParameterError):
            expected_value(inst, pol, "simulate")


class TestHardnessReports:
    def test_general_bad_order_exact(self):
        report = hardness_general()
        assert Fraction(math.factorial(3) ** 2, math.factorial(6)) == Fraction(1, 20)
        (row,) = report.rows
        stirling_ok = row[report.columns.index("stirling_ok")]
        assert stirling_ok is True and experiments._STIRLING_K_MAX >= 20
        assert report.summary["certified"] and report.failure is None

    def test_general_k1_bad_order(self):
        assert Fraction(math.factorial(1) ** 2, math.factorial(2)) == Fraction(1, 2)

    @pytest.mark.parametrize("k, dps", [(10, 204), (12, 281)])
    def test_general_precision_follows_k(self, k, dps):
        # eps = e^(-4k^2): a fixed 60 digits cannot see the gap at k = 10
        summary = hardness_general(k=k).summary
        assert summary["dps"] == dps
        assert summary["certified"]
        assert math.isfinite(summary["log_gap"]) and math.isfinite(summary["ceiling_log_gap"])

    def test_general_small_k_keeps_60_digits(self):
        assert hardness_general(k=4).summary["dps"] == 60

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_time_based_rejects_k_below_2(self, k):
        with pytest.raises(InvalidParameterError, match=r"k >= 2 \(p = 1/k must be below 1\)"):
            hardness_time_based(k=k)

    def test_min_log_gap_is_nan_when_a_later_gap_is_not_positive(self):
        # at k = 100 the first rows certify and rows 4 and 5 do not
        report = hardness_time_based(k=100, grid_points=101)
        logs = [row[-1] for row in report.rows]
        assert math.isfinite(logs[0]) and math.isnan(logs[4])
        assert not report.summary["certified"] and report.summary["min_log_gap"] is None
        assert report.failure == "hardness suite 'time-based' NOT certified"

    def test_time_based_q1_has_full_relative_precision(self):
        # Q1 = Pr[a deterministic 1 is selected]: one arrives at u > t (they
        # are rejected before the switch), no other 1 arrives in [t, u) and
        # no coin shows its top value before u
        k = 25
        p = 1.0 / k  # the double the surrogate instance is built with
        report = hardness_time_based(k=k, grid_points=5)
        for t, _, q1, *_ in report.rows[1:4]:
            with mp.workdps(40):
                want = k * mp.quad(
                    lambda u: (1 - (u - t)) ** (k - 1) * (1 - (1 - p) * u) ** k, [t, 1]
                )
            assert q1 == pytest.approx(float(want), rel=1e-12, abs=0.0), t

    def test_failed_arithmetic_alone_is_named(self):
        # at k = 3 every gap is positive and only 3p < 1/(10k) fails
        report = hardness_activation(k=3, grid_points=2)
        assert report.summary["certified"] and not report.summary["arithmetic_ok"]
        assert report.failure == ("hardness suite 'activation': every gap is positive, but "
                                  "these arithmetic checks fail: 3p < 1/(10k)")

    def test_activation_sweep_shares_one_top_stack(self, built_stacks):
        # the 121 policies of the default grid held a top stack each, 242
        # stacks in all; one low stack per policy and the one top stack suffice
        hardness_activation()
        assert len(built_stacks) == 121 + 1

    def test_time_based_closed_form_cross_check(self):
        summary = hardness_time_based(k=6, grid_points=51).summary
        assert summary["closed_form_abs_err"] <= 1e-10
        assert summary["arithmetic_ok"]


class TestDrawHelpers:
    """The lemma suite draws its laws and schedules in Python floats, with the
    generator calls of the retired helpers in ``oracles``."""

    @staticmethod
    def _draws(draw_law, draw_schedule, seed, count):
        rng = np.random.default_rng(seed)
        out = [(draw_law(rng), draw_schedule(rng, pieces=None if i % 3 else i % 5 + 1))
               for i in range(count)]
        return out, rng

    def test_draws_equal_the_retired_helpers(self):
        new, _ = self._draws(experiments._random_distribution, experiments._random_schedule, 5, 600)
        old, _ = self._draws(oracles.random_distribution, oracles.random_schedule, 5, 600)
        for (law, sched), (law0, sched0) in zip(new, old):
            for a, b in ((law.xs, law0.xs), (law.Fl, law0.Fl), (law.Fr, law0.Fr),
                         (sched.breakpoints, sched0.breakpoints),
                         (sched.stack.tau, sched0.stack.tau),
                         (sched.stack.accept_prob, sched0.stack.accept_prob)):
                assert [float(v).hex() for v in a] == [float(v).hex() for v in b]

    def test_draws_leave_the_stream_where_the_retired_helpers_do(self):
        _, rng = self._draws(experiments._random_distribution, experiments._random_schedule, 0, 1000)
        _, rng0 = self._draws(oracles.random_distribution, oracles.random_schedule, 0, 1000)
        assert rng.random() == rng0.random()


class TestLemmaSuite:
    def test_short_run_holds(self):
        report = lemma_suite(seed=3, trials=25)
        assert report.summary["all_hold"] and report.failure is None
        assert report.summary["max_symmetric_gap"] <= 1e-12

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(InvalidParameterError, match=f"got {trials}"):
            lemma_suite(seed=0, trials=trials)

    def test_report_is_reproducible(self):
        a = lemma_suite(seed=11, trials=10)
        b = lemma_suite(seed=11, trials=10)
        assert a.rows == b.rows

    def test_rows_keep_their_bits(self):
        # the digest of the rows as computed before product and root asked
        # each law a single lookup
        rows = lemma_suite(seed=7, trials=200).rows
        text = "\n".join(",".join(float(v).hex() for v in row) for row in rows)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "bd7eae3a358c80256e6031ffe50e0cfac96002395bd636ebf0827d9ae9a64367"

    def test_all_hold_is_a_json_bool(self, monkeypatch):
        # summary.json carries it, and json.dump rejects numpy.bool_
        assert lemma_suite(0, trials=20).summary["all_hold"] is True
        # stopping probabilities returned as numpy floats, each nudged by 0, 1
        # or 2 millionths in turn, leave numpy floats in the slacks and the
        # symmetric gap, and the check fails
        p_tau_multi, calls = experiments.p_tau_multi, itertools.count()
        monkeypatch.setattr(experiments, "p_tau_multi",
                            lambda *a: np.float64(p_tau_multi(*a) + 1e-6 * (next(calls) % 3)))
        summary = lemma_suite(0, trials=20).summary
        assert isinstance(summary["min_slack"], np.floating)
        assert isinstance(summary["max_symmetric_gap"], np.floating)
        assert summary["all_hold"] is False

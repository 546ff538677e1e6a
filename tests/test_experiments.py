"""Experiment drivers: copy-count bounds, search, dominance, hardness, lemmas."""

import math
from fractions import Fraction

import numpy as np
import pytest

from prophetlab import Distribution, InvalidParameterError, make_instance, opt_law
from prophetlab.experiments import (
    LemmaSuiteReport,
    build_policy,
    dominance_check,
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

    def test_tiny_epsilon_small_k_fails(self):
        # one copy of a uniform law: the median rule stops with prob 1/2,
        # far below 0.99 * Pr[OPT > x] at small x
        inst = make_instance([Distribution.piecewise([(0.0, 0.0), (1.0, 1.0)])], 1)
        policy = build_policy(inst, opt_law(inst), "single", 0.01)
        report = dominance_check(inst, policy, 0.01)
        assert report.min_margin < 0.0


class TestHardnessReports:
    def test_general_bad_order_exact(self):
        report = hardness_general()
        assert Fraction(math.factorial(3) ** 2, math.factorial(6)) == Fraction(1, 20)
        assert report.stirling_ok and report.k_max_checked >= 20
        assert report.certified

    def test_general_k1_bad_order(self):
        assert Fraction(math.factorial(1) ** 2, math.factorial(2)) == Fraction(1, 2)

    def test_time_based_closed_form_cross_check(self):
        report = hardness_time_based(k=6, grid_points=51)
        assert report.closed_form_abs_err <= 1e-10
        assert report.arithmetic_ok


class TestLemmaSuite:
    def test_short_run_holds(self):
        report = lemma_suite(seed=3, trials=25, monotone_trials=10)
        assert report.all_hold
        assert report.max_symmetric_gap <= 1e-12

    def test_report_is_reproducible(self):
        a = lemma_suite(seed=11, trials=10, monotone_trials=5)
        b = lemma_suite(seed=11, trials=10, monotone_trials=5)
        assert a.rows == b.rows

    def test_all_hold_is_a_json_bool(self):
        # summary.json carries it, and json.dump rejects numpy.bool_; long runs
        # leave numpy floats in the slacks and the symmetric gap
        assert type(lemma_suite(0, trials=20).all_hold) is bool
        zero = np.float64(0.0)
        report = LemmaSuiteReport(1, 0, zero, zero, zero, zero, zero, zero, ())
        assert type(report.all_hold) is bool

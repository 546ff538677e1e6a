"""Top-level acceptance checks, one test per claim, one verdict line each.

Each test prints a single PASS/FAIL line (visible with -s, or in the captured
output on failure) with the headline number backing the verdict.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import enumerate_expected_value

from prophetlab import (
    Distribution,
    McConfig,
    ThresholdSchedule,
    ThresholdStack,
    estimate_expected_value,
    estimate_value_and_no_stop,
    expected_value,
    make_instance,
    opt_law,
)
from prophetlab.cli import main as cli_main
from prophetlab.experiments import (
    build_policy,
    dominance_check,
    hardness_activation,
    hardness_general,
    hardness_time_based,
    lemma_suite,
    paper_bound_k,
    regression_instances,
    search_k,
)

EPSILONS = (1 / math.e, 0.1, 0.05)


def _verdict(num, label, ok, detail):
    line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _sufficiency(algorithm_class, margin_tol):
    worst_margin = math.inf
    worst_gap = math.inf
    for _, base in regression_instances():
        for eps in EPSILONS:
            k = paper_bound_k(algorithm_class, eps)
            inst = make_instance(list(base), k)
            opt = opt_law(inst)
            policy = build_policy(inst, opt, algorithm_class, eps)
            value = expected_value(inst, policy).estimate
            worst_gap = min(worst_gap, value - (1.0 - eps) * opt.expected_value)
            report = dominance_check(inst, policy, eps)
            worst_margin = min(worst_margin, report.min_margin)
    return worst_margin, worst_gap


def test_01_single_threshold_sufficiency():
    worst_margin, worst_gap = _sufficiency("single", 1e-6)
    ok = worst_margin >= -1e-6 and worst_gap >= -1e-9
    _verdict(1, "single-threshold sufficiency", ok,
             f"worst margin {worst_margin:.3g}, worst value gap {worst_gap:.3g}")


def test_02_blind_schedule_sufficiency():
    worst_margin, worst_gap = _sufficiency("blind", 1e-4)
    ok = worst_margin >= -1e-4 and worst_gap >= -1e-4
    _verdict(2, "blind schedule sufficiency", ok,
             f"worst margin {worst_margin:.3g}, worst value gap {worst_gap:.3g}")


def test_03_adaptive_guarantee():
    eps = math.exp(-4)
    k = paper_bound_k("adaptive", eps)
    assert k == 16
    wanted = ("fair-coin", "det-plus-risky", "uniform", "three-point", "tiered")
    chosen = [(name, base) for name, base in regression_instances() if name in wanted]
    assert len(chosen) == 5 and all(len(b) <= 3 for _, b in chosen)
    worst_value_slack = math.inf
    worst_stop_slack = math.inf
    for name, base in chosen:
        inst = make_instance(list(base), k)
        opt = opt_law(inst)
        policy = build_policy(inst, opt, "adaptive", eps)
        cfg = McConfig(replications=1_000_000, master_seed=777)
        val, ns = estimate_value_and_no_stop(inst, policy, cfg)
        worst_value_slack = min(
            worst_value_slack,
            val.estimate - ((1.0 - eps) * opt.expected_value - val.half_width),
        )
        worst_stop_slack = min(worst_stop_slack, eps + ns.half_width - ns.estimate)
    ok = worst_value_slack >= 0.0 and worst_stop_slack >= 0.0
    _verdict(3, "adaptive two-threshold guarantee", ok,
             f"worst value slack {worst_value_slack:.3g}, worst no-stop slack {worst_stop_slack:.3g}")


def test_04_structural_lemma_suite():
    summary = lemma_suite(seed=7, trials=200).summary
    min_slack, sym_gap = summary["min_slack"], summary["max_symmetric_gap"]
    ok = min_slack >= -1e-9 and sym_gap <= 1e-12
    _verdict(4, "stop-probability lemma suite", ok,
             f"min slack {min_slack:.3g}, symmetric gap {sym_gap:.3g}")


def test_05_oracle_vs_brute_force_and_mc():
    pool = {
        "coin": Distribution.discrete([(0.0, 0.5), (1.0, 0.5)]),
        "tri": Distribution.discrete([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)]),
        "atom": Distribution.discrete([(2.0, 1.0)]),
        "skew": Distribution.discrete([(0.0, 0.7), (2.5, 0.3)]),
    }
    schedules = [
        ThresholdSchedule((0.0, 1.0), ThresholdStack([0.5], [0.0])),
        ThresholdSchedule((0.0, 1.0), ThresholdStack([1.0], [0.5])),
        ThresholdSchedule((0.0, 0.3, 1.0), ThresholdStack([2.0, 0.0], [0.25, 0.9])),
    ]
    worst = 0.0
    names = sorted(pool)
    for n in (1, 2, 3, 4):
        for ids in itertools.combinations_with_replacement(names, n):
            for k in range(1, 4 // n + 1):
                inst = make_instance([pool[i] for i in ids], k)
                for sched in schedules:
                    err = abs(
                        expected_value(inst, sched).estimate
                        - enumerate_expected_value(inst, sched)
                    )
                    worst = max(worst, err)
    enum_ok = worst <= 1e-7

    rng = np.random.default_rng(2026)
    laws = list(pool.values()) + [Distribution.piecewise([(0.0, 0.0), (2.0, 1.0)])]
    misses = 0
    for trial in range(20):
        base = [laws[i] for i in rng.integers(0, len(laws), size=rng.integers(1, 4))]
        inst = make_instance(base, int(rng.integers(1, 4)))
        tau = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        sched = ThresholdSchedule((0.0, 1.0), ThresholdStack([tau], [float(rng.random())]))
        exact = expected_value(inst, sched).estimate
        res = estimate_expected_value(inst, sched, McConfig(200_000, 9_000 + trial))
        # 99% CI, one retry allowed; the 1e-12 floor covers constant-reward
        # instances where the CI width is exactly zero but the quadrature
        # carries harmless roundoff
        if abs(res.estimate - exact) > res.half_width + 1e-12:
            res = estimate_expected_value(inst, sched, McConfig(200_000, 19_000 + trial))
            if abs(res.estimate - exact) > res.half_width + 1e-12:
                misses += 1
    ok = enum_ok and misses == 0
    _verdict(5, "oracle vs brute force and MC", ok,
             f"max enumeration error {worst:.3g}, CI misses {misses}/20")


def test_06_time_based_hardness():
    s = hardness_time_based(k=25, grid_points=1001).summary
    arithmetic = all(
        (1.0 - 1.0 / (2 * k)) ** (2 * k) >= 0.25 for k in range(1, 101)
    )
    ok = s["certified"] and s["arithmetic_ok"] and arithmetic and s["min_log_gap"] < 0.0
    _verdict(6, "time-based hardness", ok,
             f"min log gap {s['min_log_gap']:.4g}, closed-form err {s['closed_form_abs_err']:.2g}")


def test_07_general_hardness():
    assert Fraction(math.factorial(3) ** 2, math.factorial(6)) == Fraction(1, 20)
    frac_ok = all(
        Fraction(math.factorial(k) ** 2, math.factorial(2 * k)) >= Fraction(1, 4**k)
        for k in range(1, 21)
    )
    report = hardness_general(k=4)
    s = report.summary
    three_p_ok = report.rows[0][report.columns.index("three_p_ok")]
    ok = frac_ok and three_p_ok and s["certified"] and s["log_gap"] < 0.0
    _verdict(7, "general hardness", ok,
             f"bad order {s['bad_order']}, DP log gap {s['log_gap']:.4g}")


def test_08_activation_hardness():
    case1 = all((1.0 - 2.0 / k) ** k >= 0.1 for k in range(8, 201))
    s = hardness_activation(k=61).summary
    ok = case1 and s["arithmetic_ok"] and s["certified"] and s["min_log_gap"] < 0.0
    _verdict(8, "activation hardness", ok,
             f"min log gap {s['min_log_gap']:.4g}, log eps {s['log_epsilon']:.4g}")


def test_09_separation_ordering():
    eps = 0.05
    violations = []
    for name, base in regression_instances():
        ks = {}
        for cls in ("single", "blind", "adaptive"):
            res = search_k(list(base), eps, cls)
            if res.found_k is None or res.found_k > res.paper_bound_k:
                violations.append((name, cls, res.found_k, res.paper_bound_k))
            ks[cls] = res.found_k or math.inf
        if not (ks["single"] >= ks["blind"] >= ks["adaptive"]):
            violations.append((name, "ordering", ks))
    ok = not violations
    _verdict(9, "separation ordering", ok, f"violations {violations!r}")


def test_10_csv_determinism(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "base": [
            {"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
            {"type": "piecewise", "points": [[0.0, 0.0], [2.0, 1.0]]},
        ],
        "copies": 4,
    }))
    payloads = []
    for rerun in ("a", "b"):
        for cmd in (
            ["dominance", "--instance", str(inst_path), "--class", "single",
             "--epsilon", "0.1", "--k", "5"],
            ["eval", "--instance", str(inst_path), "--class", "adaptive",
             "--epsilon", "0.05", "--evaluator", "mc", "--reps", "60000", "--seed", "11"],
            ["lemmas", "--trials", "30", "--seed", "3"],
        ):
            out = tmp_path / f"{rerun}-{cmd[0]}"
            assert cli_main(cmd + ["--out", str(out)]) == 0
            payloads.append((rerun, cmd[0], (out / "results.csv").read_bytes()))
    first = {c: b for r, c, b in payloads if r == "a"}
    second = {c: b for r, c, b in payloads if r == "b"}
    ok = first == second
    _verdict(10, "deterministic CSV replay", ok,
             f"{len(first)} commands compared byte-for-byte")

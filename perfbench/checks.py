"""Output checks: each operation's ``results.csv`` and ``summary.json``
against the references in ``reference.py`` and the paper's properties.

A check returns a list of messages, empty when the output is right.  Checks
read only the files an operation wrote; they import nothing from
``prophetlab``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from functools import partial

import mpmath as mp
import numpy as np

import reference as ref
from workloads import LAWS

EXACT_TOL = 1e-9  # exact values: Gauss-Legendre is exact, the rest is roundoff
PROB_TOL = 1e-12  # closed-form probabilities such as (1 - eps)(1 - prod F)
BLIND_TOL = 1e-4  # the sufficiency slack the blind schedule is held to
SINGLE_TOL = 1e-6  # the dominance slack the CLI allows a single threshold
MC_DELTA = 5e-5  # per-point failure probability of the Monte Carlo bounds
Z99 = 2.5758293035489004


def read_outputs(outdir: str):
    with open(os.path.join(outdir, "results.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    return rows[0], rows[1:], summary


def bernstein(p: float, reps: int, delta: float = MC_DELTA) -> float:
    """Half-width that a mean of ``reps`` Bernoulli(p) draws exceeds with
    probability at most ``delta`` (Bernstein's inequality)."""
    log_term = math.log(2.0 / delta)
    return math.sqrt(2.0 * p * (1.0 - p) * log_term / reps) + 2.0 * log_term / (3.0 * reps)


class Context:
    """Caches reference values shared by the checks of one run."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def laws(self, law):
        return self._get(("laws", law), lambda: ref.laws_of(LAWS[law]))

    def opt(self, law):
        return self._get(("opt", law), lambda: ref.expected_max(self.laws(law), 1))

    def max_all(self, law, k):
        return self._get(("max", law, k), lambda: ref.expected_max(self.laws(law), k))

    def schedule(self, law, algorithm_class, k):
        def build():
            laws = self.laws(law)
            if algorithm_class == "single":
                return ref.single_threshold(laws)
            return ref.blind_schedule(laws, k)

        return self._get(("sched", law, algorithm_class, k), build)

    def value(self, law, algorithm_class, k):
        return self._get(
            ("value", law, algorithm_class, k),
            lambda: ref.policy_value(k, self.schedule(law, algorithm_class, k)),
        )


class Errors(list):
    def close(self, what, got, want, tol, rel=False):
        scale = max(1.0, abs(want)) if rel else 1.0
        number = isinstance(got, (int, float))
        if not (number and abs(got - want) <= tol * scale):
            shown = float(got) if number else got
            self.append(f"{what}: got {shown!r}, reference {float(want)!r} (tol {tol:g})")

    def require(self, cond, message):
        if not cond:
            self.append(message)


def _common(errs, summary, command, params):
    errs.require(summary.get("command") == command,
                 f"summary command {summary.get('command')!r} != {command!r}")
    for key in ("k", "epsilon", "algorithm_class"):
        if key in params and key in summary:
            errs.require(summary[key] == params[key],
                         f"summary {key} {summary[key]!r} != {params[key]!r}")


def _csv_row_matches(errs, header, rows, summary, k):
    errs.require(header == ["k", "estimate", "half_width", "method", "replications", "seed"],
                 f"results.csv header {header}")
    errs.require(len(rows) == 1, f"results.csv has {len(rows)} rows, expected 1")
    if rows:
        row = rows[0]
        errs.require(int(row[0]) == k, f"results.csv k {row[0]} != {k}")
        errs.require(float(row[1]) == summary["estimate"], "results.csv estimate != summary")
        errs.require(float(row[2]) == summary["half_widths"][0], "results.csv half_width != summary")
        errs.require(row[3] == summary["method"], "results.csv method != summary")


# ------------------------------------------------------------------ eval


def check_eval(op, outdir, ctx, algorithm_class):
    p = op.params
    law, k = p["law"], p["k"]
    header, rows, s = read_outputs(outdir)
    errs = Errors()
    _common(errs, s, "eval", dict(p, algorithm_class=algorithm_class))
    errs.require(s["method"] == "exact", f"method {s['method']!r} != 'exact'")
    errs.close("opt_value", s["opt_value"], ctx.opt(law), PROB_TOL, rel=True)
    errs.close("E[ALG]", s["estimate"], ctx.value(law, algorithm_class, k), EXACT_TOL, rel=True)
    errs.require(s["estimate"] <= ctx.max_all(law, k) + EXACT_TOL,
                 f"E[ALG] {s['estimate']} exceeds E[max of all copies] {ctx.max_all(law, k)}")
    if "epsilon" in p:
        eps = p["epsilon"]
        errs.require(s.get("paper_bound_k") == ref.paper_bound_k(algorithm_class, eps),
                     f"paper_bound_k {s.get('paper_bound_k')}")
        if k >= ref.paper_bound_k(algorithm_class, eps):
            target = (1.0 - eps) * ctx.opt(law)
            errs.require(s["estimate"] >= target - BLIND_TOL,
                         f"E[ALG] {s['estimate']} below (1-eps) E[OPT] {target} at the paper's k")
    _csv_row_matches(errs, header, rows, s, k)
    return errs


def check_eval_adaptive(op, outdir, ctx):
    """Monte Carlo: the paper's guarantee at k = 16 and an upper bound."""
    p = op.params
    law, k, eps, reps = p["law"], p["k"], p["epsilon"], p["reps"]
    header, rows, s = read_outputs(outdir)
    errs = Errors()
    _common(errs, s, "eval", dict(p, algorithm_class="adaptive"))
    errs.require(s["method"] == "monte-carlo", f"method {s['method']!r}")
    errs.require(s["replications"] == reps, f"replications {s['replications']} != {reps}")
    errs.require(s.get("paper_bound_k") == ref.paper_bound_k("adaptive", eps) == k,
                 f"paper_bound_k {s.get('paper_bound_k')} != {k}")
    errs.close("opt_value", s["opt_value"], ctx.opt(law), PROB_TOL, rel=True)
    hw = s["half_widths"][0]
    top = max(law_.top for law_ in ctx.laws(law))
    errs.require(0.0 <= hw <= Z99 * top / (2.0 * math.sqrt(reps)) + 1e-12,
                 f"half_width {hw} outside [0, z * max / (2 sqrt(reps))]")
    target = (1.0 - eps) * ctx.opt(law)
    errs.require(s["estimate"] >= target - hw,
                 f"adaptive E[ALG] {s['estimate']} below (1-eps) E[OPT] - half_width {target - hw}")
    errs.require(s["estimate"] <= ctx.max_all(law, k) + hw,
                 f"adaptive E[ALG] {s['estimate']} above E[max of all copies] + half_width")
    _csv_row_matches(errs, header, rows, s, k)
    if rows:
        errs.require(int(rows[0][5]) == p["seed"], f"seed {rows[0][5]} != {p['seed']}")
    return errs


# ------------------------------------------------------------- dominance


def check_dominance(op, outdir, ctx, algorithm_class, mc):
    p = op.params
    law, k, eps = p["law"], p["k"], p["epsilon"]
    laws = ctx.laws(law)
    header, rows, s = read_outputs(outdir)
    errs = Errors()
    _common(errs, s, "dominance", dict(p, algorithm_class=algorithm_class))
    errs.require(header == ["quantile", "x", "p_alg", "p_opt_scaled", "margin"],
                 f"results.csv header {header}")
    errs.require(s["method"] == ("mc" if mc else "exact"), f"method {s['method']!r}")
    errs.close("opt_value", s["opt_value"], ctx.opt(law), PROB_TOL, rel=True)
    data = np.array([[float(v) for v in row] for row in rows])
    want_q = sorted({i / 100.0 for i in range(1, 100)} | {0.5, 1.0 - 1.0 / k})
    errs.require(len(data) == len(want_q) and list(data[:, 0]) == want_q,
                 "quantile grid is not the 99 percentiles plus 1/2 and 1 - 1/k")
    if errs:
        return errs
    q, x, p_alg, p_opt, margin = data.T
    # x is the OPT quantile at q, up to the program's linear interpolation of
    # the product law between breakpoints: it lies in the same segment
    P = ref.prod_cdf(laws, x)
    star, _ = ref.opt_quantile_thresholds(laws, q)
    grid = np.unique(np.concatenate([law_.xs for law_ in laws]))
    lo = grid[np.maximum(np.searchsorted(grid, star + 1e-12, side="right") - 1, 0)]
    hi = grid[np.minimum(np.searchsorted(grid, star - 1e-12, side="left"), len(grid) - 1)]
    bad = np.nonzero((x < lo - 1e-12) | (x > hi + 1e-12))[0]
    errs.require(len(bad) == 0, f"x is not the OPT quantile at rows {bad[:5].tolist()}")
    errs.require(bool(np.all(np.diff(x) >= 0)), "x is not nondecreasing in the quantile")
    scaled = (1.0 - eps) * (1.0 - P)
    worst = np.max(np.abs(p_opt - scaled))
    errs.require(worst <= PROB_TOL, f"p_opt_scaled off (1-eps)(1 - prod F(x)) by {worst:.3g}")
    worst = np.max(np.abs(margin - (p_alg - p_opt)))
    errs.require(worst <= 1e-15, f"margin != p_alg - p_opt_scaled (off by {worst:.3g})")
    errs.close("min_margin", s["min_margin"], float(np.min(margin)), 0.0)
    sched = ctx.schedule(law, algorithm_class, k)
    want = ref.policy_exceedance(laws, k, sched, x)
    upper = 1.0 - ref.prod_cdf(laws, x) ** k
    if mc:
        reps = p["reps"]
        tol = np.array([bernstein(min(max(w, 0.0), 1.0), reps) for w in want])
        bad = np.nonzero(np.abs(p_alg - want) > tol)[0]
        errs.require(len(bad) == 0,
                     f"Monte Carlo p_alg outside the Bernstein bound at rows {bad[:5].tolist()}: "
                     f"{p_alg[bad[:3]].tolist()} vs {want[bad[:3]].tolist()}")
        hw = max(Z99 * math.sqrt(max(a * (1.0 - a), 0.0) / reps) for a in p_alg)
        errs.close("half_width", s["half_widths"][0], hw, 1e-12)
        tol_margin = SINGLE_TOL + s["half_widths"][0]
    else:
        worst = np.max(np.abs(p_alg - want))
        errs.require(worst <= EXACT_TOL, f"p_alg off the reference by {worst:.3g}")
        errs.require(bool(np.all(p_alg <= upper + EXACT_TOL)),
                     "p_alg exceeds Pr[max of all copies > x]")
        errs.require(s["half_widths"] == [0.0], f"half_widths {s['half_widths']}")
        tol_margin = BLIND_TOL if algorithm_class == "blind" else SINGLE_TOL
    errs.require(float(np.min(margin)) >= -tol_margin,
                 f"dominance violated: min margin {np.min(margin):.3g} < -{tol_margin:g}")
    return errs


# -------------------------------------------------------------- search-k


def check_search_k_blind(op, outdir, ctx):
    p = op.params
    law, eps = p["law"], p["epsilon"]
    header, rows, s = read_outputs(outdir)
    errs = Errors()
    _common(errs, s, "search-k", p)
    errs.require(header == ["k", "estimate", "half_width", "method"], f"header {header}")
    bound = ref.paper_bound_k("blind", eps)
    errs.require(s["paper_bound_k"] == bound, f"paper_bound_k {s['paper_bound_k']} != {bound}")
    opt = ctx.opt(law)
    errs.close("opt_value", s["opt_value"], opt, PROB_TOL, rel=True)
    target = (1.0 - eps) * opt
    errs.close("target", s["target"], target, PROB_TOL, rel=True)
    ks = [int(r[0]) for r in rows]
    errs.require(ks == list(range(1, len(rows) + 1)), f"k rows {ks} are not 1, 2, ...")
    errs.require(s["found_k"] is not None and s["found_k"] == ks[-1] <= bound,
                 f"found_k {s['found_k']} is not the last row or exceeds the paper bound {bound}")
    for row in rows:
        k, est, hw = int(row[0]), float(row[1]), float(row[2])
        errs.close(f"E[ALG] at k={k}", est, ctx.value(law, "blind", k), EXACT_TOL, rel=True)
        reached = est >= target - hw
        errs.require(reached == (k == ks[-1]),
                     f"k={k}: estimate {est} vs target {target} disagrees with found_k")
    errs.require(len(s["half_widths"]) == len(rows), "one half-width per k row")
    return errs


# -------------------------------------------------------------- hardness


def _grid_equal(errs, got, want, what):
    errs.require(len(got) == len(want) and bool(np.all(np.asarray(got) == np.asarray(want))),
                 f"{what} grid differs from the suite's default grid")


def check_hardness_two_type(op, outdir, ctx):
    """The two-type instance: k deterministic 1's and k coins worth the top
    value w.p. 1 - p (else 0).  No-stop, top-pick and gap per row."""
    suite, k = op.params["suite"], op.params["k"]
    header, rows, s = read_outputs(outdir)
    errs = Errors()
    errs.require(s["command"] == "hardness" and s["suite"] == suite and s["k"] == k,
                 f"summary names {s.get('suite')} k={s.get('k')}")
    L = ref.fixed_point_L(k)
    errs.close("log_epsilon", s["log_epsilon"], -float(L), 1e-12, rel=True)
    p = 1.0 / k if suite == "time-based" else float(1 / L)
    errs.close("p", s["p"], p, 1e-15, rel=True)
    data = np.array([[float(v) for v in row] for row in rows])
    logs = []
    if suite == "time-based":
        errs.require(header == ["switch_t", "q_no_stop", "q_low_pick", "p_top",
                                "case2_bound", "log_gap"], f"header {header}")
        _grid_equal(errs, data[:, 0], np.linspace(0.0, 1.0, 1001), "switch time")
        for t, q0, q1, ptop, case2, lg in data:
            if 0.0 < t < 1.0:
                breaks, det = [0.0, t, 1.0], [0.0, 1.0]
            else:
                breaks, det = [0.0, 1.0], [1.0 if t == 0.0 else 0.0]
            sched = ref.Schedule(breaks, [det, [1.0 - p] * len(det)])
            _two_type_row(errs, f"t={t}", k, p, L, sched, q0, q1, ptop, lg)
            errs.close(f"case2_bound at t={t}", case2, (p * t) ** k, 1e-12, rel=True)
            logs.append(lg)
        errs.require(s["closed_form_abs_err"] <= EXACT_TOL,
                     f"closed_form_abs_err {s['closed_form_abs_err']}")
    else:
        errs.require(header == ["g_early", "g_late", "q_no_stop", "q_low_pick", "p_top",
                                "log_gap"], f"header {header}")
        gs = np.linspace(0.0, 1.0, 11)
        _grid_equal(errs, data[:, :2], np.array([(a, b) for a in gs for b in gs]),
                    "activation")
        for ge, gl, q0, q1, ptop, lg in data:
            sched = ref.Schedule([0.0, 2.0 / k, 1.0], [[ge, gl], [1.0 - p, 1.0 - p]])
            _two_type_row(errs, f"g=({ge}, {gl})", k, p, L, sched, q0, q1, ptop, lg)
            logs.append(lg)
    errs.close("min_log_gap", s["min_log_gap"], min(logs), 0.0)
    errs.require(s["certified"] is True, "suite not certified at its default parameters")
    errs.require(s["arithmetic_ok"] is True, "arithmetic_ok is false")
    return errs[:20]


def _two_type_row(errs, where, k, p, L, sched, q0, q1, ptop, lg):
    want_q0 = ref.no_stop(k, sched)
    B = ref.piece_integrals(k, sched)
    want_top = float(k * (1.0 - p) * B[1].sum())
    errs.close(f"q_no_stop at {where}", q0, want_q0, 1e-9 * want_q0 + 1e-300)
    errs.close(f"p_top at {where}", ptop, want_top, EXACT_TOL)
    errs.close(f"q_low_pick at {where}", q1, max(1.0 - want_q0 - want_top, 0.0), EXACT_TOL)
    want_lg = ref.two_type_gap_log(q0, q1, p, L)
    errs.require(math.isfinite(lg) and abs(lg - want_lg) <= 1e-9 * abs(want_lg),
                 f"log_gap at {where}: {lg} vs {want_lg}")


def check_hardness_general(op, outdir, ctx):
    k = op.params["k"]
    header, rows, s = read_outputs(outdir)
    errs = Errors()
    errs.require(s["command"] == "hardness" and s["suite"] == "general" and s["k"] == k,
                 f"summary names {s.get('suite')} k={s.get('k')}")
    errs.require(s["bad_order"] == str(ref.bad_order(k)),
                 f"bad_order {s['bad_order']} != 1/C(2k, k) = {ref.bad_order(k)}")
    dp, p, sv, eps, dps = ref.optimal_online(k)
    errs.close("dp_value", s["dp_value"], float(dp), 1e-12, rel=True)
    with mp.workdps(dps):
        gap = (1 - eps) * (1 + sv - p * sv) - dp
        ceiling = 1 + sv - sv / mp.mpf(4) ** k - dp
        want_lg = float(mp.log(gap)) if gap > 0 else float("nan")
        want_cl = float(mp.log(ceiling)) if ceiling > 0 else float("nan")
    errs.require(abs(s["log_gap"] - want_lg) <= 1e-9 * abs(want_lg),
                 f"log_gap {s['log_gap']} vs {want_lg}")
    errs.require(abs(s["ceiling_log_gap"] - want_cl) <= 1e-9 * abs(want_cl),
                 f"ceiling_log_gap {s['ceiling_log_gap']} vs {want_cl}")
    errs.require(len(rows) == 1 and rows[0][1] == s["bad_order"], "results.csv row")
    errs.require(rows and rows[0][5] == "True" and rows[0][6] == "True",
                 "stirling_ok / three_p_ok not both True")
    errs.require(s["certified"] is True, "general suite not certified")
    return errs


# ---------------------------------------------------------------- lemmas


def check_lemmas(op, outdir, ctx):
    trials, seed = op.params["trials"], op.params["seed"]
    header, rows, s = read_outputs(outdir)
    errs = Errors()
    errs.require(header == ["trial", "slack_product", "slack_pair_root", "slack_corollary",
                            "slack_reach"], f"header {header}")
    data = np.array([[float(v) for v in row] for row in rows])
    errs.require(len(data) == trials and list(data[:, 0]) == list(range(trials)),
                 f"{len(data)} trial rows, expected {trials}")
    errs.require(s["trials"] == trials and s["seed"] == seed, "summary trials/seed")
    worst = float(np.min(data[:, 1:]))
    errs.require(worst >= -1e-9, f"a lemma slack is negative: {worst:.3g}")
    names = ["min_slack_product", "min_slack_pair_root", "min_slack_corollary", "min_slack_reach"]
    for j, name in enumerate(names, start=1):
        errs.close(name, s[name], float(np.min(data[:, j])), 0.0)
    errs.require(s["min_slack_monotone"] >= -1e-9,
                 f"sorting a schedule lowered its value by {-s['min_slack_monotone']:.3g}")
    errs.close("min_slack", s["min_slack"], min(s[n] for n in names + ["min_slack_monotone"]), 0.0)
    errs.require(0.0 <= s["max_symmetric_gap"] <= 1e-12,
                 f"max_symmetric_gap {s['max_symmetric_gap']}")
    errs.require(s["all_hold"] is True, "all_hold is not true")
    return errs


CHECKS = {
    "eval_single": partial(check_eval, algorithm_class="single"),
    "eval_blind": partial(check_eval, algorithm_class="blind"),
    "eval_adaptive": check_eval_adaptive,
    "dominance_single": partial(check_dominance, algorithm_class="single", mc=False),
    "dominance_blind": partial(check_dominance, algorithm_class="blind", mc=False),
    "dominance_single_mc": partial(check_dominance, algorithm_class="single", mc=True),
    "search_k_blind": check_search_k_blind,
    "hardness_two_type": check_hardness_two_type,
    "hardness_general": check_hardness_general,
    "lemmas": check_lemmas,
}


def check_op(op, outdir, ctx) -> list[str]:
    """Run the op's check; a missing or unreadable file is a failed check."""
    try:
        return list(CHECKS[op.check](op, outdir, ctx))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]

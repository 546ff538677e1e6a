"""Experiment drivers: smallest-k search, stochastic-dominance grids, the
three lower-bound suites, and the randomized inequality suite.

The lower-bound suites run at concrete parameters where the implied epsilon
is far below double precision; probabilities are computed in doubles on a
surrogate value scale (top value replaced by 2) and the final gap arithmetic
is done with mpmath.  For a two-type instance (deterministic 1's plus coins
worth 1+sqrt(eps) or 0) the identity

    E[ALG] = (1 - Q0 - Q1) * (1 + sqrt(eps)) + Q1

holds, where Q0 = Pr[no selection] and Q1 = Pr[selected value is 1]; both
are well-scaled doubles even when sqrt(eps) is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp
import numpy as np

from .distributions import Distribution, RandomizedThreshold, nth_root, product_max
from .errors import InvalidParameterError
from .exact_oracle import (
    ExactEvaluator,
    StopProbQuery,
    expected_value_threshold,
    optimal_online_value,
    p_tau_multi,
    p_tau_single,
)
from .instance import Instance, OptLaw, make_instance, opt_law
from .monte_carlo import McConfig, estimate_exceedance, estimate_expected_value
from .policies import (
    ActivationPolicy,
    AdaptiveTwoThreshold,
    ThresholdSchedule,
    ValueBuckets,
    make_adaptive,
    make_blind_schedule,
    make_single_threshold,
    sort_nonincreasing,
)
from .results import EvalResult

__all__ = [
    "KSearchResult",
    "DominanceReport",
    "TwoTypeHardnessReport",
    "GeneralHardnessReport",
    "LemmaSuiteReport",
    "paper_bound_k",
    "regression_instances",
    "search_k",
    "dominance_check",
    "hardness_time_based",
    "hardness_general",
    "hardness_activation",
    "lemma_suite",
]

_CLASSES = ("single", "blind", "adaptive")


# ------------------------------------------------------------ k-search


def paper_bound_k(algorithm_class: str, epsilon: float) -> int:
    """The sufficient copy count stated for each algorithm class.

    The blind formula divides by ln ln(1/eps), which vanishes at eps = 1/e;
    there the single-threshold bound is used instead (it dominates the blind
    class anyway).
    """
    if not (0.0 < epsilon <= 1.0 / math.e):
        raise InvalidParameterError(f"epsilon must be in (0, 1/e], got {epsilon!r}")
    log_inv = math.log(1.0 / epsilon)
    if algorithm_class == "single":
        return math.ceil(2.0 * log_inv)
    if algorithm_class == "blind":
        loglog = math.log(log_inv)
        if loglog <= 0.0:
            return math.ceil(2.0 * log_inv)
        return math.ceil(2.0 * log_inv / loglog)
    if algorithm_class == "adaptive":
        ell = max(1, math.ceil(math.sqrt(log_inv) - 1e-12))
        return 8 * ell
    raise InvalidParameterError(f"unknown algorithm class {algorithm_class!r}")


def build_policy(
    inst: Instance,
    opt: OptLaw,
    algorithm_class: str,
    epsilon: float,
    grid_resolution: int = 512,
):
    if algorithm_class == "single":
        return make_single_threshold(opt)
    if algorithm_class == "blind":
        return make_blind_schedule(opt, inst.copies, grid_resolution)
    if algorithm_class == "adaptive":
        return make_adaptive(opt, inst, epsilon)
    raise InvalidParameterError(f"unknown algorithm class {algorithm_class!r}")


@dataclass(frozen=True)
class KSearchResult:
    epsilon: float
    algorithm_class: str
    found_k: int | None
    per_k: tuple[tuple[int, EvalResult], ...]
    paper_bound_k: int
    opt_value: float

    @property
    def target(self) -> float:
        return (1.0 - self.epsilon) * self.opt_value


def search_k(
    base: Sequence[Distribution],
    epsilon: float,
    algorithm_class: str,
    evaluator: str = "exact",
    cap: int = 64,
    mc: McConfig | None = None,
    grid_resolution: int = 512,
) -> KSearchResult:
    """Scan k = 1, 2, ... for the first k whose class policy reaches
    (1 - epsilon) * E[OPT] (minus the evaluator's half-width)."""
    if algorithm_class == "adaptive" and evaluator == "exact":
        evaluator = "mc"  # no product-form oracle for the adaptive policy
    if evaluator == "mc" and mc is None:
        mc = McConfig(replications=200_000, master_seed=20_240_501)
    opt = OptLaw(base)
    target = (1.0 - epsilon) * opt.expected_value
    per_k: list[tuple[int, EvalResult]] = []
    found = None
    for k in range(1, cap + 1):
        inst = make_instance(base, k)
        policy = build_policy(inst, opt, algorithm_class, epsilon, grid_resolution)
        if evaluator == "exact":
            res = expected_value_threshold(inst, policy)
        else:
            res = estimate_expected_value(inst, policy, mc)
        per_k.append((k, res))
        if res.estimate >= target - res.half_width:
            found = k
            break
    return KSearchResult(
        epsilon,
        algorithm_class,
        found,
        tuple(per_k),
        paper_bound_k(algorithm_class, epsilon),
        opt.expected_value,
    )


# ------------------------------------------------------ dominance grids


@dataclass(frozen=True)
class DominanceReport:
    epsilon: float
    evaluator: str
    rows: tuple[tuple[float, float, float, float, float], ...]
    # each row: (quantile, x, p_alg, p_opt_scaled, margin)
    half_width: float = 0.0

    @property
    def min_margin(self) -> float:
        return min(r[4] for r in self.rows)


def dominance_check(
    inst: Instance,
    policy,
    epsilon: float,
    evaluator: str = "exact",
    mc: McConfig | None = None,
    opt: OptLaw | None = None,
) -> DominanceReport:
    """Pr[ALG > x] vs (1 - eps) * Pr[OPT > x] on an OPT-quantile grid.

    The grid is the 99 percentile points plus the case boundaries where the
    sufficiency proofs switch: the OPT median, quantile 1 - 1/k, and, for the
    adaptive policy, the tau1/tau2 quantiles.  ``opt`` is the instance's OPT
    law when the caller has already built it.
    """
    if opt is None:
        opt = opt_law(inst)
    qs = [i / 100.0 for i in range(1, 100)]
    qs += [0.5, 1.0 - 1.0 / inst.copies]
    if isinstance(policy, AdaptiveTwoThreshold):
        qs += [0.75, math.exp(-policy.ell)]
    qs = sorted({q for q in qs if 0.0 <= q < 1.0})
    xs = np.asarray(opt.dist.ppf(np.asarray(qs)), dtype=float)
    p_opt = np.array([opt.prob_above(x) for x in xs])
    if evaluator == "exact":
        ev = ExactEvaluator(inst, policy)
        p_alg = ev.exceedance_many(xs)
        hw = 0.0
    else:
        if mc is None:
            mc = McConfig(replications=200_000, master_seed=20_240_501)
        ests = [estimate_exceedance(inst, policy, float(x), mc) for x in xs]
        p_alg = np.array([e.estimate for e in ests])
        hw = max(e.half_width for e in ests)
    scaled = (1.0 - epsilon) * p_opt
    rows = tuple(
        (float(q), float(x), float(a), float(s), float(a - s))
        for q, x, a, s in zip(qs, xs, p_alg, scaled)
    )
    return DominanceReport(epsilon, evaluator, rows, hw)


# ------------------------------------------------- regression instances


def regression_instances() -> tuple[tuple[str, tuple[Distribution, ...]], ...]:
    """Ten small mixed discrete/piecewise bases used across the check suites."""
    d = Distribution.discrete
    pw = Distribution.piecewise
    coin = d([(0.0, 0.5), (1.0, 0.5)])
    u01 = pw([(0.0, 0.0), (1.0, 1.0)])
    return (
        ("fair-coin", (coin,)),
        ("point-mass", (d([(1.0, 1.0)]),)),
        ("det-plus-risky", (d([(1.0, 1.0)]), d([(0.0, 0.3), (1.5, 0.7)]))),
        ("uniform", (u01,)),
        ("wide-uniform-plus-atom", (pw([(0.0, 0.0), (2.0, 1.0)]), d([(1.0, 1.0)]))),
        ("three-point", (d([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)]),)),
        ("two-piecewise", (u01, pw([(0.0, 0.0), (0.5, 0.2), (1.5, 1.0)]))),
        (
            "mixed-four",
            (
                coin,
                u01,
                d([(0.5, 0.5), (2.0, 0.5)]),
                pw([(0.0, 0.0), (1.0, 0.6), (2.0, 1.0)]),
            ),
        ),
        ("skewed-discrete", (d([(0.0, 0.5), (1.0, 0.25), (2.0, 0.25)]), d([(1.0, 0.4), (2.0, 0.6)]))),
        (
            "tiered",
            (d([(1.0, 0.4), (2.0, 0.6)]), d([(0.0, 0.7), (3.0, 0.3)]), pw([(0.0, 0.0), (3.0, 1.0)])),
        ),
    )


# ----------------------------------------------- two-type hardness suites


def _fixed_point_L(k: int) -> mp.mpf:
    """L solving L = 4k ln L (the large root), i.e. k = ln(1/eps)/(4 ln ln(1/eps))."""
    L = mp.mpf(8 * k)
    for _ in range(300):
        L = 4 * k * mp.log(L)
    return L


_HIGH = RandomizedThreshold(1.0, 0.0)  # accepts only the (surrogate) top value
_LOW = RandomizedThreshold(0.5, 0.0)  # accepts both nonzero values


def _switch_schedule(t: float) -> ThresholdSchedule:
    if t <= 0.0:
        return ThresholdSchedule((0.0, 1.0), (_LOW,), nonincreasing=True)
    if t >= 1.0:
        return ThresholdSchedule((0.0, 1.0), (_HIGH,), nonincreasing=True)
    return ThresholdSchedule((0.0, t, 1.0), (_HIGH, _LOW), nonincreasing=True)


def _channel_gap(q_no_stop: float, q_low: float, p, s, eps):
    """(1-eps)E[OPT] - E[ALG] for the two-type instance, via the Q channels."""
    return q_no_stop * (1 + s) + (mp.mpf(q_low) - p) * s - eps * (1 + s - p * s)


@dataclass(frozen=True)
class TwoTypeHardnessReport:
    algorithm_class: str
    k: int
    p: float
    log_epsilon: float  # ln(eps) of the implied epsilon (a large negative number)
    rows: tuple[tuple, ...]
    columns: tuple[str, ...]
    min_log_gap: float
    certified: bool
    arithmetic_ok: bool
    closed_form_abs_err: float


def hardness_time_based(k: int = 25, grid_points: int = 1001) -> TwoTypeHardnessReport:
    """Exhaustive single-switch sweep on the two-type instance with p = 1/k.

    Every nonincreasing time-based policy on a {0, 1, 1+sqrt(eps)} instance
    reduces to 'accept only the top value until t, anything nonzero after'.
    """
    with mp.workdps(80):
        L = _fixed_point_L(k)
        eps = mp.exp(-L)
        s = mp.sqrt(eps)
        p = mp.mpf(1) / k
        pf = float(p)
        surrogate = make_instance(
            [Distribution.discrete([(1.0, 1.0)]), Distribution.discrete([(0.0, pf), (2.0, 1.0 - pf)])],
            k,
        )
        ts = np.linspace(0.0, 1.0, grid_points)
        rows = []
        logs = []
        certified = True
        p_top_at_zero = 0.0
        for t in ts:
            ev = ExactEvaluator(surrogate, _switch_schedule(float(t)))
            q0 = ev.no_stop_prob()
            e_any, e_top = ev.exceedance_many([0.5, 1.5])
            q1 = max(float(e_any) - float(e_top), 0.0)
            if t == 0.0:
                p_top_at_zero = float(e_top)
            gap = _channel_gap(q0, q1, p, s, eps)
            certified &= gap > 0
            lg = float(mp.log(gap)) if gap > 0 else float("nan")
            logs.append(lg)
            case2_bound = pf**k * float(t) ** k
            rows.append((float(t), q0, q1, float(e_top), case2_bound, lg))
        # Case-1 arithmetic and the closed-form cross-check at t = 0:
        # conditioning on one coin arriving at time u and being nonzero, no
        # deterministic reward may arrive earlier and no other coin may have
        # been accepted, giving k(1-p) int (1-u)^k (1-(1-p)u)^(k-1) du.
        arithmetic_ok = all(
            (1.0 - 1.0 / (2 * kk)) ** (2 * kk) >= 0.25 for kk in range(1, 101)
        )
        nodes, wts = np.polynomial.legendre.leggauss(2 * k)
        u = 0.5 * (nodes + 1.0)
        integrand = (1.0 - u) ** k * (1.0 - (1.0 - pf) * u) ** (k - 1)
        closed = k * (1.0 - pf) * 0.5 * float(wts @ integrand)
        report = TwoTypeHardnessReport(
            "time-based",
            k,
            pf,
            float(-L),
            tuple(rows),
            ("switch_t", "q_no_stop", "q_low_pick", "p_top", "case2_bound", "log_gap"),
            min(logs),
            bool(certified),
            arithmetic_ok,
            abs(closed - p_top_at_zero),
        )
    return report


def hardness_activation(k: int = 61, grid_points: int = 11) -> TwoTypeHardnessReport:
    """Two-piece activation sweep on the two-type instance with p = 1/ln(1/eps).

    Top values are always activated and zeros never; the free parameters are
    the activation probabilities of value-1 rewards on [0, 2/k] and (2/k, 1].
    """
    with mp.workdps(80):
        L = _fixed_point_L(k)
        eps = mp.exp(-L)
        s = mp.sqrt(eps)
        p = 1 / L
        pf = float(p)
        surrogate = make_instance(
            [Distribution.discrete([(1.0, 1.0)]), Distribution.discrete([(0.0, pf), (2.0, 1.0 - pf)])],
            k,
        )
        top_buckets = ValueBuckets((0.5,), (0.0, 1.0))
        gs = np.linspace(0.0, 1.0, grid_points)
        rows = []
        logs = []
        certified = True
        for ge in gs:
            for gl in gs:
                tables = tuple(
                    (ValueBuckets((), (float(g),)), top_buckets) for g in (ge, gl)
                )
                policy = ActivationPolicy((0.0, 2.0 / k, 1.0), tables)
                ev = ExactEvaluator(surrogate, policy)
                q0 = ev.no_stop_prob()
                e_any, e_top = ev.exceedance_many([0.5, 1.5])
                q1 = max(float(e_any) - float(e_top), 0.0)
                gap = _channel_gap(q0, q1, p, s, eps)
                certified &= gap > 0
                lg = float(mp.log(gap)) if gap > 0 else float("nan")
                logs.append(lg)
                rows.append((float(ge), float(gl), q0, q1, float(e_top), lg))
        arithmetic_ok = (
            all((1.0 - 2.0 / kk) ** kk >= 0.1 for kk in range(8, 201))
            and abs(float(mp.log(p ** (2 * k)) - mp.log(s))) <= 1e-12 * float(L)
            and 3 * p < mp.mpf(1) / (10 * k)
            and p <= mp.mpf(1) / k  # gives p^k (1/k)^k >= p^(2k)
        )
        report = TwoTypeHardnessReport(
            "activation",
            k,
            pf,
            float(-L),
            tuple(rows),
            ("g_early", "g_late", "q_no_stop", "q_low_pick", "p_top", "log_gap"),
            min(logs),
            bool(certified),
            bool(arithmetic_ok),
            0.0,
        )
    return report


@dataclass(frozen=True)
class GeneralHardnessReport:
    k: int
    bad_order: Fraction  # (k!)^2 / (2k)!
    stirling_ok: bool  # bad_order >= 4^-k up to k_max
    k_max_checked: int
    dp_value: float  # double rendering of the mpmath DP value
    log_gap: float  # ln((1-eps)E[OPT] - DP)
    ceiling_log_gap: float  # ln(ceiling - DP); ceiling = 1 + s - s/4^k
    three_p_ok: bool
    certified: bool


def hardness_general(k: int = 4, k_max: int = 20) -> GeneralHardnessReport:
    """Exact bad-order combinatorics plus a high-precision optimal-online DP
    on the two-type instance with p = e^(-2k), eps = e^(-4k^2)."""
    fact = math.factorial
    stirling_ok = all(
        Fraction(fact(kk) ** 2, fact(2 * kk)) >= Fraction(1, 4**kk)
        for kk in range(1, k_max + 1)
    )
    bad = Fraction(fact(k) ** 2, fact(2 * k))
    with mp.workdps(60):
        p = mp.exp(mp.mpf(-2 * k))
        s = mp.exp(mp.mpf(-2 * k * k))
        eps = s * s
        atom_sets = [
            [(mp.mpf(1), mp.mpf(1))],
            [(mp.mpf(0), p), (1 + s, 1 - p)],
        ]
        dp = optimal_online_value(atom_sets, (k, k))
        rhs = (1 - eps) * (1 + s - p * s)
        gap = rhs - dp
        ceiling = 1 + s - s / mp.mpf(4**k)
        ceiling_gap = ceiling - dp
        report = GeneralHardnessReport(
            k,
            bad,
            stirling_ok,
            k_max,
            float(dp),
            float(mp.log(gap)) if gap > 0 else float("nan"),
            float(mp.log(ceiling_gap)) if ceiling_gap > 0 else float("nan"),
            bool(3 * p < mp.mpf(1) / 4**k),
            bool(gap > 0 and ceiling_gap >= 0),
        )
    return report


# ------------------------------------------------------- lemma suite


_VALUE_POOL = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])


def _random_discrete(rng: np.random.Generator) -> Distribution:
    size = int(rng.integers(1, 4))
    vals = rng.choice(_VALUE_POOL, size=size, replace=False)
    w = rng.integers(1, 6, size=size).astype(float)
    return Distribution.discrete(zip(np.sort(vals), w / w.sum()))


def _random_piecewise(rng: np.random.Generator) -> Distribution:
    size = int(rng.integers(2, 5))
    xs = np.sort(rng.choice(_VALUE_POOL, size=size, replace=False))
    w = rng.integers(1, 6, size=size).astype(float)
    F = np.cumsum(w) / w.sum()
    F[-1] = 1.0
    return Distribution.piecewise(zip(xs, F))


def _random_distribution(rng: np.random.Generator) -> Distribution:
    return _random_discrete(rng) if rng.random() < 0.5 else _random_piecewise(rng)


_CUT_POOL = np.linspace(0.05, 0.95, 19)
_ACCEPT_POOL = (0.0, 0.25, 0.5, 1.0)


def _random_schedule(rng: np.random.Generator, pieces: int | None = None) -> ThresholdSchedule:
    m = int(pieces if pieces is not None else rng.integers(1, 4))
    cuts = np.sort(rng.choice(_CUT_POOL, size=m - 1, replace=False)) if m > 1 else []
    breaks = (0.0, *map(float, cuts), 1.0)
    rts = []
    for _ in range(m):
        tau = float(rng.choice(_VALUE_POOL)) if rng.random() < 0.7 else float(rng.uniform(0, 3))
        ap = float(rng.choice(_ACCEPT_POOL)) if rng.random() < 0.7 else float(rng.random())
        rts.append(RandomizedThreshold(tau, ap))
    return ThresholdSchedule(breaks, tuple(rts))


@dataclass(frozen=True)
class LemmaSuiteReport:
    trials: int
    seed: int
    min_slack_product: float
    min_slack_pair_root: float
    min_slack_corollary: float
    min_slack_reach: float
    min_slack_monotone: float
    max_symmetric_gap: float
    rows: tuple[tuple[float, ...], ...]
    columns = ("trial", "slack_product", "slack_pair_root", "slack_corollary", "slack_reach")

    @property
    def all_hold(self) -> bool:
        return bool(
            min(
                self.min_slack_product,
                self.min_slack_pair_root,
                self.min_slack_corollary,
                self.min_slack_reach,
                self.min_slack_monotone,
            )
            >= -1e-9
            and self.max_symmetric_gap <= 1e-12
        )


def lemma_suite(seed: int, trials: int = 200, monotone_trials: int = 100) -> LemmaSuiteReport:
    """Randomized checks of the stopping-probability inequalities.

    Per trial: p(t, F1*F2) <= p(t, F1, F2) <= p(t, sqrt(F1*F2) x2), the
    n-distribution root corollary, and the reach observation.  Thresholds are
    passed as extra grid points to the product/root constructors so every
    probability is evaluated exactly.  Separately, sorting random schedules
    into nonincreasing order is checked to never lower the exact value.
    """
    rng = np.random.default_rng(seed)
    rows = []
    s1 = s2 = s3 = s4 = math.inf
    sym_gap = 0.0
    for trial in range(trials):
        sched = _random_schedule(rng)
        taus = [rt.tau for rt in sched.thresholds]
        r = rng.random()
        t = 0.0 if r < 0.05 else 1.0 if r < 0.15 else float(rng.random())
        F1 = _random_distribution(rng)
        F2 = F1 if trial % 10 == 9 else _random_distribution(rng)
        prod = product_max([F1, F2], extra_points=taus)
        root = nth_root(prod, 2, extra_points=taus)
        p_pair = p_tau_multi(StopProbQuery(sched, ((F1, 1), (F2, 1)), t))
        p_prod = p_tau_multi(StopProbQuery(sched, ((prod, 1),), t))
        p_root = p_tau_multi(StopProbQuery(sched, ((root, 2),), t))
        slack_product = p_pair - p_prod
        slack_root = p_root - p_pair
        if F2 is F1:
            sym_gap = max(sym_gap, abs(slack_root))
        n = int(rng.integers(2, 5))
        Fs = [_random_distribution(rng) for _ in range(n)]
        prod_n = product_max(Fs, extra_points=taus)
        root_n = nth_root(prod_n, n, extra_points=taus)
        p_all = p_tau_multi(StopProbQuery(sched, tuple((F, 1) for F in Fs), t))
        p_root_n = p_tau_multi(StopProbQuery(sched, ((root_n, n),), t))
        slack_corollary = p_root_n - p_all
        # reach observation: conditioning on one designated reward arriving
        # exactly at t removes its factor from the no-stop product
        copies = int(rng.integers(1, 3))
        p1 = p_tau_single(sched, F1, t)
        p2 = p_tau_single(sched, F2, t)
        reach = (1.0 - p1) ** (copies - 1) * (1.0 - p2) ** copies
        slack_reach = reach - reach * (1.0 - p1)
        s1, s2 = min(s1, slack_product), min(s2, slack_root)
        s3, s4 = min(s3, slack_corollary), min(s4, slack_reach)
        rows.append((float(trial), slack_product, slack_root, slack_corollary, slack_reach))
    s5 = math.inf
    for _ in range(monotone_trials):
        base = [_random_distribution(rng) for _ in range(int(rng.integers(1, 3)))]
        inst = make_instance(base, int(rng.integers(1, 4)))
        sched = _random_schedule(rng, pieces=int(rng.integers(2, 4)))
        before = expected_value_threshold(inst, sched).estimate
        after = expected_value_threshold(inst, sort_nonincreasing(sched)).estimate
        s5 = min(s5, after - before)
    return LemmaSuiteReport(trials, seed, s1, s2, s3, s4, s5, sym_gap, tuple(rows))

"""Experiment drivers: smallest-k search, stochastic-dominance grids, the
three lower-bound suites, and the randomized inequality suite.

The lower-bound suites and the inequality suite are the checks: each returns
a ``CheckReport`` that holds exactly what its command writes (the
``results.csv`` header and rows, its own ``summary.json`` entries and the
message of a failed verdict), so the CLI adds only the evaluation method.

The lower-bound suites run at concrete parameters where the implied epsilon
is far below double precision; probabilities are computed in doubles on a
surrogate value scale (top value replaced by 2) and the final gap arithmetic
is done with mpmath.  Only the code of these suites imports mpmath, so the
other commands never load it.  For a two-type instance (deterministic 1's
plus coins worth 1+sqrt(eps) or 0) the identity

    E[ALG] = (1 - Q0 - Q1) * (1 + sqrt(eps)) + Q1

holds, where Q0 = Pr[no selection] and Q1 = Pr[selected value is 1]; both
are well-scaled doubles even when sqrt(eps) is not.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .distributions import Distribution, nth_root, product_max
from .errors import InvalidParameterError, is_integer
from .exact_oracle import ExactEvaluator, optimal_online_value, p_tau_multi, p_tau_single
from .instance import Instance, OptLaw, make_instance, opt_law
from .monte_carlo import McConfig, estimate_exceedance, estimate_expected_value
from .policies import (
    ActivationPolicy,
    AdaptiveTwoThreshold,
    BucketStack,
    Policy,
    ThresholdSchedule,
    ThresholdStack,
    adaptive_ell,
    log_inverse,
    make_adaptive,
    make_blind_schedule,
    make_single_threshold,
    sort_nonincreasing,
)
from .quadrature import leggauss
from .results import EvalResult

__all__ = [
    "expected_value",
    "exceedance",
    "KSearchResult",
    "DominanceReport",
    "CheckReport",
    "paper_bound_k",
    "regression_instances",
    "search_k",
    "dominance_check",
    "hardness_time_based",
    "hardness_general",
    "hardness_activation",
    "lemma_suite",
]

_K_SEARCH_CAP = 64  # the largest k search_k tries
_STIRLING_K_MAX = 20  # hardness_general checks (k!)^2 / (2k)! >= 4^-k for k up to this
_MONOTONE_TRIALS = 100  # random schedules lemma_suite sorts into nonincreasing order

# ------------------------------------------------------ the evaluation seam

_DEFAULT_MC = McConfig(replications=200_000, master_seed=20_240_501)


def _route(policy: Policy, method: str, mc: McConfig | None) -> tuple[str, McConfig]:
    """The method that evaluates ``policy``: the adaptive rule has no
    product-form oracle, so it always goes to Monte Carlo."""
    if method not in ("exact", "mc"):
        raise InvalidParameterError(f"unknown evaluation method {method!r}")
    if isinstance(policy, AdaptiveTwoThreshold):
        method = "mc"
    return method, mc if mc is not None else _DEFAULT_MC


def expected_value(
    inst: Instance, policy: Policy, method: str = "exact", mc: McConfig | None = None
) -> EvalResult:
    """E[selected value] of ``policy`` on ``inst``: exact where the policy has
    a product form, else Monte Carlo under ``mc`` (a fixed default seed when
    omitted)."""
    method, mc = _route(policy, method, mc)
    if method == "exact":
        return ExactEvaluator(inst, policy).expected_value()
    return estimate_expected_value(inst, policy, mc)


def exceedance(
    inst: Instance, policy: Policy, xs, method: str = "exact", mc: McConfig | None = None
) -> list[EvalResult]:
    """Pr[selected value > x] for each x of ``xs``, routed as ``expected_value``.
    Exact results carry a half-width of 0; Monte Carlo simulates once for all x."""
    method, mc = _route(policy, method, mc)
    if method == "exact":
        return [EvalResult(float(p), 0.0, "exact")
                for p in ExactEvaluator(inst, policy).exceedance_many(xs)]
    return estimate_exceedance(inst, policy, xs, mc)


# ------------------------------------------------------------ k-search


def paper_bound_k(algorithm_class: str, epsilon: float) -> int:
    """The sufficient copy count stated for each algorithm class.

    The blind formula divides by ln ln(1/eps), which vanishes at eps = 1/e;
    there the single-threshold bound is used instead (it dominates the blind
    class anyway).
    """
    log_inv = log_inverse(epsilon)  # checks epsilon for every class
    if algorithm_class == "single":
        return math.ceil(2.0 * log_inv)
    if algorithm_class == "blind":
        loglog = math.log(log_inv)
        if loglog <= 0.0:
            return math.ceil(2.0 * log_inv)
        return math.ceil(2.0 * log_inv / loglog)
    if algorithm_class == "adaptive":
        return 8 * adaptive_ell(epsilon)
    raise InvalidParameterError(f"unknown algorithm class {algorithm_class!r}")


def build_policy(
    inst: Instance,
    opt: OptLaw,
    algorithm_class: str,
    epsilon: float | None,
    grid_resolution: int = 512,
):
    """The ``algorithm_class`` policy for ``inst``; only the adaptive class reads ``epsilon``."""
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
    mc: McConfig | None = None,
    grid_resolution: int = 512,
) -> KSearchResult:
    """Scan k = 1, 2, ..., _K_SEARCH_CAP for the first k whose class policy
    reaches (1 - epsilon) * E[OPT] (minus the evaluator's half-width)."""
    opt = OptLaw(base)
    target = (1.0 - epsilon) * opt.expected_value
    per_k: list[tuple[int, EvalResult]] = []
    found = None
    for k in range(1, _K_SEARCH_CAP + 1):
        inst = make_instance(base, k)
        policy = build_policy(inst, opt, algorithm_class, epsilon, grid_resolution)
        res = expected_value(inst, policy, evaluator, mc)
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
    sufficiency proofs switch: the OPT median, quantile 1 - 1/k, and the
    policy's own ``case_quantiles`` (the adaptive policy's two thresholds).
    ``opt`` is the instance's OPT law when the caller has already built it.
    The report's evaluator is the one that ran: "mc" for the adaptive policy
    whatever was asked.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidParameterError(f"dominance needs epsilon in (0, 1), got {epsilon!r}")
    if opt is None:
        opt = opt_law(inst)
    qs = [i / 100.0 for i in range(1, 100)]
    qs += [0.5, 1.0 - 1.0 / inst.copies, *policy.case_quantiles]
    qs = sorted({q for q in qs if 0.0 <= q < 1.0})
    xs = np.asarray(opt.dist.ppf(np.asarray(qs)), dtype=float)
    p_opt = 1.0 - opt.cdf(xs)
    ests = exceedance(inst, policy, xs, evaluator, mc)
    p_alg = np.array([e.estimate for e in ests])
    scaled = (1.0 - epsilon) * p_opt
    rows = tuple(
        (float(q), float(x), float(a), float(s), float(a - s))
        for q, x, a, s in zip(qs, xs, p_alg, scaled)
    )
    ran = "exact" if ests[0].method == "exact" else "mc"
    return DominanceReport(epsilon, ran, rows, max(e.half_width for e in ests))


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


def _fixed_point_L(k: int):
    """L solving L = 4k ln L (the large root), i.e. k = ln(1/eps)/(4 ln ln(1/eps)),
    as an mpmath number at the working precision."""
    import mpmath as mp

    L = mp.mpf(8 * k)
    for _ in range(300):
        L = 4 * k * mp.log(L)
    return L


def _switch_schedules(ts):
    """The single-switch schedule of each switch time t: only the (surrogate)
    top value until t, both nonzero values after.  Every schedule holds one of
    three shared stacks (low only, high then low, high only), so a family asks
    each law three questions whatever the number of switch times."""
    low = ThresholdStack((0.5,), (0.0,))  # accepts both nonzero values
    high = ThresholdStack((1.0,), (0.0,))  # accepts only the top value
    high_low = ThresholdStack((1.0, 0.5), (0.0, 0.0))
    for t in ts:
        if t <= 0.0:
            yield ThresholdSchedule((0.0, 1.0), low)
        elif t >= 1.0:
            yield ThresholdSchedule((0.0, 1.0), high)
        else:
            yield ThresholdSchedule((0.0, t, 1.0), high_low)


def _two_type_sweep(k: int, p, s, eps, policies):
    """Run each policy on the surrogate two-type instance (k deterministic 1's,
    k coins worth 2 with probability 1 - p).  Returns one (Q0, Q1, Pr[top
    selected], ln gap) per policy; the ln of a non-positive gap is NaN.
    Every 1 is a deterministic reward and no policy accepts a coin's 0, so Q1
    and Pr[top selected] are the two identities' selection probabilities.

    The policies of one piece count are evaluated as one family.  The gap is
    (1-eps)E[OPT] - E[ALG] via the Q channels, in mpmath since ``p``, ``s``
    and ``eps`` are mpmath numbers."""
    import mpmath as mp

    pf = float(p)
    surrogate = make_instance(
        [Distribution.discrete([(1.0, 1.0)]), Distribution.discrete([(0.0, pf), (2.0, 1.0 - pf)])],
        k,
    )
    policies = tuple(policies)
    families: dict[int, list[int]] = {}
    for j, policy in enumerate(policies):
        families.setdefault(policy.num_pieces, []).append(j)
    channels = [None] * len(policies)
    top = 1 + s
    target = eps * (1 + s - p * s)
    for js in families.values():
        ev = ExactEvaluator(surrogate, [policies[j] for j in js])
        for j, q0, picks in zip(js, ev.no_stop_prob(), ev.selection_by_identity()):
            q1, p_top = picks.tolist()
            gap = q0 * top + (q1 - p) * s - target
            channels[j] = (q0, q1, p_top, float(mp.log(gap)) if gap > 0 else math.nan)
    return channels


def _require_int(what: str, name: str, value, low: int, why: str = "") -> int:
    """``value`` as an int (mpmath takes no NumPy integer); it must be an integer >= low."""
    if not is_integer(value) or value < low:
        raise InvalidParameterError(f"{what} needs an integer {name} >= {low}{why}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CheckReport:
    """What a check writes: the header and rows of ``results.csv``, the
    check's own ``summary.json`` entries, and the one-line message of a
    failed verdict (None when the check passes).

    A new certificate number is one ``summary`` entry.  Summary values are
    JSON values: the log of a non-positive gap is None there, while its row
    keeps the NaN."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary: dict
    failure: str | None


def _two_type_report(suite: str, k: int, p, L, columns, rows, arithmetic: dict,
                     closed_form_abs_err: float) -> CheckReport:
    """The report of a two-type sweep whose rows end in their ln gap; it is
    certified when every gap is positive, and passes when the arithmetic
    checks (``arithmetic``, each statement's truth) hold too.  A certified
    sweep that fails only arithmetic checks names them in its message."""
    logs = [row[-1] for row in rows]
    certified = not any(math.isnan(lg) for lg in logs)
    failed = [check for check, holds in arithmetic.items() if not holds]
    arithmetic_ok = not failed
    summary = {
        "suite": suite,
        "k": k,
        "certified": certified,
        "p": float(p),
        "log_epsilon": float(-L),  # ln of the implied epsilon (a large negative number)
        "min_log_gap": min(logs) if certified else None,
        "arithmetic_ok": arithmetic_ok,
        "closed_form_abs_err": closed_form_abs_err,
    }
    if not certified:
        failure = f"hardness suite '{suite}' NOT certified"
    elif failed:
        failure = (f"hardness suite '{suite}': every gap is positive, but these arithmetic "
                   f"checks fail: {'; '.join(failed)}")
    else:
        failure = None
    return CheckReport(columns, tuple(rows), summary, failure)


def hardness_time_based(k: int = 25, grid_points: int = 1001) -> CheckReport:
    """Exhaustive single-switch sweep on the two-type instance with p = 1/k.

    Every nonincreasing time-based policy on a {0, 1, 1+sqrt(eps)} instance
    reduces to 'accept only the top value until t, anything nonzero after'.
    """
    k = _require_int("time-based hardness", "k", k, 2, " (p = 1/k must be below 1)")
    grid_points = _require_int("time-based hardness", "grid", grid_points, 1)
    import mpmath as mp

    with mp.workdps(80):
        L = _fixed_point_L(k)
        eps = mp.exp(-L)
        s = mp.sqrt(eps)
        p = mp.mpf(1) / k
        pf = float(p)
        ts = [float(t) for t in np.linspace(0.0, 1.0, grid_points)]
        channels = _two_type_sweep(k, p, s, eps, _switch_schedules(ts))
        rows = [(t, q0, q1, top, pf**k * t**k, lg) for t, (q0, q1, top, lg) in zip(ts, channels)]
        p_top_at_zero = channels[0][2]  # ts[0] == 0
        # Case-1 arithmetic and the closed-form cross-check at t = 0:
        # conditioning on one coin arriving at time u and being nonzero, no
        # deterministic reward may arrive earlier and no other coin may have
        # been accepted, giving k(1-p) int (1-u)^k (1-(1-p)u)^(k-1) du.
        arithmetic = {"(1 - 1/(2k))^(2k) >= 1/4 for k <= 100": all(
            (1.0 - 1.0 / (2 * kk)) ** (2 * kk) >= 0.25 for kk in range(1, 101)
        )}
        nodes, wts = leggauss(2 * k)
        u = 0.5 * (nodes + 1.0)
        integrand = (1.0 - u) ** k * (1.0 - (1.0 - pf) * u) ** (k - 1)
        closed = k * (1.0 - pf) * 0.5 * float(wts @ integrand)
        columns = ("switch_t", "q_no_stop", "q_low_pick", "p_top", "case2_bound", "log_gap")
        return _two_type_report("time-based", k, p, L, columns, rows, arithmetic,
                                abs(closed - p_top_at_zero))


def hardness_activation(k: int = 61, grid_points: int = 11) -> CheckReport:
    """Two-piece activation sweep on the two-type instance with p = 1/ln(1/eps).

    Top values are always activated and zeros never; the free parameters are
    the activation probabilities of value-1 rewards on [0, 2/k] and (2/k, 1].
    """
    k = _require_int("activation hardness", "k", k, 3, " (the switch 2/k must lie inside (0, 1))")
    grid_points = _require_int("activation hardness", "grid", grid_points, 1)
    import mpmath as mp

    with mp.workdps(80):
        L = _fixed_point_L(k)
        eps = mp.exp(-L)
        s = mp.sqrt(eps)
        p = 1 / L
        # one top stack for the whole family, so each law is asked about it once
        top = BucketStack([((0.5,), (0.0, 1.0))] * 2)
        gs = [float(g) for g in np.linspace(0.0, 1.0, grid_points)]
        grid = [(ge, gl) for ge in gs for gl in gs]
        policies = (
            ActivationPolicy((0.0, 2.0 / k, 1.0), (BucketStack([((), (g,)) for g in pair]), top))
            for pair in grid
        )
        channels = _two_type_sweep(k, p, s, eps, policies)
        rows = [(ge, gl, *c) for (ge, gl), c in zip(grid, channels)]
        arithmetic = {
            "(1 - 2/k)^k >= 1/10 for 8 <= k <= 200":
                all((1.0 - 2.0 / kk) ** kk >= 0.1 for kk in range(8, 201)),
            "ln p^(2k) = ln sqrt(eps) within 1e-12 ln(1/eps)":
                abs(float(mp.log(p ** (2 * k)) - mp.log(s))) <= 1e-12 * float(L),
            "3p < 1/(10k)": bool(3 * p < mp.mpf(1) / (10 * k)),
            "p <= 1/k": bool(p <= mp.mpf(1) / k),  # gives p^k (1/k)^k >= p^(2k)
        }
        columns = ("g_early", "g_late", "q_no_stop", "q_low_pick", "p_top", "log_gap")
        return _two_type_report("activation", k, p, L, columns, rows, arithmetic, 0.0)


def hardness_general(k: int = 4) -> CheckReport:
    """Exact bad-order combinatorics plus a high-precision optimal-online DP
    on the two-type instance with p = e^(-2k), eps = e^(-4k^2).

    Its one row holds the bad order (k!)^2 / (2k)!, the DP value, the logs of
    its gaps to (1-eps)E[OPT] and to the ceiling 1 + s - s/4^k (NaN when not
    positive), whether the bad order is >= 4^-k for every k up to
    _STIRLING_K_MAX, and whether 3p < 4^-k.  The summary adds ``dps``, the
    decimal digits the DP ran at."""
    k = _require_int("general hardness", "k", k, 1)
    import mpmath as mp

    fact = math.factorial
    stirling_ok = all(
        Fraction(fact(kk) ** 2, fact(2 * kk)) >= Fraction(1, 4**kk)
        for kk in range(1, _STIRLING_K_MAX + 1)
    )
    bad = Fraction(fact(k) ** 2, fact(2 * k))
    # eps = e^(-4k^2) lies 4k^2 / ln 10 decimal digits below 1; 30 guard digits on top
    dps = max(60, math.ceil(4 * k * k / math.log(10)) + 30)
    with mp.workdps(dps):
        p = mp.exp(mp.mpf(-2 * k))
        s = mp.exp(mp.mpf(-2 * k * k))
        eps = s * s
        atom_sets = [
            [(mp.mpf(1), mp.mpf(1))],
            [(mp.mpf(0), p), (1 + s, 1 - p)],
        ]
        dp = optimal_online_value(atom_sets, (k, k))
        gap = (1 - eps) * (1 + s - p * s) - dp
        ceiling_gap = 1 + s - s / mp.mpf(4**k) - dp
        logs = [float(mp.log(g)) if g > 0 else math.nan for g in (gap, ceiling_gap)]
        certified = bool(gap > 0 and ceiling_gap >= 0)
        row = (k, bad, float(dp), *logs, stirling_ok, bool(3 * p < mp.mpf(1) / 4**k))
    log_gap, ceiling_log_gap = (None if math.isnan(lg) else lg for lg in logs)
    summary = {"suite": "general", "k": k, "certified": certified, "bad_order": str(bad),
               "dp_value": row[2], "log_gap": log_gap, "ceiling_log_gap": ceiling_log_gap, "dps": dps}
    columns = ("k", "bad_order", "dp_value", "log_gap", "ceiling_log_gap", "stirling_ok", "three_p_ok")
    failure = None if certified else "hardness suite 'general' NOT certified"
    return CheckReport(columns, (row,), summary, failure)


# ------------------------------------------------------- lemma suite


_VALUE_POOL = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])


def _random_discrete(rng: np.random.Generator) -> Distribution:
    size = int(rng.integers(1, 4))
    vals = sorted(rng.choice(_VALUE_POOL, size=size, replace=False).tolist())
    w = rng.integers(1, 6, size=size).tolist()
    total = sum(w)
    return Distribution.discrete([(v, x / total) for v, x in zip(vals, w)])


def _random_piecewise(rng: np.random.Generator) -> Distribution:
    size = int(rng.integers(2, 5))
    xs = sorted(rng.choice(_VALUE_POOL, size=size, replace=False).tolist())
    cum = list(itertools.accumulate(rng.integers(1, 6, size=size).tolist()))
    return Distribution.piecewise([(x, c / cum[-1]) for x, c in zip(xs, cum)])


def _random_distribution(rng: np.random.Generator) -> Distribution:
    return _random_discrete(rng) if rng.random() < 0.5 else _random_piecewise(rng)


_CUT_POOL = np.linspace(0.05, 0.95, 19)
_ACCEPT_POOL = np.array([0.0, 0.25, 0.5, 1.0])


def _random_schedule(rng: np.random.Generator, pieces: int | None = None) -> ThresholdSchedule:
    m = int(pieces if pieces is not None else rng.integers(1, 4))
    cuts = sorted(rng.choice(_CUT_POOL, size=m - 1, replace=False).tolist()) if m > 1 else []
    taus, accepts = [], []
    for _ in range(m):
        taus.append(float(rng.choice(_VALUE_POOL)) if rng.random() < 0.7 else rng.uniform(0, 3))
        accepts.append(float(rng.choice(_ACCEPT_POOL)) if rng.random() < 0.7 else rng.random())
    return ThresholdSchedule((0.0, *cuts, 1.0), ThresholdStack(taus, accepts))


def lemma_suite(seed: int, trials: int = 200) -> CheckReport:
    """Randomized checks of the stopping-probability inequalities.

    Per trial: p(t, F1*F2) <= p(t, F1, F2) <= p(t, sqrt(F1*F2) x2), the
    n-distribution root corollary, and the reach observation.  Thresholds are
    passed as extra grid points to the product/root constructors so every
    probability is evaluated exactly.  Separately, sorting _MONOTONE_TRIALS
    random schedules into nonincreasing order is checked to never lower the
    exact value.  The rows hold each trial's four slacks; the summary holds
    the smallest of each, the sorting slack, and the largest |pair-root slack|
    of the trials with F2 = F1, where the two sides coincide.

    A trial costs little beyond its generator calls, which are the stream
    and stay as they are: the draw helpers build laws from Python floats and
    a schedule as its one ``ThresholdStack``; ``p_tau_single`` walks the
    schedule's ``pieces`` with one scalar lookup each; and the root of a
    product, on the product's own grid, reads its arrays and looks nothing
    up.  ``lemma_suite(0, 1000)`` takes about 0.33 s of CPU (0.45 s with
    per-piece rule objects and a lookup at every grid point), about a third
    of it in the generator.
    """
    trials = _require_int("lemma suite", "trials", trials, 1)
    seed = _require_int("lemma suite", "seed", seed, 0)
    rng = np.random.default_rng(seed)
    rows = []
    s1 = s2 = s3 = s4 = math.inf
    sym_gap = 0.0
    for trial in range(trials):
        sched = _random_schedule(rng)
        taus = sched.stack.tau
        r = rng.random()
        t = 0.0 if r < 0.05 else 1.0 if r < 0.15 else float(rng.random())
        F1 = _random_distribution(rng)
        F2 = F1 if trial % 10 == 9 else _random_distribution(rng)
        prod = product_max([F1, F2], extra_points=taus)
        root = nth_root(prod, 2, extra_points=taus)
        p1 = p_tau_single(sched, F1, t)
        p2 = p_tau_single(sched, F2, t)
        p_pair = 1.0 - (1.0 - p1) * (1.0 - p2)  # p_tau_multi's product, asked once
        p_prod = p_tau_multi(sched, ((prod, 1),), t)
        p_root = p_tau_multi(sched, ((root, 2),), t)
        slack_product = p_pair - p_prod
        slack_root = p_root - p_pair
        if F2 is F1:
            sym_gap = max(sym_gap, abs(slack_root))
        n = int(rng.integers(2, 5))
        Fs = [_random_distribution(rng) for _ in range(n)]
        prod_n = product_max(Fs, extra_points=taus)
        root_n = nth_root(prod_n, n, extra_points=taus)
        p_all = p_tau_multi(sched, [(F, 1) for F in Fs], t)
        p_root_n = p_tau_multi(sched, ((root_n, n),), t)
        slack_corollary = p_root_n - p_all
        # reach observation: conditioning on one designated reward arriving
        # exactly at t removes its factor from the no-stop product
        copies = int(rng.integers(1, 3))
        reach = (1.0 - p1) ** (copies - 1) * (1.0 - p2) ** copies
        slack_reach = reach - reach * (1.0 - p1)
        s1, s2 = min(s1, slack_product), min(s2, slack_root)
        s3, s4 = min(s3, slack_corollary), min(s4, slack_reach)
        rows.append((float(trial), slack_product, slack_root, slack_corollary, slack_reach))
    s5 = math.inf
    for _ in range(_MONOTONE_TRIALS):
        base = [_random_distribution(rng) for _ in range(int(rng.integers(1, 3)))]
        inst = make_instance(base, int(rng.integers(1, 4)))
        sched = _random_schedule(rng, pieces=int(rng.integers(2, 4)))
        before, after = ExactEvaluator(inst, (sched, sort_nonincreasing(sched))).expected_value()
        s5 = min(s5, after.estimate - before.estimate)
    min_slack = min(s1, s2, s3, s4, s5)
    all_hold = bool(min_slack >= -1e-9 and sym_gap <= 1e-12)
    summary = {
        "trials": trials,
        "seed": seed,
        "min_slack": min_slack,
        "min_slack_product": s1,
        "min_slack_pair_root": s2,
        "min_slack_corollary": s3,
        "min_slack_reach": s4,
        "min_slack_monotone": s5,
        "max_symmetric_gap": sym_gap,
        "all_hold": all_hold,
    }
    columns = ("trial", "slack_product", "slack_pair_root", "slack_corollary", "slack_reach")
    failure = None if all_hold else f"lemma suite FAILED: min slack {min_slack:.6g}"
    return CheckReport(columns, tuple(rows), summary, failure)

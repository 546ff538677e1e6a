"""Reference computations for the benchmark's output checks.

Everything here is computed from the laws in ``workloads.LAWS`` with numpy,
mpmath and the standard library; nothing is imported from ``prophetlab``.

Model: each of n laws F_1..F_n has k copies, each copy arrives at an
independent uniform time in [0, 1], and a policy accepts a copy of law i
arriving in time piece r with probability ``rate[i, r]``, collecting the
weight ``weight[i, r]`` (its mean accepted value, or the probability that it
is accepted and exceeds x).  With S_i(t) = 1 - int_0^t rate_i, the value is

    sum_i k * int_0^1 weight_i(t) * S_i(t)^(k-1) * prod_{j != i} S_j(t)^k dt,

which for a constant threshold is the formula
sum_i k w_i int_0^1 (1 - t a_i)^(k-1) prod_{j != i} (1 - t a_j)^k dt.
The integrals are taken with composite Gauss-Legendre rules, split finely
enough that the error is far below the checks' tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss

_GL_NODES, _GL_WEIGHTS = leggauss(20)  # exact for polynomials of degree <= 39


class Law:
    """A discrete or piecewise-linear law given as in the instance JSON."""

    def __init__(self, spec: dict):
        if spec["type"] == "discrete":
            atoms = sorted((float(v), float(m)) for v, m in spec["atoms"])
            self.xs = np.array([v for v, _ in atoms])
            masses = np.array([m for _, m in atoms])
            self.Fr = np.cumsum(masses)
            self.Fl = self.Fr - masses
            self.continuous = False
        else:
            pts = [(float(x), float(F)) for x, F in spec["points"]]
            self.xs = np.array([x for x, _ in pts])
            self.Fr = np.array([F for _, F in pts])
            self.Fl = self.Fr.copy()
            self.Fl[0] = 0.0  # mass F(x_0) sits in an atom at x_0
            self.continuous = True
        self.Fr[-1] = 1.0

    @property
    def top(self) -> float:
        return float(self.xs[-1])

    def cdf(self, x):
        """Pr[X <= x], vectorised."""
        x = np.asarray(x, dtype=float)
        if self.continuous:
            out = np.interp(x, self.xs, self.Fr)
            return np.where(x < self.xs[0], 0.0, out)
        j = np.searchsorted(self.xs, x, side="right")
        return np.concatenate(([0.0], self.Fr))[j]

    def cdf_left(self, x):
        """Pr[X < x], vectorised."""
        x = np.asarray(x, dtype=float)
        if self.continuous:
            out = np.interp(x, self.xs, self.Fr)
            return np.where(x <= self.xs[0], 0.0, out)
        j = np.searchsorted(self.xs, x, side="left")
        return np.concatenate(([0.0], self.Fr))[j]

    def mass_at(self, x):
        return self.cdf(x) - self.cdf_left(x)

    def tail_mean(self, tau: float) -> float:
        """E[X * 1{X > tau}]."""
        total = 0.0
        atoms = self.Fr - self.Fl
        for v, m in zip(self.xs, atoms):
            if v > tau and m > 0:
                total += v * m
        if self.continuous:
            for j in range(len(self.xs) - 1):
                a, b = self.xs[j], self.xs[j + 1]
                dens = (self.Fr[j + 1] - self.Fr[j]) / (b - a)
                lo = max(a, tau)
                if b > lo and dens > 0:
                    total += dens * (b * b - lo * lo) / 2.0
        return float(total)


def laws_of(specs) -> list[Law]:
    return [Law(s) for s in specs]


def _breakpoints(laws) -> np.ndarray:
    return np.unique(np.concatenate([[0.0], *[law.xs for law in laws]]))


def prod_cdf(laws, x):
    out = np.ones_like(np.asarray(x, dtype=float))
    for law in laws:
        out = out * law.cdf(x)
    return out


def prod_cdf_left(laws, x):
    out = np.ones_like(np.asarray(x, dtype=float))
    for law in laws:
        out = out * law.cdf_left(x)
    return out


def expected_max(laws, k: int = 1) -> float:
    """E[max over k copies of every law] = int_0^inf 1 - prod_i F_i(x)^k dx.

    k = 1 is E[OPT]; for k > 1 it bounds every online value from above.
    """
    grid = _breakpoints(laws)
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        m = 1 + math.ceil(len(laws) * k / 8)
        edges = np.linspace(a, b, m + 1)
        mids, halves = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
        xs = mids[:, None] + halves[:, None] * _GL_NODES[None, :]
        vals = 1.0 - prod_cdf(laws, xs) ** k
        total += float(np.sum(halves[:, None] * _GL_WEIGHTS[None, :] * vals))
    return total


# ------------------------------------------------------------- quantiles


def opt_quantile_thresholds(laws, qs):
    """(tau, accept) per q with Pr[max_i X_i rejected] = q exactly.

    A value above tau is accepted, a value equal to tau with probability
    ``accept``.  Vectorised bisection: on an atom of the OPT law for the
    accept probability, inside a continuous stretch for tau.
    """
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    grid = np.unique(np.concatenate([law.xs for law in laws]))
    P, Pl = prod_cdf(laws, grid), prod_cdf_left(laws, grid)
    j = np.minimum(np.searchsorted(P, qs, side="left"), len(grid) - 1)
    tau = grid[j].copy()
    acc = np.zeros_like(qs)
    atom = Pl[j] <= qs
    # atoms: solve prod_i (Fl_i + (1 - a) m_i) = q for a in [0, 1]
    if atom.any():
        t = tau[atom]
        q = qs[atom]
        fl = np.array([law.cdf_left(t) for law in laws])
        ms = np.array([law.mass_at(t) for law in laws])

        def rejected(a):
            return np.prod(fl + (1.0 - a)[None, :] * ms, axis=0)

        lo, hi = np.zeros_like(q), np.ones_like(q)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            above = rejected(mid) > q
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        a = hi
        a = np.where(rejected(np.zeros_like(q)) <= q, 0.0, a)
        a = np.where(rejected(np.ones_like(q)) >= q, 1.0, a)
        acc[atom] = a
    # continuous stretches: leftmost x in (grid[j-1], grid[j]) with P(x) >= q
    cont = ~atom
    if cont.any():
        q = qs[cont]
        lo, hi = grid[j[cont] - 1].copy(), grid[j[cont]].copy()
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            up = prod_cdf(laws, mid) >= q
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        tau[cont] = hi
    return tau, acc


def threshold_rates(laws, tau: float, accept: float):
    """Per-law accept probability and mean accepted value of (tau, accept)."""
    rate = np.array([float(1.0 - law.cdf(tau) + accept * law.mass_at(tau)) for law in laws])
    value = np.array([law.tail_mean(tau) + accept * tau * float(law.mass_at(tau)) for law in laws])
    return rate, value


def threshold_exceed(laws, tau: float, accept: float, xs):
    """(n, len(xs)): Pr[a copy of law i is accepted and exceeds x]."""
    xs = np.asarray(xs, dtype=float)
    out = []
    for law in laws:
        w = 1.0 - law.cdf(np.maximum(tau, xs))
        w = w + (tau > xs) * (accept * float(law.mass_at(tau)))
        out.append(w)
    return np.array(out)


# ---------------------------------------------------------- policy values


class Schedule:
    """Piecewise-constant per-law accept rates over time pieces.

    ``thresholds`` (optional) holds one (tau, accept) per piece when every
    law faces the same randomized threshold.
    """

    def __init__(self, breaks, rates, values=None, thresholds=None):
        self.breaks = np.asarray(breaks, dtype=float)
        self.rates = np.asarray(rates, dtype=float)  # (n, m)
        self.values = None if values is None else np.asarray(values, dtype=float)
        self.thresholds = thresholds


def threshold_schedule(laws, breaks, thresholds) -> Schedule:
    rates, values = zip(*(threshold_rates(laws, t, a) for t, a in thresholds))
    return Schedule(breaks, np.array(rates).T, np.array(values).T, list(thresholds))


def single_threshold(laws) -> Schedule:
    tau, acc = opt_quantile_thresholds(laws, [0.5])
    return threshold_schedule(laws, [0.0, 1.0], [(float(tau[0]), float(acc[0]))])


def blind_schedule(laws, k: int, resolution: int = 512) -> Schedule:
    """OPT-quantile 1/2 until 2/k, then the quantile 1/(t k) taken at the left
    end of each of ``resolution`` equal pieces of [2/k, 1]."""
    switch = 2.0 / k
    if switch >= 1.0:
        return single_threshold(laws)
    grid = np.linspace(switch, 1.0, resolution + 1)
    qs = np.concatenate(([0.5], 1.0 / (grid[:-1] * k)))
    tau, acc = opt_quantile_thresholds(laws, qs)
    breaks = np.concatenate(([0.0], grid))
    return threshold_schedule(laws, breaks, list(zip(map(float, tau), map(float, acc))))


def piece_integrals(k: int, sched: Schedule) -> np.ndarray:
    """B[i, r] = int over piece r of S_i^(k-1) prod_{j != i} S_j^k dt."""
    breaks, rates = sched.breaks, sched.rates
    n, m = rates.shape
    lens = np.diff(breaks)
    cum = np.concatenate([np.zeros((n, 1)), np.cumsum(rates * lens[None, :], axis=1)], axis=1)
    # split each piece so that the integrand changes by a bounded factor per
    # sub-interval; below degree 40 one 20-point rule is already exact
    if n * k < 40:
        splits = np.ones(m, dtype=int)
    else:
        splits = 1 + np.ceil(k * rates.sum(axis=0) * lens / 2.0).astype(int)
    piece = np.repeat(np.arange(m), splits)
    pos = np.concatenate([np.arange(s) for s in splits])
    width = lens[piece] / splits[piece]
    left = breaks[piece] + pos * width
    t = left[:, None] + (width / 2)[:, None] * (1.0 + _GL_NODES[None, :])  # (s, g)
    S = 1.0 - (cum[:, piece, None] + rates[:, piece, None] * (t[None] - breaks[piece][None, :, None]))
    S = np.clip(S, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        logS = np.log(S)
    out = np.zeros((n, m))
    for i in range(n):
        log_rest = sum(k * logS[j] for j in range(n) if j != i)
        if k > 1:
            log_rest = log_rest + (k - 1) * logS[i]
        vals = np.exp(log_rest) * np.ones_like(t)  # log_rest is 0 when n = k = 1
        sub = (width / 2) * (vals @ _GL_WEIGHTS)
        out[i] = np.bincount(piece, weights=sub, minlength=m)
    return out


def policy_value(k: int, sched: Schedule) -> float:
    return float(k * np.sum(sched.values * piece_integrals(k, sched)))


def policy_exceedance(laws, k: int, sched: Schedule, xs) -> np.ndarray:
    """Pr[the selected value > x] for each x, for a threshold schedule."""
    B = piece_integrals(k, sched)
    xs = np.asarray(xs, dtype=float)
    total = np.zeros(len(xs))
    for r, (tau, acc) in enumerate(sched.thresholds):
        W = threshold_exceed(laws, tau, acc, xs)  # (n, X)
        total += k * (B[:, r] @ W)
    return total


def no_stop(k: int, sched: Schedule) -> float:
    """Pr[nothing is accepted] = prod_i S_i(1)^k."""
    survive = 1.0 - np.sum(sched.rates * np.diff(sched.breaks)[None, :], axis=1)
    return float(np.prod(np.clip(survive, 0.0, 1.0) ** k))


# ------------------------------------------------------- paper constants


def paper_bound_k(algorithm_class: str, epsilon: float) -> int:
    """Sufficient copy counts: 2 ln(1/eps) for one threshold, 2 ln(1/eps) /
    ln ln(1/eps) for the blind schedule, 8 ceil(sqrt(ln 1/eps)) adaptive."""
    li = math.log(1.0 / epsilon)
    if algorithm_class == "single":
        return math.ceil(2.0 * li)
    if algorithm_class == "blind":
        ll = math.log(li)
        return math.ceil(2.0 * li) if ll <= 0 else math.ceil(2.0 * li / ll)
    return 8 * max(1, math.ceil(math.sqrt(li) - 1e-12))


def bad_order(k: int) -> Fraction:
    """Probability that all k copies of one type precede the other k: 1/C(2k, k)."""
    return Fraction(1, math.comb(2 * k, k))


def fixed_point_L(k: int) -> mp.mpf:
    """The large root of L = 4 k ln L, so that eps = e^-L (fixed-point
    iteration from 8k, which contracts towards the large root)."""
    with mp.workdps(80):
        L = mp.mpf(8 * k)
        for _ in range(400):
            L = 4 * k * mp.log(L)
        return L


def two_type_gap_log(q0: float, q1: float, p, L) -> float:
    """ln((1-eps) E[OPT] - E[ALG]) on the two-type instance with top value
    1 + sqrt(eps), eps = e^-L: E[ALG] = (1 - q0 - q1)(1 + s) + q1."""
    with mp.workdps(80):
        eps = mp.exp(-L)
        s = mp.sqrt(eps)
        gap = q0 * (1 + s) + (mp.mpf(q1) - p) * s - eps * (1 + s - p * s)
        return float(mp.log(gap)) if gap > 0 else float("nan")


def optimal_online(k: int):
    """Optimal online value on k deterministic 1's and k coins worth 1 + s
    w.p. 1 - p (else 0), p = e^-2k, s = e^-2k^2, by backward induction over
    the remaining counts; returns (value, p, s, eps) as mpf."""
    dps = 30 + math.ceil(4 * k * k / math.log(10))
    with mp.workdps(dps):
        p = mp.exp(-2 * k)
        s = mp.exp(-2 * k * k)
        table = {}
        for a in range(k + 1):
            for b in range(k + 1):
                if a + b == 0:
                    table[a, b] = mp.mpf(0)
                    continue
                acc = mp.mpf(0)
                if a:
                    rest = table[a - 1, b]
                    acc += a * max(mp.mpf(1), rest)
                if b:
                    rest = table[a, b - 1]
                    acc += b * (p * rest + (1 - p) * max(1 + s, rest))
                table[a, b] = acc / (a + b)
        return table[k, k], p, s, s * s, dps

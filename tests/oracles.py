"""Slow reference implementations that pin the fast code paths.

The enumeration oracles are deliberately slow and dumb: sums over value
assignments, time-piece assignments, and within-piece arrival orders.
Feasible only for N = n * k <= 5 rewards with small supports, which is
exactly the regime the unit tests use to pin the fast evaluators.

The event scan (``sample_arrivals``, ``run_policy``) plays one realized
arrival sequence forward, one reward at a time, and is what the vectorized
Monte Carlo block must reproduce replication for replication.  Both it and
the enumeration read a policy's rules from its own data (``rule_of``: a
schedule's ``thresholds``, an activation policy's ``tables``, the adaptive
rule's ``tau1``/``tau2``), never from its piece stacks, and decide through
``acceptance_prob``, from ``tau`` and ``accept_prob`` or from the bucket
edges directly.

``acceptance_table`` builds Monte Carlo's acceptance table from those rules,
one ``bucket_form`` per (piece, identity) cell, padded by ``bucket_table``:
the table that ``monte_carlo._acceptance_table``, reading the piece stacks'
``buckets()``, must equal bit for bit.

``optimal_online_value`` is the recursive memo that the optimal-online DP
table must equal state for state.

``reference_quantile_threshold`` is the scalar, one-q-at-a-time OPT quantile
search that ``OptLaw.quantile_arrays`` must reproduce bit for bit; it
reads the OPT law's left limits through ``opt_cdf_left``.

``adaptive_phases`` finds the adaptive rule's arrival order by a stable
argsort of the times: the reference that ``AdaptiveTwoThreshold.pieces_at``,
its packed-key sort and its equal-q rank step must equal element for
element.

``simulate_block_reference`` is the Monte Carlo block as a plain pass per
step: all three draw parts at once, the masked copy of the rejected times
and ``any`` for the stopped rows, and the adaptive rule's phases from
``adaptive_phases``; ``monte_carlo._simulate_block`` must give its selected
values and stopped rows bit for bit.  ``cuts_by_bisection`` finds the cuts
by bisection with no estimate, which ``monte_carlo._cuts`` must equal.

``cdf``, ``cdf_left``, ``point_mass`` and ``mean_between`` ask a law one
point at a time, in Python floats: the references that ``Distribution``'s
questions must equal bit for bit, on its scalar and its array path alike.
``product_max`` and ``nth_root`` build the product and root laws on an
``np.unique`` grid, asking each law ``cdf`` for the right limits and
``left_and_atom`` for the left ones: the two-question constructions that the
one-lookup operators must equal bit for bit.

The retired lemma-trial paths pin the cheaper ones bit for bit:
``p_tau_single`` asks each piece's ``RandomizedThreshold`` its
``accepted_mass``; ``product_max_by_lookups`` and ``nth_root_by_lookups``
ask each law one ``_lookup_scalar`` at every point of the merged grid;
``discrete_by_arrays`` and ``piecewise_by_arrays`` build a law's arrays by
numpy array arithmetic; and
``random_distribution`` and ``random_schedule`` draw from numpy arrays,
build the schedule from per-piece rules and make the same generator calls
as the lemma suite's draw helpers, which must leave the stream where these
leave it.

``ScalarPieces`` wraps a time-pieced policy so that the exact evaluator asks
every (identity, piece) rule its question on its own, through the scalar
rule questions below (``accepted_mass``, ``accepted_mean``,
``accepted_mass_above``): the per-piece weights that the piece stacks must
reproduce bit for bit.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from prophetlab import (
    ActivationPolicy,
    AdaptiveTwoThreshold,
    Distribution,
    Instance,
    RandomizedThreshold,
    ThresholdSchedule,
    ValueBuckets,
)
from prophetlab import distributions
from prophetlab.instance import _bisect
from prophetlab.monte_carlo import _block_rng, _cuts
from prophetlab.policies import check_shape


def is_discrete(d) -> bool:
    """True for a law with no mass between its breakpoints."""
    return bool(np.array_equal(d.Fl[1:], d.Fr[:-1]))


def atoms(d):
    """(value, mass) pairs of a purely discrete law."""
    pairs = [(float(x), float(fr - fl)) for x, fl, fr in zip(d.xs, d.Fl, d.Fr) if fr > fl]
    total = sum(p for _, p in pairs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError("enumeration oracle only handles discrete laws")
    return pairs


def rule_of(policy, piece: int, identity: int):
    """Identity ``identity``'s rule in ``piece`` (a phase, for the adaptive
    rule), read from the policy's own data."""
    if isinstance(policy, ThresholdSchedule):
        return policy.thresholds[piece]
    if isinstance(policy, ActivationPolicy):
        return policy.tables[piece][identity]
    return (policy.tau1, policy.tau2)[piece]


def bucket_form(rule) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A rule as value buckets (edges, probs): a threshold rejects below tau,
    accepts with ``accept_prob`` at tau and always above it."""
    if isinstance(rule, RandomizedThreshold):
        return (rule.tau, math.nextafter(rule.tau, math.inf)), (0.0, rule.accept_prob, 1.0)
    return rule.edges, rule.probs


def bucket_table(rules) -> tuple[np.ndarray, np.ndarray]:
    """The bucket forms of ``rules`` as arrays (edges, probs) with one row per
    rule: edges padded with +inf (no value reaches them), probs with 0."""
    forms = [bucket_form(rule) for rule in rules]
    width = max(len(edges) for edges, _ in forms)
    pads = [(math.inf,) * (width - len(edges)) for edges, _ in forms]
    edges = np.array([e + pad for (e, _), pad in zip(forms, pads)]).reshape(len(forms), width)
    probs = np.array([p + (0.0,) * len(pad) for (_, p), pad in zip(forms, pads)])
    return edges, probs


def acceptance_table(inst: Instance, policy) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo's (cuts, probs): cell ``c * n + i`` holds ``rule_of(policy,
    c, i)``, each edge stored as its cut on identity i's value uniforms."""
    n = inst.n
    edges, probs = bucket_table(
        [rule_of(policy, c, i) for c in range(policy.num_pieces) for i in range(n)])
    cuts = np.empty_like(edges)
    for i, d in enumerate(inst.base):
        cuts[i::n] = _cuts(d, edges[i::n])
    return cuts, probs


def cuts_by_bisection(d, edges: np.ndarray) -> np.ndarray:
    """``monte_carlo._cuts`` by halving (-1, 1] with no estimate."""
    first = _bisect(np.full(edges.shape, -1.0), np.ones(edges.shape),
                    lambda u: d.ppf(u) >= edges)
    return np.where(first > 0.0, np.nextafter(first, -np.inf), -1.0)


def simulate_block_reference(inst: Instance, policy, table, master_seed: int, block: int,
                             nrep: int) -> tuple[np.ndarray, np.ndarray]:
    """(selected values, stopped mask) of Monte Carlo block ``block``: every
    reward's cell read from the acceptance ``table``, accepted when its
    tiebreak is below the cell's probability for its bucket; the earliest
    accepted time is selected, equal times going to the lower column."""
    n, k = inst.n, inst.copies
    identities = np.repeat(np.arange(n), k)
    cuts, probs = table
    t, u, ties = _block_rng(master_seed, block).random((3, nrep, n * k))
    if isinstance(policy, AdaptiveTwoThreshold):
        pieces = adaptive_phases(policy, t, identities)
    else:
        pieces = policy.pieces_at(t, identities)
    cell = pieces * n + identities
    flat = cell * probs.shape[1]
    for column in cuts.T:
        flat += u > column.take(cell)
    accept = ties < probs.take(flat)
    stopped = accept.any(axis=1)
    np.copyto(t, np.inf, where=~accept)
    picked = t.argmin(axis=1)
    owner = identities[picked]
    chosen = u[np.arange(nrep), picked]
    selected = np.zeros(nrep)
    for i, d in enumerate(inst.base):
        mine = stopped & (owner == i)
        selected[mine] = d.ppf(chosen[mine])
    return selected, stopped


def acceptance_prob(rule, value: float) -> float:
    """Pr[``rule`` accepts ``value``]: a threshold accepts above tau and with
    ``accept_prob`` at tau; value buckets are closed on the left."""
    if isinstance(rule, RandomizedThreshold):
        if value > rule.tau:
            return 1.0
        return rule.accept_prob if value == rule.tau else 0.0
    if isinstance(rule, ValueBuckets):
        return rule.probs[int(np.searchsorted(rule.edges, value, side="right"))]
    raise TypeError(f"no acceptance rule for {type(rule).__name__}")


def enumerate_stop_statistics(inst: Instance, policy, payoff=None):
    """(E[payoff(selected value)], Pr[never stop]) by full enumeration.

    Arrival randomness is decomposed as: which time piece each reward lands
    in (probability = product of piece lengths), then a uniform order within
    each piece.  Acceptance randomness enters through the per-reward accept
    probability, so one survival chain per ordering covers all tiebreaks.
    """
    if payoff is None:
        payoff = lambda v: v
    bps = policy.breakpoints
    lengths = [b - a for a, b in zip(bps, bps[1:])]
    num_pieces = len(lengths)
    identities = [i for i in range(inst.n) for _ in range(inst.copies)]
    supports = [atoms(inst.base[i]) for i in identities]
    N = len(identities)

    total_value = 0.0
    total_no_stop = 0.0
    for vals in itertools.product(*supports):
        pv = math.prod(p for _, p in vals)
        for pieces in itertools.product(range(num_pieces), repeat=N):
            pp = math.prod(lengths[j] for j in pieces)
            if pp == 0.0:
                continue
            groups = [[m for m in range(N) if pieces[m] == j] for j in range(num_pieces)]
            norm = math.prod(math.factorial(len(g)) for g in groups)
            chain_val = 0.0
            chain_no_stop = 0.0
            for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
                order = [m for part in parts for m in part]
                survive = 1.0
                val = 0.0
                for m in order:
                    a = acceptance_prob(rule_of(policy, pieces[m], identities[m]), vals[m][0])
                    val += survive * a * payoff(vals[m][0])
                    survive *= 1.0 - a
                chain_val += val
                chain_no_stop += survive
            total_value += pv * pp * chain_val / norm
            total_no_stop += pv * pp * chain_no_stop / norm
    return total_value, total_no_stop


def enumerate_expected_value(inst: Instance, policy) -> float:
    return enumerate_stop_statistics(inst, policy)[0]


def enumerate_exceedance(inst: Instance, policy, x: float) -> float:
    val, _ = enumerate_stop_statistics(inst, policy, payoff=lambda v: 1.0 if v > x else 0.0)
    return val


def enumerate_opt_value(base) -> float:
    """E[max of one draw per law] for discrete laws."""
    supports = [atoms(d) for d in base]
    return sum(
        math.prod(p for _, p in vals) * max(v for v, _ in vals)
        for vals in itertools.product(*supports)
    )


def optimal_online_value(atom_sets, counts):
    """The optimal online value by recursion on the remaining counts with a
    memo: the reference that ``exact_oracle.optimal_online_value``'s table
    must equal, with the same arithmetic in the same order per state.  Its
    depth is sum(counts), so keep that well below the recursion limit."""
    memo = {}

    def value(counts: tuple):
        total = sum(counts)
        if total == 0:
            return 0
        hit = memo.get(counts)
        if hit is not None:
            return hit
        acc = 0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            rest = value(counts[:i] + (c - 1,) + counts[i + 1 :])
            gain = 0
            for v, mass in atom_sets[i]:
                gain += mass * (v if v > rest else rest)
            acc += c * gain
        out = acc / total
        memo[counts] = out
        return out

    return value(tuple(counts))


def opt_cdf_left(opt, x: float) -> float:
    """Pr[OPT < x]: the product of the base laws' left limits, in base order."""
    out = 1.0
    for d in opt.base:
        out *= cdf_left(d, x)
    return out


def reference_quantile_threshold(opt, q: float) -> RandomizedThreshold:
    """Scalar OPT quantile search: rebuild the product CDF on the merged grid,
    then bisect either tau inside a segment or the accept probability at an
    atom on values, each until its midpoint leaves (lo, hi)."""
    grid = np.unique(np.concatenate([d.xs for d in opt.base]))
    Fr = np.array([opt.cdf(x) for x in grid])
    j = min(int(np.searchsorted(Fr, q, side="left")), len(grid) - 1)
    tau = float(grid[j])
    Fl_j = opt_cdf_left(opt, tau)
    if j > 0 and Fl_j > q and Fl_j > Fr[j - 1]:
        lo, hi = float(grid[j - 1]), tau
        mid = lo / 2.0 + hi / 2.0
        while lo < mid < hi:
            if opt.cdf(mid) >= q:
                hi = mid
            else:
                lo = mid
            mid = lo / 2.0 + hi / 2.0
        return RandomizedThreshold(hi, 0.0)

    def rejected(a: float) -> float:
        out = 1.0
        for d in opt.base:
            out *= cdf_left(d, tau) + (1.0 - a) * point_mass(d, tau)
        return out

    if rejected(0.0) <= q:
        return RandomizedThreshold(tau, 0.0)
    if rejected(1.0) >= q:
        return RandomizedThreshold(tau, 1.0)
    lo_a, hi_a = 0.0, 1.0
    mid = 0.5
    while lo_a < mid < hi_a:
        if rejected(mid) > q:
            lo_a = mid
        else:
            hi_a = mid
        mid = lo_a / 2.0 + hi_a / 2.0
    return RandomizedThreshold(tau, hi_a)


# ---------------------------------------------- scalar law questions


def cdf(d, x: float) -> float:
    """Pr[V <= x], one x at a time."""
    xs = d.xs
    if x < xs[0]:
        return 0.0
    if x >= xs[-1]:
        return 1.0
    j = int(np.searchsorted(xs, x, side="right")) - 1
    x0, x1 = xs[j], xs[j + 1]
    frac = (x - x0) / (x1 - x0) if x1 > x0 else 1.0
    return float(d.Fr[j] + (d.Fl[j + 1] - d.Fr[j]) * frac)


def cdf_left(d, x: float) -> float:
    """Pr[V < x]."""
    x = float(x)
    if x <= d.xs[0]:
        return 0.0
    if x > d.xs[-1]:
        return 1.0
    j = int(np.searchsorted(d.xs, x, side="left"))
    if j < len(d.xs) and d.xs[j] == x:
        return float(d.Fl[j])
    return cdf(d, x)  # continuous strictly between breakpoints


def point_mass(d, x: float) -> float:
    """Pr[V = x]."""
    j = int(np.searchsorted(d.xs, x, side="left"))
    if j < len(d.xs) and d.xs[j] == x:
        return float(d.Fr[j] - d.Fl[j])
    return 0.0


def mean_between(d, lo: float, hi: float, open_left: bool = False) -> float:
    """E[V * 1{lo <= V < hi}] (strict left if open_left)."""
    if hi <= lo:
        return 0.0
    total = 0.0
    jumps = d.Fr - d.Fl
    for j in range(len(d.xs)):
        v = d.xs[j]
        inside = (v > lo if open_left else v >= lo) and v < hi
        if inside and jumps[j] > 0:
            total += v * jumps[j]
    # linear segments
    for j in range(len(d.xs) - 1):
        x0, x1 = float(d.xs[j]), float(d.xs[j + 1])
        seg_mass = float(d.Fl[j + 1] - d.Fr[j])
        if seg_mass <= 0:
            continue
        a, b = max(x0, lo), min(x1, hi)
        if b <= a:
            continue
        total += seg_mass * ((b - a) / (x1 - x0)) * (a / 2.0 + b / 2.0)
    return total


def product_max(ds, extra_points=None) -> Distribution:
    """``distributions.product_max``, asking each law two questions."""
    grid = np.unique(np.concatenate([*(d.xs for d in ds),
                                     [] if extra_points is None else extra_points]))
    Fr, Fl = np.ones_like(grid), np.ones_like(grid)
    for d in ds:
        Fr *= d.cdf(grid)
        Fl *= d.left_and_atom(grid)[0]
    return Distribution(grid, Fl, Fr)


def nth_root(d, n: int, extra_points=None) -> Distribution:
    """``distributions.nth_root``, asking the law two questions."""
    grid = np.unique(np.concatenate([d.xs, [] if extra_points is None else extra_points]))
    return Distribution(grid, d.left_and_atom(grid)[0] ** (1.0 / n), d.cdf(grid) ** (1.0 / n))


# ---------------------------------------------- scalar rule questions


def mass_between(d, lo: float, hi: float) -> float:
    """Pr[lo <= V < hi]."""
    if hi <= lo:
        return 0.0
    return cdf_left(d, hi) - cdf_left(d, lo)


def mass_between_above(d, lo: float, hi: float, x: float) -> float:
    """Pr[lo <= V < hi and V > x]."""
    if x >= hi:
        return 0.0
    if x < lo:
        return mass_between(d, lo, hi)
    return cdf_left(d, hi) - cdf(d, x)


def bucket_bounds(vb: ValueBuckets) -> list[tuple[float, float, float]]:
    """(lo, hi, prob) of each bucket that activates, lo clipped at 0."""
    lows = (-math.inf,) + vb.edges
    highs = vb.edges + (math.inf,)
    return [(max(lo, 0.0), hi, p) for lo, hi, p in zip(lows, highs, vb.probs) if p]


def accepted_mass(rule, d) -> float:
    """Pr[``rule`` accepts a draw of ``d``]."""
    if isinstance(rule, RandomizedThreshold):
        return 1.0 - (cdf_left(d, rule.tau) + (1.0 - rule.accept_prob) * point_mass(d, rule.tau))
    return sum(p * mass_between(d, lo, hi) for lo, hi, p in bucket_bounds(rule))


def accepted_mean(rule, d) -> float:
    """E[V * 1{``rule`` accepts V}] for V drawn from ``d``."""
    if isinstance(rule, RandomizedThreshold):
        return mean_between(d, rule.tau, np.inf, open_left=True) + (
            rule.accept_prob * rule.tau * point_mass(d, rule.tau)
        )
    return sum(p * mean_between(d, lo, hi) for lo, hi, p in bucket_bounds(rule))


def accepted_mass_above(rule, d, xs: np.ndarray) -> np.ndarray:
    """Pr[``rule`` accepts V and V > x] for each x of ``xs``."""
    if isinstance(rule, RandomizedThreshold):
        w = 1.0 - np.asarray(d.cdf(np.maximum(rule.tau, xs)))
        return w + (rule.tau > xs) * (rule.accept_prob * point_mass(d, rule.tau))
    bounds = bucket_bounds(rule)
    return np.array(
        [sum(p * mass_between_above(d, lo, hi, x) for lo, hi, p in bounds) for x in xs],
        dtype=float,
    )


class _ScalarStack:
    """One identity's rules of all pieces, asked one piece at a time."""

    def __init__(self, rules):
        self.rules = rules

    def accepted_mass(self, d) -> np.ndarray:
        return np.array([accepted_mass(rule, d) for rule in self.rules])

    def accepted_mean(self, d) -> np.ndarray:
        return np.array([accepted_mean(rule, d) for rule in self.rules])

    def accepted_mass_above(self, d, xs) -> np.ndarray:
        return np.stack([accepted_mass_above(rule, d, xs) for rule in self.rules], axis=-1)


class ScalarPieces:
    """``policy`` with a ``piece_stack`` that asks each (piece, identity) rule
    alone; every other attribute is the policy's own."""

    def __init__(self, policy):
        self.policy = policy

    def __getattr__(self, name):
        return getattr(self.policy, name)

    def piece_stack(self, identity: int) -> _ScalarStack:
        return _ScalarStack([rule_of(self.policy, r, identity)
                             for r in range(self.policy.num_pieces)])


# ---------------------------------------------- retired lemma-trial paths


def p_tau_single(schedule: ThresholdSchedule, d, t: float) -> float:
    """``exact_oracle.p_tau_single``, asking each piece's rule."""
    b = schedule.breakpoints
    total = 0.0
    for lo, hi, rt in zip(b[:-1], b[1:], schedule.thresholds):
        hi = min(hi, t)
        if hi <= lo:
            break
        total += (hi - lo) * rt.accepted_mass(d)
    return min(total, 1.0)


def _lookup_limits(d, points):
    """``d.cdf`` and ``d.left_and_atom(...)[0]`` from one lookup each."""
    right, left = [], []
    for x in points:
        below, j, hit = d._lookup_scalar(x)
        right.append(float(d.Fr[j]) if hit else below)
        left.append(below)
    return right, left


def product_max_by_lookups(ds, extra_points=None) -> Distribution:
    """``distributions.product_max``, one lookup per law and grid point."""
    grid = distributions._merged_grid(ds, extra_points)
    points = grid.tolist()
    Fr, Fl = [1.0] * len(points), [1.0] * len(points)
    for d in ds:
        right, left = _lookup_limits(d, points)
        Fr = [a * b for a, b in zip(Fr, right)]
        Fl = [a * b for a, b in zip(Fl, left)]
    return Distribution(grid, np.array(Fl), np.array(Fr))


def nth_root_by_lookups(d, n: int, extra_points=None) -> Distribution:
    """``distributions.nth_root``, one lookup per grid point."""
    grid = distributions._merged_grid([d], extra_points)
    right, left = _lookup_limits(d, grid.tolist())
    return Distribution(grid, np.array(left) ** (1.0 / n), np.array(right) ** (1.0 / n))


_VALUE_POOL = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
_CUT_POOL = np.linspace(0.05, 0.95, 19)
_ACCEPT_POOL = (0.0, 0.25, 0.5, 1.0)


def discrete_by_arrays(atoms) -> Distribution:
    """``Distribution.discrete`` of well-formed atoms, in numpy arrays."""
    items = sorted(atoms)
    masses = np.array([p for _, p in items])
    Fr = np.cumsum(masses / masses.sum())
    Fr[-1] = 1.0
    return Distribution(np.array([v for v, _ in items]), np.concatenate(([0.0], Fr[:-1])), Fr)


def piecewise_by_arrays(points) -> Distribution:
    """``Distribution.piecewise`` of well-formed points, in numpy arrays."""
    Fs = np.array([F for _, F in points])
    Fr = Fs / Fs[-1]
    Fr[-1] = 1.0
    Fl = Fr.copy()
    Fl[0] = 0.0
    return Distribution(np.array([x for x, _ in points]), Fl, Fr)


def random_distribution(rng: np.random.Generator) -> Distribution:
    """The lemma suite's random law, drawn as numpy arrays."""
    if rng.random() < 0.5:
        size = int(rng.integers(1, 4))
        vals = rng.choice(_VALUE_POOL, size=size, replace=False)
        w = rng.integers(1, 6, size=size).astype(float)
        return Distribution.discrete(zip(np.sort(vals), w / w.sum()))
    size = int(rng.integers(2, 5))
    xs = np.sort(rng.choice(_VALUE_POOL, size=size, replace=False))
    w = rng.integers(1, 6, size=size).astype(float)
    F = np.cumsum(w) / w.sum()
    F[-1] = 1.0
    return Distribution.piecewise(zip(xs, F))


def random_schedule(rng: np.random.Generator, pieces=None) -> ThresholdSchedule:
    """The lemma suite's random schedule, built from per-piece rules."""
    m = int(pieces if pieces is not None else rng.integers(1, 4))
    cuts = np.sort(rng.choice(_CUT_POOL, size=m - 1, replace=False)) if m > 1 else []
    rts = []
    for _ in range(m):
        tau = float(rng.choice(_VALUE_POOL)) if rng.random() < 0.7 else float(rng.uniform(0, 3))
        ap = float(rng.choice(_ACCEPT_POOL)) if rng.random() < 0.7 else float(rng.random())
        rts.append(RandomizedThreshold(tau, ap))
    return ThresholdSchedule((0.0, *map(float, cuts), 1.0), tuple(rts))


# ------------------------------------------------------------ event scan


@dataclass(frozen=True, order=True)
class AugmentedValue:
    """A reward value with a uniform tiebreak; ordered lexicographically."""

    value: float
    tiebreak: float


def accepts(rule, av: AugmentedValue) -> bool:
    """The tiebreak decides: accepted iff it falls below the acceptance probability."""
    return av.tiebreak < acceptance_prob(rule, av.value)


def piece_at(policy, t: float) -> int:
    j = int(np.searchsorted(policy.breakpoints, t, side="right")) - 1
    return min(max(j, 0), policy.num_pieces - 1)


def threshold_at(schedule: ThresholdSchedule, t: float) -> RandomizedThreshold:
    return schedule.thresholds[piece_at(schedule, t)]


def constant_activation(buckets_per_identity) -> ActivationPolicy:
    """One activation table for all of [0, 1]."""
    return ActivationPolicy((0.0, 1.0), (tuple(buckets_per_identity),))


def activation_from_threshold(schedule: ThresholdSchedule, n: int) -> ActivationPolicy:
    """The indicator-of-exceeding-tau activation table of a schedule, from
    its stack's ``buckets()``."""
    edges, probs = schedule.piece_stack(0).buckets()
    tables = tuple((ValueBuckets(tuple(e), tuple(p)),) * n
                   for e, p in zip(edges.tolist(), probs.tolist()))
    return ActivationPolicy(tuple(schedule.breakpoints), tables)


@dataclass(frozen=True)
class ArrivalSequence:
    """One realized draw of all n*k rewards, sorted by arrival time.

    Time ties (possible in floating point) are broken by (identity, copy)
    index order."""

    n: int
    copies: int
    times: np.ndarray
    identities: np.ndarray
    copy_index: np.ndarray
    values: np.ndarray
    tiebreaks: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def sample_arrivals(inst: Instance, rng: np.random.Generator) -> ArrivalSequence:
    n, k = inst.n, inst.copies
    N = n * k
    identities = np.repeat(np.arange(n), k)
    copy_index = np.tile(np.arange(k), n)
    times = rng.random(N)
    values = np.empty(N)
    for i, d in enumerate(inst.base):
        values[identities == i] = d.ppf(rng.random(k))
    tiebreaks = rng.random(N)
    order = np.lexsort((copy_index, identities, times))
    return ArrivalSequence(
        n=n,
        copies=k,
        times=times[order],
        identities=identities[order],
        copy_index=copy_index[order],
        values=values[order],
        tiebreaks=tiebreaks[order],
    )


@dataclass(frozen=True)
class StopOutcome:
    stopped: bool
    stop_time: float
    selected_value: float
    selected_identity: tuple[int, int] | None

    @classmethod
    def none(cls) -> "StopOutcome":
        return cls(False, 1.0, 0.0, None)


def run_policy(policy, seq: ArrivalSequence) -> StopOutcome:
    """Scan the events in time order and return the first acceptance.

    Threshold and activation decisions consume the event's own tiebreak, so
    the outcome is a pure function of (policy, seq).
    """
    check_shape(policy, seq.n, seq.copies)
    if isinstance(policy, AdaptiveTwoThreshold):
        return _run_adaptive(policy, seq)
    for pos in range(len(seq)):
        t = float(seq.times[pos])
        i = int(seq.identities[pos])
        av = AugmentedValue(float(seq.values[pos]), float(seq.tiebreaks[pos]))
        if accepts(rule_of(policy, piece_at(policy, t), i), av):
            return StopOutcome(True, t, av.value, (i, int(seq.copy_index[pos])))
    return StopOutcome.none()


def later_log_q(policy: AdaptiveTwoThreshold, seq: ArrivalSequence) -> list[float]:
    """For each event of ``seq``, the log of the product of q_i over the
    rewards arriving strictly later: the scan is in phase 1 (tau2) at that
    event exactly when this exceeds ln(epsilon)."""
    logq = [math.log(qi) for qi in policy.q]
    # log of the product of q_i over rewards not yet arrived
    remaining = policy.copies * sum(logq)
    out = []
    for i in seq.identities:
        remaining -= logq[int(i)]  # current event no longer counts as "later"
        out.append(remaining)
    return out


def adaptive_phases(policy: AdaptiveTwoThreshold, times: np.ndarray,
                    identities: np.ndarray) -> np.ndarray:
    """``pieces_at`` of the adaptive rule by a stable argsort of the times:
    the phase of every arrival in a (rows, N) block, the suffix sums of log q
    taken by ``cumsum`` over the reversed arrival order."""
    log_q = np.log(np.asarray(policy.q))
    order = np.argsort(times, axis=1, kind="stable")
    contrib = log_q[identities[order]]
    later = np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1] - contrib
    phase = np.empty(times.shape, dtype=np.intp)
    np.put_along_axis(phase, order, later > math.log(policy.epsilon), axis=1)
    return phase


def _run_adaptive(policy: AdaptiveTwoThreshold, seq: ArrivalSequence) -> StopOutcome:
    log_eps = math.log(policy.epsilon)
    for pos, later in enumerate(later_log_q(policy, seq)):
        i = int(seq.identities[pos])
        # suffix product over strictly-later arrivals decides the phase
        rt = policy.tau2 if later > log_eps else policy.tau1
        av = AugmentedValue(float(seq.values[pos]), float(seq.tiebreaks[pos]))
        if accepts(rt, av):
            return StopOutcome(True, float(seq.times[pos]), av.value,
                               (i, int(seq.copy_index[pos])))
    return StopOutcome.none()


def switch_time_S(policy: AdaptiveTwoThreshold, times: np.ndarray,
                  identities: np.ndarray) -> float:
    """Offline switch time: the last t with q(t) <= epsilon.

    q(t) is the probability (over values) that every reward arriving at or
    after t falls below tau2; it is a right-continuous step function jumping
    just after each arrival.
    """
    order = np.argsort(times, kind="stable")
    ts = np.asarray(times, dtype=float)[order]
    ids = np.asarray(identities)[order]
    logq = np.log(np.asarray(policy.q))
    log_eps = math.log(policy.epsilon)
    contrib = logq[ids]
    # suffix[j] = log prod_{m >= j} q_{id_m}
    suffix = np.concatenate((np.cumsum(contrib[::-1])[::-1], [0.0]))
    ok = np.nonzero(suffix[: len(ts)] <= log_eps)[0]
    if len(ok) == 0:
        return 0.0  # q(0) already exceeds epsilon; switch immediately
    return float(ts[ok[-1]])

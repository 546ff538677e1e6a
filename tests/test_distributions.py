"""Distribution layer: CDF queries, exact quantiles, max/root operators."""

import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prophetlab import (
    Distribution,
    InvalidInstanceError,
    InvalidParameterError,
    InvalidQuantileError,
    OptLaw,
    distribution_from_json,
    nth_root,
    product_max,
)
from prophetlab import distributions, experiments, monte_carlo
from prophetlab.experiments import regression_instances

_VALUES = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]


@st.composite
def atom_lists(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    vals = draw(st.lists(st.sampled_from(_VALUES), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n))
    total = sum(weights)
    return [(v, w / total) for v, w in zip(sorted(vals), weights)]


@st.composite
def point_lists(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    xs = draw(st.lists(st.sampled_from(_VALUES), min_size=n, max_size=n, unique=True))
    fs = sorted(draw(st.lists(st.integers(min_value=0, max_value=8), min_size=n, max_size=n)))
    if fs[-1] == 0:
        fs[-1] = 1
    return [(x, f / fs[-1]) for x, f in zip(sorted(xs), fs)]


def discrete_laws():
    return atom_lists().map(Distribution.discrete)


def piecewise_laws():
    return point_lists().map(Distribution.piecewise)


class TestCdf:
    def test_atom_below_support(self):
        d = Distribution.discrete([(1.0, 1.0)])
        assert d.cdf(0.5) == 0.0

    def test_two_point_law_at_lower_atom(self):
        p, eps = 0.25, 0.09
        d = Distribution.discrete([(0.0, p), (1.0 + math.sqrt(eps), 1.0 - p)])
        assert d.cdf(0.0) == pytest.approx(0.25, abs=0)

    def test_piecewise_interpolates(self):
        d = Distribution.piecewise([(0.0, 0.0), (2.0, 1.0)])
        assert d.cdf(0.5) == pytest.approx(0.25, abs=1e-15)

    @given(discrete_laws() | piecewise_laws())
    @settings(max_examples=60, deadline=None)
    def test_cdf_monotone_and_bounded(self, d):
        grid = np.linspace(-0.5, 3.5, 1000)
        vals = d.cdf(grid)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_rejects_bad_masses(self):
        with pytest.raises(InvalidInstanceError):
            Distribution.discrete([(0.0, 0.4), (1.0, 0.4)])
        with pytest.raises(InvalidInstanceError):
            Distribution.discrete([(1.0, 0.5), (1.0, 0.5)])


class TestQuantileThreshold:
    def test_atom_boundary_exact(self):
        d = Distribution.discrete([(1.0, 0.5), (2.0, 0.5)])
        rt = OptLaw([d]).quantile_threshold(0.5)
        assert (rt.tau, rt.accept_prob) == (1.0, 0.0)

    def test_interior_of_atom(self):
        d = Distribution.discrete([(1.0, 0.5), (2.0, 0.5)])
        rt = OptLaw([d]).quantile_threshold(0.25)
        assert rt.tau == 1.0
        assert rt.accept_prob == pytest.approx(0.5, abs=1e-15)

    def test_uniform_median(self):
        d = Distribution.piecewise([(0.0, 0.0), (1.0, 1.0)])
        assert OptLaw([d]).quantile_threshold(0.5).tau == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_quantile(self):
        d = Distribution.discrete([(1.0, 1.0)])
        with pytest.raises(InvalidQuantileError):
            OptLaw([d]).quantile_threshold(1.0)
        with pytest.raises(InvalidQuantileError):
            OptLaw([d]).quantile_threshold(-0.1)

    @given(discrete_laws(), st.integers(min_value=0, max_value=99))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_rejection_probability(self, d, hundredths):
        q = hundredths / 100.0
        rt = OptLaw([d]).quantile_threshold(q)
        assert abs(rt.rejected_mass(d) - q) <= 1e-12


class TestProductMax:
    def test_singleton_identity(self):
        d = Distribution.discrete([(1.0, 1.0)])
        out = product_max([d])
        assert out.cdf(1.0) == 1.0 and out.cdf(0.999) == 0.0

    def test_two_fair_coins(self):
        coin = Distribution.discrete([(0.0, 0.5), (1.0, 0.5)])
        out = product_max([coin, coin])
        assert out.left_and_atom(0.0)[1] == pytest.approx(0.25, abs=1e-15)
        assert out.left_and_atom(1.0)[1] == pytest.approx(0.75, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInstanceError):
            product_max([])

    @given(st.lists(discrete_laws(), min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_cdf_is_pointwise_product(self, ds):
        out = product_max(ds)
        for x in np.linspace(-0.5, 3.5, 200):
            expect = math.prod(float(d.cdf(x)) for d in ds)
            assert abs(float(out.cdf(x)) - expect) <= 1e-12


class TestNthRoot:
    def test_identity_at_one(self):
        d = Distribution.discrete([(0.0, 0.25), (1.0, 0.75)])
        out = nth_root(d, 1)
        np.testing.assert_allclose(out.Fr, d.Fr)

    def test_square_root_of_cdf(self):
        d = Distribution.discrete([(0.0, 0.25), (1.0, 0.75)])
        out = nth_root(d, 2)
        assert out.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert out.cdf(1.0) == 1.0

    def test_zero_rejected(self):
        d = Distribution.discrete([(1.0, 1.0)])
        with pytest.raises(InvalidParameterError):
            nth_root(d, 0)

    @given(discrete_laws(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_product_of_roots_recovers(self, d, n):
        root = nth_root(d, n)
        back = product_max([root] * n)
        for x in d.xs:
            assert abs(float(back.cdf(x)) - float(d.cdf(x))) <= 1e-9


class TestSampling:
    def test_point_mass_samples_constant(self):
        d = Distribution.discrete([(1.0, 1.0)])
        rng = np.random.default_rng(0)
        assert np.all(d.ppf(rng.random(100)) == 1.0)

    def test_coin_empirical_mean(self):
        d = Distribution.discrete([(0.0, 0.5), (1.0, 0.5)])
        rng = np.random.default_rng(12345)
        mean = d.ppf(rng.random(1_000_000)).mean()
        assert abs(mean - 0.5) <= 0.002

    def test_fixed_seed_reproduces(self):
        d = Distribution.piecewise([(0.0, 0.0), (1.0, 0.6), (2.0, 1.0)])
        a = d.ppf(np.random.default_rng(7).random(1000))
        b = d.ppf(np.random.default_rng(7).random(1000))
        np.testing.assert_array_equal(a, b)

    def test_nondecreasing_on_doubles_of_the_regression_laws(self):
        # Monte Carlo sorts value uniforms into buckets by comparing them with
        # cut points, which is exact only if ppf never decreases from one
        # double to the next, 1 ulp around each CDF value included
        rng = np.random.default_rng(5)
        for name, base in regression_instances():
            for d in base:
                marks = np.concatenate((d.Fl, d.Fr, [0.0, np.nextafter(1.0, 0.0)]))
                u = np.concatenate((marks, np.nextafter(marks, -np.inf),
                                    np.nextafter(marks, np.inf), rng.random(10_000)))
                u = np.unique(u[(u >= 0.0) & (u < 1.0)])
                assert np.all(np.diff(d.ppf(u)) >= 0.0), name

    def test_interpolation_stops_at_the_breakpoint(self):
        # at u = 0.75 = F(x) the interpolation reaches frac == 1, and without
        # a clamp rounds 1 ulp above x, above ppf of the next double; Monte
        # Carlo's cut for the edge just above x then disagrees with ppf there
        x = 1.4634308933011468
        d = Distribution.piecewise([(0, 0), (0.2917986243935994, 0.25), (x, 0.75),
                                    (1.4634308943011468, 1)])
        u = np.array([0.75, np.nextafter(0.75, 1.0)])
        assert d.ppf(0.75) == x and d.ppf(u[0]) <= d.ppf(u[1])
        edges = np.array([x, np.nextafter(x, np.inf)])
        cuts = monte_carlo._cuts(d, edges)
        for v in u:
            assert np.array_equal(d.ppf(np.full(2, v)) >= edges, v > cuts)


def _probe_points(d):
    """Every breakpoint, 1 ulp either side of it, every segment midpoint, and
    points below and above the support, -inf and inf among them."""
    xs = d.xs
    pts = np.concatenate((xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
                          (xs[:-1] + xs[1:]) / 2.0, [-np.inf, -1.0, xs[-1] + 1.0, np.inf]))
    return np.unique(pts)


def _lemma_laws(trials=40, seed=0):
    """Pairwise and n-fold products and roots, with thresholds as extra grid
    points, built as the lemma suite builds them: (name, input laws, root
    order, extra points, the law built)."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        taus = [rt.tau for rt in experiments._random_schedule(rng).thresholds]
        Fs = [experiments._random_distribution(rng) for _ in range(int(rng.integers(2, 5)))]
        prod = product_max(Fs, extra_points=taus)
        yield f"lemma{trial}/prod", Fs, 1, taus, prod
        yield (f"lemma{trial}/root", [prod], len(Fs), taus,
               nth_root(prod, len(Fs), extra_points=taus))


# reaches past 1e154, where the square of a value overflows
_WIDE_LAW = Distribution.piecewise([(0.0, 0.0), (1e300, 0.5), (1.5e308, 1.0)])


def _laws_and_opt_laws():
    for name, base in regression_instances():
        for d in base:
            yield name, d
        yield f"{name}/opt", OptLaw(base).dist
    for name, _, _, _, d in _lemma_laws():
        yield name, d
    yield "wide", _WIDE_LAW


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestArrayQuestions:
    """Every input shape takes the scalar arithmetic of the references in
    ``oracles``, element by element."""

    def test_left_and_atom_equal_cdf_left_and_point_mass(self):
        for name, d in _laws_and_opt_laws():
            pts = _probe_points(d)
            want_cdf = _hex([oracles.cdf(d, x) for x in pts])
            want_left = _hex([oracles.cdf_left(d, x) for x in pts])
            want_atom = _hex([oracles.point_mass(d, x) for x in pts])
            left, atom = d.left_and_atom(pts)
            assert _hex(left) == want_left, name
            assert _hex(atom) == want_atom, name
            assert _hex(d.cdf(pts)) == want_cdf, name
            block = pts.reshape(1, -1, 1)  # any shape answers elementwise
            assert _hex(d.left_and_atom(block)[0]) == want_left, name
            assert _hex(d.cdf(block)) == want_cdf, name
            # 0-d arrays, numpy scalars and Python floats take the scalar path
            for xs in ([np.array(x) for x in pts], list(pts), pts.tolist()):
                one = [d.left_and_atom(x) for x in xs]
                assert all(type(v) is float for pair in one for v in pair), name
                assert _hex([v for v, _ in one]) == want_left, name
                assert _hex([a for _, a in one]) == want_atom, name
                assert _hex([d.cdf(x) for x in xs]) == want_cdf, name

    def test_mean_above_equals_mean_between(self):
        for name, d in _laws_and_opt_laws():
            pts = _probe_points(d)[:-1]  # drop inf: nothing lies above it
            got = d.mean_between(pts, np.inf, open_left=True)
            want = [oracles.mean_between(d, x, np.inf, open_left=True) for x in pts]
            assert _hex(got) == _hex(want), name

    @pytest.mark.parametrize("open_left", [False, True])
    def test_mean_between_pairs_equals_mean_between(self, open_left):
        for name, d in _laws_and_opt_laws():
            pts = _probe_points(d)[1:]  # drop -inf: hi = -inf, lo = inf makes inf - inf
            lo, hi = np.maximum(pts, 0.0)[:, None], pts[None, :]
            got = d.mean_between(lo, hi, open_left=open_left)
            want = [oracles.mean_between(d, a, b, open_left=open_left)
                    for a in lo[:, 0] for b in pts]
            assert _hex(got) == _hex(want), name
            scalar = [d.mean_between(a, b, open_left=open_left) for a in lo[:, 0] for b in pts]
            assert _hex(scalar) == _hex(want), name

    def test_product_and_root_tables_match_the_per_point_loop(self):
        for name, ds, n, _, law in _lemma_laws():
            # the per-point loop asks the question; the root is one array power
            want_fr = np.array([math.prod(oracles.cdf(d, x) for d in ds) for x in law.xs])
            want_fl = np.array([math.prod(oracles.cdf_left(d, x) for d in ds) for x in law.xs])
            if n > 1:
                want_fr, want_fl = want_fr ** (1.0 / n), want_fl ** (1.0 / n)
            assert _hex(law.Fr) == _hex(want_fr), name
            assert _hex(law.Fl) == _hex(want_fl), name


class TestOneLookup:
    """``product_max`` and ``nth_root`` walk each law along a grid merged
    without ``np.unique``; every bit stays that of the two-question
    references in ``oracles``."""

    _GRID_LAWS = [Distribution.discrete([(0.0, 0.5), (1.0, 0.25), (3.0, 0.25)]),
                  Distribution.piecewise([(-0.0, 0.0), (0.25, 0.5), (1.0, 1.0)]),
                  Distribution.discrete([(1.0, 1.0)])]

    @staticmethod
    def _cases():
        for name, ds, n, taus, law in _lemma_laws():
            yield name, ds, n, taus, law
        for name, base in regression_instances():
            opt = OptLaw(base).dist
            yield f"{name}/opt", base, 1, None, opt
            yield f"{name}/root", [opt], len(base) + 1, None, nth_root(opt, len(base) + 1)

    def test_product_and_root_equal_the_two_question_references(self):
        for name, ds, n, taus, law in self._cases():
            if n == 1:
                want = oracles.product_max(ds, extra_points=taus)
            else:
                want = oracles.nth_root(ds[0], n, extra_points=taus)
            for got, ref in ((law.xs, want.xs), (law.Fl, want.Fl), (law.Fr, want.Fr)):
                assert _hex(got) == _hex(ref), name

    @pytest.mark.parametrize("extra", [
        None,
        [],
        [1.0, 1.0, 0.25, 3.0],
        [0.0, -0.0, -0.0, 0.0],
        [-0.0, 0.0, 2.0, -0.0],
    ], ids=["none", "empty", "duplicates", "zeros", "neg-zero-first"])
    def test_merged_grid_equals_np_unique(self, extra):
        pool = np.concatenate([*(d.xs for d in self._GRID_LAWS), [] if extra is None else extra])
        got = distributions._merged_grid(self._GRID_LAWS, extra)
        assert _hex(got) == _hex(np.unique(pool))

    # an extra point becomes a breakpoint, so it must be finite and nonnegative
    _OFF_SUPPORT = pytest.mark.parametrize("extra, bad", [
        ([math.nan], "nan"),
        ([math.nan, 1.0, math.nan, -math.nan, 0.5], "nan"),
        ([0.5, math.nan, -1.0, math.nan, 2.0], "-1.0"),
        ([math.inf, -math.inf, math.inf, -1.0], "-inf"),
        ([math.inf, 0.5], "inf"),
        ([-1.0], "-1.0"),
        ([-5e-324], "-5e-324"),
    ], ids=["nan", "nans", "nan-and-negative", "infs", "inf", "negative", "negative-subnormal"])

    @_OFF_SUPPORT
    def test_merged_grid_refuses_a_point_off_the_support(self, extra, bad):
        with pytest.raises(InvalidParameterError) as info:
            distributions._merged_grid(self._GRID_LAWS, extra)
        assert str(info.value) == f"extra grid points must be finite and nonnegative, got {bad}"

    @_OFF_SUPPORT
    def test_product_and_root_refuse_a_point_off_the_support(self, extra, bad):
        ds = [Distribution.discrete([(0.0, 0.25), (1.0, 0.75)]),
              Distribution.piecewise([(0.5, 0.0), (2.0, 1.0)])]
        for build in (lambda: product_max(ds, extra_points=extra),
                      lambda: product_max(ds[:1], extra_points=extra),
                      lambda: nth_root(ds[1], 3, extra_points=extra)):
            with pytest.raises(InvalidParameterError, match=f"got {bad}$"):
                build()


# a hand-built law whose first left limit is not 0: every question reads
# Pr[V < xs[0]] as 0.0 all the same
_FL0_LAW = Distribution(np.array([0.5, 1.0, 2.0]), np.array([0.25, 0.5, 0.75]),
                        np.array([0.4, 0.6, 1.0]))


class TestCheaperTrials:
    """The lemma trials' cheaper paths equal the retired ones in ``oracles``
    bit for bit: own breakpoints read straight from ``Fl``/``Fr``, and the
    constructors' Python-float arithmetic."""

    @staticmethod
    def _extra_points(rng, ds):
        """Points inside the support, below and above it, and on breakpoints."""
        xs = np.concatenate([d.xs for d in ds])
        lo, hi = float(xs.min()), float(xs.max())
        extra = [float(rng.uniform(lo, hi)) for _ in range(2)]
        extra += [hi + 0.5, float(rng.choice(xs))]
        if lo > 0.0:
            extra.append(lo / 2.0)
        return extra

    def test_product_and_root_equal_the_lookup_references(self):
        rng = np.random.default_rng(27)
        for trial in range(600):
            ds = [_FL0_LAW if trial % 25 == 0 and i == 0 else experiments._random_distribution(rng)
                  for i in range(int(rng.integers(1, 4)))]
            for extra in (None, self._extra_points(rng, ds)):
                got = product_max(ds, extra_points=extra)
                want = oracles.product_max_by_lookups(ds, extra_points=extra)
                for a, b in ((got.xs, want.xs), (got.Fl, want.Fl), (got.Fr, want.Fr)):
                    assert _hex(a) == _hex(b), (trial, extra)
                n = len(ds) + 1
                for d in (ds[0], got):
                    root = nth_root(d, n, extra_points=extra)
                    want = oracles.nth_root_by_lookups(d, n, extra_points=extra)
                    for a, b in ((root.xs, want.xs), (root.Fl, want.Fl), (root.Fr, want.Fr)):
                        assert _hex(a) == _hex(b), (trial, extra)

    def test_product_and_root_search_no_point(self, monkeypatch):
        # a law's own breakpoints are read from its arrays and the points it
        # lacks are interpolated between the breakpoints the walk has found
        rng = np.random.default_rng(3)
        cases = []
        for _ in range(50):
            taus = experiments._random_schedule(rng).stack.tau
            Fs = [experiments._random_distribution(rng) for _ in range(int(rng.integers(2, 5)))]
            cases.append((Fs, taus))

        def no_lookup(self, x):
            raise AssertionError(f"looked up {x!r}")

        monkeypatch.setattr(Distribution, "_lookup_scalar", no_lookup)
        for Fs, taus in cases:
            prod = product_max(Fs, extra_points=taus)
            nth_root(prod, len(Fs), extra_points=taus)
            nth_root(Fs[0], 2, extra_points=taus)

    def test_first_left_limit_reads_zero(self):
        prod = product_max([_FL0_LAW], extra_points=[0.75])
        assert prod.Fl.tolist() == [0.0, 0.45, 0.5, 0.75]
        assert prod.Fr.tolist() == [0.4, 0.45, 0.6, 1.0]
        assert nth_root(_FL0_LAW, 2).Fl[0] == 0.0

    def test_constructors_equal_numpy_array_arithmetic(self):
        # up to 20 atoms: numpy sums masses in order below 8 terms, pairwise from 8
        rng = np.random.default_rng(9)
        for _ in range(600):
            n = int(rng.integers(1, 21))
            vals = rng.choice(np.arange(40) / 4.0, size=n, replace=False)
            masses = rng.random(n) + 0.01
            atoms = list(zip(vals.tolist(), (masses / masses.sum()).tolist()))
            got, want = Distribution.discrete(atoms), oracles.discrete_by_arrays(atoms)
            for a, b in ((got.xs, want.xs), (got.Fl, want.Fl), (got.Fr, want.Fr)):
                assert _hex(a) == _hex(b), atoms
            if n > 1:
                Fs = np.cumsum(rng.random(n))
                points = list(zip(np.sort(vals).tolist(), (Fs / Fs[-1] * (1 + 1e-13)).tolist()))
                got, want = Distribution.piecewise(points), oracles.piecewise_by_arrays(points)
                for a, b in ((got.xs, want.xs), (got.Fl, want.Fl), (got.Fr, want.Fr)):
                    assert _hex(a) == _hex(b), points

    @pytest.mark.parametrize("extra, message", [
        (1.5, "extra grid points must be a flat list, got shape ()"),
        ([[1.5]], "extra grid points must be a flat list, got shape (1, 1)"),
        ([1.5, "x"], "extra grid points must be numbers"),
    ], ids=["scalar", "nested", "non-number"])
    def test_product_and_root_refuse_a_bad_shape(self, extra, message):
        # each let numpy's ValueError escape from the grid merge
        ds = [Distribution.discrete([(0.0, 0.25), (1.0, 0.75)]),
              Distribution.piecewise([(0.5, 0.0), (2.0, 1.0)])]
        for build in (lambda: product_max(ds, extra_points=extra),
                      lambda: nth_root(ds[1], 3, extra_points=extra)):
            with pytest.raises(InvalidParameterError) as info:
                build()
            assert str(info.value) == message


class TestMalformedLaws:
    """Each malformed law is refused with the message it always had, the
    first failing check in the order finite, mass, value, order."""

    @pytest.mark.parametrize("atoms, message", [
        ([], "discrete distribution needs at least one atom"),
        ([(math.nan, 1.0)], "atom values and masses must be finite"),
        ([(1.0, math.nan)], "atom values and masses must be finite"),
        ([(math.inf, 1.0)], "atom values and masses must be finite"),
        ([(-math.inf, 1.0)], "atom values and masses must be finite"),
        ([(1.0, math.inf)], "atom values and masses must be finite"),
        ([(-1.0, math.nan), (1.0, 1.0)], "atom values and masses must be finite"),
        ([(0.0, 0.0), (1.0, 1.0)], "atom masses must be positive"),
        ([(0.0, -0.5), (1.0, 1.5)], "atom masses must be positive"),
        ([(-1.0, 0.0), (1.0, 1.0)], "atom masses must be positive"),
        ([(1.0, 0.5), (1.0, 0.5), (-2.0, 0.0)], "atom masses must be positive"),
        ([(-1.0, 0.5), (1.0, 0.5)], "atom values must be nonnegative"),
        ([(1.0, 0.5), (1.0, 0.5)], "atom values must be distinct"),
        ([(0.0, 0.3), (1.0, 0.3)], "atom masses sum to 0.6, not 1"),
    ])
    def test_discrete(self, atoms, message):
        with pytest.raises(InvalidInstanceError) as info:
            Distribution.discrete(atoms)
        assert str(info.value) == message

    @pytest.mark.parametrize("points, message", [
        ([(0.0, 0.0)], "piecewise CDF needs at least two points"),
        ([(0.0, math.nan), (1.0, 1.0)], "cdf points must be finite"),
        ([(math.nan, 0.0), (1.0, 1.0)], "cdf points must be finite"),
        ([(0.0, 0.0), (math.inf, 1.0)], "cdf points must be finite"),
        ([(-math.inf, 0.0), (1.0, 1.0)], "cdf points must be finite"),
        ([(0.0, 0.0), (1.0, -math.inf)], "cdf points must be finite"),
        ([(0.0, 0.0), (0.0, 1.0)], "cdf breakpoints must be strictly increasing in x"),
        ([(1.0, 0.0), (0.0, 1.0)], "cdf breakpoints must be strictly increasing in x"),
        ([(1.0, 1.0), (0.0, 0.0)], "cdf breakpoints must be strictly increasing in x"),
        ([(0.0, 0.0), (1.0, 0.6), (2.0, 0.5), (3.0, 1.0)], "cdf values must be nondecreasing"),
        ([(-1.0, 0.5), (1.0, 0.4), (2.0, 1.0)], "cdf values must be nondecreasing"),
        ([(-1.0, 0.0), (1.0, 1.0)], "support must be nonnegative"),
        ([(-1.0, -0.5), (1.0, 1.0)], "support must be nonnegative"),
        ([(0.0, -0.1), (1.0, 1.0)], "cdf must start >= 0 and end at 1"),
        ([(0.0, 0.0), (1.0, 0.9)], "cdf must start >= 0 and end at 1"),
    ])
    def test_piecewise(self, points, message):
        with pytest.raises(InvalidInstanceError) as info:
            Distribution.piecewise(points)
        assert str(info.value) == message


class TestWideLaw:
    def test_mean_past_1e154_is_finite(self):
        # uniform on [0, 1e300]: E[V 1{lo <= V < hi}] = (hi^2 - lo^2) / 2e300
        d = Distribution.piecewise([(0.0, 0.0), (1e300, 1.0)])
        got = d.mean_between([0.0, 0.0, 2.5e299], [np.inf, 5e299, 7.5e299])
        np.testing.assert_allclose(got, [5e299, 1.25e299, 2.5e299], rtol=1e-15)
        assert d.mean_between(0.0, np.inf) == pytest.approx(5e299, rel=1e-15)


class TestJsonReader:
    """The reader builds each law with the constructor of its type, from
    numbers given as doubles or as their decimal strings."""

    @given(atom_lists(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_atoms_read_as_the_discrete_constructor_builds_them(self, atoms, as_text):
        cell = repr if as_text else float
        got = distribution_from_json(
            {"type": "discrete", "atoms": [[cell(v), cell(p)] for v, p in atoms]})
        assert same_law(got, Distribution.discrete(atoms))

    @given(point_lists(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_points_read_as_the_piecewise_constructor_builds_them(self, points, as_text):
        cell = repr if as_text else float
        got = distribution_from_json(
            {"type": "piecewise", "points": [[cell(x), cell(F)] for x, F in points]})
        assert same_law(got, Distribution.piecewise(points))


def same_law(a, b) -> bool:
    """True when the two laws' arrays are equal bit for bit."""
    return all(_hex(x) == _hex(y) for x, y in ((a.xs, b.xs), (a.Fl, b.Fl), (a.Fr, b.Fr)))

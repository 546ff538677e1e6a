"""The Gauss-Legendre node generator: exactness, symmetry, agreement with
numpy at small orders, accuracy at large ones, and the per-order cache."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import legendre

from prophetlab import expected_value, instance_from_json, make_single_threshold, opt_law
from prophetlab.quadrature import leggauss

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORDERS = (1, 2, 3, 7, 64, 514, 4098)


@pytest.mark.parametrize("g", ORDERS)
def test_nodes_ascend_symmetric_weights_positive_sum_to_two(g):
    nodes, weights = leggauss(g)
    assert nodes.shape == weights.shape == (g,)
    assert np.all(np.diff(nodes) > 0) and -1.0 < nodes[0] and nodes[-1] < 1.0
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert np.all(weights > 0)
    assert abs(weights.sum() - 2.0) <= 1e-14


def test_nodes_match_numpy_up_to_order_100():
    for g in range(1, 101):
        want, _ = legendre.leggauss(g)
        assert np.max(np.abs(leggauss(g)[0] - want)) <= 1e-14, g


@pytest.mark.parametrize("g", ORDERS[:-1])
def test_every_monomial_up_to_degree_2g_minus_1(g):
    nodes, weights = leggauss(g)
    for j in range(2 * g):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        # relative to int |x|^j = 2/(j+1), since the odd moments vanish
        assert abs(weights @ nodes**j - exact) <= 1e-12 * 2.0 / (j + 1), (g, j)


def test_top_degree_at_order_4098():
    # numpy's eigen-solve reaches only 2.8e-10 here
    g = 4098
    nodes, weights = leggauss(g)
    j = 2 * g - 1
    exact = 2.0 / (j + 1)
    assert abs(weights @ ((1.0 + nodes) / 2.0) ** j - exact) <= 1e-12 * exact


def test_cached_per_order_and_read_only():
    nodes, weights = leggauss(33)
    again = leggauss(33)
    assert again[0] is nodes and again[1] is weights
    for arr in again:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("g", [0, -2])
def test_rejects_order_below_one(g):
    with pytest.raises(ValueError, match="order"):
        leggauss(g)


def test_single_threshold_at_n_8192_matches_reference():
    # mixed-four at k = 2048: N = 8192 rewards, a 4098-point rule
    law, k = "mixed-four", 2048
    specs = _load("workloads").LAWS[law]
    ref = _load("reference")
    want = ref.policy_value(k, ref.single_threshold(ref.laws_of(specs)))
    inst = instance_from_json({"base": specs, "copies": k})
    got = expected_value(inst, make_single_threshold(opt_law(inst))).estimate
    assert got == pytest.approx(want, rel=1e-12)  # numpy's nodes: 2.9e-11

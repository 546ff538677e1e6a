"""The names the benchmark's layer tracer keys its metrics on, and the one-pass
Monte Carlo exceedance those metrics count.

``perfbench/trace_layers.py`` wraps functions by name from outside the
program; a renamed function silently drops out of its per-layer metric.  The
tracer imports only the standard library, so it is loaded here by path.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from prophetlab import exact_oracle, monte_carlo
from prophetlab import (
    ActivationPolicy,
    Distribution,
    ExactEvaluator,
    McConfig,
    RandomizedThreshold,
    ThresholdSchedule,
    ValueBuckets,
    estimate_exceedance,
    estimate_value_and_no_stop,
    make_adaptive,
    make_instance,
    opt_law,
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"

# removed on purpose: the one-x exact query, replaced by exceedance_many, and
# the no-stop estimate, read from estimate_value_and_no_stop; the tracer
# counts a name it cannot find as zero calls
RETIRED = {"exact_oracle.ExactEvaluator.exceedance", "monte_carlo.estimate_no_stop"}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(name):
    layer, *path = name.split(".")
    obj = importlib.import_module(f"prophetlab.{layer}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_every_keyed_name_resolves():
    keyed = _tracer_module().KEYED
    for name in sorted((keyed | {"exact_oracle.leggauss"}) - RETIRED):
        assert callable(_resolve(name)), name


@pytest.mark.parametrize("family", [None, 1, 400], ids=["policy", "family-of-1", "family-of-400"])
def test_evaluator_takes_its_nodes_through_the_module_name(monkeypatch, family):
    # the tracer counts exact_oracle.nodes_calls by rebinding this name, and
    # exact_oracle.init_calls by wrapping ExactEvaluator.__init__: one call
    # of each per construction, however many slices the family takes
    calls = []
    nodes = exact_oracle.leggauss

    def counting(g):
        calls.append(g)
        return nodes(g)

    monkeypatch.setattr(exact_oracle, "leggauss", counting)
    inst = make_instance([COIN, TRI], 5)
    policy = _policies(inst)["threshold"]
    g = inst.total_rewards // 2 + 2
    if family is None:
        ExactEvaluator(inst, policy)
    else:
        stack = policy.piece_stack(0)
        policies = [ThresholdSchedule((0.0, t, 1.0), stack)
                    for t in np.linspace(0.0, 1.0, family + 2)[1:-1].tolist()]
        assert family == 1 or family > 2 * exact_oracle._TABLE_DOUBLES // (inst.n * 2 * g)
        ExactEvaluator(inst, policies)
    assert calls == [g]


def test_retired_names_are_gone():
    for name in RETIRED:
        with pytest.raises(AttributeError):
            _resolve(name)


COIN = Distribution.discrete([(0.0, 0.5), (1.0, 0.5)])
TRI = Distribution.discrete([(0.0, 0.2), (1.0, 0.5), (3.0, 0.3)])
U02 = Distribution.piecewise([(0.0, 0.0), (2.0, 1.0)])


def _policies(inst):
    sched = ThresholdSchedule(
        (0.0, 0.4, 1.0), (RandomizedThreshold(1.0, 0.3), RandomizedThreshold(0.5, 0.0))
    )
    act = ActivationPolicy(
        (0.0, 0.5, 1.0),
        tuple(
            tuple(ValueBuckets((0.5, 1.5), (0.0, g, 1.0)) for _ in range(inst.n))
            for g in (0.25, 0.75)
        ),
    )
    return {
        "threshold": sched,
        "activation": act,
        "adaptive": make_adaptive(opt_law(inst), inst, math.exp(-4)),
    }


def _one_statistic_run(inst, policy, statistic, cfg):
    """(estimate, half-width) of one statistic of (selected, stopped) from a
    simulation of its own, summing it per block in block order."""
    total = total_sq = 0.0
    done = block = 0
    while done < cfg.replications:
        nrep = min(monte_carlo._BLOCK, cfg.replications - done)
        xs = statistic(*monte_carlo._simulate_block(
            inst, policy, monte_carlo._acceptance_table(inst, policy), cfg.master_seed, block,
            nrep
        ))
        total += float(xs.sum())
        total_sq += float((xs * xs).sum())
        done += nrep
        block += 1
    R = cfg.replications
    mean = total / R
    return mean, 2.5758293035489004 * math.sqrt(max(total_sq / R - mean * mean, 0.0) / R)


def _per_x_run(inst, policy, x, cfg):
    """Pr[selected > x], summing the 0/1 statistic per block as a one-x
    estimator does."""
    return _one_statistic_run(
        inst, policy, lambda selected, stopped: (selected > x).astype(float), cfg
    )


@pytest.mark.parametrize("kind", ["threshold", "activation", "adaptive"])
def test_one_pass_exceedance_equals_one_x_runs(kind):
    # 17,000 reps span three blocks, so block-order accumulation is exercised
    inst = make_instance([COIN, TRI, U02], 3)
    policy = _policies(inst)[kind]
    cfg = McConfig(17_000, 41)
    xs = np.array([-1.0, 0.0, 0.5, 1.0, 1.0, 1.7, 3.0, 4.0])
    many = estimate_exceedance(inst, policy, xs, cfg)
    assert len(many) == len(xs)
    for x, got in zip(xs, many):
        (one,) = estimate_exceedance(inst, policy, [x], cfg)
        assert got == one, x
        assert (got.estimate, got.half_width) == _per_x_run(inst, policy, x, cfg), x
    assert 0.0 < many[1].estimate < 1.0 and many[-1].estimate == 0.0


@pytest.mark.parametrize("kind", ["threshold", "activation", "adaptive"])
def test_value_and_no_stop_equal_one_statistic_runs(kind):
    inst = make_instance([COIN, TRI, U02], 3)
    policy = _policies(inst)[kind]
    cfg = McConfig(17_000, 43)
    value, no_stop = estimate_value_and_no_stop(inst, policy, cfg)
    want_value = _one_statistic_run(inst, policy, lambda s, st: s, cfg)
    want_no_stop = _one_statistic_run(inst, policy, lambda s, st: (~st).astype(float), cfg)
    assert (value.estimate, value.half_width) == want_value
    assert (no_stop.estimate, no_stop.half_width) == want_no_stop
    assert 0.0 < no_stop.estimate < 1.0

"""The benchmark's inputs: the ten regression laws and the command list of
each workload.

The laws are written out here rather than taken from
``prophetlab.experiments.regression_instances()``, so that the benchmark's
inputs and its reference checks do not depend on the code under test.  This
module imports nothing from ``prophetlab`` and nothing outside the standard
library, because the workload process imports it before the first operation.
"""

from __future__ import annotations

import math
import os

_COIN = {"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.5]]}
_U01 = {"type": "piecewise", "points": [[0.0, 0.0], [1.0, 1.0]]}
_ONE = {"type": "discrete", "atoms": [[1.0, 1.0]]}

LAWS: dict[str, list[dict]] = {
    "fair-coin": [_COIN],
    "point-mass": [_ONE],
    "det-plus-risky": [_ONE, {"type": "discrete", "atoms": [[0.0, 0.3], [1.5, 0.7]]}],
    "uniform": [_U01],
    "wide-uniform-plus-atom": [
        {"type": "piecewise", "points": [[0.0, 0.0], [2.0, 1.0]]},
        _ONE,
    ],
    "three-point": [{"type": "discrete", "atoms": [[0.0, 0.2], [1.0, 0.5], [3.0, 0.3]]}],
    "two-piecewise": [
        _U01,
        {"type": "piecewise", "points": [[0.0, 0.0], [0.5, 0.2], [1.5, 1.0]]},
    ],
    "mixed-four": [
        _COIN,
        _U01,
        {"type": "discrete", "atoms": [[0.5, 0.5], [2.0, 0.5]]},
        {"type": "piecewise", "points": [[0.0, 0.0], [1.0, 0.6], [2.0, 1.0]]},
    ],
    "skewed-discrete": [
        {"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.25], [2.0, 0.25]]},
        {"type": "discrete", "atoms": [[1.0, 0.4], [2.0, 0.6]]},
    ],
    "tiered": [
        {"type": "discrete", "atoms": [[1.0, 0.4], [2.0, 0.6]]},
        {"type": "discrete", "atoms": [[0.0, 0.7], [3.0, 0.3]]},
        {"type": "piecewise", "points": [[0.0, 0.0], [3.0, 1.0]]},
    ],
}

WORKLOADS = ("exact-blind", "exact-scale", "monte-carlo", "certificates")
SIZES = ("full", "tiny")

# exp(-4), written with 17 significant digits so the CLI parses it exactly
ADAPTIVE_EPSILON = format(math.exp(-4.0), ".17g")


class Op:
    """One CLI command of a workload.

    ``check`` names the output check in ``checks.py``; ``params`` carries
    what that check needs to know about the inputs.  ``fault`` is set on the
    operations that fail every time because of a known fault in the program;
    the benchmark counts them as failed instead of as wrong.
    """

    def __init__(self, name, argv, check, params=None, fault=None):
        self.name = name
        self.argv = list(argv)
        self.check = check
        self.params = dict(params or {})
        self.fault = fault

    def to_json(self) -> dict:
        return {"name": self.name, "argv": self.argv, "check": self.check,
                "params": self.params, "fault": self.fault}


def instance_path(indir: str, law: str) -> str:
    return os.path.join(indir, f"{law}.json")


def _exact_blind(indir, size, seed):
    eps, k = 0.05, 6  # paper_bound_k("blind", 0.05) == 6
    laws = list(LAWS) if size == "full" else ["fair-coin", "det-plus-risky", "two-piecewise"]
    ops = []
    for law in laws:
        inst = instance_path(indir, law)
        common = ["--instance", inst, "--class", "blind", "--epsilon", str(eps), "--k", str(k)]
        params = {"law": law, "k": k, "epsilon": eps, "algorithm_class": "blind"}
        ops.append(Op(f"eval-blind/{law}", ["eval", *common], "eval_blind", params))
        ops.append(Op(f"dominance-blind/{law}", ["dominance", *common], "dominance_blind", params))
    for law in laws:
        inst = instance_path(indir, law)
        ops.append(Op(
            f"search-k-blind/{law}",
            ["search-k", "--instance", inst, "--class", "blind", "--epsilon", "0.01"],
            "search_k_blind",
            {"law": law, "epsilon": 0.01, "algorithm_class": "blind"},
        ))
    return ops


def _exact_scale(indir, size, seed):
    ladder = (256, 512, 1024, 2048) if size == "full" else (16, 32)
    dom_k = 1024 if size == "full" else 32
    inst = instance_path(indir, "mixed-four")
    ops = [
        Op(f"eval-single/k{k}",
           ["eval", "--instance", inst, "--class", "single", "--k", str(k)],
           "eval_single", {"law": "mixed-four", "k": k})
        for k in ladder
    ]
    ops.append(Op(
        f"dominance-single/k{dom_k}",
        ["dominance", "--instance", inst, "--class", "single", "--epsilon", "0.1",
         "--k", str(dom_k)],
        "dominance_single",
        {"law": "mixed-four", "k": dom_k, "epsilon": 0.1},
    ))
    return ops


def _monte_carlo(indir, size, seed):
    laws = ["fair-coin", "det-plus-risky", "uniform", "three-point", "tiered"]
    reps, dom_reps = (200_000, 20_000) if size == "full" else (20_000, 4_000)
    if size != "full":
        laws = laws[:2]
    ops = [
        Op(f"eval-adaptive/{law}",
           ["eval", "--instance", instance_path(indir, law), "--class", "adaptive",
            "--epsilon", ADAPTIVE_EPSILON, "--k", "16", "--reps", str(reps),
            "--seed", str(seed)],
           "eval_adaptive",
           {"law": law, "k": 16, "epsilon": float(ADAPTIVE_EPSILON), "reps": reps,
            "seed": seed})
        for law in laws
    ]
    ops.append(Op(
        "dominance-single-mc/det-plus-risky",
        ["dominance", "--instance", instance_path(indir, "det-plus-risky"), "--class",
         "single", "--evaluator", "mc", "--epsilon", "0.1", "--k", "4",
         "--reps", str(dom_reps), "--seed", str(seed)],
        "dominance_single_mc",
        {"law": "det-plus-risky", "k": 4, "epsilon": 0.1, "reps": dom_reps, "seed": seed},
    ))
    return ops


def _certificates(indir, size, seed):
    ops = [
        Op("hardness/time-based", ["hardness", "--class", "time-based"],
           "hardness_two_type", {"suite": "time-based", "k": 25}),
        Op("hardness/activation", ["hardness", "--class", "activation"],
           "hardness_two_type", {"suite": "activation", "k": 61}),
        Op("hardness/general", ["hardness", "--class", "general"],
           "hardness_general", {"k": 4}),
        Op("lemmas/200", ["lemmas", "--trials", "200", "--seed", "7"],
           "lemmas", {"trials": 200, "seed": 7}),
        Op("lemmas/1000", ["lemmas", "--trials", "1000", "--seed", "0"],
           "lemmas", {"trials": 1000, "seed": 0},
           fault="LemmaSuiteReport.all_hold returns numpy.bool_, which cli._write_json "
                 "cannot serialise (TypeError)"),
        Op("hardness/general-k10", ["hardness", "--class", "general", "--k", "10"],
           "hardness_general", {"k": 10},
           fault="hardness_general works at 60 dps while eps = e^-400, so k=10 is "
                 "reported NOT certified (exit 2)"),
    ]
    return ops


_BUILDERS = {
    "exact-blind": _exact_blind,
    "exact-scale": _exact_scale,
    "monte-carlo": _monte_carlo,
    "certificates": _certificates,
}


def operations(workload: str, indir: str, size: str, seed: int) -> list[Op]:
    """The fixed command list of one round of ``workload``.

    Only the Monte Carlo seeds depend on ``seed``; the exact workloads run
    the same commands for every seed.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return _BUILDERS[workload](indir, size, seed)


def laws_used(ops: list[Op]) -> list[str]:
    return sorted({op.params["law"] for op in ops if "law" in op.params})

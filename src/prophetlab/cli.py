"""Command-line front end.

Each run writes three artifacts to the output directory: ``results.csv``
(one row per grid point / per k / per trial), ``summary.json`` (headline
numbers: E[OPT], the closed-form copy bound, evaluator method, half-widths),
and ``manifest.json`` (config echo, seed, package versions).  Floats in the
CSV carry 17 significant digits so reruns diff cleanly.

Exit status: 0 on success, 1 on usage/config errors (bad flags, missing or
malformed files), 2 when a check the command performs fails (dominance margin
violated, hardness certificate not established, lemma slack negative).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys

import mpmath
import numpy as np

from . import __version__
from .errors import ConfigError, ProphetLabError
from .experiments import (
    DominanceReport,
    build_policy,
    dominance_check,
    hardness_activation,
    hardness_general,
    hardness_time_based,
    lemma_suite,
    paper_bound_k,
    search_k,
)
from .exact_oracle import expected_value_activation, expected_value_threshold
from .instance import Instance, OptLaw, instance_from_json, make_instance, opt_law
from .monte_carlo import McConfig, estimate_expected_value
from .policies import ActivationPolicy, AdaptiveTwoThreshold, ValueBuckets

OUTPUT_DIR_ENV = "PROPHETLAB_OUT"

_ALGO_CLASSES = ("single", "blind", "adaptive", "activation")
_HARDNESS_SUITES = ("time-based", "activation", "general")


# ------------------------------------------------------------- persistence


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(outdir: str, args: argparse.Namespace) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    _write_json(
        os.path.join(outdir, "manifest.json"),
        {
            "command": args.command,
            "config": config,
            "seed": getattr(args, "seed", None),
            "versions": {
                "artifact": __version__,
                "mpmath": mpmath.__version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
        },
    )


def _resolve_outdir(args: argparse.Namespace) -> str:
    outdir = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    return outdir


# ----------------------------------------------------------- input loading


def _read_json(path: str, what: str):
    if not os.path.exists(path):
        raise ConfigError(f"{what} file not found: {path}")
    if os.path.isdir(path):
        raise ConfigError(f"{what} path is a directory, not a file: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


def _load_instance(path: str, k_override: int | None) -> Instance:
    inst = instance_from_json(_read_json(path, "instance"))
    if k_override is not None:
        if k_override < 1:
            raise ConfigError("--k must be a positive integer")
        inst = make_instance(list(inst.base), k_override)
    return inst


def _activation_from_json(obj: dict, n: int) -> ActivationPolicy:
    """Activation tables from {"pieces": [{"t0", "t1", "g": [[i, edge, prob], ...]}]}.

    Each (identity, edge, prob) triple contributes one value bucket closed on
    the left at the previous edge; the tail bucket uses ``null`` as its edge
    and must come last for every identity that appears.  Identities with no
    entries in a piece never activate there.
    """
    try:
        pieces = sorted(obj["pieces"], key=lambda p: float(p["t0"]))
        breakpoints = [float(p["t0"]) for p in pieces] + [float(pieces[-1]["t1"])]
        tables = []
        for piece in pieces:
            per_id: dict[int, list[tuple[float | None, float]]] = {}
            for ident, edge, prob in piece["g"]:
                entry = (None if edge is None else float(edge), float(prob))
                per_id.setdefault(int(ident), []).append(entry)
            row = []
            for i in range(n):
                entries = per_id.get(i)
                if not entries:
                    row.append(ValueBuckets((), (0.0,)))
                    continue
                if entries[-1][0] is not None or any(e is None for e, _ in entries[:-1]):
                    raise ConfigError(
                        "activation bucket lists must end with a single null-edge tail entry"
                    )
                edges = tuple(e for e, _ in entries[:-1])
                probs = tuple(p for _, p in entries)
                row.append(ValueBuckets(edges, probs))
            tables.append(tuple(row))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"malformed activation policy spec: {exc}") from exc
    return ActivationPolicy(tuple(breakpoints), tuple(tables))


def _build_cli_policy(args: argparse.Namespace, inst: Instance, opt: OptLaw):
    if args.algorithm_class == "activation":
        if not args.policy:
            raise ConfigError("--class activation needs --policy pointing at a table file")
        return _activation_from_json(_read_json(args.policy, "policy"), inst.n)
    if args.algorithm_class == "adaptive" and args.epsilon is None:
        raise ConfigError("--class adaptive needs --epsilon")
    eps = args.epsilon if args.epsilon is not None else 0.1
    return build_policy(inst, opt, args.algorithm_class, eps, args.grid)


def _mc_config(args: argparse.Namespace) -> McConfig:
    return McConfig(replications=args.reps, master_seed=args.seed)


# ----------------------------------------------------------------- commands


def _cmd_eval(args: argparse.Namespace, outdir: str) -> int:
    inst = _load_instance(args.instance, args.k)
    opt = opt_law(inst)
    policy = _build_cli_policy(args, inst, opt)
    evaluator = args.evaluator
    if isinstance(policy, AdaptiveTwoThreshold) and evaluator == "exact":
        evaluator = "mc"  # no product-form oracle for the adaptive rule
    if evaluator == "exact":
        if isinstance(policy, ActivationPolicy):
            res = expected_value_activation(inst, policy)
        else:
            res = expected_value_threshold(inst, policy)
    else:
        res = estimate_expected_value(inst, policy, _mc_config(args))
    _write_csv(
        os.path.join(outdir, "results.csv"),
        ("k", "estimate", "half_width", "method", "replications", "seed"),
        [(inst.copies, res.estimate, res.half_width, res.method, res.replications, res.seed)],
    )
    summary = {
        "command": "eval",
        "algorithm_class": args.algorithm_class,
        "k": inst.copies,
        "opt_value": opt.expected_value,
        "estimate": res.estimate,
        "half_widths": [res.half_width],
        "method": res.method,
        "replications": res.replications,
    }
    if args.epsilon is not None and args.algorithm_class in ("single", "blind", "adaptive"):
        summary["epsilon"] = args.epsilon
        summary["paper_bound_k"] = paper_bound_k(args.algorithm_class, args.epsilon)
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return 0


def _cmd_search_k(args: argparse.Namespace, outdir: str) -> int:
    if args.epsilon is None:
        raise ConfigError("search-k needs --epsilon")
    if args.algorithm_class == "activation":
        raise ConfigError("search-k supports the single, blind, and adaptive classes")
    inst = _load_instance(args.instance, None)
    mc = _mc_config(args) if (args.evaluator == "mc" or args.algorithm_class == "adaptive") else None
    result = search_k(
        list(inst.base),
        args.epsilon,
        args.algorithm_class,
        evaluator=args.evaluator,
        mc=mc,
        grid_resolution=args.grid,
    )
    _write_csv(
        os.path.join(outdir, "results.csv"),
        ("k", "estimate", "half_width", "method"),
        [(k, r.estimate, r.half_width, r.method) for k, r in result.per_k],
    )
    _write_json(
        os.path.join(outdir, "summary.json"),
        {
            "command": "search-k",
            "algorithm_class": result.algorithm_class,
            "epsilon": result.epsilon,
            "found_k": result.found_k,
            "paper_bound_k": result.paper_bound_k,
            "opt_value": result.opt_value,
            "target": result.target,
            "method": result.per_k[-1][1].method,
            "half_widths": [r.half_width for _, r in result.per_k],
        },
    )
    return 0


def _dominance_tolerance(args: argparse.Namespace, report: DominanceReport) -> float:
    tol = 1e-4 if args.algorithm_class == "blind" else 1e-6
    return tol + report.half_width


def _cmd_dominance(args: argparse.Namespace, outdir: str) -> int:
    if args.epsilon is None:
        raise ConfigError("dominance needs --epsilon")
    inst = _load_instance(args.instance, args.k)
    opt = opt_law(inst)
    policy = _build_cli_policy(args, inst, opt)
    evaluator = args.evaluator
    if isinstance(policy, AdaptiveTwoThreshold) and evaluator == "exact":
        evaluator = "mc"
    mc = _mc_config(args) if evaluator == "mc" else None
    report = dominance_check(inst, policy, args.epsilon, evaluator=evaluator, mc=mc, opt=opt)
    _write_csv(
        os.path.join(outdir, "results.csv"),
        ("quantile", "x", "p_alg", "p_opt_scaled", "margin"),
        report.rows,
    )
    summary = {
        "command": "dominance",
        "algorithm_class": args.algorithm_class,
        "epsilon": report.epsilon,
        "k": inst.copies,
        "opt_value": opt.expected_value,
        "min_margin": report.min_margin,
        "method": report.evaluator,
        "half_widths": [report.half_width],
    }
    if args.algorithm_class in ("single", "blind", "adaptive"):
        summary["paper_bound_k"] = paper_bound_k(args.algorithm_class, args.epsilon)
    _write_json(os.path.join(outdir, "summary.json"), summary)
    if report.min_margin < -_dominance_tolerance(args, report):
        print(f"dominance check FAILED: min margin {report.min_margin:.6g}", file=sys.stderr)
        return 2
    return 0


def _cmd_hardness(args: argparse.Namespace, outdir: str) -> int:
    suite = args.algorithm_class
    if suite is None or suite not in _HARDNESS_SUITES:
        raise ConfigError(f"hardness needs --class, one of {', '.join(_HARDNESS_SUITES)}")
    if suite == "general":
        report = hardness_general(**({"k": args.k} if args.k else {}))
        columns = (
            "k",
            "bad_order",
            "dp_value",
            "log_gap",
            "ceiling_log_gap",
            "stirling_ok",
            "three_p_ok",
        )
        rows = [
            (
                report.k,
                str(report.bad_order),
                report.dp_value,
                report.log_gap,
                report.ceiling_log_gap,
                report.stirling_ok,
                report.three_p_ok,
            )
        ]
        summary = {
            "command": "hardness",
            "suite": suite,
            "k": report.k,
            "bad_order": str(report.bad_order),
            "dp_value": report.dp_value,
            "log_gap": report.log_gap,
            "ceiling_log_gap": report.ceiling_log_gap,
            "certified": report.certified,
            "method": "exact",
            "half_widths": [0.0],
        }
        certified = report.certified
    else:
        fn = hardness_time_based if suite == "time-based" else hardness_activation
        kwargs = {}
        if args.k:
            kwargs["k"] = args.k
        if args.grid != 512:  # 512 is the CLI default, meant for quantile grids
            kwargs["grid_points"] = args.grid
        report = fn(**kwargs)
        columns = report.columns
        rows = report.rows
        summary = {
            "command": "hardness",
            "suite": suite,
            "k": report.k,
            "p": report.p,
            "log_epsilon": report.log_epsilon,
            "min_log_gap": report.min_log_gap,
            "certified": report.certified,
            "arithmetic_ok": report.arithmetic_ok,
            "closed_form_abs_err": report.closed_form_abs_err,
            "method": "exact",
            "half_widths": [0.0],
        }
        certified = report.certified and report.arithmetic_ok
    _write_csv(os.path.join(outdir, "results.csv"), columns, rows)
    _write_json(os.path.join(outdir, "summary.json"), summary)
    if not certified:
        print(f"hardness suite '{suite}' NOT certified", file=sys.stderr)
        return 2
    return 0


def _cmd_lemmas(args: argparse.Namespace, outdir: str) -> int:
    report = lemma_suite(args.seed, trials=args.trials)
    _write_csv(os.path.join(outdir, "results.csv"), report.columns, report.rows)
    min_slack = min(
        report.min_slack_product,
        report.min_slack_pair_root,
        report.min_slack_corollary,
        report.min_slack_reach,
        report.min_slack_monotone,
    )
    _write_json(
        os.path.join(outdir, "summary.json"),
        {
            "command": "lemmas",
            "trials": report.trials,
            "seed": report.seed,
            "min_slack": min_slack,
            "min_slack_product": report.min_slack_product,
            "min_slack_pair_root": report.min_slack_pair_root,
            "min_slack_corollary": report.min_slack_corollary,
            "min_slack_reach": report.min_slack_reach,
            "min_slack_monotone": report.min_slack_monotone,
            "max_symmetric_gap": report.max_symmetric_gap,
            "all_hold": report.all_hold,
            "method": "exact",
            "half_widths": [0.0],
        },
    )
    if not report.all_hold:
        print(f"lemma suite FAILED: min slack {min_slack:.6g}", file=sys.stderr)
        return 2
    return 0


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_common(p: argparse.ArgumentParser, *, instance: bool) -> None:
    if instance:
        p.add_argument("--instance", required=True, help="instance JSON file")
        p.add_argument("--k", type=int, default=None, help="override the copy count")
        p.add_argument(
            "--class",
            dest="algorithm_class",
            choices=_ALGO_CLASSES,
            default="single",
            help="algorithm class",
        )
        p.add_argument("--epsilon", type=float, default=None, help="target gap in (0, 1/e]")
        p.add_argument("--evaluator", choices=("exact", "mc"), default="exact")
        p.add_argument("--policy", default=None, help="activation table JSON (class=activation)")
        p.add_argument("--grid", type=int, default=512, help="schedule grid resolution")
    p.add_argument("--reps", type=int, default=200_000, help="Monte Carlo replications")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=None, help=f"output dir (default ${OUTPUT_DIR_ENV} or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prophetlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="expected value of one policy on one instance")
    _add_common(p, instance=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("search-k", help="smallest copy count reaching (1-eps) E[OPT]")
    _add_common(p, instance=True)
    p.set_defaults(func=_cmd_search_k)

    p = sub.add_parser("dominance", help="pointwise exceedance check on an OPT-quantile grid")
    _add_common(p, instance=True)
    p.set_defaults(func=_cmd_dominance)

    p = sub.add_parser("hardness", help="lower-bound certificates at fixed parameters")
    p.add_argument("--class", dest="algorithm_class", choices=_HARDNESS_SUITES, required=True)
    p.add_argument("--k", type=int, default=None, help="suite parameter k")
    p.add_argument("--grid", type=int, default=512, help="sweep grid points")
    _add_common(p, instance=False)
    p.set_defaults(func=_cmd_hardness)

    p = sub.add_parser("lemmas", help="randomized exact checks of the structural inequalities")
    p.add_argument("--trials", type=int, default=200)
    _add_common(p, instance=False)
    p.set_defaults(func=_cmd_lemmas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        outdir = _resolve_outdir(args)
        status = args.func(args, outdir)
        _write_manifest(outdir, args)
        return status
    except ProphetLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

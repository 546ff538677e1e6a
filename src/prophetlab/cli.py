"""Command-line front end.

A command writes nothing: it returns the header and rows of ``results.csv``
(one row per grid point / per k / per trial), the fields of ``summary.json``
(headline numbers: E[OPT], the closed-form copy bound, evaluator method,
half-widths) and the one-line message of a check that failed.  ``main`` alone
writes the three artifacts to the output directory, the summary with the
command name added and ``manifest.json`` (config echo, seed, package
versions) beside them.  Floats in the CSV carry 17 significant digits so
reruns diff cleanly.

Exit status: 0 on success, 1 on usage/config errors (bad flags, missing or
malformed files, an output directory or artifact that cannot be written, a
summary number that is NaN or infinite, in which case nothing is written), 2
when a check the command performs fails (dominance margin violated, hardness
certificate not established, lemma slack negative).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys

import mpmath
import numpy as np

from . import __version__
from .errors import ConfigError, ProphetLabError
from .experiments import (
    build_policy,
    dominance_check,
    expected_value,
    hardness_activation,
    hardness_general,
    hardness_time_based,
    lemma_suite,
    paper_bound_k,
    search_k,
)
from .instance import Instance, OptLaw, instance_from_json, make_instance, opt_law
from .monte_carlo import McConfig
from .policies import ActivationPolicy, Policy, ValueBuckets

OUTPUT_DIR_ENV = "PROPHETLAB_OUT"

_ALGO_CLASSES = ("single", "blind", "adaptive", "activation")
_HARDNESS_SUITES = ("time-based", "activation", "general")


# ------------------------------------------------------------- persistence


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _numpy_scalar(obj):
    """A numpy scalar as its Python twin, for ``json.dumps``."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


def _json_text(obj: dict) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                          default=_numpy_scalar) + "\n"
    except ValueError as exc:  # a NaN or infinite float
        raise ConfigError(f"the result is not a finite number, nothing written: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _log_or_null(log: float) -> float | None:
    """A log gap for summary.json: the log of a non-positive gap is NaN, written as null."""
    return None if math.isnan(log) else log


def _manifest(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    return {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "versions": {
            "artifact": __version__,
            "mpmath": mpmath.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


def _resolve_outdir(args: argparse.Namespace) -> str:
    outdir = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: {exc.strerror}") from exc
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
    and must come last for every identity that appears.  Identities must be
    integers (``1.0`` reads as 1) in 0..n-1; one with no entries in a piece
    never activates there.
    """
    try:
        pieces = sorted(obj["pieces"], key=lambda p: float(p["t0"]))
        for piece, nxt in zip(pieces, pieces[1:]):
            if float(piece["t1"]) != float(nxt["t0"]):
                raise ConfigError(
                    f"activation piece [{piece['t0']}, {piece['t1']}) must end where the "
                    f"next piece starts ({nxt['t0']})"
                )
        breakpoints = [float(p["t0"]) for p in pieces] + [float(pieces[-1]["t1"])]
        tables = []
        for piece in pieces:
            per_id: dict[int, list[tuple[float | None, float]]] = {}
            for ident, edge, prob in piece["g"]:
                if isinstance(ident, float) and ident.is_integer():
                    ident = int(ident)
                if type(ident) is not int or not 0 <= ident < n:
                    raise ConfigError(
                        f"activation identity {ident!r} is not an integer in 0..{n - 1}"
                    )
                entry = (None if edge is None else float(edge), float(prob))
                per_id.setdefault(ident, []).append(entry)
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
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ConfigError(f"malformed activation policy spec: {exc}") from exc
    return ActivationPolicy(tuple(breakpoints), tuple(tables))


def _load_problem(args: argparse.Namespace) -> tuple[Instance, OptLaw, Policy]:
    """The instance (with ``--k``), its OPT law and the ``--class`` policy."""
    inst = _load_instance(args.instance, args.k)
    opt = opt_law(inst)
    if args.algorithm_class == "activation":
        if not args.policy:
            raise ConfigError("--class activation needs --policy pointing at a table file")
        return inst, opt, _activation_from_json(_read_json(args.policy, "policy"), inst.n)
    if args.algorithm_class == "adaptive" and args.epsilon is None:
        raise ConfigError("--class adaptive needs --epsilon")
    eps = args.epsilon if args.epsilon is not None else 0.1
    return inst, opt, build_policy(inst, opt, args.algorithm_class, eps, args.grid)


def _bound_fields(args: argparse.Namespace) -> dict:
    """The summary's ``epsilon``, when given, and the class's closed-form copy
    bound at it; the activation class has no such bound."""
    fields = {} if args.epsilon is None else {"epsilon": args.epsilon}
    if fields and args.algorithm_class != "activation":
        fields["paper_bound_k"] = paper_bound_k(args.algorithm_class, args.epsilon)
    return fields


def _mc_config(args: argparse.Namespace) -> McConfig:
    return McConfig(replications=args.reps, master_seed=args.seed)


# ----------------------------------------------------------------- commands


def _cmd_eval(args: argparse.Namespace):
    inst, opt, policy = _load_problem(args)
    res = expected_value(inst, policy, args.evaluator, _mc_config(args))
    rows = [(inst.copies, res.estimate, res.half_width, res.method, res.replications, res.seed)]
    summary = {
        "algorithm_class": args.algorithm_class,
        "k": inst.copies,
        "opt_value": opt.expected_value,
        "estimate": res.estimate,
        "half_widths": [res.half_width],
        "method": res.method,
        "replications": res.replications,
        **_bound_fields(args),
    }
    return ("k", "estimate", "half_width", "method", "replications", "seed"), rows, summary, None


def _cmd_search_k(args: argparse.Namespace):
    if args.epsilon is None:
        raise ConfigError("search-k needs --epsilon")
    if args.algorithm_class == "activation":
        raise ConfigError("search-k supports the single, blind, and adaptive classes")
    inst = _load_instance(args.instance, None)
    result = search_k(list(inst.base), args.epsilon, args.algorithm_class, args.evaluator,
                      mc=_mc_config(args), grid_resolution=args.grid)
    rows = [(k, r.estimate, r.half_width, r.method) for k, r in result.per_k]
    summary = {
        "algorithm_class": result.algorithm_class,
        "epsilon": result.epsilon,
        "found_k": result.found_k,
        "paper_bound_k": result.paper_bound_k,
        "opt_value": result.opt_value,
        "target": result.target,
        "method": result.per_k[-1][1].method,
        "half_widths": [r.half_width for _, r in result.per_k],
    }
    return ("k", "estimate", "half_width", "method"), rows, summary, None


def _cmd_dominance(args: argparse.Namespace):
    if args.epsilon is None:
        raise ConfigError("dominance needs --epsilon")
    inst, opt, policy = _load_problem(args)
    report = dominance_check(
        inst, policy, args.epsilon, evaluator=args.evaluator, mc=_mc_config(args), opt=opt
    )
    summary = {
        "algorithm_class": args.algorithm_class,
        "k": inst.copies,
        "opt_value": opt.expected_value,
        "min_margin": report.min_margin,
        "method": report.evaluator,
        "half_widths": [report.half_width],
        **_bound_fields(args),
    }
    tolerance = (1e-4 if args.algorithm_class == "blind" else 1e-6) + report.half_width
    failed = report.min_margin < -tolerance
    failure = f"dominance check FAILED: min margin {report.min_margin:.6g}" if failed else None
    columns = ("quantile", "x", "p_alg", "p_opt_scaled", "margin")
    return columns, report.rows, summary, failure


def _cmd_hardness(args: argparse.Namespace):
    suite = args.algorithm_class
    if suite == "general" and args.grid is not None:
        raise ConfigError("hardness --class general has no sweep grid; drop --grid")
    # looked up per call, as the names may be rebound (perfbench's tracer does)
    fn = {"time-based": hardness_time_based, "activation": hardness_activation,
          "general": hardness_general}[suite]
    given = {"k": args.k, "grid_points": args.grid}
    report = fn(**{key: v for key, v in given.items() if v is not None})
    summary = {
        "suite": suite,
        "k": report.k,
        "certified": report.certified,
        "method": "exact",
        "half_widths": [0.0],
    }
    if suite == "general":
        columns = (
            "k", "bad_order", "dp_value", "log_gap", "ceiling_log_gap", "stirling_ok", "three_p_ok"
        )
        rows = [tuple(getattr(report, c) for c in columns)]
        summary.update(
            bad_order=str(report.bad_order),
            dp_value=report.dp_value,
            log_gap=_log_or_null(report.log_gap),
            ceiling_log_gap=_log_or_null(report.ceiling_log_gap),
            dps=report.dps,
        )
        certified = report.certified
    else:
        columns, rows = report.columns, report.rows
        summary.update(
            p=report.p,
            log_epsilon=report.log_epsilon,
            min_log_gap=_log_or_null(report.min_log_gap),
            arithmetic_ok=report.arithmetic_ok,
            closed_form_abs_err=report.closed_form_abs_err,
        )
        certified = report.certified and report.arithmetic_ok
    failure = None if certified else f"hardness suite '{suite}' NOT certified"
    return columns, rows, summary, failure


def _cmd_lemmas(args: argparse.Namespace):
    report = lemma_suite(args.seed, trials=args.trials)
    summary = {
        "trials": report.trials,
        "seed": report.seed,
        "min_slack": report.min_slack,
        "min_slack_product": report.min_slack_product,
        "min_slack_pair_root": report.min_slack_pair_root,
        "min_slack_corollary": report.min_slack_corollary,
        "min_slack_reach": report.min_slack_reach,
        "min_slack_monotone": report.min_slack_monotone,
        "max_symmetric_gap": report.max_symmetric_gap,
        "all_hold": report.all_hold,
        "method": "exact",
        "half_widths": [0.0],
    }
    failure = None if report.all_hold else f"lemma suite FAILED: min slack {report.min_slack:.6g}"
    return report.columns, report.rows, summary, failure


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_problem(p: argparse.ArgumentParser, *, one_policy: bool) -> None:
    """The flags that name an instance, a policy class and its evaluator;
    ``one_policy`` adds ``--k`` and ``--policy``, which fix the copy count and
    the activation table of a single policy."""
    p.add_argument("--instance", required=True, help="instance JSON file")
    if one_policy:
        p.add_argument("--k", type=int, default=None, help="override the copy count")
        p.add_argument("--policy", default=None, help="activation table JSON (class=activation)")
    p.add_argument(
        "--class", dest="algorithm_class", choices=_ALGO_CLASSES, default="single",
        help="algorithm class",
    )
    p.add_argument("--epsilon", type=_finite_float, default=None, help="target gap in (0, 1/e]")
    p.add_argument("--evaluator", choices=("exact", "mc"), default="exact")
    p.add_argument("--grid", type=int, default=512, help="schedule grid resolution")
    p.add_argument("--reps", type=int, default=200_000, help="Monte Carlo replications")
    p.add_argument("--seed", type=int, default=0, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the flags its command reads."""
    parser = _Parser(prog="prophetlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="expected value of one policy on one instance")
    _add_problem(p, one_policy=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("search-k", help="smallest copy count reaching (1-eps) E[OPT]")
    _add_problem(p, one_policy=False)
    p.set_defaults(func=_cmd_search_k)

    p = sub.add_parser("dominance", help="pointwise exceedance check on an OPT-quantile grid")
    _add_problem(p, one_policy=True)
    p.set_defaults(func=_cmd_dominance)

    p = sub.add_parser("hardness", help="lower-bound certificates at fixed parameters")
    p.add_argument("--class", dest="algorithm_class", choices=_HARDNESS_SUITES, required=True)
    p.add_argument("--k", type=int, default=None, help="suite parameter k")
    p.add_argument("--grid", type=int, default=None, help="sweep grid points (default per suite)")
    p.set_defaults(func=_cmd_hardness)

    p = sub.add_parser("lemmas", help="randomized exact checks of the structural inequalities")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.set_defaults(func=_cmd_lemmas)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help=f"output dir (default ${OUTPUT_DIR_ENV} or .)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        outdir = _resolve_outdir(args)
        columns, rows, summary, failure = args.func(args)
        # serialised first, so a non-finite result leaves no artifact behind
        summary_text = _json_text({"command": args.command, **summary})
        manifest_text = _json_text(_manifest(args))
        try:
            _write_csv(os.path.join(outdir, "results.csv"), columns, rows)
            _write_text(os.path.join(outdir, "summary.json"), summary_text)
            _write_text(os.path.join(outdir, "manifest.json"), manifest_text)
        except OSError as exc:
            where = exc.filename or outdir
            raise ConfigError(f"cannot write {where}: {exc.strerror or exc}") from exc
    except ProphetLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if failure is not None:
        print(failure, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

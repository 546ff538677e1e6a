"""Command-line front end.

A command writes nothing: it returns the header and rows of ``results.csv``
(one row per grid point / per k / per trial), the fields of ``summary.json``
(headline numbers: E[OPT], the closed-form copy bound, evaluator method,
half-widths) and the one-line message of a check that failed.  ``main`` alone
writes the three artifacts to the output directory, the summary with the
command name added and ``manifest.json`` (config echo, seed, versions)
beside them.  The versions are the package's, Python's and those of the
libraries the command computed with: numpy always, mpmath for ``hardness``
only.  A launch imports no more than that, so ``eval``, ``search-k``,
``dominance`` and ``lemmas`` never load mpmath, and it builds the argument
parser of its own command only (all five for ``--help`` or a missing or
unknown command).  Floats in the CSV carry 17 significant digits so reruns
diff cleanly.

All three artifacts are rendered before the first is written, and each is
then written through a truncating open.  The writes are not atomic: a run
that stops part way can leave a file cut short, and an artifact that cannot
be written leaves those before it rewritten.

Exit status: 0 on success, 1 on usage/config errors (bad flags, missing or
malformed files, an output directory or artifact that cannot be written, a
summary number that is NaN or infinite, in which case nothing is written), 2
when a check the command performs fails (dominance margin violated, hardness
certificate not established, lemma slack negative).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, ProphetLabError
from .experiments import (
    CheckReport,
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
from .policies import ActivationPolicy, BucketStack, Policy

OUTPUT_DIR_ENV = "PROPHETLAB_OUT"

_ALGO_CLASSES = ("single", "blind", "adaptive", "activation")
_HARDNESS_SUITES = ("time-based", "activation", "general")


# ------------------------------------------------------------- persistence


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()


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


def _manifest(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    versions = {"artifact": __version__, "numpy": np.__version__,
                "python": platform.python_version()}
    if args.command == "hardness":  # the one command that computes with mpmath
        import mpmath  # already loaded by the suite

        versions["mpmath"] = mpmath.__version__
    return {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "versions": versions,
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
        inst = make_instance(list(inst.base), k_override)
    return inst


def _activation_from_json(obj: dict, n: int) -> ActivationPolicy:
    """Activation tables from {"pieces": [{"t0", "t1", "g": [[i, edge, prob], ...]}]}.

    Each (identity, edge, prob) triple contributes one value bucket closed on
    the left at the previous edge; the tail bucket uses ``null`` as its edge
    and must come last for every identity that appears.  Identities must be
    integers (``1.0`` reads as 1) in 0..n-1, each with one ``BucketStack`` of
    its buckets in all pieces; one with no entries in a piece never
    activates there.
    """
    try:
        pieces = obj.get("pieces") if isinstance(obj, dict) else None
        if not (isinstance(pieces, list) and pieces and all(isinstance(p, dict) for p in pieces)):
            raise ConfigError('"pieces" must be a non-empty list of {"t0", "t1", "g"} objects')
        for piece in pieces:  # float reads true as 1, so JSON's booleans are refused as times
            for key in ("t0", "t1"):
                if isinstance(piece.get(key), bool):
                    raise ConfigError(f"activation piece time {key} must be a number, "
                                      f"not {json.dumps(piece[key])}")
        pieces = sorted(pieces, key=lambda p: float(p["t0"]))
        for piece, nxt in zip(pieces, pieces[1:]):
            if float(piece["t1"]) != float(nxt["t0"]):
                raise ConfigError(
                    f"activation piece [{piece['t0']}, {piece['t1']}) must end where the "
                    f"next piece starts ({nxt['t0']})"
                )
        breakpoints = [float(p["t0"]) for p in pieces] + [float(pieces[-1]["t1"])]
        rows: list[list] = [[] for _ in range(n)]  # per identity, (edges, probs) per piece
        for piece in pieces:
            if not isinstance(piece["g"], list):
                raise ConfigError('"g" must be a list of [identity, edge, prob] entries')
            per_id: dict[int, list[tuple[float | None, float]]] = {}
            for entry in piece["g"]:
                if not (isinstance(entry, list) and len(entry) == 3):
                    raise ConfigError(
                        f"activation entry {json.dumps(entry)} is not [identity, edge, prob]")
                ident, edge, prob = entry
                if isinstance(ident, float) and ident.is_integer():
                    ident = int(ident)
                if type(ident) is not int or not 0 <= ident < n:
                    raise ConfigError(
                        f"activation identity {ident!r} is not an integer in 0..{n - 1}")
                # float reads true as 1, so JSON's booleans are refused as numbers here
                if isinstance(edge, bool) or isinstance(prob, (bool, type(None))):
                    raise ConfigError(f"activation entry {json.dumps(entry)} needs a number as "
                                      "prob and as edge (null for the tail)")
                entry = (None if edge is None else float(edge), float(prob))
                per_id.setdefault(ident, []).append(entry)
            for i, row in enumerate(rows):
                entries = per_id.get(i)
                if not entries:
                    row.append(((), (0.0,)))
                    continue
                if entries[-1][0] is not None or any(e is None for e, _ in entries[:-1]):
                    raise ConfigError(
                        "activation bucket lists must end with a single null-edge tail entry"
                    )
                row.append((tuple(e for e, _ in entries[:-1]), tuple(p for _, p in entries)))
        stacks = tuple(BucketStack(row) for row in rows)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ConfigError(f"malformed activation policy spec: {exc}") from exc
    return ActivationPolicy(tuple(breakpoints), stacks)


def _load_problem(args: argparse.Namespace) -> tuple[Instance, OptLaw, Policy]:
    """The instance (with ``--k``), its OPT law and the ``--class`` policy."""
    inst = _load_instance(args.instance, args.k)
    opt = opt_law(inst)
    if args.algorithm_class == "activation":
        if not args.policy:
            raise ConfigError("--class activation needs --policy pointing at a table file")
        return inst, opt, _activation_from_json(_read_json(args.policy, "policy"), inst.n)
    if args.policy is not None:
        raise ConfigError(f"--policy is read by --class activation only, not --class "
                          f"{args.algorithm_class}")
    if args.algorithm_class == "adaptive" and args.epsilon is None:
        raise ConfigError("--class adaptive needs --epsilon")
    return inst, opt, build_policy(inst, opt, args.algorithm_class, args.epsilon, args.grid)


def _bound_fields(args: argparse.Namespace, *, where_defined: bool = False) -> dict:
    """The summary's ``epsilon``, when given, and the class's closed-form copy
    bound at it; the activation class has no such bound.  The bound needs
    epsilon <= 1/e: ``paper_bound_k`` refuses a larger one, unless
    ``where_defined`` asks to leave the bound out there."""
    fields = {} if args.epsilon is None else {"epsilon": args.epsilon}
    if fields and args.algorithm_class != "activation":
        if not (where_defined and args.epsilon > 1.0 / math.e):
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
        **_bound_fields(args, where_defined=True),  # dominance checks any epsilon in (0, 1)
    }
    tolerance = (1e-4 if args.algorithm_class == "blind" else 1e-6) + report.half_width
    failed = report.min_margin < -tolerance
    failure = f"dominance check FAILED: min margin {report.min_margin:.6g}" if failed else None
    columns = ("quantile", "x", "p_alg", "p_opt_scaled", "margin")
    return columns, report.rows, summary, failure


def _check_outputs(report: CheckReport):
    """A check command's outputs: every number of a check is exact."""
    summary = {**report.summary, "method": "exact", "half_widths": [0.0]}
    return report.columns, report.rows, summary, report.failure


def _cmd_hardness(args: argparse.Namespace):
    if args.algorithm_class == "general" and args.grid is not None:
        raise ConfigError("hardness --class general has no sweep grid; drop --grid")
    # looked up per call, as the names may be rebound (perfbench's tracer does)
    fn = {"time-based": hardness_time_based, "activation": hardness_activation,
          "general": hardness_general}[args.algorithm_class]
    given = {"k": args.k, "grid_points": args.grid}
    return _check_outputs(fn(**{key: v for key, v in given.items() if v is not None}))


def _cmd_lemmas(args: argparse.Namespace):
    return _check_outputs(lemma_suite(args.seed, trials=args.trials))


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


def _add_hardness(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="algorithm_class", choices=_HARDNESS_SUITES, required=True)
    p.add_argument("--k", type=int, default=None, help="suite parameter k")
    p.add_argument("--grid", type=int, default=None, help="sweep grid points (default per suite)")


def _add_lemmas(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help="master seed")


# each command: its help line, the function adding its flags, and its body
_COMMANDS = {
    "eval": ("expected value of one policy on one instance",
             lambda p: _add_problem(p, one_policy=True), _cmd_eval),
    "search-k": ("smallest copy count reaching (1-eps) E[OPT]",
                 lambda p: _add_problem(p, one_policy=False), _cmd_search_k),
    "dominance": ("pointwise exceedance check on an OPT-quantile grid",
                  lambda p: _add_problem(p, one_policy=True), _cmd_dominance),
    "hardness": ("lower-bound certificates at fixed parameters", _add_hardness, _cmd_hardness),
    "lemmas": ("randomized exact checks of the structural inequalities", _add_lemmas,
               _cmd_lemmas),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """One subparser per command, each with only the flags its command reads;
    given a ``command``, the subparser of that command alone."""
    parser = _Parser(prog="prophetlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, add_flags, cmd) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_)
            add_flags(p)
            p.add_argument("--out", default=None,
                           help=f"output dir (default ${OUTPUT_DIR_ENV} or .)")
            p.set_defaults(func=cmd)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a launch builds the parser of its own command only; --help and a missing
    # or unknown command build all five, so the usage lists every command
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        outdir = _resolve_outdir(args)
        columns, rows, summary, failure = args.func(args)
        # serialised first, so a non-finite result leaves no artifact behind
        texts = {"results.csv": _csv_text(columns, rows),
                 "summary.json": _json_text({"command": args.command, **summary}),
                 "manifest.json": _json_text(_manifest(args))}
        try:
            for name, text in texts.items():
                _write_text(os.path.join(outdir, name), text)
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

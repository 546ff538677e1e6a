"""Self-test of the benchmark: every check must reject a perturbed output.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It runs each workload at its tiny size
through ``run.py``, untraced and traced, then for every operation's output:

* the untouched output passes its check;
* each perturbation listed below for that check (an E[ALG] shifted by 1e-3,
  a dominance row with a flipped sign, ``certified: false``, ...) is
  rejected, so that no check passes vacuously.

It also checks that the traced run reports every per-layer metric, with
non-zero counts for the layers each workload exercises, and that ``run.py``
exits non-zero without printing a result when the program's sources are
missing.  Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import trace_layers  # noqa: E402
import workloads  # noqa: E402
from run import OUT_DIR  # noqa: E402

FAILURES: list[str] = []


def expect(cond, message):
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        FAILURES.append(message)


def run_bench(workload, trace, cwd=None):
    script = os.path.join(os.path.basename(HERE), "run.py")
    cmd = [sys.executable, script, "--workload", workload, "--seed", "5", "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd or os.getcwd(), capture_output=True, text=True,
                          timeout=600)


# ------------------------------------------------------------ perturbations


def _set(row, j, value):
    row[j] = format(value, ".17g")


def shift_estimate(delta):
    def mutate(header, rows, s):
        s["estimate"] += delta
        _set(rows[0], 1, s["estimate"])
    return mutate


def set_estimate(fn):
    def mutate(header, rows, s):
        s["estimate"] = fn(s)
        _set(rows[0], 1, s["estimate"])
    return mutate


def summary_field(key, fn):
    def mutate(header, rows, s):
        s[key] = fn(s[key])
    return mutate


def dominance_row(col, fn, keep_margin=True):
    """Change column ``col`` of the row with the largest |margin|; with
    ``keep_margin`` the margin is recomputed so only the reference can tell."""
    def mutate(header, rows, s):
        j = max(range(len(rows)), key=lambda i: abs(float(rows[i][4])))
        row = rows[j]
        _set(row, col, fn(float(row[col])))
        if keep_margin:
            _set(row, 4, float(row[2]) - float(row[3]))
        s["min_margin"] = min(float(r[4]) for r in rows)
    return mutate


def search_k_drop_last(header, rows, s):
    """Claim the last k before the one that reached the target (or k = 0)."""
    rows.pop()
    s["found_k"] = int(rows[-1][0]) if rows else 0
    s["half_widths"].pop()


def row_field(j, column, fn):
    def mutate(header, rows, s):
        col = header.index(column)
        _set(rows[j], col, fn(float(rows[j][col])))
    return mutate


def general_row(fn):
    def mutate(header, rows, s):
        s["dp_value"] = fn(s["dp_value"])
        _set(rows[0], 2, s["dp_value"])
    return mutate


def _adaptive_target(s):
    eps = s["epsilon"]
    return (1.0 - eps) * s["opt_value"] - 2.0 * s["half_widths"][0] - 1e-9


PERTURBATIONS = {
    "eval_single": [
        ("E[ALG] + 1e-3", shift_estimate(1e-3)),
        ("opt_value * (1 + 1e-6)", summary_field("opt_value", lambda v: v * (1 + 1e-6))),
    ],
    "eval_blind": [
        ("E[ALG] - 1e-3", shift_estimate(-1e-3)),
        ("paper_bound_k + 1", summary_field("paper_bound_k", lambda v: v + 1)),
    ],
    "eval_adaptive": [
        ("E[ALG] below (1-eps) E[OPT] - half_width", set_estimate(_adaptive_target)),
        ("E[ALG] above E[max of all copies]", shift_estimate(10.0)),
        ("half_width * 100", summary_field("half_widths", lambda v: [v[0] * 100])),
    ],
    "dominance_single": [
        ("margin sign flipped", dominance_row(4, lambda v: -v, keep_margin=False)),
        ("p_alg + 1e-3", dominance_row(2, lambda v: v + 1e-3)),
        ("p_opt_scaled + 1e-9", dominance_row(3, lambda v: v + 1e-9)),
    ],
    "dominance_blind": [
        ("margin sign flipped", dominance_row(4, lambda v: -v, keep_margin=False)),
        ("p_alg - 1e-3", dominance_row(2, lambda v: v - 1e-3)),
        ("x moved off its quantile", dominance_row(1, lambda v: v + 0.5)),
    ],
    "dominance_single_mc": [
        ("margin sign flipped", dominance_row(4, lambda v: -v, keep_margin=False)),
        ("p_alg - 0.05", dominance_row(2, lambda v: v - 0.05)),
        ("half_width / 2", summary_field("half_widths", lambda v: [v[0] / 2])),
    ],
    "search_k_blind": [
        ("E[ALG] at k=1 + 1e-3", row_field(0, "estimate", lambda v: v + 1e-3)),
        ("found_k one too early", search_k_drop_last),
        ("found_k + 1", summary_field("found_k", lambda v: v + 1)),
    ],
    "hardness_two_type": [
        ("certified: false", summary_field("certified", lambda v: False)),
        ("p_top + 1e-6 on one row", row_field(5, "p_top", lambda v: v + 1e-6)),
        ("q_no_stop * 1.01 on one row", row_field(5, "q_no_stop", lambda v: v * 1.01)),
        ("log_gap + 1e-3 on one row", row_field(5, "log_gap", lambda v: v + 1e-3)),
    ],
    "hardness_general": [
        ("certified: false", summary_field("certified", lambda v: False)),
        ("dp_value * (1 + 1e-9)", general_row(lambda v: v * (1 + 1e-9))),
        ("bad_order 1/71", summary_field("bad_order", lambda v: "1/71")),
    ],
    "lemmas": [
        ("a slack of -1e-6", row_field(3, "slack_pair_root", lambda v: -1e-6)),
        ("all_hold: false", summary_field("all_hold", lambda v: False)),
        ("a trial row missing", lambda h, rows, s: rows.pop()),
    ],
}


def write_outputs(outdir, header, rows, summary):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "results.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh)


def check_perturbations(workload, scratch):
    out = os.path.join(OUT_DIR, workload)
    with open(os.path.join(out, "report-traced.json")) as fh:
        report = json.load(fh)
    ctx = checks.Context()
    for j, (spec, status) in enumerate(zip(report["ops"], report["status"])):
        op = workloads.Op(**spec)
        if status != 0:
            expect(op.fault is not None, f"{op.name}: fails only if it is a known fault")
            continue
        src = os.path.join(out, "ops", f"{j:02d}")
        expect(not checks.check_op(op, src, ctx), f"{op.name}: untouched output passes")
        header, rows, summary = checks.read_outputs(src)
        for label, mutate in PERTURBATIONS[op.check]:
            h, r, s = copy.deepcopy((header, rows, summary))
            mutate(h, r, s)
            dst = os.path.join(scratch, f"{j:02d}")
            write_outputs(dst, h, r, s)
            errs = checks.check_op(op, dst, ctx)
            expect(bool(errs), f"{op.name}: rejects {label}"
                   + (f" ({errs[0][:70]})" if errs else ""))


# ----------------------------------------------------------------- tracing

EXERCISED = {
    "exact-blind": ["instance.quantile_calls", "distributions.calls", "exact_oracle.init_calls",
                    "policies.build_s", "experiments.search_k_self_s",
                    "experiments.dominance_self_s"],
    "exact-scale": ["exact_oracle.nodes_calls", "exact_oracle.query_calls"],
    "monte-carlo": ["monte_carlo.calls", "monte_carlo.reps", "monte_carlo.reps_per_s",
                    "monte_carlo.s"],
    "certificates": ["exact_oracle.dp_s", "experiments.hardness_self_s",
                     "experiments.lemma_self_s", "exact_oracle.init_calls"],
}


def check_trace(workload, result, n_ops):
    metrics = result["metrics"]
    expect(set(metrics) == set(trace_layers.METRICS),
           f"{workload}: traced run reports every per-layer metric")
    for name in ["import.numpy_s", "import.prophetlab_s", "cli.self_s", *EXERCISED[workload]]:
        expect(metrics.get(name, {}).get("value", 0) > 0, f"{workload}: {name} > 0")
    expect(metrics["cli.commands"]["value"] == n_ops,
           f"{workload}: cli.commands counts the {n_ops} operations of a round")


def main() -> int:
    if not os.path.isfile(os.path.join("src", "prophetlab", "cli.py")):
        print("run from the root of a prophetlab checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(OUT_DIR, "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    for workload in workloads.WORKLOADS:
        n_ops = len(workloads.operations(workload, "in", "tiny", 5))
        want_failed = sum(op.fault is not None for op in workloads.operations(
            workload, "in", "tiny", 5))
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            lines = proc.stdout.strip().splitlines()
            ok = proc.returncode == 0 and lines and lines[-1].startswith("{")
            expect(ok, f"{workload} --trace {trace}: exits 0 with a result"
                   + ("" if ok else f"\n{proc.stderr[-1500:]}"))
            if not ok:
                continue
            result = json.loads(lines[-1])
            expect(result["correct"], f"{workload} --trace {trace}: outputs are correct")
            rounds = result["attempted"] // n_ops
            expect(result["attempted"] == rounds * n_ops
                   and result["failed"] == rounds * want_failed,
                   f"{workload} --trace {trace}: {want_failed} of {n_ops} operations fail "
                   f"per round ({result['failed']} of {result['attempted']})")
            if trace:
                check_trace(workload, result, n_ops)
        check_perturbations(workload, os.path.join(scratch, workload))

    bare = os.path.join(scratch, "bare")
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = run_bench("certificates", 0, cwd=bare)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without the program's sources run.py exits non-zero and prints no result")

    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

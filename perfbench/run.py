"""The benchmark command: one workload, measured, checked, reported as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in fresh Python
processes (``worker.py``) that import ``prophetlab`` from the checkout's
``src`` with the OpenBLAS/OpenMP pools pinned to one thread.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: interpreter start to the first operation (importing
  ``prophetlab.cli`` and writing the input files), the median of
  ``SETUP_LAUNCHES`` separate launches;
* ``wall_s``: start of the first operation to the end of the last one in a
  round, the median over the whole rounds that fit in ``--seconds``;
* ``peak_rss_mb``: the workload process's peak resident memory.

``--trace 1`` runs the workload once untraced and once with every layer
wrapped (``trace_layers.py``) and under ``-X importtime``, each for half of
``--seconds``, and reports the per-layer metrics and the tracing overhead.

After the processes have ended, every operation's output is checked
(``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
program's sources, or when a process fails or overruns, the run exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_LAUNCHES = 7
RUN_LIMIT = 170  # seconds; a run must end within 180
OUT_DIR = ".perfbench_out"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Bench:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.out = os.path.join(root, OUT_DIR, args.workload)
        self.deadline = time.monotonic() + RUN_LIMIT
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"
        # one BLAS/OpenMP thread, so that a workload uses one core and its
        # time does not depend on the second core being idle (README.md)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def launch(self, mode, seconds=0.0, trace=False):
        """Run one worker process to its end; returns (report, stderr, t_spawn)."""
        os.makedirs(self.out, exist_ok=True)
        report_path = os.path.join(self.out, f"report-{mode}.json")
        cfg_path = os.path.join(self.out, f"config-{mode}.json")
        a = self.args
        cfg = {"workload": a.workload, "seed": a.seed, "size": a.size, "mode": mode,
               "seconds": seconds, "trace": trace, "out": self.out, "report": report_path,
               "src": os.path.join(self.root, "src")}
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        if os.path.exists(report_path):
            os.remove(report_path)
        cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
               os.path.join(HERE, "worker.py"), cfg_path]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left for the {mode} process")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"the {mode} process overran the run's time limit") from exc
        if proc.returncode != 0 or not os.path.exists(report_path):
            raise BenchError(f"the {mode} process exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        with open(report_path) as fh:
            return json.load(fh), proc.stderr, t_spawn

    def setup_samples(self) -> list[float]:
        samples = []
        for _ in range(SETUP_LAUNCHES):
            report, _, t_spawn = self.launch("setup")
            samples.append(report["t_ready"] - t_spawn)
        return samples

    def untraced(self):
        setup = self.setup_samples()
        report, _, _ = self.launch("run", self.args.seconds)
        walls = [r["wall_s"] for r in report["rounds"]]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": report["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
        return metrics, [report], {"setup_samples_s": setup}

    def traced(self):
        """Untraced then traced worker, half of ``--seconds`` each."""
        import trace_layers

        half = self.args.seconds / 2.0
        plain, _, _ = self.launch("run", half)
        report, stderr, _ = self.launch("traced", half, trace=True)
        rounds = report["layers"]
        values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
        values.update(report["layers_total"])
        values.update(trace_layers.parse_importtime(stderr))
        plain_wall = statistics.median(r["wall_s"] for r in plain["rounds"])
        traced_wall = statistics.median(r["wall_s"] for r in report["rounds"])
        values["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in trace_layers.METRICS.items()}
        return metrics, [plain, report], {"traced_rounds": rounds}


def run_checks(report, out):
    """Check each operation that did not fail; known faults are not errors."""
    import checks  # numpy and mpmath load only here, outside every worker

    ctx = checks.Context()
    errors = {}
    for j, (spec, status) in enumerate(zip(report["ops"], report["status"])):
        op = workloads.Op(**spec)
        if status != 0:
            if op.fault is None:
                errors[op.name] = [f"operation failed unexpectedly: {status}"]
            continue
        errs = checks.check_op(op, os.path.join(out, "ops", f"{j:02d}"), ctx)
        if errs:
            errors[op.name] = errs
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every workload, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "prophetlab", "cli.py")):
        print("error: run from the root of a prophetlab checkout (src/prophetlab not found)",
              file=sys.stderr)
        return 2
    bench = Bench(args, root)
    try:
        metrics, reports, extra = bench.traced() if args.trace else bench.untraced()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # the outputs on disk are the last process's; every round of every
    # process must fail the same operations and replay the same bytes
    last = reports[-1]
    errors = run_checks(last, bench.out)
    per_round = sum(1 for s in last["status"] if s != 0)
    n_ops = len(last["ops"])
    attempted = failed = 0
    for report in reports:
        for r in report["rounds"]:
            attempted += n_ops
            failed += r["failed"]
            if r["failed"] != per_round:
                errors.setdefault("rounds", ["the failing operations differ between rounds"])
        for name in report["replay_mismatch"]:
            errors.setdefault(name, []).append("a later round's output differs from the first")

    rounds = reports[0]["rounds"]
    per_op = {op["name"]: statistics.median(r["op_s"][j] for r in rounds)
              for j, op in enumerate(last["ops"])}
    with open(os.path.join(bench.out, "result.json"), "w") as fh:
        json.dump({"metrics": metrics, "errors": errors, "round_walls_s":
                   [[r["wall_s"] for r in rep["rounds"]] for rep in reports],
                   "per_op_median_s": per_op, **extra}, fh, indent=1)
    for name, errs in errors.items():
        for e in errs[:5]:
            print(f"CHECK FAILED {name}: {e}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} round(s) of {n_ops} operations, {per_round} failing "
          f"per round, {len(errors)} with wrong output")
    for name, seconds in per_op.items():
        print(f"  op {name:40s} {seconds:.4f} s")
    for name, m in metrics.items():
        print(f"  {name:43s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

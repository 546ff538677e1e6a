"""One workload process: import the CLI, write the inputs, run rounds.

Started by ``run.py`` as ``python3 worker.py CONFIG.json`` in a fresh
interpreter with ``PYTHONPATH`` pointing at the checkout's ``src`` and the
BLAS/OpenMP pools pinned to one thread.  A round calls
``prophetlab.cli.main(argv)`` for every operation of the workload back to
back (a closed loop with one client).  The worker writes its measurements to
the report file named in the config; ``run.py`` checks the outputs after the
process has ended, so no check runs inside the timed region or adds to the
process's peak memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import prophetlab.cli

import workloads


def write_inputs(indir: str, laws) -> None:
    os.makedirs(indir, exist_ok=True)
    for law in laws:
        with open(workloads.instance_path(indir, law), "w") as fh:
            json.dump({"base": workloads.LAWS[law], "copies": 1}, fh)


def digest(outdir: str) -> str:
    h = hashlib.sha256()
    for name in ("results.csv", "summary.json"):
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_op(op, outdir: str):
    """(status, seconds): status is the exit code, or the exception's name."""
    t0 = time.perf_counter()
    try:
        status = prophetlab.cli.main([*op.argv, "--out", outdir])
    except Exception as exc:  # a crash is a failed operation, not a failed run
        status = f"{type(exc).__name__}: {exc}"
    return status, time.perf_counter() - t0


def main(config_path: str) -> int:
    with open(config_path) as fh:
        cfg = json.load(fh)
    src = os.path.realpath(cfg["src"])
    if not os.path.realpath(prophetlab.cli.__file__).startswith(src + os.sep):
        print(f"prophetlab was imported from {prophetlab.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    root = cfg["out"]
    indir = os.path.join(root, "inputs")
    ops = workloads.operations(cfg["workload"], indir, cfg["size"], cfg["seed"])
    write_inputs(indir, workloads.laws_used(ops))
    t_ready = time.monotonic()
    report = {"t_ready": t_ready}
    if cfg["mode"] == "setup":
        with open(cfg["report"], "w") as fh:
            json.dump(report, fh)
        return 0

    tracer = None
    if cfg["trace"]:
        import trace_layers

        tracer = trace_layers.Tracer()
        tracer.install()
    outdirs = [os.path.join(root, "ops", f"{j:02d}") for j in range(len(ops))]
    for d in outdirs:
        os.makedirs(d, exist_ok=True)

    rounds, statuses, digests, layer_rounds = [], None, None, []
    report["replay_mismatch"] = []
    budget = float(cfg["seconds"])
    t_begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        times, round_status = [], []
        t0 = time.perf_counter()
        for op, outdir in zip(ops, outdirs):
            status, dt = run_op(op, outdir)
            times.append(dt)
            round_status.append(status)
        wall = time.perf_counter() - t0
        # outside the timed region: replay must be byte-identical
        round_digests = [digest(d) if s == 0 else None for d, s in zip(outdirs, round_status)]
        if statuses is None:
            statuses, digests = round_status, round_digests
        for op, s, d, s0, d0 in zip(ops, round_status, round_digests, statuses, digests):
            if ((s == 0) != (s0 == 0) or d != d0) and op.name not in report["replay_mismatch"]:
                report["replay_mismatch"].append(op.name)
        rounds.append({"wall_s": wall, "op_s": times,
                       "failed": sum(1 for s in round_status if s != 0)})
        if tracer is not None:
            layer_rounds.append(tracer.round_metrics())
        elapsed = time.perf_counter() - t_begin
        typical = sorted(r["wall_s"] for r in rounds)[len(rounds) // 2]
        if elapsed + typical > budget:
            break

    report.update({
        "ops": [op.to_json() for op in ops],
        "status": statuses,
        "rounds": rounds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is not None:
        report["layers"] = layer_rounds
        report["layers_total"] = tracer.run_totals()
        tracer.write_spans(os.path.join(root, "spans.json"))
    with open(cfg["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

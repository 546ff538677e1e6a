"""Layer tracing from outside the program.

``Tracer.install()`` replaces the public functions and methods of each
``prophetlab`` module (the layers) with wrappers that count calls and record
spans (name, start, end, parent) kept in memory.  A call opens a span when it
crosses into another layer, or when its function is one whose own time a
metric reports (``KEYED``); a call within the same layer only counts, so the
deep call chains of the distribution layer do not each pay for a span.  A
span of an unnamed function that opened no span of its own is folded: its
time goes to its parent's record and to a per-name total instead of a record
of its own.  Self time is a span's duration minus that of its child spans.
The spans are written out when the workload process ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import resource
import sys
from time import perf_counter

LAYERS = ("cli", "distributions", "instance", "policies", "exact_oracle", "monte_carlo",
          "experiments")

QUERY = ("exact_oracle.ExactEvaluator.expected_value", "exact_oracle.ExactEvaluator.exceedance",
         "exact_oracle.ExactEvaluator.exceedance_many",
         "exact_oracle.ExactEvaluator.no_stop_prob")
MC = ("monte_carlo.estimate_expected_value", "monte_carlo.estimate_exceedance",
      "monte_carlo.estimate_no_stop")
BUILD = ("policies.make_single_threshold", "policies.make_blind_schedule",
         "policies.make_adaptive")
EXPERIMENTS = {
    "search_k": ("experiments.search_k",),
    "dominance": ("experiments.dominance_check",),
    "hardness": ("experiments.hardness_time_based", "experiments.hardness_activation",
                 "experiments.hardness_general"),
    "lemma": ("experiments.lemma_suite",),
}
OPT_LAW = "instance.OptLaw.__init__"
QUANTILE = "instance.OptLaw.quantile_threshold"
INIT = "exact_oracle.ExactEvaluator.__init__"
NODES = "exact_oracle.leggauss"
DP = "exact_oracle.optimal_online_value"
KEYED = {"cli.main", OPT_LAW, QUANTILE, INIT, NODES, DP, *QUERY, *MC, *BUILD,
         *(n for names in EXPERIMENTS.values() for n in names)}

# the per-layer metrics a traced run reports, with their units
METRICS = {
    "import.numpy_s": "s", "import.mpmath_s": "s", "import.prophetlab_s": "s",
    "cli.self_s": "s", "cli.commands": "count",
    "distributions.s": "s", "distributions.calls": "count",
    "instance.opt_law_s": "s", "instance.opt_law_calls": "count",
    "instance.quantile_s": "s", "instance.quantile_calls": "count",
    "policies.build_s": "s",
    "exact_oracle.init_s": "s", "exact_oracle.init_calls": "count",
    "exact_oracle.nodes_s": "s", "exact_oracle.nodes_calls": "count",
    "exact_oracle.init_rss_mb": "MB",
    "exact_oracle.query_s": "s", "exact_oracle.query_calls": "count",
    "exact_oracle.dp_s": "s",
    "monte_carlo.s": "s", "monte_carlo.calls": "count", "monte_carlo.reps": "count",
    "monte_carlo.reps_per_s": "1/s", "monte_carlo.minflt": "count",
    "experiments.search_k_self_s": "s", "experiments.dominance_self_s": "s",
    "experiments.hardness_self_s": "s", "experiments.lemma_self_s": "s",
    "trace.spans": "count", "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.leaf_time: list[float] = []  # per name: time of its folded leaf spans
        self.leaf_calls: list[int] = []
        # open spans as [layer, folded leaf time, has a kept child]; None at the bottom
        self.stack: list = [None]
        # kept spans of the current round in closing order: (name id, start,
        # end, own frame, parent frame); a child closes before its parent
        self.records: list[tuple] = []
        self.counters = {"mc_minflt": 0, "mc_reps": 0}  # per round
        self.init_rss_kb = 0  # over the whole process
        self.kept_rounds: list[tuple] = []

    # ----------------------------------------------------------- wrapping

    def _wrap(self, fn, name, layer, hook=None):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.leaf_time.append(0.0)
        self.leaf_calls.append(0)
        calls, stack, leaf_time, leaf_calls = self.calls, self.stack, self.leaf_time, self.leaf_calls
        tracer = self

        if name in KEYED:
            @functools.wraps(fn)
            def keyed(*args, **kwargs):
                calls[nid] += 1
                top = stack[-1]
                frame = [layer, 0.0, False]
                stack.append(frame)
                state = hook.before(args, kwargs) if hook else None
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    if hook:
                        hook.after(state)
                    stack.pop()
                    tracer.records.append((nid, t0, t1, frame, top))
                    if top is not None:
                        top[2] = True

            return keyed

        @functools.wraps(fn)
        def plain(*args, **kwargs):
            calls[nid] += 1
            top = stack[-1]
            if top is not None and top[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, False]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if frame[1] or frame[2]:
                    tracer.records.append((nid, t0, t1, frame, top))
                    if top is not None:
                        top[2] = True
                else:  # a leaf: fold it into its parent instead of keeping it
                    leaf_time[nid] += t1 - t0
                    leaf_calls[nid] += 1
                    if top is not None:
                        top[1] += t1 - t0

        return plain

    def install(self):
        """Wrap every public function and method of the layer modules and
        rebind each name that any ``prophetlab`` module holds for them."""
        import prophetlab.exact_oracle

        replaced = {}
        hooks = {INIT: _RssHook(self), **{name: _McHook(self) for name in MC}}
        for layer_id, layer in enumerate(LAYERS):
            module = sys.modules[f"prophetlab.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    replaced[obj] = self._wrap(obj, name, layer_id, hooks.get(name))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer, layer_id, hooks)
        oracle = prophetlab.exact_oracle
        oracle.leggauss = self._wrap(oracle.leggauss, NODES, LAYERS.index("exact_oracle"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "prophetlab" or mod_name.startswith("prophetlab."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(module, attr, replaced[obj])

    def _wrap_class(self, cls, layer, layer_id, hooks):
        if issubclass(cls, BaseException):
            return
        for attr, obj in list(vars(cls).items()):
            wanted = not attr.startswith("_") or (
                attr == "__init__" and not dataclasses.is_dataclass(cls))
            if not wanted:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                wrapped = self._wrap(obj.__func__, name, layer_id, hooks.get(name))
                setattr(cls, attr, type(obj)(wrapped))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(obj, name, layer_id, hooks.get(name)))

    # -------------------------------------------------------- aggregation

    def reset(self):
        """Start a round: clear spans and counts (names stay)."""
        self.records = []
        for table in (self.calls, self.leaf_time, self.leaf_calls):
            for i in range(len(table)):
                table[i] = 0
        for key in self.counters:
            self.counters[key] = 0

    def _spans(self):
        """The round's kept spans as (name id, parent index, start, end,
        folded leaf time), parents resolved to indices in closing order."""
        index = {id(rec[3]): i for i, rec in enumerate(self.records)}
        return [(nid, -1 if top is None else index[id(top)], t0, t1, frame[1])
                for nid, t0, t1, frame, top in self.records]

    def _self_and_total(self, spans):
        child = [folded for *_, folded in spans]
        for _, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl = dict(enumerate(self.leaf_time))
        selft = dict(enumerate(self.leaf_time))
        for i, (nid, _, t0, t1, _) in enumerate(spans):
            incl[nid] += t1 - t0
            selft[nid] += t1 - t0 - child[i]
        layer_self = [0.0] * len(LAYERS)
        for nid, s in selft.items():
            layer_self[self.layer_of[nid]] += s
        return incl, selft, layer_self

    def round_metrics(self) -> dict:
        """Per-layer metrics of the round that just ended; keeps its spans."""
        spans = self._spans()
        incl, selft, layer_self = self._self_and_total(spans)
        ids = {name: i for i, name in enumerate(self.names)}

        def total(table, names):
            return sum(table.get(ids[n], 0.0) for n in names if n in ids)

        def count(names):
            return sum(self.calls[ids[n]] for n in names if n in ids)

        def layer_calls(layer):
            lid = LAYERS.index(layer)
            return sum(c for c, l in zip(self.calls, self.layer_of) if l == lid)

        mc_s = total(incl, MC)
        out = {
            "cli.self_s": total(selft, ["cli.main"]),
            "cli.commands": count(["cli.main"]),
            "distributions.s": layer_self[LAYERS.index("distributions")],
            "distributions.calls": layer_calls("distributions"),
            "instance.opt_law_s": total(incl, [OPT_LAW]),
            "instance.opt_law_calls": count([OPT_LAW]),
            "instance.quantile_s": total(incl, [QUANTILE]),
            "instance.quantile_calls": count([QUANTILE]),
            "policies.build_s": total(selft, BUILD),
            "exact_oracle.init_s": total(incl, [INIT]),
            "exact_oracle.init_calls": count([INIT]),
            "exact_oracle.nodes_s": total(incl, [NODES]),
            "exact_oracle.nodes_calls": count([NODES]),
            "exact_oracle.query_s": total(incl, QUERY),
            "exact_oracle.query_calls": count(QUERY),
            "exact_oracle.dp_s": total(incl, [DP]),
            "monte_carlo.s": layer_self[LAYERS.index("monte_carlo")],
            "monte_carlo.calls": count(MC),
            "monte_carlo.reps": self.counters["mc_reps"],
            "monte_carlo.reps_per_s": self.counters["mc_reps"] / mc_s if mc_s > 0 else 0.0,
            "monte_carlo.minflt": self.counters["mc_minflt"],
            "trace.spans": len(spans) + sum(self.leaf_calls),
        }
        for key, names in EXPERIMENTS.items():
            out[f"experiments.{key}_self_s"] = total(selft, names)
        self.kept_rounds.append((spans, list(self.leaf_time), list(self.leaf_calls)))
        return out

    def run_totals(self) -> dict:
        """Metrics taken over the whole process rather than per round."""
        return {"exact_oracle.init_rss_mb": self.init_rss_kb / 1024.0}

    def write_spans(self, path: str) -> None:
        """The kept spans of every round as [name, parent, request, start,
        end, folded_s] in closing order; ``request`` numbers, in time order,
        the CLI command a span belongs to within its round, ``folded_s`` is
        the time of the leaf spans folded into it, and ``leaves`` totals
        those per name."""
        with open(path, "w") as fh:
            fh.write('{"names": ' + json.dumps(self.names) + ', "layers": '
                     + json.dumps([LAYERS[i] for i in self.layer_of]) + ', "rounds": [\n')
            for r, (spans, leaf_time, leaf_calls) in enumerate(self.kept_rounds):
                root = list(range(len(spans)))
                for i in reversed(range(len(spans))):  # parents close after children
                    if spans[i][1] >= 0:
                        root[i] = root[spans[i][1]]
                roots = sorted({root[i] for i in range(len(spans))}, key=lambda i: spans[i][2])
                rank = {i: n for n, i in enumerate(roots)}
                rows = [[nid, parent, rank[root[i]], round(t0, 7), round(t1, 7), round(folded, 7)]
                        for i, (nid, parent, t0, t1, folded) in enumerate(spans)]
                leaves = {self.names[i]: [c, round(t, 7)]
                          for i, (c, t) in enumerate(zip(leaf_calls, leaf_time)) if c}
                fh.write(("," if r else "") + json.dumps({"spans": rows, "leaves": leaves}) + "\n")
            fh.write("]}\n")


class _RssHook:
    """Growth of the process's peak resident memory during a call."""

    def __init__(self, tracer):
        self.tracer = tracer

    def before(self, args, kwargs):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def after(self, state):
        self.tracer.init_rss_kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - state


class _McHook:
    """Replications and minor page faults of a Monte Carlo estimate."""

    def __init__(self, tracer):
        self.tracer = tracer

    def before(self, args, kwargs):
        cfg = next((a for a in (*args, *kwargs.values()) if hasattr(a, "replications")), None)
        if cfg is not None:
            self.tracer.counters["mc_reps"] += cfg.replications
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def after(self, state):
        self.tracer.counters["mc_minflt"] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - state


def parse_importtime(stderr: str) -> dict:
    """Import breakdown from ``python -X importtime``: numpy and mpmath as
    their cumulative import time, prophetlab as the cumulative time of its
    outermost modules less the numpy and mpmath imports they triggered."""
    cumulative, outer = {}, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        seconds = int(parts[1]) / 1e6
        cumulative.setdefault(name, seconds)
        if name == "prophetlab" or name.startswith("prophetlab."):
            indent = len(parts[2]) - len(parts[2].lstrip())
            outer.setdefault(indent, []).append(seconds)
    numpy_s = cumulative.get("numpy", 0.0)
    mpmath_s = cumulative.get("mpmath", 0.0)
    own = sum(outer[min(outer)]) if outer else 0.0
    return {"import.numpy_s": numpy_s, "import.mpmath_s": mpmath_s,
            "import.prophetlab_s": own - numpy_s - mpmath_s}

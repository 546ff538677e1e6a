"""CLI fuzz: ``eval`` and ``dominance`` on generated instance and activation
JSON, one or two of whose values are replaced by NaN, infinities, strings or
other non-numbers.  Whatever the input, the run ends with exit 0, 1 or 2 and
no traceback, exit 1 says why in one line, and every JSON artifact written is
strict JSON."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prophetlab.cli import main

LAWS = (
    {"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
    {"type": "discrete", "atoms": [[1.0, 0.4], [2.0, 0.6]]},
    {"type": "piecewise", "points": [[0.0, 0.0], [1.0, 1.0]]},
    {"type": "piecewise", "points": [[0.0, 0.0], [0.5, 0.2], [1.5, 1.0]]},
)

TABLE = {
    "pieces": [
        {"t0": 0.0, "t1": 0.4, "g": [[0, 0.5, 0.2], [0, None, 1.0], [1, None, 0.5]]},
        {"t0": 0.4, "t1": 1.0, "g": [[0, None, 0.7], [1, 1.0, 0.0], [1, None, 1.0]]},
    ]
}

# NaN and the infinities as JSON tokens and as strings, non-numbers, and finite values
WILD = st.one_of(
    st.sampled_from([float("nan"), "nan", float("inf"), "inf", float("-inf"), "-inf"]),
    st.sampled_from(["1e999", "x", "", None, True, [], {}]),
    st.floats(min_value=-2.0, max_value=3.0),
    st.integers(min_value=-1, max_value=3),
)


def _number_slots(obj, path=()):
    """Paths to every leaf (number, string or null) of a JSON-like object."""
    if isinstance(obj, dict):
        return [s for key, v in obj.items() for s in _number_slots(v, (*path, key))]
    if isinstance(obj, list):
        return [s for i, v in enumerate(obj) for s in _number_slots(v, (*path, i))]
    return [path]


def corrupted(draw, template, times):
    """``template`` with ``times`` of its leaves replaced by wild values."""
    obj = copy.deepcopy(template)
    slots = _number_slots(obj)
    for _ in range(times):
        *parents, last = draw(st.sampled_from(slots))
        node = obj
        for key in parents:
            node = node[key]
        node[last] = draw(WILD)
    return obj


@st.composite
def inputs(draw):
    """The class, an instance and an activation table, one or two values of
    one of the two files replaced; only the activation class reads the table."""
    base = draw(st.lists(st.sampled_from(LAWS), min_size=2, max_size=3))
    copies = draw(st.integers(min_value=1, max_value=3))
    times = draw(st.integers(min_value=1, max_value=2))
    if draw(st.booleans()):
        classes = ["single", "blind", "adaptive", "activation"]
        instance = corrupted(draw, {"base": base, "copies": copies}, times)
        return draw(st.sampled_from(classes)), instance, TABLE
    return "activation", {"base": base, "copies": copies}, corrupted(draw, TABLE, times)


def _no_constants(name):
    raise ValueError(f"artifact holds {name}, which is not JSON")


def _one_piece(g):
    return {"pieces": [{"t0": 0.0, "t1": 1.0, "g": g}]}


COINS = {"base": [LAWS[0], LAWS[0]], "copies": 2}


@example(command="eval", evaluator="exact",  # a NaN bucket edge
         files=("activation", COINS, _one_piece([[0, "nan", 0.3], [0, None, 1.0]])))
@example(command="eval", evaluator="exact",  # a NaN activation probability
         files=("activation", COINS, _one_piece([[0, None, "nan"]])))
@given(
    command=st.sampled_from(["eval", "dominance"]),
    evaluator=st.sampled_from(["exact", "mc"]),
    files=inputs(),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_never_crashes(command, evaluator, files):
    algorithm_class, instance, table = files
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in (("instance", instance), ("table", table)):
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(obj, fh)  # NaN and the infinities as their JSON-like tokens
        out = os.path.join(tmp, "out")
        argv = [command, "--instance", paths["instance"], "--class", algorithm_class,
                "--epsilon", "0.05", "--evaluator", evaluator, "--grid", "8",
                "--reps", "500", "--out", out]
        if algorithm_class == "activation":  # no other class takes --policy
            argv += ["--policy", paths["table"]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
        else:
            assert err.count("\n") == 1 and err.endswith("\n")
        if code == 1:
            assert err.startswith("error: ")
        for name in os.listdir(out) if os.path.isdir(out) else ():
            if name.endswith(".json"):
                with open(os.path.join(out, name)) as fh:
                    json.loads(fh.read(), parse_constant=_no_constants)

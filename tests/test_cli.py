"""End-to-end CLI runs: artifacts, exit codes, deterministic replay."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import prophetlab
from prophetlab import cli
from prophetlab.cli import _json_text, main

COINS = {
    "base": [
        {"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
        {"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
    ],
    "copies": 1,
}


@pytest.fixture
def coins_file(tmp_path):
    path = tmp_path / "coins.json"
    path.write_text(json.dumps(COINS))
    return str(path)


def run(args):
    return main(args)


class TestEval:
    def test_exact_eval_writes_artifacts(self, coins_file, tmp_path):
        out = tmp_path / "run"
        assert run(["eval", "--instance", coins_file, "--k", "2", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "exact"
        assert summary["opt_value"] == pytest.approx(0.75)
        assert "half_widths" in summary
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["instance"] == coins_file
        assert "numpy" in manifest["versions"]

    def test_bound_reported_with_epsilon(self, coins_file, tmp_path):
        out = tmp_path / "run"
        assert run([
            "eval", "--instance", coins_file, "--class", "blind",
            "--epsilon", "0.05", "--k", "6", "--out", str(out),
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["paper_bound_k"] == 6


class TestSearchK:
    def test_single_class_near_one_over_e(self, coins_file, tmp_path):
        out = tmp_path / "run"
        assert run([
            "search-k", "--epsilon", "0.3678", "--class", "single",
            "--instance", coins_file, "--out", str(out),
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["found_k"] is not None and summary["found_k"] <= 2
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "k,estimate,half_width,method"


class TestDominance:
    def test_pass_and_columns(self, coins_file, tmp_path):
        out = tmp_path / "run"
        assert run([
            "dominance", "--instance", coins_file, "--class", "single",
            "--epsilon", "0.1", "--k", "5", "--out", str(out),
        ]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "quantile,x,p_alg,p_opt_scaled,margin"
        assert len(lines) > 90

    def test_violation_exits_2(self, tmp_path):
        inst = tmp_path / "u.json"
        inst.write_text(json.dumps(
            {"base": [{"type": "piecewise", "points": [[0.0, 0.0], [1.0, 1.0]]}], "copies": 1}
        ))
        out = tmp_path / "run"
        code = run([
            "dominance", "--instance", str(inst), "--class", "single",
            "--epsilon", "0.01", "--out", str(out),
        ])
        assert code == 2


    @pytest.mark.parametrize("eps", ["5", "-3"])
    def test_epsilon_outside_unit_interval_exits_1(self, coins_file, tmp_path, capsys, eps):
        # the activation class has no copy bound, so only the check itself can refuse
        table = _activation_table(tmp_path, [(0.0, 1.0)])
        out = tmp_path / "run"
        args = ["dominance", "--instance", coins_file, "--class", "activation", "--policy", table]
        assert run(args + ["--epsilon", eps, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "epsilon in (0, 1)" in err
        assert not (out / "results.csv").exists()


class TestLemmas:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "run"
        assert run(["lemmas", "--trials", "25", "--seed", "7", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["min_slack"] >= -1e-9


class TestHardness:
    def test_general_suite(self, tmp_path):
        out = tmp_path / "run"
        assert run(["hardness", "--class", "general", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["certified"] is True

    @pytest.mark.parametrize("k, dps", [(4, 60), (10, 204)])
    def test_general_suite_writes_its_working_precision(self, tmp_path, k, dps):
        out = tmp_path / "run"
        assert run(["hardness", "--class", "general", "--k", str(k), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["dps"] == dps


ONE_RUN_EACH = {  # "INSTANCE" stands for the instance file
    "eval": ["--instance", "INSTANCE", "--k", "3"],
    "search-k": ["--instance", "INSTANCE", "--epsilon", "0.3"],
    "dominance": ["--instance", "INSTANCE", "--epsilon", "0.3", "--k", "3"],
    "hardness": ["--class", "general"],
    "lemmas": ["--trials", "5"],
}


class TestArtifacts:
    @pytest.mark.parametrize(
        "command, flag",
        [("search-k", ["--k", "50"]), ("search-k", ["--policy", "nosuch.json"]),
         ("hardness", ["--reps", "10"]), ("hardness", ["--seed", "3"]),
         ("lemmas", ["--reps", "10"])],
        ids=["search-k-k", "search-k-policy", "hardness-reps", "hardness-seed", "lemmas-reps"],
    )
    def test_flag_the_command_does_not_read_exits_1(self, coins_file, tmp_path, capsys,
                                                    command, flag):
        argv = [coins_file if a == "INSTANCE" else a for a in ONE_RUN_EACH[command]]
        out = tmp_path / "run"
        assert run([command, *argv, *flag, "--out", str(out)]) == 1
        assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(ONE_RUN_EACH))
    def test_every_command_writes_the_three_artifacts(self, coins_file, tmp_path, command):
        argv = [coins_file if a == "INSTANCE" else a for a in ONE_RUN_EACH[command]]
        out = tmp_path / "run"
        assert run([command, *argv, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "results.csv", "summary.json"
        ]
        assert json.loads((out / "summary.json").read_text())["command"] == command
        assert json.loads((out / "manifest.json").read_text())["command"] == command

    def test_failed_check_still_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["hardness", "--class", "activation", "--k", "120", "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "results.csv", "summary.json"
        ]
        err = capsys.readouterr().err
        assert err == "hardness suite 'activation' NOT certified\n"

    def test_config_error_writes_no_results(self, coins_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["dominance", "--instance", coins_file, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: dominance needs --epsilon\n"
        assert not (out / "results.csv").exists()
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_output_under_a_regular_file_exits_1_with_one_line(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("not a directory")
        assert run(["lemmas", "--trials", "2", "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory ") and err.count("\n") == 1
        assert str(tmp_path / out) in err

    def test_unwritable_artifact_exits_1_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "results.csv").mkdir(parents=True)  # a directory where the file goes
        assert run(["lemmas", "--trials", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert str(out / "results.csv") in err


class TestErrors:
    def test_missing_instance_names_path(self, tmp_path, capsys):
        code = run(["eval", "--instance", str(tmp_path / "ghost.json")])
        assert code == 1
        assert "ghost.json" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"base\": [")
        assert run(["eval", "--instance", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"base": [{"type": "discrete", "atoms": [[NaN, 0.5], [1.0, 0.5]]}], "copies": 1}',
            '{"base": [{"type": "discrete", "atoms": [[0.0, NaN], [1.0, 0.5]]}], "copies": 1}',
            '{"base": [{"type": "discrete", "atoms": [[0.0, 0.5], [Infinity, 0.5]]}], "copies": 1}',
            '{"base": [{"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.5]]}], "copies": 3.7}',
            '{"base": [{"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.5]]}], "copies": true}',
        ],
        ids=["nan-value", "nan-mass", "infinite-value", "fractional-copies", "boolean-copies"],
    )
    def test_malformed_instance_exits_1_with_one_line(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "run"
        assert run(["eval", "--instance", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "summary.json").exists()

    def test_instance_directory_exits_1(self, tmp_path, capsys):
        assert run(["eval", "--instance", str(tmp_path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "directory" in err and err.count("\n") == 1

    def test_time_based_hardness_k1_exits_1_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["hardness", "--class", "time-based", "--k", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "k >= 2 (p = 1/k must be below 1)" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_lemmas_without_trials_exits_1_with_one_line(self, tmp_path, capsys, trials):
        out = tmp_path / "run"
        assert run(["lemmas", "--trials", trials, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"got {trials}" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command, seed", [("eval", "-1"), ("eval", str(2**64)),
                                               ("lemmas", "-1")])
    def test_seed_outside_its_range_exits_1_with_one_line(self, coins_file, tmp_path, capsys,
                                                          command, seed):
        # a Monte Carlo seed is one word of a Philox key, [0, 2^64); the lemma
        # suite's seed is any integer >= 0
        argv = {"eval": ["--instance", coins_file, "--class", "adaptive", "--epsilon", "0.1",
                         "--k", "2", "--reps", "100"],
                "lemmas": ["--trials", "2"]}[command]
        out = tmp_path / "run"
        assert run([command, *argv, "--seed", seed, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"got {seed}" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_epsilon_exits_1(self, coins_file, tmp_path, capsys, eps):
        # the activation class ignores epsilon, but the manifest echoes it
        table = _activation_table(tmp_path, [(0.0, 1.0)])
        out = tmp_path / "run"
        args = ["eval", "--instance", coins_file, "--class", "activation", "--policy", table]
        assert run(args + ["--epsilon", eps, "--out", str(out)]) == 1
        assert "must be a finite number" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_adaptive_needs_epsilon(self, coins_file, tmp_path):
        code = run([
            "eval", "--instance", coins_file, "--class", "adaptive",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1


def _activation_table(tmp_path, spans):
    path = tmp_path / "table.json"
    g = [[0, None, 0.5], [1, None, 1.0]]
    path.write_text(json.dumps({"pieces": [{"t0": t0, "t1": t1, "g": g} for t0, t1 in spans]}))
    return str(path)


class TestActivationTables:
    def test_contiguous_table_runs(self, coins_file, tmp_path):
        table = _activation_table(tmp_path, [(0.0, 0.3), (0.3, 1.0)])
        out = tmp_path / "run"
        args = ["eval", "--instance", coins_file, "--class", "activation", "--policy", table]
        assert run(args + ["--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "spans",
        [[(0.0, 0.3), (0.5, 1.0)], [(0.0, 0.5), (0.0, 0.5), (0.5, 1.0)],
         [(0.0, 0.5), (0.5, 0.5), (0.5, 1.0)], [(0.0, 0.5), (0.5, 0.9)]],
        ids=["gap", "duplicated", "zero-length", "short"],
    )
    def test_malformed_pieces_exit_1_with_one_line(self, coins_file, tmp_path, capsys, spans):
        table = _activation_table(tmp_path, spans)
        out = tmp_path / "run"
        args = ["eval", "--instance", coins_file, "--class", "activation", "--policy", table]
        assert run(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("ident", [5, -1, 0.7, True])
    def test_identity_outside_instance_exits_1(self, tmp_path, capsys, ident):
        inst = tmp_path / "one.json"
        inst.write_text(json.dumps({"base": [COINS["base"][0]], "copies": 1}))
        table = tmp_path / "table.json"
        piece = {"t0": 0.0, "t1": 1.0, "g": [[ident, None, 1.0]]}
        table.write_text(json.dumps({"pieces": [piece]}))
        out = tmp_path / "run"
        args = ["eval", "--instance", str(inst), "--class", "activation", "--policy", str(table)]
        assert run(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"identity {ident}" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "g, why",
        [([[0, "nan", 0.3], [0, None, 1]], "bucket edges must be finite"),
         ([[0, "inf", 0.3], [0, None, 1]], "bucket edges must be finite"),
         ([[0, None, "nan"]], "probabilities must lie in [0, 1]")],
        ids=["nan-edge", "inf-edge", "nan-probability"],
    )
    def test_non_finite_spec_exits_1_with_one_line(self, coins_file, tmp_path, capsys, g, why):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"pieces": [{"t0": 0.0, "t1": 1.0, "g": g}]}))
        out = tmp_path / "run"
        args = ["eval", "--instance", coins_file, "--class", "activation", "--policy", str(table)]
        assert run(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and why in err
        assert not (out / "results.csv").exists() and not (out / "summary.json").exists()

    def test_integral_float_identity_reads_as_integer(self, coins_file, tmp_path):
        estimates = []
        for name, ids in (("ints", (0, 1)), ("floats", (0.0, 1.0))):
            table = tmp_path / f"{name}.json"
            g = [[ids[0], None, 0.5], [ids[1], None, 1.0]]
            table.write_text(json.dumps({"pieces": [{"t0": 0.0, "t1": 1.0, "g": g}]}))
            out = tmp_path / name
            args = ["eval", "--instance", coins_file, "--class", "activation", "--policy"]
            assert run(args + [str(table), "--out", str(out)]) == 0
            estimates.append(json.loads((out / "summary.json").read_text())["estimate"])
        assert estimates[0] == estimates[1]


def _no_constants(name):
    raise ValueError(f"summary.json holds {name}, which is not JSON")


class TestStrictSummary:
    @pytest.mark.parametrize(
        "argv",
        [["--class", "activation", "--k", "120"],
         ["--class", "time-based", "--k", "100", "--grid", "101"]],
        ids=["activation-first-row", "time-based-later-rows"],
    )
    def test_undefined_log_gap_is_null(self, tmp_path, argv):
        # a non-positive gap has no log: min_log_gap is null whichever row it is in
        out = tmp_path / "run"
        assert run(["hardness", *argv, "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text(), parse_constant=_no_constants)
        assert summary["certified"] is False
        assert summary["min_log_gap"] is None
        assert "nan" in (out / "results.csv").read_text()


    def test_non_finite_result_writes_nothing(self, coins_file, tmp_path, capsys, monkeypatch):
        evaluate = cli.expected_value
        monkeypatch.setattr(cli, "expected_value",
                            lambda *a: dataclasses.replace(evaluate(*a), estimate=math.inf))
        out = tmp_path / "run"
        assert run(["eval", "--instance", coins_file, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "not a finite" in err
        assert not out.exists() or not any(out.iterdir())

    # dominance at k=1 is far below the bound and fails its margin check (exit 2)
    @pytest.mark.parametrize("command, code", [("eval", 0), ("search-k", 0), ("dominance", 2)])
    def test_subnormal_epsilon_runs(self, coins_file, tmp_path, command, code):
        # 1/eps overflows to inf for eps = 1e-320; ln(1/eps) = 320 ln 10 does not
        out = tmp_path / "run"
        argv = [command, "--instance", coins_file, "--class", "single", "--epsilon", "1e-320"]
        assert run(argv + ["--out", str(out)]) == code
        summary = json.loads((out / "summary.json").read_text(), parse_constant=_no_constants)
        assert summary["paper_bound_k"] == math.ceil(2 * 320 * math.log(10)) == 1474


    def test_numpy_scalars_serialise_as_their_python_twins(self):
        numpy_typed = {"ok": np.bool_(True), "k": np.int64(3), "x": [np.float64(0.5)]}
        python_typed = {"ok": True, "k": 3, "x": [0.5]}
        assert _json_text(numpy_typed) == _json_text(python_typed)


def _eval_in_process(tmp_path, base, copies, *flags):
    """``eval`` on the instance as its own process, every warning an error:
    (exit code, stderr, summary)."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"base": base, "copies": copies}))
    out = tmp_path / "run"
    src = os.path.dirname(os.path.dirname(prophetlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "prophetlab.cli", "eval", "--instance", str(path),
         *flags, "--out", str(out)], capture_output=True, text=True, env=env, timeout=120)
    summary = json.loads((out / "summary.json").read_text()) if proc.returncode == 0 else None
    return proc.returncode, proc.stderr, summary


class TestValuesNearTheDoubleLimit:
    """Laws whose values or their squares pass the largest double: each run
    exits 0, prints nothing on stderr and writes its closed form."""

    def test_opt_value_of_breakpoints_summing_past_the_limit(self, tmp_path):
        # the max is always the first law's draw: E[OPT] = (1.7e308 + 1.6e308) / 2
        base = [{"type": "discrete", "atoms": [[1.7e308, 0.5], [1.6e308, 0.5]]},
                {"type": "discrete", "atoms": [[1.5e308, 0.5], [1.0, 0.5]]}]
        code, err, summary = _eval_in_process(tmp_path, base, 3, "--class", "single")
        assert (code, err) == (0, "")
        assert summary["opt_value"] == pytest.approx(1.65e308, rel=1e-12)

    def test_exact_mean_of_a_law_past_1e154(self, tmp_path):
        # uniform on [0, M], two copies, threshold M/2: E[ALG] = (1 - 1/4) * 3M/4
        base = [{"type": "piecewise", "points": [[0, 0], [1e300, 1]]}]
        code, err, summary = _eval_in_process(tmp_path, base, 2, "--class", "single")
        assert (code, err) == (0, "")
        assert summary["opt_value"] == pytest.approx(5e299, rel=1e-12)
        assert summary["estimate"] == pytest.approx(0.5625e300, rel=1e-12)

    def test_monte_carlo_half_width_past_1e154(self, tmp_path):
        # threshold above 1: E[ALG] = 1e200 * Pr[some copy draws 1e200] = 7.5e199
        base = [{"type": "discrete", "atoms": [[1e200, 0.5], [1.0, 0.5]]}]
        code, err, summary = _eval_in_process(tmp_path, base, 2, "--evaluator", "mc",
                                              "--reps", "8192")
        assert (code, err) == (0, "")
        half_width = summary["half_widths"][0]
        assert 0.0 < half_width < 1e199
        assert abs(summary["estimate"] - 7.5e199) <= half_width

    def test_monte_carlo_sum_past_the_limit(self, tmp_path):
        # 8,192 selected values of 1.7e308 sum past the largest double
        base = [{"type": "discrete", "atoms": [[0.0, 0.5], [1.7e308, 0.5]]}]
        (tmp_path / "exact").mkdir()
        (tmp_path / "mc").mkdir()
        code, err, exact = _eval_in_process(tmp_path / "exact", base, 2)
        assert (code, err) == (0, "")
        code, err, mc = _eval_in_process(tmp_path / "mc", base, 2, "--evaluator", "mc",
                                         "--reps", "8192")
        assert (code, err) == (0, "")
        assert math.isfinite(mc["estimate"]) and 0.0 < mc["half_widths"][0] < 1e307
        assert abs(mc["estimate"] - exact["estimate"]) <= mc["half_widths"][0]

    @pytest.mark.parametrize("points, opt_value, estimate, rel", [
        # uniform on [a, b], two copies, threshold at the median (a + b) / 2:
        # E[ALG] = (1 - 1/4) * (a + 3b) / 4
        ([[1e307, 0], [1.7e308, 1]], 9e307, 9.75e307, 1e-12),
        # a subnormal near 1e-320 keeps about 11 bits
        ([[0, 0], [1e-320, 1]], 5e-321, 5.625e-321, 1e-3),
    ], ids=["top-near-the-limit", "subnormal-width"])
    def test_exact_single_threshold_at_either_end(self, tmp_path, points, opt_value, estimate,
                                                  rel):
        base = [{"type": "piecewise", "points": points}]
        code, err, summary = _eval_in_process(tmp_path, base, 2)
        assert (code, err) == (0, "")
        assert summary["opt_value"] == pytest.approx(opt_value, rel=rel)
        assert summary["estimate"] == pytest.approx(estimate, rel=rel)
        assert summary["half_widths"] == [0.0]

    def test_monte_carlo_half_width_of_values_near_1e_200(self, tmp_path):
        # the squares of the selected values underflow: E[ALG] = 1e-200 * 3/4
        base = [{"type": "discrete", "atoms": [[0.0, 0.5], [1e-200, 0.5]]}]
        code, err, summary = _eval_in_process(tmp_path, base, 2, "--evaluator", "mc",
                                              "--reps", "8192")
        assert (code, err) == (0, "")
        half_width = summary["half_widths"][0]
        assert math.isfinite(summary["estimate"]) and 0.0 < half_width < 1e-201
        assert abs(summary["estimate"] - 7.5e-201) <= half_width


class TestHardnessFlags:
    @pytest.mark.parametrize(
        "suite, k", [("general", "0"), ("time-based", "0"), ("activation", "0"),
                     ("activation", "2")]
    )
    def test_out_of_range_k_exits_1_with_one_line(self, tmp_path, capsys, suite, k):
        out = tmp_path / "run"
        assert run(["hardness", "--class", suite, "--k", k, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"got {k}" in err
        assert not (out / "summary.json").exists()

    def test_explicit_grid_is_honoured(self, tmp_path):
        out = tmp_path / "run"
        args = ["hardness", "--class", "time-based", "--k", "4", "--grid", "512"]
        assert run(args + ["--out", str(out)]) in (0, 2)
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 512

    @pytest.mark.parametrize("suite, grid", [("time-based", "0"), ("general", "5")])
    def test_unusable_grid_exits_1(self, tmp_path, capsys, suite, grid):
        args = ["hardness", "--class", suite, "--grid", grid, "--out", str(tmp_path)]
        assert run(args) == 1
        assert capsys.readouterr().err.count("\n") == 1


class TestDeterminism:
    def test_mc_rerun_byte_identical(self, coins_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run([
                "eval", "--instance", coins_file, "--class", "adaptive",
                "--epsilon", "0.05", "--evaluator", "mc", "--reps", "40000",
                "--seed", "42", "--out", str(out),
            ]) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_env_var_output_dir(self, coins_file, tmp_path, monkeypatch):
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("PROPHETLAB_OUT", str(env_dir))
        assert run(["eval", "--instance", coins_file, "--k", "1"]) == 0
        assert (env_dir / "results.csv").exists()
        # an explicit flag wins over the environment
        flag_dir = tmp_path / "from-flag"
        assert run(["eval", "--instance", coins_file, "--k", "1", "--out", str(flag_dir)]) == 0
        assert (flag_dir / "results.csv").exists()

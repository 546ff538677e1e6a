"""End-to-end CLI runs: artifacts, exit codes, deterministic replay."""

import dataclasses
import hashlib
import json
import math
import os
import platform
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

    @pytest.mark.parametrize("algorithm_class", ["single", "blind"])
    def test_epsilon_above_one_over_e_runs_without_a_bound(self, coins_file, tmp_path,
                                                           algorithm_class):
        # the copy bound is defined only up to 1/e; the check itself is not
        out = tmp_path / "run"
        args = ["dominance", "--instance", coins_file, "--class", algorithm_class]
        assert run(args + ["--epsilon", "0.5", "--k", "4", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epsilon"] == 0.5 and "paper_bound_k" not in summary

    @pytest.mark.parametrize(
        "command, algorithm_class",
        [("eval", "single"), ("eval", "blind"), ("eval", "adaptive"), ("dominance", "adaptive")],
    )
    def test_epsilon_above_one_over_e_still_refused(self, coins_file, tmp_path, capsys,
                                                    command, algorithm_class):
        out = tmp_path / "run"
        args = [command, "--instance", coins_file, "--class", algorithm_class, "--epsilon", "0.5"]
        assert run(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: epsilon must be in (0, 1/e], got 0.5\n"


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


class TestManifestVersions:
    def test_hardness_names_the_mpmath_it_computed_with(self, tmp_path):
        import mpmath

        assert run(["hardness", "--class", "general", "--out", str(tmp_path)]) == 0
        versions = json.loads((tmp_path / "manifest.json").read_text())["versions"]
        assert versions["mpmath"] == mpmath.__version__
        assert versions["numpy"] == np.__version__

    def test_eval_names_no_mpmath(self, coins_file, tmp_path):
        assert run(["eval", "--instance", coins_file, "--out", str(tmp_path)]) == 0
        versions = json.loads((tmp_path / "manifest.json").read_text())["versions"]
        assert "mpmath" not in versions
        assert versions["numpy"] == np.__version__
        assert versions["artifact"] == prophetlab.__version__
        assert versions["python"] == platform.python_version()


_LOADED_AFTER = """
import json, sys
from prophetlab.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in ("mpmath", "numpy.ma", "multiprocessing")
                                 if m in sys.modules)]))
"""


def _loaded_after(*argvs):
    """(exit codes, which of mpmath, numpy.ma and multiprocessing are loaded)
    after a fresh interpreter ran each argv through ``main``."""
    src = os.path.dirname(os.path.dirname(prophetlab.__file__))
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


class TestWhatALaunchLoads:
    def test_exact_commands_load_neither_mpmath_nor_numpy_ma(self, coins_file, tmp_path):
        out = ["--out", str(tmp_path)]
        argvs = [
            ["eval", "--instance", coins_file, "--class", "blind", "--k", "3", *out],
            ["search-k", "--instance", coins_file, "--epsilon", "0.3", *out],
            ["dominance", "--instance", coins_file, "--epsilon", "0.3", "--k", "3", *out],
        ]
        assert _loaded_after(*argvs) == ([0, 0, 0], [])

    def test_lemmas_forks_without_multiprocessing(self, tmp_path):
        # the trials are worked out in a child of os.fork, fed by os.pipe
        argv = ["lemmas", "--trials", "20", "--out", str(tmp_path)]
        assert _loaded_after(argv) == ([0], [])

    def test_hardness_loads_mpmath(self, tmp_path):
        argv = ["hardness", "--class", "general", "--out", str(tmp_path)]
        assert _loaded_after(argv) == ([0], ["mpmath"])


# the regression laws three-point (discrete) and two-piecewise (piecewise)
LAWS = {
    "three-point": [{"type": "discrete", "atoms": [[0.0, 0.2], [1.0, 0.5], [3.0, 0.3]]}],
    "two-piecewise": [
        {"type": "piecewise", "points": [[0.0, 0.0], [1.0, 1.0]]},
        {"type": "piecewise", "points": [[0.0, 0.0], [0.5, 0.2], [1.5, 1.0]]},
    ],
}
# a two-piece activation table on the two-piecewise laws: identity 0 takes
# values from 0.5 on, identity 1 takes everything early and from 1.0 on late
MC_TABLE = {"pieces": [
    {"t0": 0.0, "t1": 0.4, "g": [[0, 0.5, 0.0], [0, None, 0.8], [1, None, 0.3]]},
    {"t0": 0.4, "t1": 1.0, "g": [[0, None, 0.6], [1, 1.0, 0.1], [1, None, 1.0]]},
]}
# (exit code, SHA-256 of results.csv, of summary.json) of each pinned run.  In
# an argv, a name of LAWS stands for a file of that law with k = 1, and TABLE
# for the MC_TABLE file; "--out" follows the argv.
PINS = {
    # check commands, as written before the suites shared one report type
    "hardness --class activation": (
        0,
        "0f74fd461bd0f9eede2bca36c19c3ef8f393f05a29b259a19e79ed52ed2790dd",
        "25320bb7e1b5bcb818cde220a9216ec1b77a50d2e2adfbba11521720b76746f0",
    ),
    "hardness --class general": (
        0,
        "b657b9e37dd4a1e5e8c9a1e1e15a55a950fdc4bdd4787f905b4b3b1389dc9e71",
        "dc51f5c519812d9ba8615771f3a28bb1dc301bdb76dae07a9ba12b0a7db7bd01",
    ),
    "hardness --class time-based": (
        0,
        "29100d428b414898a0ab1d37dd63e1087b408af7f34355dd5d19fad0929078d4",
        "bad7cda1ac60f241689ef4a924d38e17f28865a4b79492affb9c25fb7c3d3dba",
    ),
    "lemmas --trials 200 --seed 7": (
        0,
        "0a8944215b26f3781b8c2945bacfa102207ab71fa67accf9a2f409b7a1170a18",
        "d8988886fe9ad133e19242cabe7f5cf5a64c9e0efc14d4d6ed7aa90817636ca3",
    ),
    # check runs, as written while every policy of a sweep or sorted pair had
    # an evaluator of its own: the heaviest lemma run, sweeps with a gap that
    # is not positive (time-based k = 100) or failed arithmetic checks
    # (activation k = 3), and a sweep that certifies
    "hardness --class activation --k 3 --grid 2": (
        2,
        "a3eb995c0f01f39a185e1d875a342817ff4a2b68acb3a0742329d993cdfbfc1e",
        "9c4ae3da7a454c3e8680a0f8bbbcfea20004781550777d3de6141b38e0ae6c3b",
    ),
    "hardness --class time-based --k 100 --grid 101": (
        2,
        "51d9999b63a946f1fe6da7d9db2545edb69b38fa62cc7b79183e98bfe5c695cd",
        "b18e7ac6e3195899b2a45d38b357b03818bbcf116ca625546417e4c52460f4f1",
    ),
    "hardness --class time-based --k 6 --grid 51": (
        0,
        "a92ed5f899f11347ca9e793cc7699b60903af37a65cdccda086b26cdeeae766c",
        "ee38d9a490100606a38392cd51edaf39db4afa3c1a0ef9890585a1802f51b69a",
    ),
    "lemmas --trials 1000 --seed 0": (
        0,
        "a825fd82b98ce14636b1b7994cfc7b5088ba91f14ce20712711c4e29ff19015f",
        "c35fa34ab095d8311908335933c747c8692b68b0e9007ee2c5906f6401981a8c",
    ),
    # exact runs, as written while blind schedules were built one rule object
    # per piece
    "dominance --instance three-point --class blind --epsilon 0.05 --k 6": (
        0,
        "1ff13e1184c11450cc187bf6f8efac6c6198698c010fa024129284c7281b291f",
        "6cf1ba4a9a22c54de714643a4c5f0137cac97fcd121e61747d28e4644a9f2189",
    ),
    "eval --instance three-point --class blind --epsilon 0.05 --k 6": (
        0,
        "a270086ebdafe06546f4083bdc5ceb1b71c7f93c07c19152d61c2cf668f57365",
        "80c7756b6549bd75a9a2ac081e4c653121ec4aa66ea6d492fb22fb8f1b224848",
    ),
    "search-k --instance three-point --class blind --epsilon 0.01": (
        0,
        "be6c4d326aa4dcff007b8b62c9a055cd70f311a96fb85e1b9f0b4dcf0ff6f254",
        "19c8843ec0603edd23c62c0cfad05909ee950f7f4a2ff41daaa33f28d82a6db7",
    ),
    "dominance --instance two-piecewise --class blind --epsilon 0.05 --k 6": (
        0,
        "6e017c279d7a355e1f146a95f7baa59edcab83cf6f04f3a61b29d0727068887f",
        "3882b97d0b6d066bd97471f99e3a7d727124d9868d8c3cb0fc8f0b76bd54d890",
    ),
    "eval --instance two-piecewise --class blind --epsilon 0.05 --k 6": (
        0,
        "bb8a9e2d58a9d0fab0b235d781884a50965b2f89282dcdcf47640b9ef570b381",
        "a69538a178f3c48472c728dbc118a1f47993d7940698c9a716ae67121839493f",
    ),
    "search-k --instance two-piecewise --class blind --epsilon 0.01": (
        0,
        "2c1ff5e36369559a30c4e0cc50ec48944f70925acbf8b8ef271ce54ca76f152f",
        "768ffd233f445f1eb4ed04b61e4ae3b87149dbcca255ff477fbb9761501d7819",
    ),
    # Monte Carlo runs, as written while Monte Carlo read each (piece,
    # identity) rule on its own
    "dominance --instance three-point --class single --evaluator mc --epsilon 0.05 --k 4 --reps 2000 --seed 5": (
        0,
        "d31fe69f7bd4357dd0a0f1d7fe87c08d60e151010a8dea781660f11d724e2695",
        "4f762eccb34456bc88ec9ca33db06b3706b7a003c570b752d5779e498b857b34",
    ),
    "eval --instance three-point --class adaptive --epsilon 0.01 --k 4 --reps 20000 --seed 3": (
        0,
        "f00739834983fab1fa731ceea6c5ee0deb09f25315ed5d31dfbeae15ed9bc46c",
        "2d904c4773a50898cef1ac499348b75602babdf2a5d1cb945470e158fad9a8e7",
    ),
    "dominance --instance two-piecewise --class single --evaluator mc --epsilon 0.05 --k 4 --reps 2000 --seed 5": (
        0,
        "7892ae8d51e6d798f9dd2c1a368dd5aea04a5eb1a17152f9a21dcb48e9195853",
        "b39f899aaaf8b15336d0abb8d5d9c1cc50dd259b799531fbe6ffd957a338b7a5",
    ),
    "eval --instance two-piecewise --class activation --evaluator mc --k 3 --reps 20000 --seed 7 --policy TABLE": (
        0,
        "904472cf23d0bd27f36b9e3e0ddadb823788dd24f040167a98e56bd68b050134",
        "61438f333958b2eebe38aa85f572b230a4e3c5039979dd2486880ac3232958a1",
    ),
    "eval --instance two-piecewise --class adaptive --epsilon 0.01 --k 4 --reps 20000 --seed 3": (
        0,
        "4e8cc9c8e34127a0f3699231ae56373c1aa41a0d87230b9e4133af4dbdfcb366",
        "497bc5414bb45e657d7a9db1d976cf49f3c1a9a80261aa352dd814a7dda24c31",
    ),
}


@pytest.mark.parametrize("argv", sorted(PINS))
def test_pinned_runs_keep_their_bytes_and_exit_codes(tmp_path, capsys, argv):
    files = {"TABLE": MC_TABLE, **{law: {"base": base, "copies": 1} for law, base in LAWS.items()}}
    args = argv.split()
    for i, arg in enumerate(args):
        if arg in files:
            args[i] = str(tmp_path / f"{arg}.json")
            (tmp_path / f"{arg}.json").write_text(json.dumps(files[arg]))
    out = tmp_path / "run"
    code = run([*args, "--out", str(out)])
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("results.csv", "summary.json"))
    assert (code, *digests) == PINS[argv]


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

    def test_failed_arithmetic_alone_is_named(self, tmp_path, capsys):
        # every gap is positive ("certified": true) and only 3p < 1/(10k)
        # fails, so the message may not say the suite is not certified
        out = tmp_path / "run"
        assert run(["hardness", "--class", "activation", "--k", "3", "--grid", "2",
                    "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["certified"] and not summary["arithmetic_ok"]
        assert capsys.readouterr().err == (
            "hardness suite 'activation': every gap is positive, but these arithmetic "
            "checks fail: 3p < 1/(10k)\n")

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


class TestWriter:
    """A rerun replaces each artifact whole, whatever its old length."""

    ARTIFACTS = ("results.csv", "summary.json", "manifest.json")

    def test_shorter_rewrite_leaves_no_stale_tail(self, coins_file, tmp_path):
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        argv = ["dominance", "--instance", coins_file, "--epsilon", "0.1", "--k", "5"]
        assert run([*argv, "--out", str(fresh)]) == 0
        reused.mkdir()
        for name in self.ARTIFACTS:  # each longer than what the run writes
            (reused / name).write_bytes(b"stale,\n" * 20_000)
        assert run([*argv, "--out", str(reused)]) == 0
        for name in ("results.csv", "summary.json"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()
        manifest = (reused / "manifest.json").read_text()
        assert json.loads(manifest)["config"]["out"] == str(reused)
        assert manifest == (fresh / "manifest.json").read_text().replace(str(fresh), str(reused))

    def test_longer_rewrite_replaces_the_whole_file(self, coins_file, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        for name in self.ARTIFACTS:
            (out / name).write_bytes(b"x")
        assert run(["eval", "--instance", coins_file, "--k", "2", "--out", str(out)]) == 0
        assert (out / "results.csv").read_text().startswith("k,estimate,")
        assert json.loads((out / "summary.json").read_text())["command"] == "eval"

    def test_fresh_nested_output_directory_is_created_and_written(self, coins_file, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        assert run(["eval", "--instance", coins_file, "--k", "2", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(self.ARTIFACTS)
        assert (out / "results.csv").read_text().count("\n") == 2

    @pytest.mark.parametrize("name", ARTIFACTS)
    def test_unwritable_artifact_exits_1_without_a_traceback(self, coins_file, tmp_path, capsys,
                                                             name):
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)  # a directory where the file goes
        assert run(["eval", "--instance", coins_file, "--k", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / name}: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestParser:
    """A launch builds the parser of its command alone; the usage of every
    command and the 0/1/2 exit contract stay as they were."""

    COMMANDS = ("eval", "search-k", "dominance", "hardness", "lemmas")

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: prophetlab [-h] {" + ",".join(self.COMMANDS) + "}")
        for command in self.COMMANDS:
            assert f"\n    {command} " in text

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: prophetlab {command} [-h]") and "--out OUT" in text

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["--k", "3"], "invalid choice: '3'"),  # the top level has no flags
    ], ids=["missing", "unknown", "flag-first"])
    def test_missing_or_unknown_command_exits_1_with_usage(self, capsys, argv, message):
        assert run(argv) == 1
        err = capsys.readouterr().err
        usage, error = err.splitlines()[0], err.splitlines()[-1]
        assert usage.startswith("usage: prophetlab [-h] {" + ",".join(self.COMMANDS) + "}")
        assert error.startswith("error: ") and message in error

    @pytest.mark.parametrize("argv, built", [
        (["lemmas", "--trials", "2"], "{lemmas}"),
        (["eval", "--instance", "INSTANCE", "--k", "2"], "{eval}"),
        (["--help"], "{eval,search-k,dominance,hardness,lemmas}"),
    ], ids=["lemmas", "eval", "help"])
    def test_a_launch_builds_its_own_command_only(self, coins_file, tmp_path, monkeypatch,
                                                  argv, built):
        usages = []
        build = cli.build_parser

        def spy(*args):
            parser = build(*args)
            usages.append(parser.format_usage())
            return parser

        monkeypatch.setattr(cli, "build_parser", spy)
        argv = [coins_file if a == "INSTANCE" else a for a in argv]
        try:
            assert run([*argv, "--out", str(tmp_path)]) == 0
        except SystemExit as exc:  # --help
            assert exc.code == 0
        assert usages == [f"usage: prophetlab [-h] {built} ...\n"]


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

    @pytest.mark.parametrize("law, bad", [
        ({"type": "discrete", "atoms": [[0.0, 0.5], [True, 0.5]]}, "true"),
        ({"type": "discrete", "atoms": [[0.0, 0.0], [1.0, True]]}, "true"),
        ({"type": "piecewise", "points": [[False, 0.0], [1.0, 1.0]]}, "false"),
        ({"type": "piecewise", "points": [[0.0, False], [1.0, True]]}, "false"),
    ], ids=["atom-value", "atom-mass", "point-value", "point-cdf"])
    def test_booleans_are_not_law_numbers(self, tmp_path, capsys, law, bad):
        # float(True) is 1.0: each of these loaded, and eval exited 0
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"base": [law], "copies": 1}))
        out = tmp_path / "run"
        assert run(["eval", "--instance", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"number pairs: {bad} is not a number" in err
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

    @pytest.mark.parametrize("command", ["eval", "dominance"])
    @pytest.mark.parametrize("algorithm_class", ["single", "blind", "adaptive"])
    def test_policy_without_the_activation_class_exits_1_with_one_line(
            self, coins_file, tmp_path, capsys, command, algorithm_class):
        out = tmp_path / "run"
        args = [command, "--instance", coins_file, "--class", algorithm_class,
                "--epsilon", "0.1", "--policy", "/nonexistent"]
        assert run(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --policy ") and err.count("\n") == 1
        assert f"not --class {algorithm_class}" in err
        assert not (out / "results.csv").exists()

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

    @staticmethod
    def refused(coins_file, tmp_path, capsys, spec):
        """The one line ``eval`` prints when it refuses the table ``spec``."""
        table = tmp_path / "table.json"
        table.write_text(json.dumps(spec))
        out = tmp_path / "run"
        args = ["eval", "--instance", coins_file, "--class", "activation", "--policy", str(table)]
        assert run(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "results.csv").exists() and not (out / "summary.json").exists()
        return err

    @pytest.mark.parametrize("spec, why", [
        ({"pieces": []}, '"pieces" must be a non-empty list'),
        ({"pieces": {"t0": 0.0, "t1": 1.0, "g": [[0, None, 1.0]]}},
         '"pieces" must be a non-empty list'),
        ({"pieces": [[0.0, 1.0]]}, '"pieces" must be a non-empty list'),
        ({"pieces": [{"t0": 0.0, "t1": 1.0, "g": [[0, None]]}]},
         "activation entry [0, null] is not [identity, edge, prob]"),
        ({"pieces": [{"t0": 0.0, "t1": 1.0, "g": [[0, 0.5, 0.0, 1.0]]}]},
         "activation entry [0, 0.5, 0.0, 1.0] is not [identity, edge, prob]"),
        ({"pieces": [{"t0": 0.0, "t1": 1.0, "g": {"0": [None, 1.0]}}]},
         '"g" must be a list of [identity, edge, prob] entries'),
    ], ids=["no-pieces", "pieces-object", "piece-list", "short-entry", "long-entry", "g-object"])
    def test_malformed_spec_is_named_plainly(self, coins_file, tmp_path, capsys, spec, why):
        # these leaked Python's messages: "list index out of range", "not
        # enough values to unpack", "string indices must be integers"
        assert why in self.refused(coins_file, tmp_path, capsys, spec)

    @pytest.mark.parametrize("g, bad", [
        ([[0, True, 0.5], [0, None, 1.0]], "[0, true, 0.5]"),
        ([[0, None, True]], "[0, null, true]"),
        ([[0, 0.5, False], [0, None, 1.0]], "[0, 0.5, false]"),
        ([[0, None, None]], "[0, null, null]"),
    ], ids=["true-edge", "true-probability", "false-probability", "null-probability"])
    def test_booleans_are_not_bucket_numbers(self, coins_file, tmp_path, capsys, g, bad):
        # float(True) is 1.0, so true read as an edge or a probability of 1
        spec = {"pieces": [{"t0": 0.0, "t1": 1.0, "g": g}]}
        err = self.refused(coins_file, tmp_path, capsys, spec)
        assert f"activation entry {bad} needs a number as prob and as edge" in err

    @pytest.mark.parametrize("times, bad", [
        ({"t0": False, "t1": 1.0}, "t0 must be a number, not false"),
        ({"t0": 0.0, "t1": True}, "t1 must be a number, not true"),
        ({"t0": False, "t1": True}, "t0 must be a number, not false"),
    ], ids=["false-t0", "true-t1", "both"])
    def test_booleans_are_not_piece_times(self, coins_file, tmp_path, capsys, times, bad):
        # float reads false as 0 and true as 1: each piece ran as [0, 1)
        spec = {"pieces": [{**times, "g": [[0, None, 1.0]]}]}
        assert f"activation piece time {bad}" in self.refused(coins_file, tmp_path, capsys, spec)

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


def test_star_import_binds_only_public_names():
    namespace = {}
    exec("from prophetlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == prophetlab.__all__
    assert {"Distribution", "OptLaw", "make_instance", "EvalResult"} <= set(namespace)
    assert not [name for name, value in namespace.items() if isinstance(value, type(prophetlab))]

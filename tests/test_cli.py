"""End-to-end CLI runs: artifacts, exit codes, deterministic replay."""

import json

import pytest

from prophetlab.cli import main

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
        ],
        ids=["nan-value", "nan-mass", "infinite-value", "fractional-copies"],
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

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_adaptive_needs_epsilon(self, coins_file, tmp_path):
        code = run([
            "eval", "--instance", coins_file, "--class", "adaptive",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1


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

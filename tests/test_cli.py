import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import neurosudoku
from neurosudoku.charts import grid_charts
from neurosudoku.cli import SHARED_FLAGS, _subcommand_first, build_parser, main
from neurosudoku.engine import PROGRAM_RULES
from neurosudoku.grids import format_grid, is_valid_complete, parse_grid
from neurosudoku.losses import ABLATIONS, LossConfig, ablation_config
from neurosudoku.network import init_params, load_params, save_params
from neurosudoku.training import CSV_COLUMNS, DatasetError, TrainConfig, load_dataset, train


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*argv):
    return main(list(argv))


def subcommand_parsers():
    """{subcommand name: its parser} of ``build_parser()``."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def fresh_python(*args):
    """``python args`` in a new interpreter that imports this package and
    keeps Python's default warning filters."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    src = os.path.dirname(os.path.dirname(neurosudoku.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_import_loads_no_process_pool():
    # table1 imports its pool lazily, keeping about 10 ms off every command's start
    probe = ("import sys, neurosudoku.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    proc = fresh_python("-c", probe)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    save_params(init_params(0), path, seed=0)
    return str(path)


class TestGen:
    def test_writes_dataset_with_expected_givens(self, tmp_path):
        out = tmp_path / "data.jsonl"
        assert run_cli("gen", "--n", "12", "--difficulty", "0.1",
                       "--data-out", str(out), "--seed", "0") == 0
        dataset = load_dataset(out)
        assert len(dataset) == 12
        for inst in dataset:
            assert int((inst.puzzle != 0).sum()) == 73

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("--seed", "5", "gen", "--n", "4", "--difficulty", "0.3", "--data-out", str(a))
        run_cli("--seed", "5", "gen", "--n", "4", "--difficulty", "0.3", "--data-out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # the rule lives in PuzzleInstance.validate, which every instance passes
        out = tmp_path / "d.jsonl"
        assert run_cli("gen", "--n", "2", "--seed", "-1", "--data-out", str(out)) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_difficulty_out_of_range_exits_2(self, tmp_path, capsys):
        code = run_cli("gen", "--difficulty", "1.5", "--data-out", str(tmp_path / "d.jsonl"))
        assert code == 2
        assert "difficulty" in capsys.readouterr().err
        assert not (tmp_path / "d.jsonl").exists()

    def test_difficulty_that_masks_no_cell_exits_2(self, tmp_path, capsys):
        # 81 * 0.006 rounds to 0: the puzzles would be full grids
        code = run_cli("gen", "--difficulty", "0.006", "--n", "2",
                       "--data-out", str(tmp_path / "d.jsonl"))
        assert code == 2
        assert "at least 1/162, got 0.006" in capsys.readouterr().err
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_no_puzzles_exits_2(self, tmp_path, capsys, n):
        code = run_cli("gen", "--n", n, "--data-out", str(tmp_path / "d.jsonl"))
        assert code == 2
        assert "n_puzzles" in capsys.readouterr().err
        assert not (tmp_path / "d.jsonl").exists()


class TestTrainEval:
    def test_train_writes_checkpoint(self, tmp_path):
        data = tmp_path / "data.jsonl"
        model = tmp_path / "model.json"
        run_cli("gen", "--n", "3", "--difficulty", "0.1", "--data-out", str(data))
        code = run_cli("train", "--data", str(data), "--model-out", str(model),
                       "--epochs", "2", "--ablation", "standard-only")
        assert code == 0
        assert model.exists()
        payload = json.loads(model.read_text())
        assert payload["version"] == 1

    def test_eval_writes_results_csv(self, tmp_path):
        data = tmp_path / "data.jsonl"
        out_csv = tmp_path / "results.csv"
        run_cli("gen", "--n", "4", "--difficulty", "0.1", "--data-out", str(data))
        code = run_cli("eval", "--data", str(data), "--csv-out", str(out_csv),
                       "--epochs", "1", "--folds", "2")
        assert code == 0
        with open(out_csv) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == CSV_COLUMNS
            assert len(list(reader)) == 2

    def test_config_file_supplies_defaults(self, tmp_path):
        data = tmp_path / "data.jsonl"
        cfg = tmp_path / "config.json"
        out_csv = tmp_path / "r.csv"
        cfg.write_text(json.dumps({
            "epochs": 1, "folds": 2, "ablation": "standard-only", "seed": 3,
        }))
        run_cli("gen", "--n", "4", "--difficulty", "0.1", "--data-out", str(data))
        code = run_cli("--config", str(cfg), "eval", "--data", str(data),
                       "--csv-out", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert rows[0]["ablation"] == "standard-only"
        assert rows[0]["epochs"] == "1"
        assert rows[0]["seed"] == "3"

    @pytest.mark.parametrize("flags,label", [
        (("--alpha", "1"), "all-combined"),
        (("--ablation", "standard-only", "--gamma", "1"), "standard+expert"),
        (("--beta", "0.3"), "custom"),
    ])
    def test_label_is_derived_from_the_weights(self, tmp_path, flags, label):
        data = tmp_path / "data.jsonl"
        out_csv = tmp_path / "r.csv"
        run_cli("gen", "--n", "4", "--difficulty", "0.1", "--data-out", str(data))
        assert run_cli("eval", "--data", str(data), "--csv-out", str(out_csv),
                       "--epochs", "1", "--folds", "2", *flags) == 0
        assert {r["ablation"] for r in csv.DictReader(open(out_csv))} == {label}

    @pytest.mark.parametrize("config", [
        TrainConfig(epochs=2, seed=4, lr=0.01, postprocess_mode="greedy-constrained",
                    loss=LossConfig(0.5, 0.0, 2.0, "fixed-target")),
        TrainConfig(epochs=1, folds=5, postprocess_mode="hybrid-complete",
                    loss=ablation_config("standard+expert")),
    ], ids=["custom", "ablation"])
    def test_to_dict_as_config_file_runs_train(self, tmp_path, config):
        data = tmp_path / "data.jsonl"
        cfg = tmp_path / "config.json"
        model = tmp_path / "model.json"
        cfg.write_text(json.dumps(config.to_dict()))
        run_cli("gen", "--n", "3", "--difficulty", "0.1", "--data-out", str(data))
        assert run_cli("--config", str(cfg), "train", "--data", str(data),
                       "--model-out", str(model)) == 0
        params, seed = load_params(model)
        expected, _ = train(load_dataset(data), config, init_seed=config.seed)
        assert seed == config.seed
        assert np.array_equal(params.data, expected.data)

    def test_unknown_config_keys_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"epoch": 1, "mean_batch": True, "ablation": "standard-only"}))
        run_cli("gen", "--n", "4", "--difficulty", "0.1", "--data-out", str(data))
        code = run_cli("--config", str(cfg), "train", "--data", str(data),
                       "--model-out", str(tmp_path / "model.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "'epoch'" in err and "'mean_batch'" in err and "'ablation'" not in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("command,flags,message", [
        ("train", ("--epochs", "0"), "epochs must be >= 1"),
        ("train", ("--alpha", "-1"), "weights must be nonnegative"),
        ("eval", ("--folds", "1"), "folds must be >= 2"),
        ("eval", ("--folds", "5", "--epochs", "1"), "fewer than folds=5"),
        ("train", ("--lr", "-0.001"), "lr must be finite and > 0"),
        ("train", ("--lr", "0"), "lr must be finite and > 0"),
        ("eval", ("--lr", "nan"), "lr must be finite and > 0"),
        ("eval", ("--lr", "inf"), "lr must be finite and > 0"),
        ("train", ("--beta", "nan"), "weights must be nonnegative and finite"),
        ("eval", ("--gamma", "inf"), "weights must be nonnegative and finite"),
        ("train", ("--seed", "-1"), "seed must be a non-negative integer, got -1"),
        ("eval", ("--seed", "-1"), "seed must be a non-negative integer, got -1"),
        ("train", ("--constraint-mode", "nope"), "unknown constraint mode: 'nope'"),
        ("eval", ("--ablation", "nope"), "unknown ablation label: 'nope'"),
        ("eval", ("--postprocess-mode", "nope"), "unknown postprocess mode: 'nope'"),
        ("train", ("--ablation", "custom", "--alpha", "1"), "'custom' needs alpha, beta and gamma"),
    ], ids=["train-epochs-0", "train-negative-weight", "eval-folds-1", "eval-folds-above-size",
            "train-lr-negative", "train-lr-0", "eval-lr-nan", "eval-lr-inf",
            "train-weight-nan", "eval-weight-inf", "train-seed-negative", "eval-seed-negative",
            "train-constraint-mode-nope", "eval-ablation-nope", "eval-postprocess-mode-nope",
            "train-custom-without-weights"])
    def test_bad_settings_exit_2_before_any_work(self, tmp_path, capsys, command, flags, message):
        data = tmp_path / "data.jsonl"
        run_cli("gen", "--n", "4", "--difficulty", "0.1", "--data-out", str(data))
        capsys.readouterr()
        out = tmp_path / "result"
        flag = "--model-out" if command == "train" else "--csv-out"
        assert run_cli(command, "--data", str(data), flag, str(out), *flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,key", [
        ("train", "--constraint-mode", "constraint_mode"),
        ("eval", "--ablation", "ablation"),
        ("eval", "--postprocess-mode", "postprocess_mode"),
        ("solve", "--postprocess-mode", "postprocess_mode"),
    ])
    def test_flag_and_config_key_give_the_same_error(self, tmp_path, capsys, model_file,
                                                     command, flag, key):
        data = tmp_path / "data.jsonl"
        run_cli("gen", "--n", "4", "--difficulty", "0.1", "--data-out", str(data))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: "nope"}))
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--data", str(data), "--model-out", str(out)],
            "eval": ["eval", "--data", str(data), "--csv-out", str(out)],
            "solve": ["solve", "--model", model_file, "." * 81],
        }[command]
        capsys.readouterr()
        errors = []
        for extra in ([flag, "nope"], ["--config", str(cfg)]):
            assert run_cli(*argv, *extra) == 2
            captured = capsys.readouterr()
            assert not captured.out and not out.exists()
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: unknown ") and "'nope'" in errors[0]

    def test_custom_ablation_flag_matches_the_config_file(self, tmp_path):
        data = tmp_path / "data.jsonl"
        cfg = tmp_path / "config.json"
        run_cli("gen", "--n", "4", "--difficulty", "0.1", "--data-out", str(data))
        cfg.write_text(json.dumps({"ablation": "custom", "alpha": 1, "beta": 0.5, "gamma": 0}))
        by_flag, by_file = tmp_path / "flag.csv", tmp_path / "file.csv"
        common = ["eval", "--data", str(data), "--epochs", "1", "--folds", "2"]
        assert run_cli(*common, "--csv-out", str(by_flag), "--ablation", "custom",
                       "--alpha", "1", "--beta", "0.5", "--gamma", "0") == 0
        assert run_cli(*common, "--csv-out", str(by_file), "--config", str(cfg)) == 0
        assert by_flag.read_bytes() == by_file.read_bytes()
        assert {r["ablation"] for r in csv.DictReader(open(by_flag))} == {"custom"}

    @pytest.mark.parametrize("record", [
        {"puzzle": "1" * 82, "solution": "1" * 81, "difficulty": 0.1, "seed": 0},
        [1],
        "x",
        {"puzzle": 5, "solution": "1" * 81, "difficulty": 0.1, "seed": 0},
        {"puzzle": "." * 81, "solution": None, "difficulty": 0.1, "seed": 0},
        b"\xff{}",
    ], ids=["82-characters", "list", "string", "puzzle-number", "solution-null", "not-utf-8"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_malformed_dataset_record_exits_2(self, tmp_path, capsys, command, record):
        data = tmp_path / "data.jsonl"
        run_cli("gen", "--n", "3", "--difficulty", "0.1", "--data-out", str(data))
        lines = data.read_bytes().splitlines()
        lines[1] = record if isinstance(record, bytes) else json.dumps(record).encode()
        data.write_bytes(b"\n".join(lines) + b"\n")
        capsys.readouterr()
        out = tmp_path / "result"
        flags = {"train": ["--model-out", str(out)],
                 "eval": ["--csv-out", str(out), "--folds", "2"]}[command]
        assert run_cli(command, "--data", str(data), *flags) == 2
        err = capsys.readouterr().err
        assert f"{data}:2: bad dataset record" in err
        assert "Error:" not in err  # no exception type leaks through
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("difficulty", "Infinity"), ("difficulty", "1e400"), ("difficulty", "-Infinity"),
        ("difficulty", "NaN"), ("difficulty", "1" + "0" * 400), ("difficulty", '"0.1"'),
        ("seed", "1e400"), ("seed", "1.5"), ("seed", "true"), ("seed", "-1"),
    ], ids=["difficulty-inf", "difficulty-1e400", "difficulty-minus-inf", "difficulty-nan",
            "difficulty-huge-integer", "difficulty-string", "seed-1e400", "seed-1.5",
            "seed-true", "seed-negative"])
    def test_bad_dataset_number_exits_2(self, tmp_path, capsys, key, value):
        data = tmp_path / "data.jsonl"
        run_cli("gen", "--n", "3", "--difficulty", "0.1", "--data-out", str(data))
        lines = data.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), key: None}).replace("null", value)
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=f"{data}:2: bad dataset record: {key} "):
            load_dataset(data)
        capsys.readouterr()
        out = tmp_path / "result.csv"
        assert run_cli("eval", "--data", str(data), "--csv-out", str(out), "--folds", "2") == 2
        assert capsys.readouterr().err.startswith(f"error: {data}:2: bad dataset record")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_dataset_exits_2(self, tmp_path, capsys, command):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        out = tmp_path / "result"
        flag = "--model-out" if command == "train" else "--csv-out"
        assert run_cli(command, "--data", str(data), flag, str(out), "--epochs", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ValueError" not in err
        assert not out.exists()

    def test_mixed_difficulties_exit_2_before_training(self, tmp_path, capsys, monkeypatch):
        from neurosudoku import training

        data = tmp_path / "data.jsonl"
        easy, hard = tmp_path / "easy.jsonl", tmp_path / "hard.jsonl"
        run_cli("gen", "--n", "6", "--difficulty", "0.1", "--data-out", str(easy))
        run_cli("gen", "--n", "6", "--difficulty", "0.8", "--data-out", str(hard))
        data.write_text(easy.read_text() + hard.read_text())
        capsys.readouterr()
        trained = []
        monkeypatch.setattr(training, "train", lambda *args: trained.append(args))
        out = tmp_path / "results.csv"
        assert run_cli("eval", "--data", str(data), "--csv-out", str(out)) == 2
        assert "dataset needs one difficulty, has [0.1, 0.8]" in capsys.readouterr().err
        assert trained == [] and not out.exists()

    def test_runtime_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        from neurosudoku import training
        from neurosudoku.network import NumericOverflowError

        def overflow(dataset, config, init_seed):
            raise NumericOverflowError("numeric overflow in the hidden layer")

        data = tmp_path / "data.jsonl"
        model = tmp_path / "model.json"
        run_cli("gen", "--n", "2", "--difficulty", "0.1", "--data-out", str(data))
        monkeypatch.setattr(training, "train", overflow)
        assert run_cli("train", "--data", str(data), "--model-out", str(model)) == 1
        assert "NumericOverflowError: numeric overflow" in capsys.readouterr().err
        assert not model.exists()

    def test_diverging_run_exits_1_with_one_line(self, tmp_path):
        # a fresh interpreter, whose default filters would print each numpy warning
        data = tmp_path / "data.jsonl"
        run_cli("gen", "--n", "2", "--data-out", str(data))
        proc = fresh_python("-m", "neurosudoku.cli", "train", "--data", str(data), "--epochs", "2",
                            "--alpha", "1e308", "--beta", "1e308", "--gamma", "1e308",
                            "--model-out", str(tmp_path / "model.json"))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: NumericOverflowError: numeric overflow: non-finite gradient"]
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_overflowing_loss_exits_1_and_writes_nothing(self, tmp_path, capsys, command):
        # one weight of 1e308 keeps the gradient finite but makes the loss inf
        data = tmp_path / "data.jsonl"
        run_cli("gen", "--n", "4", "--data-out", str(data))
        capsys.readouterr()
        out = tmp_path / "result"
        flags = {"train": ["--model-out", str(out)],
                 "eval": ["--csv-out", str(out), "--folds", "2"]}[command]
        assert run_cli(command, "--data", str(data), *flags, "--epochs", "1",
                       "--alpha", "1e308") == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: NumericOverflowError: numeric overflow: non-finite loss"]
        assert not captured.out and not out.exists()

    def test_every_documented_config_key_accepted(self, tmp_path):
        from neurosudoku.cli import CONFIG_KEYS

        assert len(CONFIG_KEYS) == 12
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "n_puzzles": 2, "difficulty": 0.1, "ablation": "standard-only", "alpha": 1.0,
            "beta": 0.0, "gamma": 0.0, "constraint_mode": "solution-consistent",
            "epochs": 1, "folds": 2, "seed": 1, "lr": 0.001, "postprocess_mode": "argmax",
        }))
        assert run_cli("--config", str(cfg), "gen", "--data-out", str(tmp_path / "d.jsonl")) == 0
        assert len(load_dataset(tmp_path / "d.jsonl")) == 2


class TestTable1:
    def test_default_grid_shape(self):
        from neurosudoku.cli import DEFAULT_TABLE1_ROWS, DEFAULT_TABLE1_SEEDS

        assert DEFAULT_TABLE1_ROWS == (
            (12, 0.1), (12, 0.3), (12, 0.6), (12, 0.8),
            (100, 0.1), (100, 0.3), (100, 0.6), (1000, 0.8),
        )
        assert len(ABLATIONS) == 4
        assert DEFAULT_TABLE1_SEEDS == (0, 1, 2)

    def test_small_grid_csv_and_svg(self, tmp_path):
        out = tmp_path / "t1"
        code = run_cli("--out", str(out), "table1",
                       "--rows", "6:0.1", "--seeds", "0",
                       "--epochs", "1", "--folds", "2")
        assert code == 0
        with open(out / "table1.csv") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == CSV_COLUMNS
            rows = list(reader)
        assert len(rows) == 4 * 2  # 4 ablations x 2 folds
        assert {r["ablation"] for r in rows} == {
            "standard-only", "standard+expert", "standard+constraints", "all-combined",
        }

        svg_path = out / "accuracy_6.svg"
        root = ET.parse(svg_path).getroot()
        bars = [el for el in root.iter() if el.get("class") == "bar"]
        assert len(bars) == 4  # one difficulty x 4 ablations
        pairs = {(b.get("data-group"), b.get("data-series")) for b in bars}
        assert len(pairs) == 4

    def test_malformed_rows_exit_2(self, tmp_path, capsys):
        code = run_cli("--out", str(tmp_path / "t1"), "table1", "--rows", "12x0.1")
        assert code == 2
        assert "12x0.1" in capsys.readouterr().err

    def test_malformed_seeds_exit_2(self, tmp_path, capsys):
        out = tmp_path / "t1"
        assert run_cli("--out", str(out), "table1", "--rows", "4:0.1", "--seeds", "a") == 2
        assert "bad --seeds: 'a'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (("--rows", ""), "bad --rows: row ''"),
        (("--rows", "4:0.1", "--seeds", ""), "bad --seeds: ''"),
        (("--rows", "4:0.1", "--ablations", ""), "unknown ablation label: ''"),
        (("--rows", "4:0.1", "--ablations", "standard-only,nope"),
         "unknown ablation label: 'nope'"),
        (("--rows", "4:0.1,12:1.5"), "difficulty must be in (0,1), got 1.5"),
        (("--rows", "4:0.1,4:0.1", "--seeds", "0,0", "--ablations", "standard-only,standard-only"),
         "the grid repeats row (4, 0.1)"),
        (("--rows", "4:0.1", "--seeds", "-1"), "seed must be a non-negative integer, got -1"),
    ], ids=["rows-empty", "seeds-empty", "ablations-empty", "unknown-ablation",
            "difficulty-1.5", "repeated-cells", "negative-seed"])
    def test_empty_or_bad_grid_exits_2_before_any_work(self, tmp_path, capsys, argv, message):
        out = tmp_path / "t1"
        assert run_cli("--out", str(out), "table1", *argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("--rows", "4:0.1", "--folds", "1"),
        ("--rows", "4:0.1", "--folds", "0"),
        ("--rows", "12:0.1,4:0.1", "--folds", "5"),
        ("--rows", "0:0.1"),
        ("--rows", "4:0.1", "--epochs", "0"),
        ("--rows", "4:0.1", "--lr", "-0.001"),
        ("--rows", "4:0.1", "--lr", "0"),
        ("--rows", "4:0.1", "--lr=nan"),
        ("--rows", "4:0.1", "--lr", "inf"),
    ], ids=["folds-1", "folds-0", "folds-above-row-size", "empty-row", "epochs-0",
            "lr-negative", "lr-0", "lr-nan", "lr-inf"])
    def test_bad_folds_or_sizes_exit_2_before_any_work(self, tmp_path, capsys, argv):
        out = tmp_path / "t1"
        code = run_cli("--out", str(out), "table1", "--seeds", "0", *argv)
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (("--folds", "1"), "folds must be >= 2"),
        (("--constraint-mode", "nope"), "unknown constraint mode: 'nope'"),
    ], ids=["folds", "constraint-mode"])
    def test_bad_config_values_exit_2_before_any_work(self, tmp_path, capsys, argv, message):
        # The library's TrainConfig check names the bad value; table1 adds no check of its own.
        out = tmp_path / "t1"
        assert run_cli("--out", str(out), "table1", "--rows", "4:0.1", "--seeds", "0", *argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--alpha", "0.5"), ("--beta", "0.5"), ("--gamma", "0.5"),
        ("--postprocess-mode", "greedy-constrained"),
    ])
    def test_flags_it_does_not_read_are_rejected(self, tmp_path, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("--out", str(tmp_path / "t1"), "table1", "--rows", "4:0.1", flag, value)
        assert exc.value.code == 2

    def test_failing_cell_is_recorded_and_exits_1(self, tmp_path, capsys, monkeypatch):
        from neurosudoku import training

        real_evaluate = training.kfold_evaluate

        def flaky_evaluate(dataset, config):
            if config.loss.ablation == "standard+expert":
                raise RuntimeError("boom")
            return real_evaluate(dataset, config)

        monkeypatch.setattr(training, "kfold_evaluate", flaky_evaluate)
        out = tmp_path / "t1"
        code = run_cli("--out", str(out), "table1", "--rows", "4:0.1", "--seeds", "0",
                       "--epochs", "1", "--folds", "2")
        assert code == 1
        rows = list(csv.DictReader(open(out / "table1.csv")))
        folds = {}
        for r in rows:
            folds.setdefault(r["ablation"], []).append(r["fold"])
        assert folds == {"standard-only": ["0", "1"], "standard+expert": ["-1"],
                         "standard+constraints": ["0", "1"], "all-combined": ["0", "1"]}
        failed = next(r for r in rows if r["fold"] == "-1")
        assert failed["acc_all"] == failed["loss_combined"] == "nan"
        lines = (out / "table1.csv").read_bytes().split(b"\r\n")
        assert [line for line in lines if b",-1," in line] == [
            b"4,0.1,standard+expert,-1,nan,nan,nan,nan,nan,nan,1,0"]
        root = ET.parse(out / "accuracy_4.svg").getroot()
        bars = {el.get("data-series"): el for el in root.iter() if el.get("class") == "bar"}
        assert len(bars) == 4 and bars["standard+expert"].get("height") == "0.0"
        err = capsys.readouterr().err
        assert "n=4 difficulty=0.1 seed=0 standard+expert" in err and "boom" in err
        assert "standard-only" not in err

    def test_dead_worker_exits_1(self, tmp_path, capsys, monkeypatch):
        from neurosudoku import training

        monkeypatch.setattr(training, "kfold_evaluate", lambda dataset, config: os._exit(3))
        code = run_cli("--out", str(tmp_path / "t1"), "table1", "--rows", "4:0.1", "--seeds", "0",
                       "--epochs", "1", "--folds", "2")
        assert code == 1
        assert "error: BrokenProcessPool" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


class TestSettingTypes:
    """A config-file value of the wrong type exits 2 and names its key."""

    @pytest.mark.parametrize("command,key,value", [
        ("gen", "n_puzzles", None),
        ("gen", "n_puzzles", 2.5),
        ("gen", "seed", [0]),
        ("gen", "difficulty", "0.1"),
        ("gen", "n_puzzles", True),
        ("train", "epochs", None),
        ("train", "epochs", 1.9),
        ("train", "epochs", [1]),
        ("train", "epochs", {}),
        ("train", "seed", 0.5),
        ("train", "alpha", "1"),
        ("train", "ablation", {}),
        ("train", "constraint_mode", []),
        ("eval", "folds", 2.5),
        ("eval", "lr", None),
        ("eval", "postprocess_mode", 1),
        ("solve", "postprocess_mode", None),
    ])
    def test_wrong_type_exits_2_and_names_the_key(self, tmp_path, capsys, model_file,
                                                  command, key, value):
        data = tmp_path / "data.jsonl"
        run_cli("gen", "--n", "4", "--difficulty", "0.1", "--data-out", str(data))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        argv = {
            "gen": ["gen", "--data-out", str(out)],
            "train": ["train", "--data", str(data), "--model-out", str(out)],
            "eval": ["eval", "--data", str(data), "--csv-out", str(out)],
            "solve": ["solve", "--model", model_file, "." * 81],
        }[command]
        capsys.readouterr()
        assert run_cli("--config", str(cfg), *argv) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert "Error" not in captured.err  # no exception type leaks through
        assert not out.exists() and not captured.out

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"n_puzzles": 2.0}))
        assert run_cli("--config", str(cfg), "gen", "--data-out", str(tmp_path / "d.jsonl")) == 0
        assert len(load_dataset(tmp_path / "d.jsonl")) == 2


class TestSolve:
    def test_fully_given_puzzle_echoes(self, model_file, solved_grid, capsys):
        text = format_grid(solved_grid)
        assert run_cli("solve", "--model", model_file, text) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == text

    def test_malformed_puzzle_exits_2(self, model_file, capsys):
        code = run_cli("solve", "--model", model_file, "1" * 80)
        assert code == 2
        assert "expected 81 characters" in capsys.readouterr().err

    def test_inconsistent_puzzle_exits_2(self, model_file, capsys):
        text = "55" + "." * 79
        assert run_cli("solve", "--model", model_file, text) == 2
        assert "inconsistent" in capsys.readouterr().err

    def test_hybrid_on_empty_puzzle_is_valid(self, model_file, capsys):
        code = run_cli("solve", "--model", model_file, "." * 81,
                       "--postprocess-mode", "hybrid-complete")
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        assert is_valid_complete(parse_grid(line))

    def test_unknown_postprocess_mode_in_config_exits_2(self, model_file, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"postprocess_mode": "magic"}))
        assert run_cli("--config", str(cfg), "solve", "--model", model_file, "." * 81) == 2
        assert "unknown postprocess mode: 'magic'" in capsys.readouterr().err

    def test_render_requires_solution(self, model_file, capsys):
        code = run_cli("solve", "--model", model_file, "." * 81, "--render")
        assert code == 2

    def test_render_with_solution(self, model_file, solved_grid, capsys):
        puzzle = solved_grid.copy()
        puzzle[0, :3] = 0
        code = run_cli("solve", "--model", model_file, format_grid(puzzle),
                       "--solution", format_grid(solved_grid), "--render", "--no-color")
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted cells correct:" in out

    def test_solution_alone_prints_the_count(self, model_file, solved_grid, capsys):
        puzzle = solved_grid.copy()
        puzzle[0, :3] = 0
        code = run_cli("solve", "--model", model_file, format_grid(puzzle),
                       "--solution", format_grid(solved_grid))
        assert code == 0
        grid_line, count_line = capsys.readouterr().out.splitlines()
        correct = int((parse_grid(grid_line) == solved_grid)[0, :3].sum())
        assert count_line == f"predicted cells correct: {correct}/3"

    def test_render_svg_written(self, model_file, solved_grid, tmp_path):
        puzzle = solved_grid.copy()
        puzzle[0, :3] = 0
        svg = tmp_path / "grid.svg"
        code = run_cli("solve", "--model", model_file, format_grid(puzzle),
                       "--solution", format_grid(solved_grid), "--render-svg", str(svg))
        assert code == 0
        root = ET.parse(svg).getroot()
        cells = [el for el in root.iter() if el.get("class") == "cell"]
        assert len(cells) == 81
        statuses = {el.get("data-status") for el in cells}
        assert "given" in statuses

    @pytest.mark.parametrize("case", [
        "render-without-solution", "render-svg-without-solution", "solution-80-characters",
        "solution-incomplete", "solution-disagrees-with-givens", "unknown-postprocess-mode",
        "unknown-postprocess-mode-flag", "no-color-without-render",
    ])
    def test_usage_errors_exit_2_before_the_model_is_read(self, solved_grid, tmp_path, capsys,
                                                          case):
        puzzle = solved_grid.copy()
        puzzle[0, :3] = 0
        svg = tmp_path / "grid.svg"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"postprocess_mode": "magic"}))
        flags = {
            "render-without-solution": ["--render"],
            "render-svg-without-solution": ["--render-svg", str(svg)],
            "solution-80-characters": ["--solution", "1" * 80, "--render"],
            "solution-incomplete": ["--solution", format_grid(puzzle), "--render"],
            # a digit relabeling: a valid complete grid that differs in every cell
            "solution-disagrees-with-givens": ["--solution", format_grid(solved_grid % 9 + 1)],
            "unknown-postprocess-mode": ["--config", str(config)],
            "unknown-postprocess-mode-flag": ["--postprocess-mode", "nope"],
            "no-color-without-render": ["--solution", format_grid(solved_grid), "--no-color"],
        }[case]
        # the model file does not exist: reading it would exit 1
        code = run_cli("solve", "--model", str(tmp_path / "missing.json"), format_grid(puzzle),
                       *flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and not captured.out
        assert not svg.exists()

    def test_bad_checkpoint_reports_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "other", "version": 0}')
        code = run_cli("solve", "--model", str(bad), "." * 81)
        assert code == 2
        assert "format" in capsys.readouterr().err

    def test_checkpoint_with_string_weights_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "strings.json"
        save_params(init_params(0), bad)
        payload = json.loads(bad.read_text())
        payload["b1"] = [str(v) for v in payload["b1"]]
        bad.write_text(json.dumps(payload))
        code = run_cli("solve", "--model", str(bad), "." * 81)
        captured = capsys.readouterr()
        assert code == 2
        assert "field b1 holds non-number" in captured.err
        assert not captured.out


class TestFileErrors:
    """A file that cannot be read or written exits 1 with one line naming it."""

    CASES = {
        "gen-write": ("gen", "--n", "2", "--data-out", "{missing}/d.jsonl"),
        "train-read": ("train", "--data", "{missing}/d.jsonl"),
        "train-write": ("train", "--data", "{data}", "--epochs", "1",
                        "--model-out", "{missing}/m.json"),
        "eval-read": ("eval", "--data", "{missing}/d.jsonl"),
        "eval-write": ("eval", "--data", "{data}", "--epochs", "1", "--folds", "2",
                       "--csv-out", "{missing}/r.csv"),
        "table1-out-is-a-file": ("--out", "{data}", "table1", "--rows", "4:0.1"),
        "solve-read": ("solve", "--model", "{missing}/m.json", "." * 81),
        "solve-write": ("solve", "--model", "{model}", "." * 81, "--solution", "{solution}",
                        "--render-svg", "{missing}/g.svg"),
        "export-asp-write": ("export-asp", "." * 81, "--asp-out", "{missing}/p.lp"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_1_with_one_line_naming_the_path(self, tmp_path, capsys, model_file,
                                                   solved_grid, case):
        data = tmp_path / "data.jsonl"
        run_cli("gen", "--n", "4", "--difficulty", "0.1", "--data-out", str(data))
        capsys.readouterr()
        paths = dict(missing=tmp_path / "missing-dir", data=data, model=model_file,
                     solution=format_grid(solved_grid))
        argv = [arg.format(**paths) for arg in self.CASES[case]]
        assert run_cli(*argv) == 1
        named = next((arg for arg in argv if "missing-dir" in arg), str(data))
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert named in lines[0]
        assert "Error" not in lines[0]  # no exception class name


class TestFlags:
    """Each subcommand takes exactly the flags it reads; a flag before the
    subcommand is shorthand for the same flag after it."""

    COMMANDS = {
        "gen": ["gen", "--n", "2"],
        "train": ["train", "--data", "data.jsonl", "--epochs", "1"],
        "eval": ["eval", "--data", "data.jsonl", "--epochs", "1", "--folds", "2"],
        "table1": ["table1", "--rows", "4:0.1", "--seeds", "0", "--epochs", "1", "--folds", "2",
                   "--ablations", "standard-only"],
        "solve": ["solve", "--model", "model.json", "." * 81],
        "export-asp": ["export-asp", "." * 81],
    }
    UNREAD = [
        ("table1", "--seed", "9"), ("solve", "--seed", "9"), ("export-asp", "--seed", "9"),
        ("gen", "--profile", "quick"), ("train", "--profile", "quick"),
        ("eval", "--profile", "quick"), ("solve", "--profile", "quick"),
        ("export-asp", "--profile", "quick"),
        ("table1", "--profile", "quick"),
        ("gen", "--out", "newdir"), ("train", "--out", "newdir"), ("eval", "--out", "newdir"),
        ("solve", "--out", "newdir"), ("export-asp", "--out", "newdir"),
        ("export-asp", "--config", "config.json"), ("table1", "--config", "config.json"),
        ("train", "--folds", "2"), ("train", "--postprocess-mode", "argmax"),
        ("table1", "--chart-style", "lines"),
    ]

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch, model_file):
        """A directory holding a dataset, a model and a config file, made the cwd,
        so every command's default outputs would land in it."""
        run_cli("gen", "--n", "4", "--difficulty", "0.1", "--data-out", str(tmp_path / "data.jsonl"))
        (tmp_path / "config.json").write_text("{}")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("where", ["before", "after"])
    @pytest.mark.parametrize("command,flag,value", UNREAD,
                             ids=[f"{c}-{f.lstrip('-')}" for c, f, _ in UNREAD])
    def test_unread_flag_exits_2(self, workdir, capsys, command, flag, value, where):
        argv = self.COMMANDS[command]
        argv = [flag, value, *argv] if where == "before" else [*argv, flag, value]
        before = sorted(os.listdir(workdir))
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert sorted(os.listdir(workdir)) == before
        # the subcommand's parser reports it, so its usage shows the flags it takes
        err = capsys.readouterr().err
        assert err.startswith(f"usage: neurosudoku {command} [-h]")
        assert f"neurosudoku {command}: error: unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize("argv", [
        ("table1", "--rows", "4:0.1", "--seeds", "0", "--epochs", "1", "--folds", "2",
         "--ablation", "standard-only"),
        ("gen", "--n", "2", "--diff", "0.3"),
    ], ids=["table1-ablation", "gen-diff"])
    def test_abbreviated_flag_exits_2(self, workdir, argv):
        before = sorted(os.listdir(workdir))
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert sorted(os.listdir(workdir)) == before

    def test_flag_before_subcommand_means_the_same(self, tmp_path):
        a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
        assert run_cli("--seed", "5", "gen", "--n", "3", "--data-out", str(a)) == 0
        assert run_cli("gen", "--seed", "5", "--n", "3", "--data-out", str(b)) == 0
        assert run_cli("gen", "--n", "3", "--data-out", str(c)) == 0
        assert a.read_bytes() == b.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize("first,second", [("--render", "--no-color"),
                                              ("--no-color", "--render")],
                             ids=["render-first", "no-color-first"])
    def test_no_value_flag_before_subcommand_means_the_same(self, model_file, solved_grid,
                                                            capsys, first, second):
        puzzle = solved_grid.copy()
        puzzle[0, :4] = 0
        argv = ["--model", model_file, format_grid(puzzle), "--solution", format_grid(solved_grid)]
        assert run_cli("solve", *argv, first, second) == 0
        after = capsys.readouterr().out
        assert run_cli(first, "solve", *argv, second) == 0
        assert capsys.readouterr().out == after
        assert "predicted cells correct" in after

    def test_unread_flag_before_a_positional_is_named(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--seed", "9", *self.COMMANDS["export-asp"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 9" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("gen", "--n", "0"),
        ("train", "--data", "data.jsonl", "--epochs", "0"),
        ("eval", "--data", "data.jsonl", "--folds", "1"),
        ("eval", "--data", "missing.jsonl"),
    ], ids=["gen-n-0", "train-epochs-0", "eval-folds-1", "eval-missing-data"])
    def test_error_before_writing_creates_no_out_directory(self, workdir, argv):
        # the outputs default to files in the working directory, model.json among them
        before = {path.name: path.read_bytes() for path in workdir.iterdir()}
        assert run_cli(*argv) != 0
        assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before

    @pytest.mark.parametrize("out", [("--out=gen",), ("--out", "gen")], ids=["equals", "space"])
    def test_flag_value_may_name_a_subcommand(self, workdir, out):
        assert run_cli(*out, *self.COMMANDS["table1"]) == 0
        assert (workdir / "gen" / "table1.csv").exists()

    def test_readme_cli_table_lists_each_parsers_flags(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        rows = re.findall(r"^\| `([a-z0-9-]+)` \|(.*)$", readme, re.MULTILINE)
        documented = {name: set(re.findall(r"--[a-z-]+", text)) for name, text in rows}
        parsed = {name: {flag for action in sub._actions for flag in action.option_strings}
                  - {"-h", "--help"} for name, sub in subcommand_parsers().items()}
        assert documented == parsed

    def test_readme_cli_examples_parse(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        blocks = re.findall(r"^```bash\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
        lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("neurosudoku ")]
        parser = build_parser()
        named = set()
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            args, unread = parser.parse_known_args(_subcommand_first(argv, parser))
            assert unread == [], line
            named.add(args.command)
        assert named == set(subcommand_parsers())

    def test_settable_values_per_subcommand_are_pinned(self):
        # a ratchet: a new flag or positional has to edit these counts
        counts = {name: sum(not isinstance(action, argparse._HelpAction) for action in sub._actions)
                  for name, sub in subcommand_parsers().items()}
        assert counts == {"gen": 5, "train": 11, "eval": 13, "table1": 8, "solve": 8,
                          "export-asp": 2}

    def test_each_shared_flag_is_taken_by_several_subcommands(self):
        for flag in SHARED_FLAGS:
            takers = [name for name, sub in subcommand_parsers().items()
                      if flag in sub._option_string_actions]
            assert len(takers) >= 2, f"{flag} is taken only by {takers}"


class TestCharts:
    def test_grid_chart_bytes_are_pinned(self):
        # two puzzle counts at two difficulties; standard+expert fails one
        # cell, standard+constraints fails every cell it has
        def row(n, difficulty, ablation, fold, acc):
            return {"n_puzzles": n, "difficulty": difficulty, "ablation": ablation,
                    "fold": fold, "acc_all": acc}

        rows = [
            row(4, 0.1, "standard-only", 0, "0.500000"),
            row(4, 0.1, "standard-only", 1, "0.750000"),
            row(4, 0.1, "standard-only", 2, "0.666667"),
            row(4, 0.1, "standard+expert", -1, "nan"),
            row(4, 0.1, "standard+constraints", -1, "nan"),
            row(4, 0.1, "all-combined", 0, "0.901235"),
            row(4, 0.8, "standard-only", 0, "0.250000"),
            row(4, 0.8, "standard+expert", 0, "0.333333"),
            row(4, 0.8, "standard+constraints", -1, "nan"),
            row(4, 0.8, "all-combined", 0, "1.000000"),
            row(12, 0.1, "standard-only", 0, "0.123457"),
            row(12, 0.1, "standard+expert", 0, "0.000000"),
            row(12, 0.1, "all-combined", 0, "0.802469"),
            row(12, 0.8, "standard-only", 0, "0.086420"),
            row(12, 0.8, "standard+expert", 0, "0.111111"),
            row(12, 0.8, "all-combined", 0, "0.234568"),
        ]
        digests = {n: hashlib.sha256(svg.encode("utf-8")).hexdigest()
                   for n, svg in grid_charts(rows, ABLATIONS)}
        assert digests == {
            4: "866f73d5a701784b038cd11b9dc3f14ba4b89dbb3c5cabde3eda03121d539e13",
            12: "3179bf73df845a315f2021b21dc4a9660b952a987a8eed5ecca29ff0c7c3c1ac",
        }


class TestRendering:
    def test_status_given_iff_cell_not_masked(self, solved_grid):
        from neurosudoku.charts import STATUS_GIVEN, cell_status
        from neurosudoku.engine import mask_puzzle

        inst = mask_puzzle(solved_grid, 0.3, 9)
        status = cell_status(solved_grid, inst.solution, inst.mask)
        for i in range(9):
            for j in range(9):
                assert (status[i][j] == STATUS_GIVEN) == (not inst.mask[i, j])

    def test_correct_and_wrong_cells_marked(self, solved_grid):
        from neurosudoku.charts import STATUS_CORRECT, STATUS_WRONG, cell_status
        from neurosudoku.engine import mask_puzzle

        inst = mask_puzzle(solved_grid, 0.3, 9)
        predicted = inst.solution.copy()
        masked_cells = np.argwhere(inst.mask)
        wrong_i, wrong_j = masked_cells[0]
        predicted[wrong_i, wrong_j] = predicted[wrong_i, wrong_j] % 9 + 1
        status = cell_status(predicted, inst.solution, inst.mask)
        assert status[wrong_i][wrong_j] == STATUS_WRONG
        ok_i, ok_j = masked_cells[1]
        assert status[ok_i][ok_j] == STATUS_CORRECT


class TestExportAsp:
    def test_empty_puzzle_exports_rules_only(self, tmp_path):
        out = tmp_path / "prog.lp"
        assert run_cli("export-asp", "." * 81, "--asp-out", str(out)) == 0
        lines = [ln for ln in out.read_text().splitlines() if ln.strip()]
        assert lines == list(PROGRAM_RULES)

    def test_fact_per_given(self, tmp_path, solved_grid):
        puzzle = solved_grid.copy()
        puzzle[np.unravel_index(range(0, 81, 2), (9, 9))] = 0
        out = tmp_path / "prog.lp"
        assert run_cli("export-asp", format_grid(puzzle), "--asp-out", str(out)) == 0
        facts = [ln for ln in out.read_text().splitlines() if ln.startswith("cell(")]
        assert len(facts) == int((puzzle != 0).sum())

    def test_malformed_puzzle_exits_2(self, capsys):
        assert run_cli("export-asp", "12345") == 2
        assert "expected 81 characters" in capsys.readouterr().err

    def test_inconsistent_puzzle_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "prog.lp"
        assert run_cli("export-asp", "1" * 81, "--asp-out", str(out)) == 2
        assert "inconsistent" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

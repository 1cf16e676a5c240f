import concurrent.futures
import csv
import itertools
import json
import math
import multiprocessing
import os
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurosudoku.engine import generate_solved, mask_puzzle, solve
from neurosudoku.grids import format_grid, is_valid_complete
from neurosudoku.losses import (
    ABLATIONS,
    CONSTRAINT_MODES,
    LossConfig,
    ablation_config,
    combined_loss_grad,
)
from neurosudoku.network import (
    AdamState,
    N_PARAMS,
    PARAM_FIELDS,
    adam_step,
    backward,
    encode_input,
    forward,
    init_params,
    zeros_params,
)
from neurosudoku import training
from neurosudoku.training import (
    CSV_COLUMNS,
    MODE_ARGMAX,
    MODE_GREEDY,
    MODE_HYBRID,
    POSTPROCESS_MODES,
    DatasetError,
    ExperimentResult,
    TrainConfig,
    build_dataset,
    dataset_fingerprint,
    fold_splits,
    kfold_evaluate,
    load_dataset,
    postprocess,
    run_grid,
    save_dataset,
    solve_with_model,
    train,
    write_results_csv,
)

from oracles import greedy_fill_slow


class TestBuildDataset:
    def test_twelve_puzzles_difficulty_point_one(self):
        dataset = build_dataset(12, 0.1, 0)
        assert len(dataset) == 12
        for inst in dataset:
            assert int(inst.mask.sum()) == 8
            inst.validate()

    def test_fingerprint_deterministic(self):
        a = build_dataset(5, 0.3, 7)
        b = build_dataset(5, 0.3, 7)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)

    def test_fingerprint_order_independent(self):
        dataset = build_dataset(5, 0.3, 7)
        assert dataset_fingerprint(dataset) == dataset_fingerprint(dataset[::-1])

    def test_hard_instances_verified_by_solver(self):
        for inst in build_dataset(3, 0.8, 5):
            inst.validate()
            outcome = solve(inst.puzzle, 1)
            assert outcome.solutions
            given = inst.puzzle != 0
            assert (outcome.solutions[0][given] == inst.solution[given]).all()

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            build_dataset(0, 0.3, 0)

    def test_difficulty_of_one_and_of_mixed_difficulties(self):
        assert training.dataset_difficulty(build_dataset(3, 0.3, 0)) == 0.3
        mixed = build_dataset(2, 0.8, 0) + build_dataset(2, 0.1, 5)
        message = "dataset needs one difficulty, has [0.1, 0.8]"
        with pytest.raises(ValueError, match=re.escape(message)):
            training.dataset_difficulty(mixed)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        dataset = build_dataset(4, 0.6, 3)
        path = tmp_path / "data.jsonl"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert len(loaded) == 4
        for a, b in zip(dataset, loaded):
            assert (a.puzzle == b.puzzle).all()
            assert (a.solution == b.solution).all()
            assert a.difficulty == b.difficulty
            assert a.seed == b.seed

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"puzzle": "123", "solution": "456", "difficulty": 0.1, "seed": 0}\n')
        with pytest.raises(DatasetError, match=":1:"):
            load_dataset(path)


class TestTrain:
    def test_single_epoch_single_puzzle_is_one_adam_step(self):
        dataset = build_dataset(1, 0.1, 0)
        config = TrainConfig(epochs=1, loss=ablation_config("standard-only"))
        params, history = train(dataset, config, init_seed=4)
        assert len(history) == 1

        expected = init_params(4)
        state = AdamState(config.lr)
        x = encode_input(dataset[0].puzzle)
        tensor, cache = forward(expected, x)
        _, d_tensor = combined_loss_grad(tensor, dataset[0], config.loss)
        grads = backward(expected, cache, d_tensor)
        adam_step(expected, grads, state)
        for f in PARAM_FIELDS:
            assert (getattr(params, f) == getattr(expected, f)).all()

    def test_steps_allocate_no_parameter_sized_temporaries(self):
        # numpy reports its buffers to tracemalloc.  A run holds five
        # parameter-sized buffers (params, Adam's m, v and scratch, the
        # gradient) and short-lived per-step arrays (numpy's ufunc buffers in
        # backward's outer products, the loss gradient's arrays) of about 0.4
        # of one: a peak of 5.4.  One parameter-sized temporary per update
        # takes the peak past six.
        dataset = build_dataset(8, 0.3, 0)
        config = TrainConfig(epochs=3)
        train(dataset, config, init_seed=0)  # warm-up: first-call imports and caches
        tracemalloc.start()
        try:
            train(dataset, config, init_seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * N_PARAMS * 8, f"peak {peak / (N_PARAMS * 8):.2f} parameter buffers"

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("seed", [-1, True])
    def test_seed_that_is_not_a_non_negative_integer_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
            TrainConfig(seed=seed)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], TrainConfig(), 0)

    def test_identical_seeds_bitwise_identical(self):
        dataset = build_dataset(3, 0.3, 1)
        config = TrainConfig(epochs=5)
        p1, h1 = train(dataset, config, init_seed=2)
        p2, h2 = train(dataset, config, init_seed=2)
        assert h1 == h2
        for f in PARAM_FIELDS:
            assert (getattr(p1, f) == getattr(p2, f)).all()

    def test_loss_decreases_on_small_dataset(self):
        dataset = build_dataset(6, 0.1, 2)
        config = TrainConfig(epochs=30, loss=ablation_config("standard-only"))
        _, history = train(dataset, config, init_seed=0)
        assert history[-1] < history[0]

    def test_loss_decreases_at_default_settings(self):
        dataset = build_dataset(12, 0.1, 9)
        config = TrainConfig(loss=ablation_config("standard-only"))
        _, history = train(dataset, config, init_seed=1)
        assert len(history) == config.epochs == 200
        assert history[-1] < history[0]

    def test_single_puzzle_memorized(self):
        dataset = build_dataset(1, 0.1, 3)
        config = TrainConfig(epochs=200, loss=ablation_config("standard-only"))
        _, history = train(dataset, config, init_seed=0)
        assert history[-1] < 0.1 * history[0]


def truth_postprocess(dataset, seen=None):
    """A ``postprocess`` stub that returns each puzzle's own solution and
    appends the puzzle's text to ``seen`` when given."""
    solutions = {format_grid(inst.puzzle): inst.solution for inst in dataset}

    def stub(tensor, puzzle, mode):
        text = format_grid(puzzle)
        if seen is not None:
            seen.append(text)
        return solutions[text]

    return stub


def stub_train(train_set, cfg, init_seed):
    return init_params(init_seed), [0.0] * cfg.epochs


@pytest.fixture(scope="module")
def split_pool():
    return build_dataset(20, 0.1, 0)


class TestFoldSplits:
    @settings(max_examples=60, deadline=None)
    @given(folds=st.integers(2, 6), extra=st.integers(0, 14), seed=st.integers(0, 2**64))
    def test_validation_blocks_partition_the_dataset_in_any_order(self, split_pool, folds,
                                                                   extra, seed):
        dataset = split_pool[:folds + extra]

        def ids(split):  # each set's instances, as the dataset's own objects
            return [([id(i) for i in train_set], [id(i) for i in val_set])
                    for train_set, val_set in split]

        splits = ids(fold_splits(dataset, folds, seed))
        all_ids = sorted(id(i) for i in dataset)
        assert len(splits) == folds
        assert sorted(i for _, val_ids in splits for i in val_ids) == all_ids
        sizes = [len(val_ids) for _, val_ids in splits]
        assert max(sizes) - min(sizes) <= 1
        for train_ids, val_ids in splits:
            assert sorted(train_ids) == sorted(set(all_ids) - set(val_ids))
        assert ids(fold_splits(dataset[::-1], folds, seed)) == splits


class TestKFold:
    def test_each_puzzle_validated_exactly_once(self, monkeypatch):
        dataset = build_dataset(12, 0.1, 0)
        config = TrainConfig(epochs=1, folds=3)
        seen = []
        train_sizes = []

        def sizing_train(train_set, cfg, init_seed):
            train_sizes.append(len(train_set))
            return stub_train(train_set, cfg, init_seed)

        monkeypatch.setattr(training, "train", sizing_train)
        monkeypatch.setattr(training, "postprocess", truth_postprocess(dataset, seen))
        result = kfold_evaluate(dataset, config)
        assert len(result.folds) == 3
        assert train_sizes == [8, 8, 8]  # validation blocks of 4 each
        assert sorted(seen) == sorted(format_grid(inst.puzzle) for inst in dataset)
        assert len(set(seen)) == 12

    def test_truth_stub_scores_one_with_zero_std(self, monkeypatch):
        dataset = build_dataset(12, 0.3, 1)
        config = TrainConfig(epochs=1, folds=3)
        monkeypatch.setattr(training, "train", stub_train)
        monkeypatch.setattr(training, "postprocess", truth_postprocess(dataset))
        result = kfold_evaluate(dataset, config)
        assert result.mean_all == 1.0
        assert result.std_all == 0.0
        assert result.mean_empty == 1.0
        assert result.std_empty == 0.0

    def test_train_never_sees_validation_fold(self, monkeypatch):
        dataset = build_dataset(9, 0.1, 2)
        config = TrainConfig(epochs=1, folds=3)
        fold_train_sets = []

        def spy_train(train_set, cfg, init_seed):
            fold_train_sets.append({format_grid(i.puzzle) for i in train_set})
            return init_params(0), [0.0] * cfg.epochs

        fold_val_sets = []
        monkeypatch.setattr(training, "train", spy_train)
        monkeypatch.setattr(training, "postprocess", truth_postprocess(dataset, fold_val_sets))
        kfold_evaluate(dataset, config)
        assert len(fold_train_sets) == 3
        all_puzzles = {format_grid(i.puzzle) for i in dataset}
        vals_per_fold = [set(fold_val_sets[i * 3:(i + 1) * 3]) for i in range(3)]
        for train_set, val_set in zip(fold_train_sets, vals_per_fold):
            assert not train_set & val_set
            assert train_set | val_set == all_puzzles

    def test_input_order_does_not_change_result(self):
        config = TrainConfig(epochs=2, folds=2)
        distinct = build_dataset(8, 0.1, 5)
        # a tie in canonical order: the same puzzle and solution, another seed
        tied = distinct[:5] + [replace(distinct[0], seed=99)]
        for dataset in (distinct, tied):
            r1 = kfold_evaluate(dataset, config)
            r2 = kfold_evaluate(dataset[::-1], config)
            assert r1.fingerprint == r2.fingerprint
            assert r1.mean_all == r2.mean_all
            assert r1.folds == r2.folds

    def test_mixed_difficulties_rejected_before_training(self, monkeypatch):
        mixed = build_dataset(6, 0.1, 0) + build_dataset(6, 0.3, 10)
        trained = []

        def spy_train(train_set, cfg, init_seed):
            trained.append(init_seed)
            return init_params(init_seed), [0.0] * cfg.epochs

        monkeypatch.setattr(training, "train", spy_train)
        message = "dataset needs one difficulty, has [0.1, 0.3]"
        with pytest.raises(ValueError, match=re.escape(message)):
            kfold_evaluate(mixed, TrainConfig(epochs=1, folds=3))
        assert trained == []

    def test_folds_exceeding_dataset_rejected(self):
        dataset = build_dataset(2, 0.1, 0)
        with pytest.raises(ValueError, match="folds"):
            kfold_evaluate(dataset, TrainConfig(epochs=1, folds=3))

    def test_one_forward_pass_per_validation_puzzle(self, monkeypatch):
        calls = []
        real_forward = training.forward

        def counting_forward(params, x):
            calls.append(x)
            return real_forward(params, x)

        monkeypatch.setattr(training, "forward", counting_forward)
        kfold_evaluate(build_dataset(12, 0.1, 0), TrainConfig(epochs=2, folds=3))
        assert len(calls) == 3 * 8 * 2 + 12  # each fold's training steps, then each validation puzzle

    def test_greedy_empty_cells_score_as_wrong(self, monkeypatch):
        dataset = build_dataset(6, 0.6, 0)
        config = TrainConfig(epochs=2, folds=2, postprocess_mode=MODE_GREEDY)
        unspied = kfold_evaluate(dataset, config)
        empty = []

        def spy_postprocess(tensor, puzzle, mode):
            grid = postprocess(tensor, puzzle, mode)
            empty.append(int((grid == 0).sum()))
            return grid

        monkeypatch.setattr(training, "postprocess", spy_postprocess)
        result = kfold_evaluate(dataset, config)
        assert sum(empty) > 0  # greedy left cells empty, and they scored
        assert unspied.mean_all == result.mean_all
        assert 0.0 < result.mean_empty < 1.0

    def test_history_recorded_per_fold(self):
        dataset = build_dataset(4, 0.1, 1)
        config = TrainConfig(epochs=3, folds=2)
        result = kfold_evaluate(dataset, config)
        for fr in result.folds:
            assert len(fr.history) == 3
            assert fr.val_loss.combined >= 0


def one_hot_params_for(solution):
    """Parameters that make the network emit (nearly) the one-hot solution
    regardless of input: zero weights, huge bias on the true digits."""
    params = zeros_params()
    logits = params.b2.reshape(81, 9)
    for i in range(9):
        for j in range(9):
            logits[9 * i + j, solution[i, j] - 1] = 60.0
    return params


class TestSolveWithModel:
    def test_fully_given_puzzle_passes_through_every_mode(self, solved_grid):
        params = init_params(0)
        for mode in (MODE_ARGMAX, MODE_GREEDY, MODE_HYBRID):
            out = solve_with_model(params, solved_grid, mode)
            assert (out == solved_grid).all()

    def test_one_hot_correct_model_recovers_solution(self, solved_grid):
        inst = mask_puzzle(solved_grid, 0.3, 3)
        params = one_hot_params_for(solved_grid)
        for mode in (MODE_ARGMAX, MODE_GREEDY, MODE_HYBRID):
            out = solve_with_model(params, inst.puzzle, mode)
            assert (out == solved_grid).all(), mode

    def test_givens_always_preserved(self, solved_grid):
        inst = mask_puzzle(solved_grid, 0.6, 4)
        given = inst.puzzle != 0
        for mode in (MODE_ARGMAX, MODE_GREEDY, MODE_HYBRID):
            out = solve_with_model(init_params(1), inst.puzzle, mode)
            assert (out[given] == inst.puzzle[given]).all()

    def test_uniform_model_hybrid_completes_easy_puzzle(self, solved_grid):
        inst = mask_puzzle(solved_grid, 0.1, 6, require_unique=True)
        out = solve_with_model(zeros_params(), inst.puzzle, MODE_HYBRID)
        assert is_valid_complete(out)

    def test_hybrid_valid_even_when_greedy_blocks_itself(self):
        # an untrained model's greedy pass on the empty puzzle dead-ends;
        # hybrid must still deliver a valid grid for a solvable puzzle
        empty = np.zeros((9, 9), dtype=int)
        out = solve_with_model(init_params(0), empty, MODE_HYBRID)
        assert is_valid_complete(out)

    def test_hybrid_on_unsolvable_puzzle_returns_degraded_grid(self):
        # consistent givens with no completion: cell (0,0) sees 1..8 in its
        # row and 9 in its column, so no digit fits there
        puzzle = np.zeros((9, 9), dtype=int)
        puzzle[0, 1:9] = range(1, 9)
        puzzle[3, 0] = 9
        from neurosudoku.grids import is_consistent_partial

        assert is_consistent_partial(puzzle)
        assert not solve(puzzle, 1).solutions
        out = solve_with_model(init_params(0), puzzle, MODE_HYBRID)
        given = puzzle != 0
        assert (out[given] == puzzle[given]).all()
        assert out[0, 0] == 0  # the dead cell stays empty, no exception

    def test_hybrid_on_unsolvable_puzzle_finishes_the_greedy_grid(self):
        # the engine is asked at the first stuck cell; with no completion the
        # greedy pass goes on from there, so every later cell is still filled
        no_candidate = np.zeros((9, 9), dtype=int)
        no_candidate[0, 1:9] = range(1, 9)
        no_candidate[3, 0] = 9
        clashing = mask_puzzle(generate_solved(3), 0.6, 3).puzzle
        clashing[0, :] = 0
        clashing[0, 0] = clashing[0, 8] = 4
        for puzzle in (no_candidate, clashing):
            assert not solve(puzzle, 1).solutions
            for seed in range(4):
                tensor, _ = forward(init_params(seed), encode_input(puzzle))
                expected = greedy_fill_slow(tensor, puzzle)
                assert sum(row.count(0) for row in expected) < 81 - (puzzle != 0).sum()
                assert postprocess(tensor, puzzle, MODE_HYBRID).tolist() == expected

    def test_hybrid_solves_from_givens_when_greedy_leaves_empties(self):
        # greedy leaves a cell empty only when no digit fits it, so the
        # greedy grid has no completion and hybrid solves the givens alone
        fallbacks = 0
        for seed in range(12):
            puzzle = mask_puzzle(generate_solved(seed), 0.6, seed).puzzle
            params = init_params(seed)
            greedy = solve_with_model(params, puzzle, MODE_GREEDY)
            if (greedy == 0).any():
                fallbacks += 1
                expected = solve(puzzle, 1).solutions[0]
                assert (solve_with_model(params, puzzle, MODE_HYBRID) == expected).all()
        assert fallbacks > 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), difficulty=st.sampled_from([0.1, 0.3, 0.6, 0.8]))
    def test_greedy_matches_loop_oracle(self, seed, difficulty):
        puzzle = mask_puzzle(generate_solved(seed), difficulty, seed).puzzle
        # init_params: no ties; zeros_params: every digit ties; three levels:
        # peaks tie across some cells, digits tie within some cells
        tensors = [forward(params, encode_input(puzzle))[0] for params in (init_params(seed), zeros_params())]
        tensors.append(np.random.default_rng(seed).integers(0, 3, (9, 9, 9)) / 2)
        # a masked solved grid always has a completion
        first = solve(puzzle, 1).solutions[0].tolist()
        for tensor in tensors:
            expected = greedy_fill_slow(tensor, puzzle)
            assert postprocess(tensor, puzzle, MODE_GREEDY).tolist() == expected
            hybrid = expected if all(all(row) for row in expected) else first
            assert postprocess(tensor, puzzle, MODE_HYBRID).tolist() == hybrid

    def test_greedy_never_places_conflicts(self, solved_grid):
        inst = mask_puzzle(solved_grid, 0.8, 7)
        out = solve_with_model(init_params(2), inst.puzzle, MODE_GREEDY)
        from neurosudoku.grids import is_consistent_partial

        assert is_consistent_partial(out)

    @pytest.mark.parametrize("mode", POSTPROCESS_MODES)
    @pytest.mark.parametrize("bad", ["729", "81x9", "nan", "inf"])
    def test_malformed_tensor_rejected(self, mode, bad):
        tensor = np.full((9, 9, 9), 1 / 9)
        tensors = {"729": tensor.reshape(729), "81x9": tensor.reshape(81, 9)}
        tensors["nan"] = tensor.copy()
        tensors["nan"][4, 4, 4] = np.nan
        tensors["inf"] = tensor.copy()
        tensors["inf"][0, 0, 8] = np.inf
        with pytest.raises(ValueError, match="prediction tensor"):
            postprocess(tensors[bad], np.zeros((9, 9), dtype=int), mode)

    def test_unknown_mode_rejected(self, solved_grid):
        with pytest.raises(ValueError, match="postprocess"):
            solve_with_model(init_params(0), solved_grid, "magic")


class TestResultsCsv:
    def test_header_is_frozen(self):
        assert CSV_COLUMNS == [
            "n_puzzles", "difficulty", "ablation", "fold",
            "acc_all", "acc_empty",
            "loss_standard", "loss_constraints", "loss_expert", "loss_combined",
            "epochs", "seed",
        ]

    def test_rows_round_trip_through_csv(self, tmp_path):
        dataset = build_dataset(4, 0.1, 1)
        config = TrainConfig(epochs=1, folds=2)
        result = kfold_evaluate(dataset, config)
        rows = result.csv_rows()
        path = tmp_path / "results.csv"
        write_results_csv(rows, path)
        with open(path) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == CSV_COLUMNS
            read_rows = list(reader)
        assert len(read_rows) == 2
        assert read_rows[0]["ablation"] == "all-combined"
        assert read_rows[0]["fold"] == "0"

    def test_failed_row_shape(self):
        config = TrainConfig(epochs=200, seed=3, loss=ablation_config("standard-only"))
        (row,) = ExperimentResult(12, 0.1, config, error="evaluate: boom").csv_rows()
        assert set(row) == set(CSV_COLUMNS)
        assert row["fold"] == -1
        assert (row["n_puzzles"], row["difficulty"], row["ablation"]) == (12, 0.1, "standard-only")
        assert (row["epochs"], row["seed"]) == (200, 3)
        assert all(row[k] == "nan" for k in CSV_COLUMNS if k.startswith(("acc_", "loss_")))

    def test_cell_with_result_gives_its_fold_rows(self):
        config = TrainConfig(epochs=1, folds=2)
        result = kfold_evaluate(build_dataset(4, 0.1, 1), config)
        assert (result.n_puzzles, result.difficulty, result.error) == (4, 0.1, None)
        rows = ExperimentResult(4, 0.1, config, result.folds).csv_rows()
        assert rows == result.csv_rows()
        assert rows == [{
            "n_puzzles": 4, "difficulty": 0.1, "ablation": "all-combined", "fold": fr.fold,
            "acc_all": f"{fr.accuracy_all:.6f}", "acc_empty": f"{fr.accuracy_empty:.6f}",
            "loss_standard": f"{fr.val_loss.standard:.6f}",
            "loss_constraints": f"{fr.val_loss.constraints:.6f}",
            "loss_expert": f"{fr.val_loss.expert:.6f}",
            "loss_combined": f"{fr.val_loss.combined:.6f}",
            "epochs": 1, "seed": 0,
        } for fr in result.folds]


GRID_ROWS = [(4, 0.1), (3, 0.3)]
GRID_SEEDS = [0, 1]
GRID_ABLATIONS = ["standard-only", "standard+expert", "all-combined"]
GRID_RUN = TrainConfig(epochs=1, folds=2, loss=ablation_config("all-combined", "fixed-target"))


class TestRunGrid:
    def test_cells_come_in_nesting_order(self):
        cells = list(run_grid(GRID_ROWS, GRID_SEEDS, GRID_ABLATIONS, GRID_RUN))
        got = [(c.n_puzzles, c.difficulty, c.config.seed, c.config.loss.ablation) for c in cells]
        assert got == [
            (n, d, seed, label)
            for (n, d), seed, label in itertools.product(GRID_ROWS, GRID_SEEDS, GRID_ABLATIONS)
        ]
        assert all(c.error is None and len(c.folds) == GRID_RUN.folds for c in cells)

    def test_each_cell_trains_on_its_row_and_seed_dataset(self):
        for cell in run_grid(GRID_ROWS, GRID_SEEDS, GRID_ABLATIONS, GRID_RUN):
            dataset = build_dataset(cell.n_puzzles, cell.difficulty, cell.config.seed)
            assert cell.fingerprint == dataset_fingerprint(dataset)

    def test_each_cell_equals_a_direct_kfold_run(self):
        for cell in run_grid(GRID_ROWS, GRID_SEEDS, GRID_ABLATIONS, GRID_RUN):
            label = cell.config.loss.ablation
            config = TrainConfig(epochs=1, folds=2, seed=cell.config.seed,
                                 loss=ablation_config(label, "fixed-target"))
            assert cell.config == config
            direct = kfold_evaluate(build_dataset(cell.n_puzzles, cell.difficulty,
                                                  cell.config.seed), config)
            assert cell.mean_all == direct.mean_all
            assert cell.mean_empty == direct.mean_empty
            assert cell.csv_rows() == direct.csv_rows()

    @pytest.mark.parametrize("rows,seeds,ablations,message", [
        ([(4, 0.1)], [0], ["standard-only", "nope"], "unknown ablation label: 'nope'"),
        ([(4, 0.1), (4, 1.5)], [0], ["standard-only"], "difficulty must be in (0,1)"),
        ([(4, 0.1), (1, 0.1)], [0], ["standard-only"], "row 1:0.1 has fewer puzzles than folds=2"),
        ([], [0], ["standard-only"], "the grid needs at least one row"),
        ([(4, 0.1)], [], ["standard-only"], "the grid needs at least one row"),
        ([(4, 0.1)], [0], [], "the grid needs at least one row"),
        ([(4, 0.1), (3, 0.3), (4, 0.1)], [0], ["standard-only"], "the grid repeats row (4, 0.1)"),
        ([(4, 0.1)], [0, 1, 0], ["standard-only"], "the grid repeats seed 0"),
        ([(4, 0.1)], [0], ["standard-only", "all-combined", "standard-only"],
         "the grid repeats ablation standard-only"),
        ([(4, 0.1)], [0, -1], ["standard-only"], "seed must be a non-negative integer, got -1"),
    ], ids=["unknown-label", "difficulty-1.5", "fewer-puzzles-than-folds", "no-rows",
            "no-seeds", "no-ablations", "repeated-row", "repeated-seed", "repeated-ablation",
            "negative-seed"])
    def test_bad_grid_raises_before_any_dataset(self, monkeypatch, rows, seeds, ablations,
                                                 message):
        # datasets are built in the workers, so no pool means no dataset
        pools = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *a, **k: pools.append(a))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_grid(rows, seeds, ablations, GRID_RUN)
        assert pools == [] and multiprocessing.active_children() == []

    def test_raising_cell_is_yielded_failed_and_grid_continues(self, monkeypatch):
        def flaky_evaluate(dataset, config):
            if config.loss.ablation == "standard+expert" and config.seed == 0:
                raise RuntimeError("boom")
            return kfold_evaluate(dataset, config)

        monkeypatch.setattr(training, "kfold_evaluate", flaky_evaluate)
        cells = list(run_grid([(4, 0.1)], GRID_SEEDS, GRID_ABLATIONS, GRID_RUN))
        assert len(cells) == len(GRID_SEEDS) * len(GRID_ABLATIONS)
        failed = [c for c in cells if c.error is not None]
        assert [(c.config.seed, c.config.loss.ablation) for c in failed] == [(0, "standard+expert")]
        assert failed[0].error == "evaluate: boom" and failed[0].folds == []
        assert all(c.folds != [] for c in cells if c.error is None)

    def test_failed_dataset_fails_that_row_and_seed_only(self, monkeypatch):
        def flaky_build(n, difficulty, seed):
            if seed == 1:
                raise RuntimeError("no puzzles")
            return build_dataset(n, difficulty, seed)

        monkeypatch.setattr(training, "build_dataset", flaky_build)
        cells = list(run_grid([(4, 0.1)], GRID_SEEDS, GRID_ABLATIONS, GRID_RUN))
        assert [c.error for c in cells] == [None] * 3 + ["dataset: no puzzles"] * 3
        rows = [row for c in cells for row in c.csv_rows()]
        assert [row["fold"] for row in rows] == [0, 1] * 3 + [-1] * 3
        assert all(math.isnan(float(row["acc_all"])) for row in rows if row["fold"] == -1)

    def test_cells_are_the_same_with_one_or_two_workers(self, monkeypatch):
        def grid():
            cells = list(run_grid(GRID_ROWS, GRID_SEEDS, GRID_ABLATIONS, GRID_RUN))
            return ([c.csv_rows() for c in cells],
                    [[fold.history for fold in c.folds] for c in cells])

        monkeypatch.setattr(training, "_pool_size", lambda n_cells: 1)
        one_worker = grid()
        monkeypatch.setattr(training, "_pool_size", lambda n_cells: 2)
        assert grid() == one_worker

    def test_replaced_train_and_postprocess_reach_the_workers(self, monkeypatch):
        # history and accuracy travel back from the workers, so they show
        # which train and postprocess the workers ran
        datasets = [build_dataset(n, d, seed) for n, d in GRID_ROWS for seed in GRID_SEEDS]

        def marking_train(train_set, cfg, init_seed):
            return init_params(init_seed), [-1.0] * cfg.epochs

        monkeypatch.setattr(training, "train", marking_train)
        monkeypatch.setattr(training, "postprocess", truth_postprocess(sum(datasets, [])))
        cells = list(run_grid(GRID_ROWS, GRID_SEEDS, GRID_ABLATIONS, GRID_RUN))
        folds = [fold for c in cells for fold in c.folds]
        assert len(folds) == len(cells) * GRID_RUN.folds
        assert all(fold.history == [-1.0] * GRID_RUN.epochs for fold in folds)
        assert all(c.mean_all == c.mean_empty == 1.0 for c in cells)

    def test_no_process_outlives_the_grid(self):
        list(run_grid(GRID_ROWS, GRID_SEEDS, GRID_ABLATIONS, GRID_RUN))
        assert multiprocessing.active_children() == []

    def test_closing_early_cancels_the_cells_not_started(self, monkeypatch, tmp_path):
        def marking_evaluate(dataset, config):
            (tmp_path / f"{len(dataset)}-{config.seed}-{config.loss.ablation}").touch()
            time.sleep(0.2)
            return kfold_evaluate(dataset, config)

        monkeypatch.setattr(training, "kfold_evaluate", marking_evaluate)
        monkeypatch.setattr(training, "_pool_size", lambda n_cells: 2)
        cells = run_grid(GRID_ROWS, GRID_SEEDS, GRID_ABLATIONS, GRID_RUN)
        assert next(cells).error is None
        cells.close()
        assert multiprocessing.active_children() == []
        # the cells still waiting for a worker when the iterator closed never start
        n_cells = len(GRID_ROWS) * len(GRID_SEEDS) * len(GRID_ABLATIONS)
        assert len(list(tmp_path.iterdir())) < n_cells

    def test_output_starts_before_the_last_dataset_is_built(self, monkeypatch, tmp_path):
        # Workers build the datasets, so each build leaves a marker file; every
        # build after the first waits until the first cell has been taken.
        def marking_build(n, difficulty, seed):
            built = len(list(tmp_path.glob("built-*")))
            if built:
                deadline = time.monotonic() + 30
                while not (tmp_path / "taken").exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            dataset = build_dataset(n, difficulty, seed)
            (tmp_path / f"built-{built}").touch()
            return dataset

        monkeypatch.setattr(training, "build_dataset", marking_build)
        monkeypatch.setattr(training, "_pool_size", lambda n_cells: 1)
        cells = run_grid(GRID_ROWS, GRID_SEEDS, GRID_ABLATIONS, GRID_RUN)
        first = next(cells)
        assert (first.n_puzzles, first.config.seed, first.error) == (4, 0, None)
        assert len(list(tmp_path.glob("built-*"))) == 1
        (tmp_path / "taken").touch()
        cells.close()
        # closing builds no dataset for the cells not yet handed to a worker
        n_cells = len(GRID_ROWS) * len(GRID_SEEDS) * len(GRID_ABLATIONS)
        assert len(list(tmp_path.glob("built-*"))) < n_cells

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    def test_workers_run_on_one_thread(self, monkeypatch):
        # A worker that started BLAS threads would oversubscribe the CPUs:
        # the pool already has one worker per CPU.
        def evaluate_and_count_threads(dataset, config):
            result = kfold_evaluate(dataset, config)
            with open("/proc/self/status") as fh:
                threads = next(line for line in fh if line.startswith("Threads:"))
            return result, int(threads.split()[1])

        monkeypatch.setattr(training, "kfold_evaluate", evaluate_and_count_threads)
        cells = list(run_grid([(12, 0.1)], [0], GRID_ABLATIONS, replace(GRID_RUN, epochs=3)))
        assert [c[1] for c in cells] == [1] * len(GRID_ABLATIONS)

    def test_pool_size_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert (training._pool_size(12), training._pool_size(2)) == (3, 2)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert training._pool_size(12) == 1


_weight = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_loss_configs = st.one_of(
    st.builds(ablation_config, st.sampled_from(ABLATIONS), st.sampled_from(CONSTRAINT_MODES)),
    st.builds(
        lambda weights, mode: LossConfig(*weights, mode),
        st.tuples(_weight, _weight, _weight).filter(any),
        st.sampled_from(CONSTRAINT_MODES),
    ),
)
_train_configs = st.builds(
    TrainConfig,
    epochs=st.integers(1, 10**6),
    folds=st.integers(2, 100),
    seed=st.integers(0, 2**63),
    loss=_loss_configs,
    lr=st.floats(min_value=1e-12, max_value=1e3),
    postprocess_mode=st.sampled_from(POSTPROCESS_MODES),
)


class TestConfigSerialization:
    @given(config=_train_configs)
    def test_dict_round_trip(self, config):
        assert TrainConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_empty_dict_is_the_default_config(self):
        assert TrainConfig.from_dict({}) == TrainConfig()
        assert TrainConfig().loss.ablation == "all-combined"

    def test_from_dict_with_label_only(self):
        config = TrainConfig.from_dict({"ablation": "standard+expert"})
        assert config.loss == LossConfig(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("data,weights,label", [
        ({"alpha": 0.5}, (0.5, 1.0, 1.0), "custom"),
        ({"ablation": "standard+expert", "alpha": 0.5}, (0.5, 0.0, 1.0), "custom"),
        ({"ablation": "standard-only", "gamma": 1}, (1.0, 0.0, 1.0), "standard+expert"),
        ({"ablation": "custom", "alpha": 0, "beta": 2, "gamma": 0}, (0.0, 2.0, 0.0), "custom"),
    ])
    def test_stated_weights_replace_the_label_weights(self, data, weights, label):
        loss = TrainConfig.from_dict(data).loss
        assert (loss.alpha, loss.beta, loss.gamma) == weights
        assert loss.ablation == label

    def test_custom_label_needs_all_three_weights(self):
        with pytest.raises(ValueError, match="'custom' needs alpha, beta and gamma"):
            TrainConfig.from_dict({"ablation": "custom", "alpha": 1, "beta": 1})

    def test_round_trip(self):
        config = TrainConfig(
            epochs=50, folds=4, seed=9,
            loss=ablation_config("standard+expert", "fixed-target"),
            lr=0.01, postprocess_mode=MODE_GREEDY,
        )
        restored = TrainConfig.from_dict(config.to_dict())
        assert restored == config

    def test_from_experiment_json_keys(self):
        data = {
            "ablation": "standard+constraints",
            "constraint_mode": "solution-consistent",
            "epochs": 100, "folds": 3, "seed": 1, "lr": 0.002,
            "postprocess_mode": "argmax",
        }
        config = TrainConfig.from_dict(data)
        assert config.epochs == 100
        assert config.loss.beta == 1.0
        assert config.loss.gamma == 0.0

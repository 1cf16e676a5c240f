import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurosudoku.engine import (
    BridgeProtocolError,
    EXTERNAL_SOLVER_ENV,
    ExternalSolverUnavailable,
    MASK_RETRY_BUDGET,
    PROGRAM_RULES,
    UniquenessError,
    count_solutions,
    emit_asp_program,
    external_solve,
    generate_solved,
    mask_puzzle,
    solve,
)
from neurosudoku.grids import is_valid_complete, masked_cell_count

from oracles import solve_naive


def grids_as_set(grids):
    return {tuple(np.asarray(g).reshape(-1).tolist()) for g in grids}


def assert_sound(outcome, puzzle):
    given = np.asarray(puzzle) != 0
    for sol in outcome.solutions:
        assert is_valid_complete(sol)
        assert (np.asarray(sol)[given] == np.asarray(puzzle)[given]).all()
    assert len(grids_as_set(outcome.solutions)) == len(outcome.solutions)


class TestSolve:
    def test_single_blank_is_forced(self, solved_grid):
        puzzle = solved_grid.copy()
        puzzle[4, 4] = 0
        outcome = solve(puzzle, 2)
        assert len(outcome.solutions) == 1
        assert outcome.exhausted
        assert (outcome.solutions[0] == solved_grid).all()
        assert_sound(outcome, puzzle)

    def test_empty_grid_has_many_solutions(self):
        outcome = solve(np.zeros((9, 9), dtype=int), 2)
        assert len(outcome.solutions) == 2
        assert not outcome.exhausted
        assert_sound(outcome, np.zeros((9, 9), dtype=int))

    def test_inconsistent_puzzle_yields_empty_exhausted(self):
        puzzle = np.zeros((9, 9), dtype=int)
        puzzle[0, 0] = puzzle[0, 5] = 7
        outcome = solve(puzzle, 5)
        assert outcome.solutions == []
        assert outcome.exhausted

    def test_malformed_grid_rejected(self):
        bad = np.zeros((9, 9), dtype=int)
        bad[0, 0] = 11
        with pytest.raises(ValueError):
            solve(bad, 1)

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError):
            solve(np.zeros((9, 9), dtype=int), 0)

    def test_matches_naive_oracle_on_easy_puzzles(self):
        for seed in range(5):
            inst = mask_puzzle(generate_solved(seed), 0.1, seed)
            ours = solve(inst.puzzle, 10)
            naive_solutions, naive_exhausted = solve_naive(inst.puzzle, 10)
            assert grids_as_set(ours.solutions) == grids_as_set(naive_solutions)
            assert ours.exhausted == naive_exhausted
            assert_sound(ours, inst.puzzle)

    def test_matches_naive_oracle_on_30_empty_puzzles(self):
        for seed in range(3):
            inst = mask_puzzle(generate_solved(100 + seed), 0.37, seed)  # 30 empties
            assert int(inst.mask.sum()) == 30
            ours = solve(inst.puzzle, 100)
            naive_solutions, _ = solve_naive(inst.puzzle, 100)
            assert grids_as_set(ours.solutions) == grids_as_set(naive_solutions)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n_empty=st.integers(0, 50), limit=st.integers(1, 20))
    def test_matches_naive_oracle_on_random_masks(self, seed, n_empty, limit):
        puzzle = generate_solved(seed).reshape(-1)
        puzzle[np.random.default_rng(seed).permutation(81)[:n_empty]] = 0
        puzzle = puzzle.reshape(9, 9)
        ours = solve(puzzle, limit)
        naive_solutions, naive_exhausted = solve_naive(puzzle, limit)
        assert len(ours.solutions) == len(naive_solutions)
        assert ours.exhausted == naive_exhausted
        if ours.exhausted:  # a search cut at the limit may keep other solutions
            assert grids_as_set(ours.solutions) == grids_as_set(naive_solutions)
        assert_sound(ours, puzzle)

    def test_deterministic_enumeration_order(self, solved_grid):
        puzzle = np.where(mask_puzzle(solved_grid, 0.6, 9).mask, 0, solved_grid)
        a = solve(puzzle, 5)
        b = solve(puzzle, 5)
        assert len(a.solutions) == len(b.solutions)
        for x, y in zip(a.solutions, b.solutions):
            assert (x == y).all()

    def test_search_stats_are_counted(self):
        outcome = solve(np.zeros((9, 9), dtype=int), 2)
        assert outcome.stats.nodes > 0
        assert outcome.stats.propagations > 0


class TestCountSolutions:
    def test_solved_grid(self, solved_grid):
        assert count_solutions(solved_grid, 5) == 1

    def test_inconsistent(self):
        puzzle = np.zeros((9, 9), dtype=int)
        puzzle[0, 0] = puzzle[1, 1] = 3  # same box
        assert count_solutions(puzzle, 5) == 0

    def test_cap_reached_on_empty_grid(self):
        assert count_solutions(np.zeros((9, 9), dtype=int), 3) == 3


class TestGenerateSolved:
    def test_valid_across_seeds(self):
        for seed in range(100):
            assert is_valid_complete(generate_solved(seed))

    def test_deterministic(self):
        assert (generate_solved(7) == generate_solved(7)).all()

    def test_distinct_seeds_are_diverse(self):
        top_left = {
            tuple(generate_solved(seed)[:3, :3].reshape(-1).tolist())
            for seed in range(200)
        }
        assert len(top_left) >= 50


class TestMaskPuzzle:
    @pytest.mark.parametrize("difficulty", [0.1, 0.3, 0.6, 0.8])
    def test_mask_counts(self, solved_grid, difficulty):
        inst = mask_puzzle(solved_grid, difficulty, 4)
        assert int(inst.mask.sum()) == masked_cell_count(difficulty)
        inst.validate()

    def test_deterministic(self, solved_grid):
        a = mask_puzzle(solved_grid, 0.3, 12)
        b = mask_puzzle(solved_grid, 0.3, 12)
        assert (a.puzzle == b.puzzle).all()

    def test_require_unique_produces_unique_puzzle(self, solved_grid):
        inst = mask_puzzle(solved_grid, 0.1, 3, require_unique=True)
        assert count_solutions(inst.puzzle, 2) == 1

    def test_difficulty_out_of_range(self, solved_grid):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                mask_puzzle(solved_grid, bad, 0)

    def test_uniqueness_unattainable_names_difficulty(self, solved_grid, monkeypatch):
        import neurosudoku.engine as engine_mod

        monkeypatch.setattr(engine_mod, "MASK_RETRY_BUDGET", 3)
        with pytest.raises(UniquenessError, match="0.9"):
            mask_puzzle(solved_grid, 0.9, 0, require_unique=True)

    def test_retry_budget_is_bounded(self):
        assert MASK_RETRY_BUDGET == 1000


class TestEmitProgram:
    def test_empty_grid_emits_exactly_the_rules(self):
        program = emit_asp_program(np.zeros((9, 9), dtype=int))
        lines = [ln for ln in program.splitlines() if ln.strip()]
        assert lines == list(PROGRAM_RULES)

    def test_single_given_fact(self):
        puzzle = np.zeros((9, 9), dtype=int)
        puzzle[0, 0] = 5
        program = emit_asp_program(puzzle)
        assert "cell(1,1,5)." in program

    def test_fact_count_matches_givens(self, solved_grid):
        inst = mask_puzzle(solved_grid, 0.6, 2)
        program = emit_asp_program(inst.puzzle)
        facts = [ln for ln in program.splitlines() if ln.startswith("cell(")]
        assert len(facts) == 81 - int(inst.mask.sum())

    def test_facts_are_one_indexed(self):
        puzzle = np.zeros((9, 9), dtype=int)
        puzzle[8, 8] = 9
        assert "cell(9,9,9)." in emit_asp_program(puzzle)

    def test_lf_line_endings(self, solved_grid):
        program = emit_asp_program(solved_grid)
        assert "\r" not in program
        assert program.endswith("\n")


class TestExternalSolve:
    def test_unavailable_without_configuration(self, no_external_solver):
        with pytest.raises(ExternalSolverUnavailable, match="external solver unavailable"):
            external_solve(np.zeros((9, 9), dtype=int), 1)

    def test_matches_internal_on_forced_puzzle(self, external_stub, solved_grid):
        puzzle = solved_grid.copy()
        puzzle[0, 3] = 0
        internal = solve(puzzle, 2)
        external = external_solve(puzzle, 2)
        assert grids_as_set(internal.solutions) == grids_as_set(external.solutions)
        assert external.exhausted

    def test_limit_one_on_unique_puzzle(self, external_stub, solved_grid):
        inst = mask_puzzle(solved_grid, 0.1, 8, require_unique=True)
        outcome = external_solve(inst.puzzle, 1)
        assert len(outcome.solutions) == 1
        assert (outcome.solutions[0] == solved_grid).all()

    def test_unsatisfiable_puzzle(self, external_stub):
        puzzle = np.zeros((9, 9), dtype=int)
        puzzle[0, 0] = puzzle[0, 1] = 4
        outcome = external_solve(puzzle, 2)
        assert outcome.solutions == []
        assert outcome.exhausted

    def test_agreement_with_internal_solver_on_samples(self, external_stub):
        for seed in range(6):
            inst = mask_puzzle(generate_solved(seed), 0.1, seed)
            internal = solve(inst.puzzle, 3)
            external = external_solve(inst.puzzle, 3)
            assert grids_as_set(internal.solutions) == grids_as_set(external.solutions)
            assert internal.exhausted == external.exhausted

    def test_protocol_error_on_garbage_output(self, tmp_path, monkeypatch):
        garbage = tmp_path / "garbage_solver.sh"
        garbage.write_text("#!/bin/sh\necho 'not a solver'\n")
        garbage.chmod(0o755)
        monkeypatch.setenv(EXTERNAL_SOLVER_ENV, str(garbage))
        with pytest.raises(BridgeProtocolError):
            external_solve(np.zeros((9, 9), dtype=int), 1)

    def test_unavailable_on_missing_binary(self, monkeypatch):
        monkeypatch.setenv(EXTERNAL_SOLVER_ENV, "/nonexistent/solver-binary")
        with pytest.raises(ExternalSolverUnavailable):
            external_solve(np.zeros((9, 9), dtype=int), 1)

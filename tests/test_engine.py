import hashlib
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neurosudoku import engine
from neurosudoku.engine import (
    MASK_RETRY_BUDGET,
    PROGRAM_RULES,
    UniquenessError,
    count_solutions,
    emit_asp_program,
    generate_solved,
    mask_puzzle,
    solve,
)
from neurosudoku.grids import is_valid_complete, masked_cell_count

from oracles import init_candidates_one_given_at_a_time, solve_naive, unit_masks_slow


def grids_as_set(grids):
    return {tuple(np.asarray(g).reshape(-1).tolist()) for g in grids}


def assert_sound(outcome, puzzle):
    given = np.asarray(puzzle) != 0
    for sol in outcome.solutions:
        assert is_valid_complete(sol)
        assert (np.asarray(sol)[given] == np.asarray(puzzle)[given]).all()
    assert len(grids_as_set(outcome.solutions)) == len(outcome.solutions)


def root_contradictions():
    """Puzzles that seeding the root state refutes, one per way it can fail."""
    cases = {}
    for name, cells, digit in [
        ("repeat-in-row", [(0, 0), (0, 5)], 7),
        ("repeat-in-column", [(0, 0), (5, 0)], 7),
        ("repeat-in-box", [(0, 0), (1, 1)], 3),
    ]:
        cases[name] = np.zeros((9, 9), dtype=int)
        for r, c in cells:
            cases[name][r, c] = digit
    # (0, 0) is empty, its row holds 1..8 and its column 9
    cases["no-candidate-left"] = np.zeros((9, 9), dtype=int)
    cases["no-candidate-left"][0, 1:] = range(1, 9)
    cases["no-candidate-left"][5, 0] = 9
    # (0, 0) and (0, 1) are empty and both left with 9 alone
    cases["two-peers-one-digit"] = np.zeros((9, 9), dtype=int)
    cases["two-peers-one-digit"][0, 2:] = range(1, 8)
    cases["two-peers-one-digit"][3, 0] = cases["two-peers-one-digit"][6, 1] = 8
    return cases


def assert_matches_naive_on_random_mask(seed, n_empty, limit):
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


class TestUnitMasks:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), difficulty=st.sampled_from([0.1, 0.3, 0.6, 0.8]),
           edits=st.lists(st.tuples(st.integers(0, 80), st.integers(0, 9)), max_size=8))
    def test_matches_loop_oracle(self, seed, difficulty, edits):
        grid = mask_puzzle(generate_solved(seed), difficulty, seed).puzzle
        for cell, value in edits:  # an edited cell may repeat a digit of its units
            grid.flat[cell] = value
        masks = engine.unit_masks(grid)
        assert masks == unit_masks_slow(grid)
        assert {type(mask) for mask in masks} == {int}  # callers take bit_count()

    def test_repeated_digit_sets_its_bit_once(self):
        grid = np.zeros((9, 9), dtype=np.int64)
        grid[0, 0] = grid[0, 4] = grid[1, 1] = 5
        masks = engine.unit_masks(grid)
        assert masks[0] == masks[9] == masks[18] == 1 << 4
        assert sum(map(int.bit_count, masks)) == 7


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
        for name, puzzle in root_contradictions().items():
            outcome = solve(puzzle, 5)
            assert outcome.solutions == [], name
            assert outcome.exhausted, name

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
        assert_matches_naive_on_random_mask(seed, n_empty, limit)

    def test_deterministic_enumeration_order(self, solved_grid):
        puzzle = np.where(mask_puzzle(solved_grid, 0.6, 9).mask, 0, solved_grid)
        a = solve(puzzle, 5)
        b = solve(puzzle, 5)
        assert len(a.solutions) == len(b.solutions)
        for x, y in zip(a.solutions, b.solutions):
            assert (x == y).all()

    # sha256 over solve(puzzle, 1), (…, 2) and (…, 100) of each puzzle: the
    # solutions in order, exhausted and every SolveStats counter.  Together
    # with TestGenerateSolved.test_grids_are_pinned this pins the search order.
    @pytest.mark.parametrize("kind,digest", [
        ("masked-0.1-to-0.8", "da859cc70bedd6894e38751a46523b9de320271a3810f7baec91a8e5793b40cf"),
        ("tails-0.8", "a19fd3b96a38e46dbcf1b6857c160caabb2b9bf1fb56b4d6bb3f218f58628c66"),
        ("unique-0.6", "f38406936d8f752678615a40f5823e096cba05a0084c9e859800bdb8fad126de"),
        ("empty", "37d534d8c090585e60d124b5c25335a537512edbf51d32128e898b16dd55afea"),
    ])
    def test_solutions_order_and_stats_are_pinned(self, kind, digest):
        puzzles = {
            "masked-0.1-to-0.8": lambda: [mask_puzzle(generate_solved(s), d, s).puzzle
                                          for s in range(40) for d in (0.1, 0.3, 0.6, 0.8)],
            "tails-0.8": lambda: [mask_puzzle(generate_solved(s), 0.8, s).puzzle
                                  for s in (82, 100, 1104)],
            "unique-0.6": lambda: [mask_puzzle(generate_solved(s), 0.6, s, require_unique=True)
                                   .puzzle for s in range(10)],
            "empty": lambda: [np.zeros((9, 9), dtype=np.int64)],
        }[kind]()
        h = hashlib.sha256()
        for puzzle in puzzles:
            for limit in (1, 2, 100):
                outcome = solve(puzzle, limit)
                s = outcome.stats
                h.update(repr((limit, outcome.exhausted, s.nodes, s.propagations, s.dead_ends,
                               s.hidden_singles)).encode())
                h.update(b"".join(grid.tobytes() for grid in outcome.solutions))
        assert h.hexdigest() == digest

    def test_search_stats_are_counted(self):
        outcome = solve(np.zeros((9, 9), dtype=int), 2)
        assert outcome.stats.nodes > 0
        assert outcome.stats.propagations > 0

    def test_propagations_count_the_cells_propagation_decides(self):
        # a puzzle that propagation solves from the root decides each empty
        # cell once, whatever order the cells are read in
        solved_at_root = 0
        for difficulty in (0.1, 0.3):
            for seed in range(200):
                puzzle = mask_puzzle(generate_solved(seed), difficulty, seed).puzzle
                outcome = solve(puzzle, 1)
                if outcome.stats.nodes:
                    continue
                solved_at_root += 1
                n_empty = int((puzzle == 0).sum())
                assert outcome.stats.propagations == n_empty, (difficulty, seed)
                assert solve(puzzle.T, 1).stats.propagations == n_empty, (difficulty, seed)
        assert solved_at_root > 300


class TestRootState:
    """``_init_candidates`` builds the state that assigning the givens one at
    a time, each propagated before the next, reaches."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10_000), difficulty=st.sampled_from((0.1, 0.3, 0.6, 0.8)))
    def test_matches_reference_on_masked_grids(self, seed, difficulty):
        puzzle = mask_puzzle(generate_solved(seed), difficulty, seed).puzzle
        cands = engine._init_candidates(puzzle, engine.SolveStats())
        assert cands == init_candidates_one_given_at_a_time(puzzle)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10_000), n_empty=st.integers(0, 81), n_changed=st.integers(0, 6))
    def test_matches_reference_on_partial_grids_with_conflicts(self, seed, n_empty, n_changed):
        # a masked grid with a few cells overwritten by random digits: a
        # repeated given, a cell with no candidate, or a cascade that fails
        rng = np.random.default_rng(seed)
        puzzle = generate_solved(seed).reshape(-1)
        puzzle[rng.permutation(81)[:n_empty]] = 0
        puzzle[rng.permutation(81)[:n_changed]] = rng.integers(0, 10, n_changed)
        puzzle = puzzle.reshape(9, 9)
        cands = engine._init_candidates(puzzle, engine.SolveStats())
        assert cands == init_candidates_one_given_at_a_time(puzzle)

    @pytest.mark.parametrize("name", sorted(root_contradictions()))
    def test_matches_reference_on_root_contradictions(self, name):
        puzzle = root_contradictions()[name]
        assert engine._init_candidates(puzzle, engine.SolveStats()) is None
        assert init_candidates_one_given_at_a_time(puzzle) is None


def hidden_single_refuted_puzzles():
    """Puzzles whose givens leave row 0 without a place for a digit, though
    every cell keeps a candidate: naked singles pass them, hidden singles fail."""
    no_place = np.zeros((9, 9), dtype=int)
    for r, c in [(1, 0), (2, 3), (3, 6), (6, 7)]:  # 1 fits row 0 only at (0, 8)
        no_place[r, c] = 1
    two_digits = no_place.copy()
    no_place[0, 8] = 2
    for r, c in [(1, 1), (2, 4), (4, 6), (7, 7)]:  # 2 fits row 0 only at (0, 8) too
        two_digits[r, c] = 2
    return {"digit-without-place": no_place, "two-digits-one-cell": two_digits}


class TestHiddenSingles:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n_empty=st.integers(0, 50), limit=st.integers(1, 20))
    def test_from_the_root_match_naive_oracle_on_random_masks(self, seed, n_empty, limit):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "HIDDEN_SINGLES_AFTER", -1)
            assert_matches_naive_on_random_mask(seed, n_empty, limit)

    @pytest.mark.parametrize("name", sorted(hidden_single_refuted_puzzles()))
    def test_refutes_what_naked_singles_pass(self, monkeypatch, name):
        puzzle = hidden_single_refuted_puzzles()[name]
        assert engine._init_candidates(puzzle, engine.SolveStats()) is not None
        monkeypatch.setattr(engine, "HIDDEN_SINGLES_AFTER", -1)
        outcome = solve(puzzle, 1)
        assert outcome.solutions == [] and outcome.exhausted
        assert outcome.stats.nodes == 0 and outcome.stats.dead_ends == 1

    # with naked singles alone these take 2.27M, 74.5k and 14.6M nodes
    @pytest.mark.parametrize("seed", [82, 100, 1104])
    def test_search_tail_at_08_is_cut(self, seed):
        outcome = solve(mask_puzzle(generate_solved(seed), 0.8, seed).puzzle, 1)
        assert len(outcome.solutions) == 1
        assert outcome.stats.dead_ends >= engine.HIDDEN_SINGLES_AFTER
        assert outcome.stats.hidden_singles > 0
        assert outcome.stats.nodes < 1000


# count_solutions(mask_puzzle(generate_solved(s), 0.6, s).puzzle, 100) for
# s = 0..19, recorded with naked-single propagation alone; at 0.8 all reach 100
COUNTS_06 = (6, 4, 2, 6, 36, 2, 60, 6, 17, 39, 24, 7, 2, 26, 6, 3, 20, 100, 30, 6)


class TestCountSolutions:
    @pytest.mark.parametrize("difficulty,expected", [(0.6, COUNTS_06), (0.8, (100,) * 20)])
    def test_capped_counts_are_pinned(self, difficulty, expected):
        counts = tuple(
            count_solutions(mask_puzzle(generate_solved(s), difficulty, s).puzzle, 100)
            for s in range(20)
        )
        assert counts == expected

    def test_solved_grid(self, solved_grid):
        assert count_solutions(solved_grid, 5) == 1

    def test_inconsistent(self):
        for name, puzzle in root_contradictions().items():
            assert count_solutions(puzzle, 5) == 0, name

    def test_cap_reached_on_empty_grid(self):
        assert count_solutions(np.zeros((9, 9), dtype=int), 3) == 3


class TestGenerateSolved:
    def test_valid_across_seeds(self):
        for seed in range(100):
            assert is_valid_complete(generate_solved(seed))

    def test_deterministic(self):
        assert (generate_solved(7) == generate_solved(7)).all()

    def test_grids_are_pinned(self):
        # generation never reaches HIDDEN_SINGLES_AFTER dead ends (at most 8
        # over these seeds), so it keeps the grids of naked singles alone
        digest = hashlib.sha256(b"".join(generate_solved(s).tobytes() for s in range(5000)))
        assert digest.hexdigest() == (
            "c5effa21c52250da3ca0887ca062c46bc6e32bbe4dfea7753d546e7685c2c4ab")

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

    @pytest.mark.parametrize("require_unique", [False, True])
    def test_non_solution_rejected_before_any_draw(self, solved_grid, require_unique):
        swapped = solved_grid.copy()
        swapped[0, [0, 1]] = swapped[0, [1, 0]]  # rows stay valid, columns do not
        incomplete = solved_grid.copy()
        incomplete[4, 4] = 0
        for bad in (swapped, incomplete):
            with pytest.raises(ValueError, match="^solution is not a valid complete grid$"):
                mask_puzzle(bad, 0.6, 0, require_unique=require_unique)

    # sha256 over mask_puzzle(generate_solved(s), d, s, require_unique=True).puzzle
    # for s = 0..59, recorded when every draw was searched
    @pytest.mark.parametrize("difficulty,digest", [
        (0.3, "9e6d66f4a8ead5bbf2e5c66ba85b0f7c63c8ed4aabc0fc4c3e6f1e8089f0685a"),
        (0.6, "46db77e3f7cf37a5238003d4ee7283846b9548ddccb0fae7ef5433aadf710032"),
    ])
    def test_unique_masks_are_pinned(self, difficulty, digest):
        puzzles = (mask_puzzle(generate_solved(s), difficulty, s, require_unique=True).puzzle
                   for s in range(60))
        assert hashlib.sha256(b"".join(p.tobytes() for p in puzzles)).hexdigest() == digest

    def test_rejected_draws_count_against_the_budget(self, solved_grid, monkeypatch):
        # replay the RNG stream, searching every draw, to find the draw that
        # is accepted; a budget one short of it must fail
        rng, draws, rejected = random.Random(5), 0, 0
        rectangles = engine._unavoidable_rectangles(solved_grid)
        while True:
            draws += 1
            blanks = rng.sample(range(81), masked_cell_count(0.6))
            blanked = sum(1 << cell for cell in blanks)
            rejected += any(rect & blanked == rect for rect in rectangles)
            puzzle = solved_grid.copy()
            puzzle.flat[blanks] = 0
            if count_solutions(puzzle, 2) == 1:
                break
        assert rejected > 0  # the budget is spent on rectangle rejections too
        monkeypatch.setattr(engine, "MASK_RETRY_BUDGET", draws - 1)
        with pytest.raises(UniquenessError):
            mask_puzzle(solved_grid, 0.6, 5, require_unique=True)
        monkeypatch.setattr(engine, "MASK_RETRY_BUDGET", draws)
        assert (mask_puzzle(solved_grid, 0.6, 5, require_unique=True).puzzle == puzzle).all()


def rectangle_cells(rect):
    return [cell for cell in range(81) if rect >> cell & 1]


class TestUnavoidableRectangles:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_swap_gives_another_solution_in_exactly_four_cells(self, seed):
        solved = generate_solved(seed)
        rectangles = engine._unavoidable_rectangles(solved)
        assert len(set(rectangles)) == len(rectangles)
        for rect in rectangles:
            cells = rectangle_cells(rect)
            flat = solved.reshape(-1).copy()
            a, b = sorted(set(flat[cells].tolist()))
            flat[cells] = np.where(flat[cells] == a, b, a)
            assert is_valid_complete(flat)
            assert np.flatnonzero(flat != solved.reshape(-1)).tolist() == cells

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_finds_every_swappable_rectangle(self, seed):
        solved = generate_solved(seed)
        expected = set()
        for r1 in range(9):
            for r2 in range(r1 + 1, 9):
                for c1 in range(9):
                    for c2 in range(c1 + 1, 9):
                        other = solved.copy()  # swap columns c1 and c2 on rows r1 and r2
                        other[[r1, r2], c1] = solved[[r1, r2], c2]
                        other[[r1, r2], c2] = solved[[r1, r2], c1]
                        if is_valid_complete(other):
                            expected.add(sum(1 << (9 * r + c) for r in (r1, r2) for c in (c1, c2)))
        assert set(engine._unavoidable_rectangles(solved)) == expected

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), pick=st.integers(0, 100), n_extra=st.integers(0, 30))
    def test_blanking_a_rectangle_leaves_two_completions(self, seed, pick, n_extra):
        solved = generate_solved(seed)
        rectangles = engine._unavoidable_rectangles(solved)
        assume(rectangles)  # seed 9525's grid has none
        cells = rectangle_cells(rectangles[pick % len(rectangles)])
        others = [c for c in np.random.default_rng(seed).permutation(81).tolist() if c not in cells]
        puzzle = solved.reshape(-1).copy()
        puzzle[cells + others[:n_extra]] = 0
        puzzle = puzzle.reshape(9, 9)
        assert count_solutions(puzzle, 2) == 2
        if n_extra <= 10:
            naive_solutions, _ = solve_naive(puzzle, 2)
            assert len(naive_solutions) == 2


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

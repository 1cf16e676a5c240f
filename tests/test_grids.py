from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurosudoku.grids import (
    CELL_UNITS,
    UNITS,
    PuzzleInstance,
    as_grid,
    cell_accuracy,
    format_grid,
    is_consistent_partial,
    is_valid_complete,
    masked_cell_count,
    parse_grid,
)
from neurosudoku.engine import generate_solved, mask_puzzle

from oracles import UNIT_CELLS, is_consistent_partial_slow, is_valid_complete_slow


def pattern_grid():
    """Shift construction: every unit is a permutation of 1..9 by arithmetic."""
    return np.array(
        [[((3 * (i % 3) + i // 3 + j) % 9) + 1 for j in range(9)] for i in range(9)]
    )


class TestSubgridIndex:
    """Box (subgrid) numbering in ``UNITS``: boxes are units 18..26, row-major,
    top-left box = 0, center = 4, bottom-right = 8."""

    @pytest.mark.parametrize("row,col,expected", [
        (0, 0, 0),
        (4, 4, 4),
        (8, 2, 6),
        (0, 8, 2),
        (8, 8, 8),
    ])
    def test_known_cells(self, row, col, expected):
        cell = 9 * row + col
        assert CELL_UNITS[cell].tolist() == [row, 9 + col, 18 + expected]
        assert cell in UNITS[18 + expected]

    def test_partitions_into_nine_boxes_of_nine(self):
        assert UNITS.shape == (27, 9)
        for first in (0, 9, 18):  # rows, columns, boxes each cover the grid once
            assert sorted(UNITS[first:first + 9].reshape(-1).tolist()) == list(range(81))
        expected = [sorted(9 * i + j for i, j in unit) for unit in UNIT_CELLS]
        assert [sorted(unit) for unit in UNITS.tolist()] == expected


class TestIsValidComplete:
    def test_pattern_grid_valid(self):
        assert is_valid_complete(pattern_grid())

    def test_any_zero_invalid(self):
        g = pattern_grid()
        g[3, 7] = 0
        assert not is_valid_complete(g)

    def test_row_duplicate_invalid(self):
        g = pattern_grid()
        g[0, 1] = g[0, 0]
        assert not is_valid_complete(g)

    def test_column_duplicate_invalid(self):
        g = pattern_grid()
        g[1, 0] = g[0, 0]
        assert not is_valid_complete(g)

    def test_box_duplicate_detected_even_with_valid_rows_cols(self):
        # Latin square that is not a Sudoku: rows/cols fine, boxes broken.
        g = np.array([[((i + j) % 9) + 1 for j in range(9)] for i in range(9)])
        assert not is_valid_complete(g)


class TestIsConsistentPartial:
    def test_all_zero(self):
        assert is_consistent_partial(np.zeros((9, 9), dtype=int))

    def test_two_fives_in_column(self):
        g = np.zeros((9, 9), dtype=int)
        g[0, 3] = 5
        g[7, 3] = 5
        assert not is_consistent_partial(g)

    def test_solved_grid_consistent(self, solved_grid):
        assert is_consistent_partial(solved_grid)

    def test_valid_complete_implies_consistent(self):
        for seed in range(5):
            g = generate_solved(seed)
            assert is_valid_complete(g)
            assert is_consistent_partial(g)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 500),
    edits=st.lists(st.tuples(st.integers(0, 80), st.integers(0, 9)), max_size=6),
)
def test_validity_predicates_match_loop_oracles(seed, edits):
    g = generate_solved(seed)
    for cell, value in edits:
        g.flat[cell] = value
    assert is_valid_complete(g) == is_valid_complete_slow(g)
    assert is_consistent_partial(g) == is_consistent_partial_slow(g)
    sparse = np.where(np.arange(81).reshape(9, 9) % 3 == seed % 3, g, 0)
    assert is_consistent_partial(sparse) == is_consistent_partial_slow(sparse)


@settings(max_examples=20)
@given(seed=st.integers(0, 500), perm=st.permutations(list(range(1, 10))))
def test_validity_invariant_under_digit_relabeling(seed, perm):
    g = generate_solved(seed)
    relabeled = np.array(perm, dtype=int)[g - 1]
    assert is_valid_complete(relabeled)


@settings(max_examples=10)
@given(seed=st.integers(0, 500))
def test_every_unit_of_solved_grid_sums_to_45(seed):
    g = generate_solved(seed)
    assert g.sum(axis=0).tolist() == [45] * 9
    assert g.sum(axis=1).tolist() == [45] * 9
    boxes = g.reshape(3, 3, 3, 3).sum(axis=(1, 3))
    assert boxes.reshape(-1).tolist() == [45] * 9


class TestCellAccuracy:
    def test_perfect_prediction(self, solved_grid):
        mask = np.zeros(81, dtype=bool)
        mask[:10] = True
        assert cell_accuracy(solved_grid, solved_grid, mask) == (1.0, 1.0)

    def test_one_wrong_cell_all_scope(self, solved_grid):
        pred = solved_grid.copy()
        pred[2, 2] = pred[2, 2] % 9 + 1
        mask = np.zeros(81, dtype=bool)
        mask[0] = True
        assert cell_accuracy(pred, solved_grid, mask)[0] == pytest.approx(80 / 81)

    def test_empty_scope_counts_only_masked(self, solved_grid):
        mask = np.zeros((9, 9), dtype=bool)
        masked_cells = [(0, 0), (0, 1), (1, 4), (2, 8), (5, 5), (6, 3), (7, 7), (8, 0)]
        for i, j in masked_cells:
            mask[i, j] = True
        pred = solved_grid.copy()
        for i, j in masked_cells[:2]:  # wrong on 2 of the 8
            pred[i, j] = pred[i, j] % 9 + 1
        assert cell_accuracy(pred, solved_grid, mask)[1] == pytest.approx(0.75)

    def test_empty_predicted_cell_counts_as_wrong(self, solved_grid):
        pred = solved_grid.copy()
        pred[0, 0] = pred[4, 4] = 0
        mask = np.zeros((9, 9), dtype=bool)
        mask[0, :4] = True
        assert cell_accuracy(pred, solved_grid, mask) == pytest.approx((79 / 81, 3 / 4))


class TestMaskedCellCount:
    @pytest.mark.parametrize("difficulty,expected", [
        (0.1, 8),
        (0.3, 24),
        (0.6, 49),
        (0.8, 65),
    ])
    def test_reference_difficulties(self, difficulty, expected):
        assert masked_cell_count(difficulty) == expected

    def test_rounds_half_up(self):
        assert masked_cell_count(0.5) == 41  # 40.5 rounds up
        assert masked_cell_count(1 / 162) == 1  # 0.5 rounds up: the least that masks a cell


class TestTextFormat:
    def test_round_trip(self, solved_grid):
        assert (parse_grid(format_grid(solved_grid)) == solved_grid).all()

    @settings(max_examples=100)
    @given(cells=st.lists(st.integers(0, 9), min_size=81, max_size=81))
    def test_round_trip_any_grid(self, cells):
        grid = np.array(cells).reshape(9, 9)
        assert (parse_grid(format_grid(grid)) == grid).all()

    def test_dots_and_zeros_both_parse_as_empty(self):
        line_dots = "." * 81
        line_zeros = "0" * 81
        assert (parse_grid(line_dots) == 0).all()
        assert (parse_grid(line_zeros) == 0).all()

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="expected 81 characters"):
            parse_grid("1" * 80)

    def test_bad_character_position_reported(self):
        # non-ASCII digits: Arabic-Indic one and zero, fullwidth one, superscript two
        for ch in ("x", "\u0661", "\u0660", "\uff11", "\u00b2"):
            text = "1" * 17 + ch + "1" * 63
            with pytest.raises(ValueError, match=f"^invalid character '{ch}' at position 17$"):
                parse_grid(text)

    def test_format_uses_dot_for_empty(self):
        g = np.zeros((9, 9), dtype=int)
        g[0, 0] = 5
        assert format_grid(g) == "5" + "." * 80

    def test_as_grid_rejects_out_of_range_values(self):
        g = np.zeros((9, 9), dtype=int)
        g[1, 1] = 10
        with pytest.raises(ValueError, match="0..9"):
            as_grid(g)

    @pytest.mark.parametrize("shape", [(80,), (81,), (9, 8), (81, 1)],
                             ids=["80", "81", "9x8", "81x1"])
    def test_as_grid_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="grid must be 9x9, got shape"):
            as_grid(np.zeros(shape, dtype=int))


class TestPuzzleInstance:
    def test_valid_instance_passes(self, solved_grid):
        inst = mask_puzzle(solved_grid, 0.3, 5)
        replace(inst)  # re-runs the checks, which raise on a bad instance

    def test_given_disagreeing_with_solution_rejected(self, solved_grid):
        inst = mask_puzzle(solved_grid, 0.3, 5)
        bad_puzzle = inst.puzzle.copy()
        givens = np.argwhere(bad_puzzle != 0)
        i, j = givens[0]
        bad_puzzle[i, j] = bad_puzzle[i, j] % 9 + 1
        with pytest.raises(ValueError):
            PuzzleInstance(bad_puzzle, inst.solution, inst.difficulty, inst.seed)

    def test_wrong_mask_count_rejected(self, solved_grid):
        inst = mask_puzzle(solved_grid, 0.3, 5)
        with pytest.raises(ValueError, match="mask count"):
            PuzzleInstance(inst.puzzle, inst.solution, 0.6, inst.seed)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_that_is_not_a_non_negative_integer_rejected(self, solved_grid, seed):
        inst = mask_puzzle(solved_grid, 0.3, 5)
        for call in (lambda: mask_puzzle(solved_grid, 0.3, seed),
                     lambda: PuzzleInstance(inst.puzzle, inst.solution, 0.3, seed)):
            with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
                call()

    @pytest.mark.parametrize("difficulty", [0.0, 0.006, 1.0, -0.3, float("inf"), float("nan")])
    def test_difficulty_outside_the_unit_interval_rejected(self, solved_grid, difficulty):
        inst = mask_puzzle(solved_grid, 0.3, 5)
        for call in (lambda: masked_cell_count(difficulty),
                     lambda: mask_puzzle(solved_grid, difficulty, 5),
                     lambda: PuzzleInstance(inst.puzzle, inst.solution, difficulty, inst.seed)):
            with pytest.raises(ValueError, match=r"difficulty must be in \(0,1\)"):
                call()

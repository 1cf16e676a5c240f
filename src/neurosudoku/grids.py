"""Board representation, Sudoku validity predicates, and accuracy metrics.

A grid is a 9x9 integer matrix (numpy array, row-major) with 0 marking an
empty cell and 1..9 a placed digit; ``as_grid`` takes that one shape only.
A ``PuzzleInstance`` checks itself when it is made, so every instance holds
its invariants.  All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRID_SIZE = 9
BOX_SIZE = 3
N_CELLS = GRID_SIZE * GRID_SIZE

DIGITS = np.arange(1, GRID_SIZE + 1)

# The 27 units as flat cell indices: 9 rows, then 9 columns, then 9 boxes
# (boxes and the cells inside each box in row-major order).
_CELLS = np.arange(N_CELLS).reshape(GRID_SIZE, GRID_SIZE)
UNITS = np.concatenate([
    _CELLS,
    _CELLS.T,
    _CELLS.reshape(BOX_SIZE, BOX_SIZE, BOX_SIZE, BOX_SIZE)
    .transpose(0, 2, 1, 3)
    .reshape(GRID_SIZE, GRID_SIZE),
])
# Unit-cell incidence (27, 81): INCIDENCE @ x sums a per-cell quantity over
# each unit, INCIDENCE.T @ y spreads a per-unit quantity back to its cells.
INCIDENCE = np.zeros((len(UNITS), N_CELLS))
INCIDENCE[np.arange(len(UNITS))[:, None], UNITS] = 1.0
# The three units of each cell (81, 3): its row, its column, its box.
CELL_UNITS = np.nonzero(INCIDENCE.T)[1].reshape(N_CELLS, 3)


def as_grid(cells) -> np.ndarray:
    """Coerce to a validated 9x9 integer grid (values 0..9)."""
    grid = np.asarray(cells, dtype=np.int64)
    if grid.shape != (GRID_SIZE, GRID_SIZE):
        raise ValueError(f"grid must be 9x9, got shape {grid.shape}")
    if grid.min() < 0 or grid.max() > 9:
        bad = grid[(grid < 0) | (grid > 9)].flat[0]
        raise ValueError(f"cell values must be in 0..9, found {bad}")
    return grid


def is_valid_complete(grid) -> bool:
    """True iff the grid has no empties and every unit is a permutation of 1..9."""
    units = np.sort(as_grid(grid).reshape(-1)[UNITS], axis=1)
    return bool((units == DIGITS).all())


def as_solution(grid) -> np.ndarray:
    """Coerce to a 9x9 grid that is a valid complete solution; ValueError otherwise."""
    grid = as_grid(grid)
    if not is_valid_complete(grid):
        raise ValueError("solution is not a valid complete grid")
    return grid


def as_completion(puzzle, solution):
    """(puzzle, solution) as grids; ValueError unless the solution completes the puzzle."""
    puzzle = as_grid(puzzle)
    solution = as_solution(solution)
    givens = puzzle != 0
    if not (puzzle[givens] == solution[givens]).all():
        raise ValueError("solution disagrees with the puzzle's givens")
    return puzzle, solution


def is_consistent_partial(grid) -> bool:
    """True iff no unit contains a duplicate among its nonzero cells."""
    units = np.sort(as_grid(grid).reshape(-1)[UNITS], axis=1)
    return not ((units[:, 1:] == units[:, :-1]) & (units[:, 1:] != 0)).any()


def cell_accuracy(predicted, truth, mask) -> tuple:
    """Fractions of correctly predicted cells in both scopes: (all-cells,
    empty-cells).

    All-cells counts all 81 cells; empty-cells counts only cells that were
    empty in the puzzle (mask true), of which every instance has at least one
    (``masked_cell_count``).  A cell the prediction leaves empty (0), as
    greedy post-processing may, counts as wrong.
    """
    matches = as_grid(predicted) == as_grid(truth)
    mask = np.asarray(mask, dtype=bool).reshape(GRID_SIZE, GRID_SIZE)
    return float(matches.mean()), float(matches[mask].mean())


def masked_cell_count(difficulty: float) -> int:
    """Number of cells emptied at a difficulty: round-half-up of 81*difficulty.
    ValueError for a difficulty outside (0, 1) or below 1/162, which would
    empty no cell."""
    if not 0.0 < difficulty < 1.0:
        raise ValueError(f"difficulty must be in (0,1), got {difficulty}")
    count = int(math.floor(N_CELLS * difficulty + 0.5))
    if count == 0:
        raise ValueError(f"difficulty must be in (0,1) and at least 1/162, got {difficulty}")
    return count


def check_seed(seed) -> int:
    """``seed``, or ValueError unless it is a non-negative integer, not a boolean."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


@dataclass(frozen=True)
class PuzzleInstance:
    """One dataset unit: masked puzzle, reference solution, provenance.

    Invariants, checked when the instance is made (ValueError otherwise):
    the puzzle is the solution with exactly round(81*difficulty) cells
    zeroed, and the seed is a non-negative integer.  ``mask`` is true on
    those cells.
    """

    puzzle: np.ndarray
    solution: np.ndarray
    difficulty: float
    seed: int

    @property
    def mask(self) -> np.ndarray:
        return self.puzzle == 0

    def __post_init__(self):
        check_seed(self.seed)
        puzzle, _ = as_completion(self.puzzle, self.solution)
        n_masked = int((puzzle == 0).sum())
        expected = masked_cell_count(self.difficulty)
        if n_masked != expected:
            raise ValueError(
                f"mask count {n_masked} != expected {expected} at difficulty {self.difficulty}"
            )


def parse_grid(text: str) -> np.ndarray:
    """Parse the 81-character line format: ASCII 1-9, '.' or '0' for empty.

    Raises ValueError naming the position of the first bad character.
    """
    text = text.strip()
    if len(text) != N_CELLS:
        raise ValueError(f"expected 81 characters, got {len(text)}")
    cells = np.zeros(N_CELLS, dtype=np.int64)
    for pos, ch in enumerate(text):
        if ch in ".0":
            continue
        if ch in "123456789":
            cells[pos] = int(ch)
        else:
            raise ValueError(f"invalid character {ch!r} at position {pos}")
    return cells.reshape(GRID_SIZE, GRID_SIZE)


def format_grid(grid) -> str:
    """Render a grid as its 81-character row-major line, '.' for empty."""
    return "".join(
        "." if v == 0 else str(v) for v in as_grid(grid).reshape(-1).tolist()
    )

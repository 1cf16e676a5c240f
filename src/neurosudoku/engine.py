"""Exact Sudoku logic engine.

Internally, solving runs constraint propagation (decided cells eliminate
their digit from all peers; cells left with a single candidate are assigned,
cascading) over a per-cell candidate bitmask, with backtracking search on
top: the branch variable is the undecided cell with the fewest remaining
candidates (ties broken row-major) and candidate digits are tried in
ascending order, so enumeration order is deterministic.

Naked singles alone leave a heavy tail at difficulty 0.8: a first-solution
search there took 2.27M nodes (20 s) on one puzzle and 14.6M (91 s) on
another.  So once a search has hit ``HIDDEN_SINGLES_AFTER`` dead ends (a
branch that propagation refutes), every further node also runs the
hidden-single rule to a fixpoint: a digit with one place left in a unit is
placed there, and a unit with no place left for a digit fails the node.
The rule is sound, so solution sets and counts do not change, and those
tail searches take about 200 nodes and 4 ms.  The pass scans all 27 units
at every node, which would slow every search if it were always on; the
switch at 64 keeps ordinary searches on naked singles alone.  Measured with
naked singles alone: first-solution searches over seeds 1000..1299 (1104
aside) hit a median of 0 to 1 dead ends at difficulty 0.3, 0.6 and 0.8, and
a 99th percentile of 0, 18 and 384; counts capped at 100 over seeds 0..99
hit medians of 4 and 13 at 0.6 and 0.8; uniqueness checks of 0.6 masks hit
a 99th percentile of 16; ``generate_solved`` hits at most 8 over seeds
0..4999, so it returns the same grids.  The tails hit far more: up to 523k
dead ends in a first-solution search and 1.1M in a capped count.  Only a
search that switches can return a different first solution of a puzzle with
several.

Digit sets are 9-bit masks, bit d-1 for digit d; ``SET_BITS[mask]`` lists
a mask's digit indices, ascending.  The root state is seeded from the
givens' ``unit_masks``, the digits placed in each of the 27 units (one
numpy gather of the cells' digit bits over ``UNITS`` and an OR along each
unit), which the greedy post-processing of ``training`` starts from too;
its hybrid mode calls ``solve`` at greedy's first stuck cell.  A digit given
twice in a unit fails, and each empty cell starts with the digits that its
row, column and box lack, failing if none is left.  Only the empty cells
left with a single candidate are then assigned, cascading as in the
search.  This is the same naked-single closure that assigning the givens
one at a time reaches, so solutions, their order and the search statistics
other than ``propagations`` are the same; on a 0.1 puzzle (73 givens) it
takes about a quarter of the time.  ``SolveStats.propagations`` counts the
cells other than givens and branch cells that propagation decides, so a
puzzle that propagation solves from the root reads its number of empty
cells, in any cell order.

``mask_puzzle(..., require_unique=True)`` redraws masks until one leaves a
single completion.  Most draws that fail blank all four cells of an
unavoidable rectangle of the solution: ``a b / b a`` on two rows and two
columns, the four cells in exactly two boxes.  Swapping ``a`` and ``b``
there gives a second valid completion, so such a draw is rejected without a
search; only the other draws run ``count_solutions(puzzle, 2)``.  At 0.6
that rejects about 80 % of the failing draws, and the masks it accepts are
the ones a search of every draw accepts.

The same constraint system can be exported as a logic program over
``cell(Row,Col,Val)`` atoms (see ``emit_asp_program``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .grids import (
    CELL_UNITS,
    GRID_SIZE,
    N_CELLS,
    UNITS,
    PuzzleInstance,
    as_grid,
    as_solution,
    masked_cell_count,
)

ALL_DIGITS = 0x1FF  # bits 0..8 <-> digits 1..9
# SET_BITS[mask]: the digit indices (digit - 1) set in the mask, ascending.
SET_BITS = tuple(
    tuple(d for d in range(GRID_SIZE) if mask >> d & 1) for mask in range(ALL_DIGITS + 1)
)


class UniquenessError(ValueError):
    """A unique-solution puzzle could not be produced within the retry budget."""


# Peers of each cell: every other cell sharing a unit with it, ascending.
PEERS = tuple(
    tuple(sorted(set(UNITS[CELL_UNITS[cell]].ravel().tolist()) - {cell}))
    for cell in range(N_CELLS)
)
UNIT_CELLS = tuple(tuple(unit) for unit in UNITS.tolist())
# Each cell's row, column and box, as indices into UNIT_CELLS.
CELL_UNIT_IDS = tuple(tuple(units) for units in CELL_UNITS.tolist())

# Dead ends a search may hit before every node also places hidden singles.
HIDDEN_SINGLES_AFTER = 64


@dataclass
class SolveStats:
    nodes: int = 0  # branch decisions tried by the search
    propagations: int = 0  # cells decided by naked singles, givens and branch cells aside
    dead_ends: int = 0  # branches refuted by propagation
    hidden_singles: int = 0  # digits placed at their one place left in a unit


@dataclass
class SolveOutcome:
    """Solutions found plus whether the whole search space was explored."""

    solutions: list = field(default_factory=list)
    exhausted: bool = False
    stats: SolveStats = field(default_factory=SolveStats)


def _assign(cands: list, idx: int, bit: int, stats: SolveStats) -> bool:
    """Fix cell ``idx`` to candidate ``bit`` and propagate; False on contradiction."""
    cands[idx] = bit
    queue = [(idx, bit)]
    while queue:
        i, b = queue.pop()
        for p in PEERS[i]:
            old = cands[p]
            if old & b:
                new = old & ~b
                if not new:
                    return False
                cands[p] = new
                if new & (new - 1) == 0:  # naked single: assign and cascade
                    stats.propagations += 1
                    queue.append((p, new))
    return True


def _place_hidden_singles(cands: list, stats: SolveStats) -> bool:
    """Place every digit left with one cell in a unit, to a fixpoint.  False
    when a unit has no place left for a digit, which covers one cell being
    the only place for two digits."""
    placed = True
    while placed:
        placed = False
        for unit in UNIT_CELLS:
            seen = twice = decided = 0
            for c in unit:
                m = cands[c]
                twice |= seen & m
                seen |= m
                if m & (m - 1) == 0:
                    decided |= m
            if seen != ALL_DIGITS:
                return False
            for d in SET_BITS[seen & ~twice & ~decided]:
                bit = 1 << d
                # the digit's one place is gone if an earlier placement took
                # it for another digit or propagation removed the digit there
                cell = next((c for c in unit if cands[c] & bit), -1)
                if cell < 0:
                    return False
                if cands[cell] != bit:
                    stats.hidden_singles += 1
                    placed = True
                    if not _assign(cands, cell, bit, stats):
                        return False
    return True


def _pick_cell(cands: list) -> int:
    """Undecided cell with fewest candidates, ties row-major; -1 if all decided."""
    best, best_n = -1, 10
    for i in range(N_CELLS):
        n = cands[i].bit_count()
        if 1 < n < best_n:
            best, best_n = i, n
            if n == 2:
                break
    return best


def _cands_to_grid(cands: list) -> np.ndarray:
    return np.fromiter(map(int.bit_length, cands), np.int64, N_CELLS).reshape(GRID_SIZE, GRID_SIZE)


def _search(cands, out, limit, stats, order) -> bool:
    """Enumerate completions depth-first into ``out``, as candidate lists,
    trying digits in ``order(mask)``.  Returns False once ``limit`` is hit."""
    if stats.dead_ends >= HIDDEN_SINGLES_AFTER and not _place_hidden_singles(cands, stats):
        stats.dead_ends += 1
        return True
    cell = _pick_cell(cands)
    if cell < 0:
        out.append(cands)
        return len(out) < limit
    for d in order(cands[cell]):
        stats.nodes += 1
        child = cands.copy()
        if not _assign(child, cell, 1 << d, stats):
            stats.dead_ends += 1
        elif not _search(child, out, limit, stats, order):
            return False
    return True


# _DIGIT_BITS[v]: the 9-bit mask of cell value v, 0 for an empty cell.
_DIGIT_BITS = np.array([0] + [1 << d for d in range(GRID_SIZE)])


def unit_masks(grid: np.ndarray) -> list:
    """The digits placed in each of the 27 units, as 9-bit masks (Python
    ints), from a validated grid: one gather of the cells' digit bits over
    ``UNITS`` and one OR along each unit."""
    return np.bitwise_or.reduce(_DIGIT_BITS[grid.reshape(-1)][UNITS], axis=1).tolist()


def _init_candidates(puzzle: np.ndarray, stats: SolveStats):
    """Seed the candidate state from the givens: their naked-single closure,
    or None on contradiction."""
    values = puzzle.reshape(-1).tolist()
    if not any(values):  # the empty grid, which every generate_solved call seeds
        return [ALL_DIGITS] * N_CELLS
    placed = unit_masks(puzzle)
    # each given adds its bit to three units, so the popcounts fall short of
    # three per given exactly when a unit repeats a digit
    if sum(m.bit_count() for m in placed) != 3 * (N_CELLS - values.count(0)):
        return None
    cands = [0] * N_CELLS
    singles = []
    for idx, v in enumerate(values):
        if v:
            cands[idx] = 1 << (v - 1)
            continue
        row, col, box = CELL_UNIT_IDS[idx]
        free = ALL_DIGITS & ~(placed[row] | placed[col] | placed[box])
        if not free:
            return None
        cands[idx] = free
        if free & (free - 1) == 0:
            singles.append(idx)
    # an empty cell already single is decided; _assign spreads it and
    # cascades, and a cascade that takes a pending single's digit fails
    for idx in singles:
        stats.propagations += 1
        if not _assign(cands, idx, cands[idx], stats):
            return None
    return cands


def solve(puzzle, limit: int = 1) -> SolveOutcome:
    """Find up to ``limit`` distinct completions of the puzzle.

    Every returned grid satisfies all row/column/box constraints and agrees
    with the puzzle's givens.  ``exhausted`` is True when the search space
    was fully explored, i.e. strictly fewer than ``limit`` solutions exist.
    An inconsistent puzzle yields an empty, exhausted outcome rather than
    an error.
    """
    outcome = _complete(puzzle, limit)
    outcome.solutions = [_cands_to_grid(cands) for cands in outcome.solutions]
    return outcome


def count_solutions(puzzle, cap: int) -> int:
    """min(cap, number of completions of the puzzle)."""
    return len(_complete(puzzle, cap).solutions)


def _complete(puzzle, limit: int, order=SET_BITS.__getitem__) -> SolveOutcome:
    """``solve``'s search, with the completions left as candidate lists."""
    puzzle = as_grid(puzzle)
    if limit < 1:
        raise ValueError("limit must be positive")
    stats = SolveStats()
    outcome = SolveOutcome(stats=stats)
    cands = _init_candidates(puzzle, stats)
    if cands is None:
        outcome.exhausted = True
        return outcome
    outcome.exhausted = _search(cands, outcome.solutions, limit, stats, order)
    return outcome


def generate_solved(seed: int) -> np.ndarray:
    """Deterministically generate a random valid complete grid.

    Solves the empty grid with the candidate-digit order shuffled by a
    seeded RNG at every branch point, returning the first completion.
    """
    rng = random.Random(seed)

    def shuffled(mask: int):
        digits = list(SET_BITS[mask])
        rng.shuffle(digits)
        return digits

    outcome = _complete(np.zeros((GRID_SIZE, GRID_SIZE), dtype=np.int64), 1, shuffled)
    return _cands_to_grid(outcome.solutions[0])


MASK_RETRY_BUDGET = 1000


def _unavoidable_rectangles(solved: np.ndarray) -> list:
    """The solution's unavoidable rectangles, each as a bitmask of its four
    flat cells: (r1,c1) (r1,c2) (r2,c1) (r2,c2) holding ``a b / b a`` and
    lying in exactly two boxes.  Swapping a and b on them gives another
    valid complete grid."""
    # swap[r1, r2, c1, c2]: the digit at (r1, c1) is the one at (r2, c2)
    swap = solved[:, None, :, None] == solved[None, :, None, :]
    box = CELL_UNITS[:, 2].reshape(GRID_SIZE, GRID_SIZE).tolist()
    rectangles = []
    for r1, r2, c1, c2 in np.argwhere(swap & swap.transpose(0, 1, 3, 2)).tolist():
        # same band or same stack, not both: two boxes (a valid grid never
        # puts all four cells in one box, which would repeat a digit there)
        if r1 < r2 and c1 < c2 and (box[r1][c1] == box[r2][c1]) != (box[r1][c1] == box[r1][c2]):
            rectangles.append(sum(1 << (GRID_SIZE * r + c) for r in (r1, r2) for c in (c1, c2)))
    return rectangles


def mask_puzzle(
    solved,
    difficulty: float,
    seed: int,
    require_unique: bool = False,
) -> PuzzleInstance:
    """Blank round(81*difficulty) seeded-random cells of a solved grid.

    ValueError when ``solved`` is not a valid complete grid.  With
    ``require_unique`` the mask is redrawn (same RNG stream, so still
    deterministic) until the puzzle has exactly one completion, up to
    MASK_RETRY_BUDGET draws.  A draw that blanks all four cells of one of
    the solution's unavoidable rectangles has a second completion (swap the
    rectangle's two digits), so it is rejected without a search; it still
    counts against the budget.
    """
    solved = as_solution(solved)
    n_masked = masked_cell_count(difficulty)
    rng = random.Random(seed)
    attempts = MASK_RETRY_BUDGET if require_unique else 1
    rectangles = _unavoidable_rectangles(solved) if require_unique else []
    for _ in range(attempts):
        blanks = rng.sample(range(N_CELLS), n_masked)
        blanked = sum(1 << cell for cell in blanks)
        if any(rect & blanked == rect for rect in rectangles):
            continue
        puzzle = solved.copy()
        puzzle.flat[blanks] = 0
        if not require_unique or count_solutions(puzzle, 2) == 1:
            return PuzzleInstance(
                puzzle=puzzle,
                solution=solved,
                difficulty=difficulty,
                seed=seed,
            ).validate()
    raise UniquenessError(
        f"uniqueness unattainable at difficulty {difficulty} "
        f"within {MASK_RETRY_BUDGET} redrawn masks"
    )


# The complete constraint program: exactly one digit per cell, and no digit
# repeated in a row, a column, or a 3x3 box.
PROGRAM_RULES = (
    "{ cell(Row,Col,Val) : Val=1..9 } = 1 :- Row=1..9, Col=1..9.",
    ":- cell(Row,Col1,Val), cell(Row,Col2,Val), Col1 != Col2.",
    ":- cell(Row1,Col,Val), cell(Row2,Col,Val), Row1 != Row2.",
    ":- cell(Row1,Col1,Val), cell(Row2,Col2,Val), Row1 != Row2, Col1 != Col2, "
    "(Row1-1)/3 = (Row2-1)/3, (Col1-1)/3 = (Col2-1)/3.",
)


def emit_asp_program(puzzle) -> str:
    """Render the puzzle as a logic program: the four rules plus one
    ``cell(R,C,V).`` fact (1-indexed) per given cell."""
    puzzle = as_grid(puzzle)
    lines = list(PROGRAM_RULES)
    for r in range(GRID_SIZE):
        for c in range(GRID_SIZE):
            v = int(puzzle[r, c])
            if v:
                lines.append(f"cell({r + 1},{c + 1},{v}).")
    return "\n".join(lines) + "\n"

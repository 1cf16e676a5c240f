"""Output checks written apart from the program under test.

Nothing here imports ``neurosudoku``: the unit lists, the validity tests and
the completion enumerator are spelled out again, so that a fault shared by
the program's own helpers cannot hide itself.
"""

from __future__ import annotations

DIGITS = frozenset(range(1, 10))


def _unit_index_lists():
    rows = [[9 * r + c for c in range(9)] for r in range(9)]
    cols = [[9 * r + c for r in range(9)] for c in range(9)]
    boxes = [
        [9 * (3 * br + dr) + 3 * bc + dc for dr in range(3) for dc in range(3)]
        for br in range(3)
        for bc in range(3)
    ]
    return rows + cols + boxes


UNITS = _unit_index_lists()  # 27 lists of 9 flat cell indices
PEERS = [
    sorted({j for unit in UNITS if i in unit for j in unit} - {i}) for i in range(81)
]


def flat(grid) -> list:
    """A grid (9x9 nested sequence or array, or 81 flat cells) as 81
    Python ints, row-major."""
    rows = list(grid)
    cells = [int(v) for v in rows] if len(rows) == 81 else [int(v) for row in rows for v in row]
    if len(cells) != 81:
        raise ValueError(f"expected 81 cells, got {len(cells)}")
    return cells


def valid_complete(grid) -> bool:
    """Every row, column and box holds exactly the digits 1..9."""
    cells = flat(grid)
    return all({cells[i] for i in unit} == DIGITS for unit in UNITS)


def no_repeats(grid) -> bool:
    """No nonzero digit occurs twice in a row, column or box."""
    cells = flat(grid)
    for unit in UNITS:
        placed = [cells[i] for i in unit if cells[i]]
        if len(placed) != len(set(placed)):
            return False
    return True


def keeps_givens(puzzle, grid) -> bool:
    """Every nonzero cell of the puzzle has the same digit in the grid."""
    return all(p == 0 or p == g for p, g in zip(flat(puzzle), flat(grid)))


def given_fraction(difficulty: float) -> float:
    """Share of cells left given: 1 - round-half-up(81*d)/81."""
    return 1.0 - masked_count(difficulty) / 81.0


def masked_count(difficulty: float) -> int:
    """round-half-up(81*d), the documented masked-cell count."""
    return int(81 * difficulty + 0.5)


def enumerate_completions(puzzle, cap: int) -> list:
    """Up to ``cap`` completions as 81-int lists, by plain backtracking.

    Each step fills the empty cell with the fewest digits not used by its
    peers, trying digits in ascending order; there is no propagation.
    """
    cells = flat(puzzle)
    for i, v in enumerate(cells):
        if v and any(cells[p] == v for p in PEERS[i]):
            return []
    found = []

    def recurse() -> bool:
        best, best_free = -1, None
        for i in range(81):
            if cells[i] == 0:
                free = DIGITS.difference(cells[p] for p in PEERS[i])
                if best_free is None or len(free) < len(best_free):
                    best, best_free = i, free
                    if len(free) <= 1:
                        break
        if best < 0:
            found.append(cells.copy())
            return len(found) < cap
        for d in sorted(best_free):
            cells[best] = d
            if not recurse():
                cells[best] = 0
                return False
        cells[best] = 0
        return True

    recurse()
    return found

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

The same constraint system can be exported as a logic program over
``cell(Row,Col,Val)`` atoms and handed to an external solver binary for
cross-validation (see ``external_solve``).
"""

from __future__ import annotations

import os
import random
import re
import subprocess
from dataclasses import dataclass, field

import numpy as np

from .grids import (
    CELL_UNITS,
    GRID_SIZE,
    N_CELLS,
    UNITS,
    PuzzleInstance,
    as_grid,
    masked_cell_count,
)

ALL_DIGITS = 0x1FF  # bits 0..8 <-> digits 1..9

EXTERNAL_SOLVER_ENV = "ASPER_EXTERNAL_SOLVER"


class UniquenessError(ValueError):
    """A unique-solution puzzle could not be produced within the retry budget."""


class ExternalSolverUnavailable(RuntimeError):
    """No external solver binary is configured or it cannot be invoked."""


class BridgeProtocolError(RuntimeError):
    """The external solver produced output the bridge cannot interpret."""


# Peers of each cell: every other cell sharing a unit with it, ascending.
PEERS = tuple(
    tuple(sorted(set(UNITS[CELL_UNITS[cell]].ravel().tolist()) - {cell}))
    for cell in range(N_CELLS)
)
UNIT_CELLS = tuple(tuple(unit) for unit in UNITS.tolist())

# Dead ends a search may hit before every node also places hidden singles.
HIDDEN_SINGLES_AFTER = 64


@dataclass
class SolveStats:
    nodes: int = 0  # branch decisions tried by the search
    propagations: int = 0  # forced single-candidate assignments
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


def _bits_ascending(mask: int):
    while mask:
        b = mask & -mask
        yield b
        mask ^= b


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
            for bit in _bits_ascending(seen & ~twice & ~decided):
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
    return np.array(
        [c.bit_length() for c in cands], dtype=np.int64
    ).reshape(GRID_SIZE, GRID_SIZE)


def _search(cands, out, limit, stats, order_bits) -> bool:
    """Enumerate completions depth-first into ``out``, as candidate lists.
    Returns False once ``limit`` is hit."""
    if stats.dead_ends >= HIDDEN_SINGLES_AFTER and not _place_hidden_singles(cands, stats):
        stats.dead_ends += 1
        return True
    cell = _pick_cell(cands)
    if cell < 0:
        out.append(cands)
        return len(out) < limit
    for bit in order_bits(cands[cell]):
        stats.nodes += 1
        child = cands.copy()
        if not _assign(child, cell, bit, stats):
            stats.dead_ends += 1
        elif not _search(child, out, limit, stats, order_bits):
            return False
    return True


def _init_candidates(puzzle: np.ndarray, stats: SolveStats):
    """Seed the candidate state from the givens; None on contradiction."""
    cands = [ALL_DIGITS] * N_CELLS
    for idx, v in enumerate(puzzle.reshape(-1).tolist()):
        if v:
            bit = 1 << (v - 1)
            if not cands[idx] & bit:
                return None
            if cands[idx] != bit and not _assign(cands, idx, bit, stats):
                return None
    return cands


def solve(puzzle, limit: int = 1, _order_bits=_bits_ascending) -> SolveOutcome:
    """Find up to ``limit`` distinct completions of the puzzle.

    Every returned grid satisfies all row/column/box constraints and agrees
    with the puzzle's givens.  ``exhausted`` is True when the search space
    was fully explored, i.e. strictly fewer than ``limit`` solutions exist.
    An inconsistent puzzle yields an empty, exhausted outcome rather than
    an error.
    """
    outcome = _complete(puzzle, limit, _order_bits)
    outcome.solutions = [_cands_to_grid(cands) for cands in outcome.solutions]
    return outcome


def count_solutions(puzzle, cap: int) -> int:
    """min(cap, number of completions of the puzzle)."""
    return len(_complete(puzzle, cap, _bits_ascending).solutions)


def _complete(puzzle, limit: int, order_bits) -> SolveOutcome:
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
    outcome.exhausted = _search(cands, outcome.solutions, limit, stats, order_bits)
    return outcome


def generate_solved(seed: int) -> np.ndarray:
    """Deterministically generate a random valid complete grid.

    Solves the empty grid with the candidate-digit order shuffled by a
    seeded RNG at every branch point, returning the first completion.
    """
    rng = random.Random(seed)

    def shuffled_bits(mask: int):
        bits = list(_bits_ascending(mask))
        rng.shuffle(bits)
        return bits

    outcome = solve(np.zeros((GRID_SIZE, GRID_SIZE), dtype=np.int64), 1, shuffled_bits)
    return outcome.solutions[0]


MASK_RETRY_BUDGET = 1000


def mask_puzzle(
    solved,
    difficulty: float,
    seed: int,
    require_unique: bool = False,
) -> PuzzleInstance:
    """Blank round(81*difficulty) seeded-random cells of a solved grid.

    With ``require_unique`` the mask is redrawn (same RNG stream, so still
    deterministic) until the puzzle has exactly one completion, up to
    MASK_RETRY_BUDGET attempts.
    """
    solved = as_grid(solved)
    n_masked = masked_cell_count(difficulty)
    rng = random.Random(seed)
    attempts = MASK_RETRY_BUDGET if require_unique else 1
    for _ in range(attempts):
        puzzle = solved.copy()
        puzzle.flat[rng.sample(range(N_CELLS), n_masked)] = 0
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


_ATOM_RE = re.compile(r"cell\((\d),(\d),(\d)\)")
_MODELS_RE = re.compile(r"Models\s*:\s*(\d+)(\+?)")


def _parse_answer_sets(output: str) -> tuple[list, bool | None]:
    """Extract one grid per answer set from solver output.

    Returns (grids, exhausted) where exhausted is None when the output does
    not state whether enumeration completed.
    """
    lines = output.splitlines()
    grids = []
    for k, line in enumerate(lines):
        if not line.startswith("Answer:"):
            continue
        if k + 1 >= len(lines):
            raise BridgeProtocolError(
                f"answer header without atom line in solver output:\n{output}"
            )
        atoms = _ATOM_RE.findall(lines[k + 1])
        if len(atoms) != N_CELLS:
            raise BridgeProtocolError(
                f"answer set with {len(atoms)} cell atoms (expected 81) "
                f"in solver output:\n{output}"
            )
        grid = np.zeros((GRID_SIZE, GRID_SIZE), dtype=np.int64)
        for r, c, v in atoms:
            grid[int(r) - 1, int(c) - 1] = int(v)
        grids.append(grid)
    exhausted = None
    m = _MODELS_RE.search(output)
    if m:
        exhausted = m.group(2) != "+"
    return grids, exhausted


def external_solve(puzzle, limit: int = 1) -> SolveOutcome:
    """Solve through the external solver binary named by ASPER_EXTERNAL_SOLVER.

    The binary is invoked with the emitted program on standard input and
    ``-n <limit>``; its answer sets are parsed back into grids.  Contract
    matches ``solve``.  Raises ExternalSolverUnavailable when no binary is
    configured and BridgeProtocolError on uninterpretable output.
    """
    puzzle = as_grid(puzzle)
    if limit < 1:
        raise ValueError("limit must be positive")
    binary = os.environ.get(EXTERNAL_SOLVER_ENV)
    if not binary:
        raise ExternalSolverUnavailable(
            f"external solver unavailable: set {EXTERNAL_SOLVER_ENV} to a "
            "solver executable"
        )
    program = emit_asp_program(puzzle)
    try:
        proc = subprocess.run(
            [binary, "-n", str(limit)],
            input=program,
            capture_output=True,
            text=True,
            check=False,
        )
    except (FileNotFoundError, PermissionError) as exc:
        raise ExternalSolverUnavailable(
            f"external solver unavailable: cannot execute {binary}: {exc}"
        ) from exc
    output = proc.stdout
    if "UNSATISFIABLE" in output:
        return SolveOutcome(solutions=[], exhausted=True)
    if "SATISFIABLE" not in output:
        raise BridgeProtocolError(
            f"no SATISFIABLE/UNSATISFIABLE marker in solver output "
            f"(exit code {proc.returncode}):\n{output}\n{proc.stderr}"
        )
    grids, exhausted = _parse_answer_sets(output)
    # Defensive dedupe; a conforming solver enumerates distinct answer sets.
    seen, unique = set(), []
    for g in grids:
        key = g.tobytes()
        if key not in seen:
            seen.add(key)
            unique.append(g)
    if exhausted is None:
        exhausted = len(unique) < limit
    return SolveOutcome(solutions=unique, exhausted=exhausted)

#!/usr/bin/env python3
# Tour of the exact logic engine: generating solved grids, masking them
# into puzzles at a difficulty level, solving, counting solutions, and
# exporting the constraint program as a logic program.

from neurosudoku.engine import (
    count_solutions,
    emit_asp_program,
    generate_solved,
    mask_puzzle,
    solve,
)
from neurosudoku.grids import format_grid, is_valid_complete

# Every seed deterministically yields one valid solved grid.
solved = generate_solved(7)
print("a solved grid (seed 7):")
print(format_grid(solved))
print("valid:", is_valid_complete(solved))

# Difficulty is the fraction of cells masked: 0.1 -> 8 empties, 0.8 -> 65.
for difficulty in (0.1, 0.3, 0.6, 0.8):
    inst = mask_puzzle(solved, difficulty, seed=3)
    n_solutions = count_solutions(inst.puzzle, cap=5)
    print(f"difficulty {difficulty}: {int(inst.mask.sum())} empties, "
          f"{n_solutions}{'+' if n_solutions == 5 else ''} completion(s)")

# The solver enumerates completions deterministically and reports whether
# the search space was exhausted.
inst = mask_puzzle(solved, 0.6, seed=3)
outcome = solve(inst.puzzle, limit=3)
print(f"\nsolving the 0.6 puzzle: {len(outcome.solutions)} found, "
      f"exhausted={outcome.exhausted}, "
      f"{outcome.stats.nodes} branch nodes, "
      f"{outcome.stats.propagations} cells decided by propagation")
for sol in outcome.solutions:
    assert is_valid_complete(sol)

# A puzzle masked with require_unique keeps exactly one completion.
unique = mask_puzzle(solved, 0.1, seed=5, require_unique=True)
print("unique-solution puzzle:", count_solutions(unique.puzzle, 2), "completion")

# The same constraints exported as a logic program: four rules plus one
# fact per given cell, ready for an answer-set solver.
program = emit_asp_program(unique.puzzle)
print(f"\nlogic program ({len(program.splitlines())} lines), first 6:")
for line in program.splitlines()[:6]:
    print(" ", line)

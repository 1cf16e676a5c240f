"""Tests of the benchmark's own output checks and tracer arithmetic.

Run with ``python3 -m pytest benchmarks``; they are outside the project's
``testpaths`` and need nothing but the standard library and pytest.
"""

import os
import types

import pytest

import checks
from tracer import Tracer, aggregate, covered_length, self_times


def solved_grid():
    return [[(3 * r + r // 3 + c) % 9 + 1 for c in range(9)] for r in range(9)]


def test_does_not_import_the_program():
    with open(os.path.join(os.path.dirname(__file__), "checks.py"), encoding="utf-8") as fh:
        source = fh.read()
    assert "import neurosudoku" not in source and "from neurosudoku" not in source


def test_unit_lists_cover_every_cell_three_times():
    assert len(checks.UNITS) == 27
    counts = [0] * 81
    for unit in checks.UNITS:
        assert len(set(unit)) == 9
        for i in unit:
            counts[i] += 1
    assert counts == [3] * 81
    assert all(len(p) == 20 for p in checks.PEERS)


def test_valid_complete():
    grid = solved_grid()
    assert checks.valid_complete(grid)
    assert checks.valid_complete([v for row in grid for v in row])
    swapped = [row[:] for row in grid]
    swapped[0][0], swapped[0][1] = swapped[0][1], swapped[0][0]  # row intact, columns broken
    assert not checks.valid_complete(swapped)
    blank = [row[:] for row in grid]
    blank[4][4] = 0
    assert not checks.valid_complete(blank)


def test_no_repeats_sees_a_box_only_clash():
    grid = [[0] * 9 for _ in range(9)]
    grid[0][0] = 5
    grid[1][1] = 5  # same box, different row and column
    assert not checks.no_repeats(grid)
    grid[1][1] = 0
    grid[4][4] = 5
    assert checks.no_repeats(grid)


def test_keeps_givens():
    grid = solved_grid()
    puzzle = [row[:] for row in grid]
    puzzle[2][3] = 0
    assert checks.keeps_givens(puzzle, grid)
    changed = [row[:] for row in grid]
    changed[0][0] = changed[0][0] % 9 + 1
    assert not checks.keeps_givens(puzzle, changed)


@pytest.mark.parametrize("difficulty,masked", [(0.1, 8), (0.3, 24), (0.6, 49), (0.8, 65)])
def test_masked_count_rounds_half_up(difficulty, masked):
    assert checks.masked_count(difficulty) == masked
    assert checks.given_fraction(difficulty) == pytest.approx(1 - masked / 81)


def test_enumerator_single_blank():
    grid = solved_grid()
    puzzle = [row[:] for row in grid]
    puzzle[8][8] = 0
    assert checks.enumerate_completions(puzzle, 5) == [checks.flat(grid)]


def swappable_rectangle(grid):
    """Cells (r1,c1),(r1,c2),(r2,c1),(r2,c2) whose digits can be exchanged
    along the diagonals while the grid stays valid."""
    for r1 in range(9):
        for r2 in range(r1 + 1, 9):
            for c1 in range(9):
                for c2 in range(c1 + 1, 9):
                    if grid[r1][c1] != grid[r2][c2] or grid[r1][c2] != grid[r2][c1]:
                        continue
                    other = [row[:] for row in grid]
                    other[r1][c1], other[r1][c2] = grid[r1][c2], grid[r1][c1]
                    other[r2][c1], other[r2][c2] = grid[r2][c2], grid[r2][c1]
                    if checks.valid_complete(other):
                        return (r1, r2, c1, c2), other
    raise AssertionError("no swappable rectangle")


def test_enumerator_finds_both_sides_of_a_swappable_rectangle():
    first = checks.enumerate_completions([[0] * 9 for _ in range(9)], 1)[0]
    grid = [first[i:i + 9] for i in range(0, 81, 9)]
    (r1, r2, c1, c2), other = swappable_rectangle(grid)
    puzzle = [row[:] for row in grid]
    for r in (r1, r2):
        for c in (c1, c2):
            puzzle[r][c] = 0
    completions = checks.enumerate_completions(puzzle, 10)
    assert sorted(completions) == sorted([checks.flat(grid), checks.flat(other)])


def test_enumerator_caps_and_rejects_clashing_givens():
    empty = [[0] * 9 for _ in range(9)]
    found = checks.enumerate_completions(empty, 5)
    assert len(found) == 5 and len({tuple(g) for g in found}) == 5
    assert all(checks.valid_complete(g) for g in found)
    empty[0][0] = empty[0][8] = 3
    assert checks.enumerate_completions(empty, 5) == []


# -------------------------------------------------------------------------
# tracer arithmetic on a synthetic nesting of spans


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(5 + 2)
    assert covered_length([], 0, 10) == 0
    assert covered_length([(2, 3), (2, 3)], 0, 10) == pytest.approx(1)


def test_self_time_is_duration_minus_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("leaf", 2.0, 3.0, 1),
        span("b", 5.0, 7.5, 0),
        span("b", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2.5 - 1, 3 - 1, 1, 2.5, 1])
    stats = aggregate(spans)
    assert stats["b"] == {"calls": 2, "busy_s": pytest.approx(3.5), "self_s": pytest.approx(3.5),
                          "children": 0}
    assert stats["root"]["children"] == 3
    assert stats["a"]["self_s"] == pytest.approx(2)


def test_recursive_busy_time_counts_once():
    spans = [span("f", 0.0, 10.0, -1), span("g", 1.0, 9.0, 0), span("f", 2.0, 5.0, 1)]
    stats = aggregate(spans)
    assert stats["f"]["calls"] == 2
    assert stats["f"]["busy_s"] == pytest.approx(10.0)
    assert stats["g"]["self_s"] == pytest.approx(8 - 3)


def test_install_wraps_every_alias_and_restores():
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def leaf(x):
        return x + 1

    def caller(x):
        return inner.leaf(x) * 2

    def _private(x):
        return x

    leaf.__module__, caller.__module__, _private.__module__ = "fakepkg.inner", "fakepkg.outer", "fakepkg.inner"
    inner.leaf, inner._private = leaf, _private
    outer.caller, outer.leaf = caller, leaf
    pkg.leaf = leaf

    tracer = Tracer()
    tracer.install((inner, outer, pkg), "fakepkg")
    assert inner.leaf is outer.leaf is pkg.leaf and inner.leaf is not leaf
    assert inner._private is _private
    assert outer.caller(1) == 4
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer.caller", -1), ("inner.leaf", 0)]
    tracer.paused = True
    outer.caller(1)
    assert len(tracer.spans) == 2
    tracer.uninstall()
    assert inner.leaf is leaf and outer.caller is caller and pkg.leaf is leaf

"""Self-contained SVG charts and prediction rendering.

No plotting dependency: charts are built as SVG strings directly.
``cell_status`` compares a prediction with its solution, marking each cell
as given, predicted-correct or predicted-wrong; ``grid_to_text`` (terminal
colors) and ``grid_to_svg`` take the same three grids and draw that
comparison.
"""

from __future__ import annotations

from xml.sax.saxutils import escape as _xml_escape

import numpy as np

from .grids import GRID_SIZE, as_grid


def escape(text) -> str:
    """XML-escape text for element content and quoted attribute values."""
    return _xml_escape(str(text), {'"': "&quot;"})

STATUS_GIVEN = "given"
STATUS_CORRECT = "predicted-correct"
STATUS_WRONG = "predicted-wrong"

_ANSI = {
    STATUS_GIVEN: ("", ""),
    STATUS_CORRECT: ("\x1b[32m", "\x1b[0m"),
    STATUS_WRONG: ("\x1b[31m", "\x1b[0m"),
}

_FILL = {
    STATUS_GIVEN: "#ffffff",
    STATUS_CORRECT: "#b6e3b6",
    STATUS_WRONG: "#f2b8b5",
}

SERIES_COLORS = ("#4878cf", "#ee854a", "#6acc65", "#d65f5f", "#956cb4", "#8c613c")


def cell_status(predicted, solution, mask) -> list:
    """9x9 nested lists of STATUS_* strings: given cells pass through,
    predicted cells are marked correct or wrong against the solution."""
    predicted = as_grid(predicted)
    solution = as_grid(solution)
    mask = np.asarray(mask, dtype=bool).reshape(GRID_SIZE, GRID_SIZE)
    status = np.where(mask, np.where(predicted == solution, STATUS_CORRECT, STATUS_WRONG),
                      STATUS_GIVEN)
    return status.tolist()


def grid_to_text(predicted, solution, mask, color: bool = True) -> str:
    """Terminal rendering; predicted cells are green (correct) or red (wrong)."""
    grid, status = as_grid(predicted), cell_status(predicted, solution, mask)
    lines = []
    for i in range(GRID_SIZE):
        parts = []
        for j in range(GRID_SIZE):
            v = int(grid[i, j])
            ch = "." if v == 0 else str(v)
            if color:
                pre, post = _ANSI[status[i][j]]
                ch = f"{pre}{ch}{post}"
            parts.append(ch)
            if j in (2, 5):
                parts.append("|")
        lines.append(" ".join(parts))
        if i in (2, 5):
            lines.append("------+-------+------")
    return "\n".join(lines)


def grid_to_svg(predicted, solution, mask) -> str:
    """SVG rendering with status-colored cell backgrounds."""
    grid, status = as_grid(predicted), cell_status(predicted, solution, mask)
    cell = 36  # pixels per Sudoku cell
    size = GRID_SIZE * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size + 2}" '
        f'height="{size + 2}" viewBox="0 0 {size + 2} {size + 2}">',
        '<g transform="translate(1,1)">',
    ]
    for i in range(GRID_SIZE):
        for j in range(GRID_SIZE):
            parts.append(
                f'<rect class="cell" data-status="{status[i][j]}" '
                f'x="{j * cell}" y="{i * cell}" width="{cell}" height="{cell}" '
                f'fill="{_FILL[status[i][j]]}" stroke="#999" stroke-width="1"/>'
            )
            v = int(grid[i, j])
            if v:
                parts.append(
                    f'<text x="{j * cell + cell / 2}" y="{i * cell + cell * 0.7}" '
                    f'font-family="monospace" font-size="{cell * 0.55:.0f}" '
                    f'text-anchor="middle">{v}</text>'
                )
    for k in range(0, GRID_SIZE + 1, 3):
        w = 3
        parts.append(
            f'<line x1="{k * cell}" y1="0" x2="{k * cell}" y2="{size}" '
            f'stroke="#000" stroke-width="{w}"/>'
        )
        parts.append(
            f'<line x1="0" y1="{k * cell}" x2="{size}" y2="{k * cell}" '
            f'stroke="#000" stroke-width="{w}"/>'
        )
    parts.append("</g></svg>")
    return "\n".join(parts)


def comparison_chart(title: str, group_labels, series) -> str:
    """Grouped-bar accuracy chart as an SVG string.

    ``series`` is a list of (label, values) pairs, values aligned with
    ``group_labels``.  The y axis is fixed to [0, 1].
    """
    width, height = 720, 420
    margin_l, margin_r, margin_t, margin_b = 60, 160, 40, 50
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    n_groups = len(group_labels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{margin_l + plot_w / 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title)}</text>',
    ]

    def ypix(v: float) -> float:
        return margin_t + plot_h * (1.0 - v)

    def xcenter(g: int) -> float:
        return margin_l + plot_w * (g + 0.5) / n_groups

    for tick in np.linspace(0.0, 1.0, 6):
        y = ypix(tick)
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.1f}" x2="{margin_l + plot_w}" '
            f'y2="{y:.1f}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.1f}</text>'
        )
    parts.append(
        f'<text x="16" y="{margin_t + plot_h / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2})">accuracy</text>'
    )
    for g, label in enumerate(group_labels):
        parts.append(
            f'<text x="{xcenter(g):.1f}" y="{margin_t + plot_h + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{escape(label)}</text>"
        )

    n_series = max(1, len(series))
    group_w = plot_w / max(1, n_groups)
    bar_w = group_w * 0.8 / n_series
    for s, (label, values) in enumerate(series):
        color = SERIES_COLORS[s % len(SERIES_COLORS)]
        for g, v in enumerate(values):
            v = min(max(float(v), 0.0), 1.0)
            x = xcenter(g) - group_w * 0.4 + s * bar_w
            parts.append(
                f'<rect class="bar" data-group="{escape(group_labels[g])}" '
                f'data-series="{escape(label)}" x="{x:.1f}" '
                f'y="{ypix(v):.1f}" width="{bar_w:.1f}" '
                f'height="{plot_h * v:.1f}" fill="{color}"/>'
            )
        ly = margin_t + 16 + 18 * s
        lx = margin_l + plot_w + 14
        parts.append(
            f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{lx + 18}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{escape(label)}</text>'
        )
    x_axis_y = ypix(0.0)
    parts.append(
        f'<line x1="{margin_l}" y1="{x_axis_y:.1f}" x2="{margin_l + plot_w}" '
        f'y2="{x_axis_y:.1f}" stroke="#000" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def grid_charts(rows):
    """Yield (n_puzzles, svg): one accuracy-vs-difficulty chart per puzzle
    count of ``ExperimentResult.csv_rows`` rows, each series an ablation's mean
    6-decimal ``acc_all`` over seeds and folds (failed cells left out, 0 if
    none is left).  The series follow the ablations' first appearance in
    ``rows``, failed cells' rows included."""
    acc = {}
    for row in rows:
        if row["fold"] != -1:
            key = (row["n_puzzles"], row["ablation"], row["difficulty"])
            acc.setdefault(key, []).append(float(row["acc_all"]))
    cells = {(row["n_puzzles"], row["difficulty"]) for row in rows}
    labels = list(dict.fromkeys(row["ablation"] for row in rows))
    for n in sorted({n for n, _ in cells}):
        difficulties = sorted(d for nn, d in cells if nn == n)
        series = [
            (label, [sum(v) / len(v) if (v := acc.get((n, label, d))) else 0.0
                     for d in difficulties])
            for label in labels
        ]
        yield n, comparison_chart(
            f"accuracy vs difficulty ({n} puzzles, mean over seeds x folds)",
            [str(d) for d in difficulties], series,
        )

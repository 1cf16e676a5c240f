#!/usr/bin/env python3
# A miniature version of the ablation experiment grid: every loss
# combination on small datasets at two difficulty levels, results written
# as CSV plus a self-generated SVG chart under demos/output/.
#
# The full grid (including the 100- and 1000-puzzle rows) runs through the
# CLI instead:  neurosudoku --out results table1 --profile full

import os

from neurosudoku.charts import grid_charts
from neurosudoku.losses import ABLATIONS
from neurosudoku.training import TrainConfig, run_grid, write_results_csv

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output")
os.makedirs(OUT_DIR, exist_ok=True)

ROWS = ((12, 0.1), (12, 0.8))  # (puzzles, difficulty)
EPOCHS = 60  # a fast demo; the experiment default is 200

rows = []
for cell in run_grid(ROWS, seeds=(0,), ablations=ABLATIONS,
                     run=TrainConfig(epochs=EPOCHS, folds=3)):
    if cell.error is not None:
        raise SystemExit(f"cell {cell.difficulty} {cell.config.loss.ablation}: {cell.error}")
    rows.extend(cell.csv_rows())
    print(f"difficulty {cell.difficulty} {cell.config.loss.ablation:22s} "
          f"acc_all={cell.result.mean_all:.3f} +/- {cell.result.std_all:.3f}")

csv_path = os.path.join(OUT_DIR, "mini_grid.csv")
write_results_csv(rows, csv_path)
print("\nwrote", csv_path)

for n, svg in grid_charts(rows, ABLATIONS, "bars"):
    svg_path = os.path.join(OUT_DIR, f"mini_grid_{n}.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print("wrote", svg_path)

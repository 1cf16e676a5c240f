#!/usr/bin/env python3
# A miniature version of the ablation experiment grid: every loss
# combination on small datasets at two difficulty levels, results written
# as CSV plus a self-generated SVG chart under demos/output/mini_grid/.
#
# It is the table1 command on a smaller grid; the full grid (including the
# 100- and 1000-puzzle rows) runs as:  neurosudoku --out results table1

import os
import sys

from neurosudoku.cli import main

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output", "mini_grid")

sys.exit(main([
    "--out", OUT_DIR, "table1",
    "--rows", "12:0.1,12:0.8",  # n_puzzles:difficulty
    "--seeds", "0",
    "--epochs", "60",  # a fast demo; the experiment default is 200
    "--folds", "3",
]))

#!/usr/bin/env python3
# End-to-end training on a small dataset, k-fold evaluation, and solving a
# held-out puzzle with the trained model under the three post-processing
# modes.

from neurosudoku.charts import grid_to_text
from neurosudoku.grids import cell_accuracy, format_grid
from neurosudoku.losses import ablation_config
from neurosudoku.training import (
    TrainConfig,
    build_dataset,
    kfold_evaluate,
    solve_with_model,
    train,
)

# 12 puzzles at difficulty 0.1, everything seeded and reproducible.
dataset = build_dataset(12, 0.1, seed=0)
config = TrainConfig(epochs=200, folds=3, seed=0,
                     loss=ablation_config("all-combined"))

# Cross-validated accuracy in both scopes (all cells / only masked cells).
result = kfold_evaluate(dataset, config)
print(f"3-fold accuracy: all-cells {result.mean_all:.3f} +/- {result.std_all:.3f}, "
      f"empty-cells {result.mean_empty:.3f} +/- {result.std_empty:.3f}")
for fr in result.folds:
    print(f"  fold {fr.fold}: all={fr.accuracy_all:.3f} empty={fr.accuracy_empty:.3f} "
          f"train-loss {fr.history[0]:.3f} -> {fr.history[-1]:.3f}")

# Train on everything except one held-out instance, then solve it.
holdout, train_set = dataset[0], dataset[1:]
params, history = train(train_set, config, init_seed=0)
print(f"\ntrained on {len(train_set)} puzzles, "
      f"loss {history[0]:.3f} -> {history[-1]:.3f}")

print("\nheld-out puzzle:", format_grid(holdout.puzzle))
for mode in ("argmax", "greedy-constrained", "hybrid-complete"):
    predicted = solve_with_model(params, holdout.puzzle, mode)
    acc_all, _ = cell_accuracy(predicted, holdout.solution, holdout.mask)
    print(f"{mode:18s} -> {format_grid(predicted)}  acc_all={acc_all:.3f}")

# Figure-style comparison: given cells plain, predicted cells colored by
# correctness (green correct / red wrong on a color terminal).
predicted = solve_with_model(params, holdout.puzzle, "argmax")
print("\nargmax prediction vs truth:")
print(grid_to_text(predicted, holdout.solution, holdout.mask))

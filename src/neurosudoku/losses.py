"""Training losses over the 9x9x9 prediction tensor.

Three components, each one ``*_loss_grad`` that returns (value, gradient):

* standard: mean per-cell cross-entropy against the true solution.  The
  target is a 9x9 grid (``as_grid``) with no empty cell.
* constraints: for every digit and every unit (row/column/box), the squared
  gap between a target count and the predicted probability mass that the
  puzzle's *empty* cells put on that digit in that unit.  The hard
  "cell equals digit" indicator is relaxed to the predicted probability, so
  the penalty agrees with the exact counting rule whenever the prediction
  is one-hot.  The givens are a 9x9 grid (``as_grid``), read once for both
  the empty cells and the target counts.
* expert: per-cell expected digit value (sum of digit * probability), then
  the absolute gap between each of the 27 predicted unit sums and 45, the
  sum of every unit of a valid solution.  It reads no grid.

Constraint target modes:

* "fixed-target": the target count is always 1 (one occurrence of each
  digit per unit, charged entirely to the empty cells).
* "solution-consistent": the target is reduced by digits already given in
  the unit (floored at 0), so the true solution scores exactly zero.

The combined loss is the weighted sum alpha*standard + beta*constraints +
gamma*expert.  ``combined_loss`` (validation) measures every component
whatever its weight and keeps only the values; ``combined_loss_grad``
(training) skips zero-weight components and reports them as 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grids import DIGITS, GRID_SIZE, INCIDENCE, N_CELLS, UNITS, PuzzleInstance, as_grid

PROB_CLAMP = 1e-12

MODE_FIXED_TARGET = "fixed-target"
MODE_SOLUTION_CONSISTENT = "solution-consistent"
CONSTRAINT_MODES = (MODE_FIXED_TARGET, MODE_SOLUTION_CONSISTENT)

ABLATION_WEIGHTS = {
    "standard-only": (1.0, 0.0, 0.0),
    "standard+expert": (1.0, 0.0, 1.0),
    "standard+constraints": (1.0, 1.0, 0.0),
    "all-combined": (1.0, 1.0, 1.0),
}
ABLATIONS = tuple(ABLATION_WEIGHTS)
CUSTOM = "custom"  # the label of weights that are no ablation's

_DIGITS = DIGITS.astype(np.float64)
_UNIT_SUM = float(DIGITS.sum())  # 45


@dataclass(frozen=True)
class LossConfig:
    alpha: float
    beta: float
    gamma: float
    constraint_mode: str = MODE_SOLUTION_CONSISTENT

    def __post_init__(self):
        if not all(0.0 <= w < np.inf for w in (self.alpha, self.beta, self.gamma)):
            raise ValueError("loss weights must be nonnegative and finite")
        if self.alpha == self.beta == self.gamma == 0:
            raise ValueError("at least one loss weight must be positive")
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ValueError(f"unknown constraint mode: {self.constraint_mode!r}")

    @property
    def ablation(self) -> str:
        """The label of the ablation whose weights these are, or ``"custom"``."""
        return next((label for label, weights in ABLATION_WEIGHTS.items()
                     if weights == (self.alpha, self.beta, self.gamma)), CUSTOM)

    def to_dict(self) -> dict:
        return {**asdict(self), "ablation": self.ablation}


@dataclass(frozen=True)
class LossBreakdown:
    standard: float
    constraints: float
    expert: float
    combined: float


def ablation_config(label: str, constraint_mode: str = MODE_SOLUTION_CONSISTENT) -> LossConfig:
    """LossConfig for one ablation column: weights are 0/1 per the label."""
    try:
        return LossConfig(*ABLATION_WEIGHTS[label], constraint_mode)
    except KeyError:
        raise ValueError(
            f"unknown ablation label: {label!r} (choose from {', '.join(ABLATIONS)})"
        ) from None


def standard_loss_grad(pred: np.ndarray, target):
    """(value, gradient) of the mean over the 81 cells of -log(p(true digit));
    ValueError for a target with an empty cell."""
    target = as_grid(target)
    if not target.all():
        raise ValueError("standard loss target has an empty cell")
    rows = np.arange(GRID_SIZE)[:, None]
    cols = np.arange(GRID_SIZE)[None, :]
    p_true = pred[rows, cols, target - 1]
    clamped = np.maximum(p_true, PROB_CLAMP)
    loss = float(-np.log(clamped).sum() / N_CELLS)
    d_true = np.where(p_true >= PROB_CLAMP, -1.0 / (N_CELLS * clamped), 0.0)
    d_pred = np.zeros_like(pred)
    d_pred[rows, cols, target - 1] = d_true
    return loss, d_pred


def _constraint_targets(cells: np.ndarray, mode: str) -> np.ndarray:
    """Per-(unit, digit) target counts (27, 9) for the constraint penalty,
    from the givens as an (81, 1) column."""
    if mode == MODE_FIXED_TARGET:
        return np.ones((len(UNITS), GRID_SIZE))
    if mode == MODE_SOLUTION_CONSISTENT:
        return np.maximum(0.0, 1.0 - INCIDENCE @ (cells == DIGITS).astype(np.float64))
    raise ValueError(f"unknown constraint mode: {mode!r}")


def constraints_loss_grad(pred: np.ndarray, givens, mode: str = MODE_SOLUTION_CONSISTENT):
    """(value, gradient) of the squared target-count gaps of per-unit digit
    mass over the empty cells of ``givens``."""
    cells = as_grid(givens).reshape(N_CELLS, 1)
    m = (cells == 0).astype(np.float64)
    mass = INCIDENCE @ (pred.reshape(N_CELLS, GRID_SIZE) * m)  # (27, 9) per unit and digit
    residual = _constraint_targets(cells, mode) - mass
    d_pred = -2.0 * (INCIDENCE.T @ residual) * m
    return float((residual ** 2).sum()), d_pred.reshape(pred.shape)


def expert_loss_grad(pred: np.ndarray):
    """(value, gradient) of the absolute gaps between predicted unit sums and 45."""
    gap = INCIDENCE @ (pred.reshape(N_CELLS, GRID_SIZE) @ _DIGITS) - _UNIT_SUM
    d_pred = np.multiply.outer(INCIDENCE.T @ np.sign(gap), _DIGITS)
    return float(np.abs(gap).sum()), d_pred.reshape(pred.shape)


def _weighted(config: LossConfig, std: float, cons: float, exp_: float) -> LossBreakdown:
    return LossBreakdown(std, cons, exp_,
                         config.alpha * std + config.beta * cons + config.gamma * exp_)


def combined_loss(pred: np.ndarray, instance: PuzzleInstance, config: LossConfig) -> LossBreakdown:
    """Every component, measured whatever its weight, and their weighted sum."""
    return _weighted(config, standard_loss_grad(pred, instance.solution)[0],
                     constraints_loss_grad(pred, instance.puzzle, config.constraint_mode)[0],
                     expert_loss_grad(pred)[0])


def combined_loss_grad(pred: np.ndarray, instance: PuzzleInstance, config: LossConfig):
    """Weighted sum of the active components and its tensor gradient.

    Components with zero weight are skipped entirely and reported as 0.
    """
    std = cons = exp_ = 0.0
    d_pred = np.zeros_like(pred)
    if config.alpha != 0.0:
        std, d_std = standard_loss_grad(pred, instance.solution)
        d_pred += config.alpha * d_std
    if config.beta != 0.0:
        cons, d_cons = constraints_loss_grad(pred, instance.puzzle, config.constraint_mode)
        d_pred += config.beta * d_cons
    if config.gamma != 0.0:
        exp_, d_exp = expert_loss_grad(pred)
        d_pred += config.gamma * d_exp
    return _weighted(config, std, cons, exp_), d_pred

"""End-to-end training: dataset construction through the logic engine,
per-puzzle gradient updates on the combined loss, K-fold cross-validation,
model-based puzzle solving with rule-aware post-processing, and
``run_grid``, the ablation grid of k-fold runs behind ``table1``.

The training loop mirrors the per-puzzle structure: each epoch visits every
puzzle (in a seeded shuffle), computes the combined loss of the network's
prediction against that puzzle's solution and mask, and applies one Adam
update per puzzle (batch size 1).

``run_grid`` builds its datasets in the calling process and runs each
cell's k-fold evaluation in a forked worker process, one worker per CPU
the process may use.  Every cell is deterministic and the cells come back
in nesting order, so the output does not depend on the worker count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .engine import generate_solved, mask_puzzle, solve
from .grids import (
    CELL_UNITS,
    GRID_SIZE,
    N_CELLS,
    UNITS,
    PuzzleInstance,
    SCOPE_ALL,
    SCOPE_EMPTY,
    as_grid,
    cell_accuracy,
    format_grid,
    masked_cell_count,
    parse_grid,
)
from .losses import (
    CUSTOM,
    LossBreakdown,
    LossConfig,
    ablation_config,
    combined_loss,
    combined_loss_grad,
)
from .network import (
    ModelParams,
    adam_step,
    backward,
    decode_prediction,
    encode_input,
    forward,
    init_adam,
    init_params,
    zeros_params,
)

MODE_ARGMAX = "argmax"
MODE_GREEDY = "greedy-constrained"
MODE_HYBRID = "hybrid-complete"
POSTPROCESS_MODES = (MODE_ARGMAX, MODE_GREEDY, MODE_HYBRID)


def _check_postprocess_mode(mode: str) -> str:
    """``mode``, or ValueError when it is not one of ``POSTPROCESS_MODES``."""
    if mode not in POSTPROCESS_MODES:
        raise ValueError(f"unknown postprocess mode: {mode!r}")
    return mode


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def read_setting(settings: dict, key: str, kind: type, default):
    """``settings[key]`` as ``kind`` (int, float or str), or ``default`` when
    the key is absent.  ValueError names the key when the value has another
    JSON type: an int takes integral numbers only, and null or a boolean is
    never a number."""
    if key not in settings:
        return default
    value = settings[key]
    if kind is str:
        valid = isinstance(value, str)
    else:
        valid = (isinstance(value, (int, float)) and not isinstance(value, bool)
                 and (kind is float or isinstance(value, int) or value.is_integer()))
    if valid:
        try:
            return kind(value)
        except OverflowError:  # an integer too large for a float
            pass
    raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {json.dumps(value)}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    folds: int = 3
    seed: int = 0
    loss: LossConfig = ablation_config("all-combined")
    lr: float = 0.001
    postprocess_mode: str = MODE_ARGMAX

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        _check_postprocess_mode(self.postprocess_mode)

    def to_dict(self) -> dict:
        d = {
            "epochs": self.epochs,
            "folds": self.folds,
            "seed": self.seed,
            "lr": self.lr,
            "postprocess_mode": self.postprocess_mode,
        }
        d.update(self.loss.to_dict())
        return d

    @classmethod
    def from_dict(cls, settings: dict) -> "TrainConfig":
        """The config that ``settings`` (config-file keys, as ``to_dict``
        writes them) describe.  An absent key keeps its field's default, and
        keys of no field, such as ``n_puzzles``, are ignored.

        ``ablation`` picks the base loss weights, and a stated ``alpha``,
        ``beta`` or ``gamma`` replaces its own; ``"custom"`` picks none, so
        it needs all three.  ValueError names a key whose value has the
        wrong type or is out of range.
        """
        mode = read_setting(settings, "constraint_mode", str, cls.loss.constraint_mode)
        label = read_setting(settings, "ablation", str, cls.loss.ablation)
        base = {} if label == CUSTOM else asdict(ablation_config(label, mode))
        weights = {key: read_setting(settings, key, float, base.get(key))
                   for key in ("alpha", "beta", "gamma")}
        if None in weights.values():
            raise ValueError(f"ablation {CUSTOM!r} needs alpha, beta and gamma")
        return cls(
            epochs=read_setting(settings, "epochs", int, cls.epochs),
            folds=read_setting(settings, "folds", int, cls.folds),
            seed=read_setting(settings, "seed", int, cls.seed),
            loss=LossConfig(**weights, constraint_mode=mode),
            lr=read_setting(settings, "lr", float, cls.lr),
            postprocess_mode=read_setting(settings, "postprocess_mode", str, cls.postprocess_mode),
        )


@dataclass
class FoldResult:
    fold: int
    accuracy_all: float
    accuracy_empty: float
    val_loss: LossBreakdown
    history: list


@dataclass
class ExperimentResult:
    folds: list
    mean_all: float
    std_all: float
    mean_empty: float
    std_empty: float
    config: TrainConfig
    fingerprint: str


def dataset_fingerprint(dataset) -> str:
    """Order-independent hash of the dataset's puzzle and solution texts."""
    lines = sorted(
        f"{format_grid(inst.puzzle)}:{format_grid(inst.solution)}" for inst in dataset
    )
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def build_dataset(n_puzzles: int, difficulty: float, seed: int):
    """Generate and mask ``n_puzzles`` instances.

    Instance k derives from seed+k for both generation and masking, so the
    dataset is a pure function of (n_puzzles, difficulty, seed).  Each
    instance comes out of ``PuzzleInstance.validate``, which proves that its
    stored solution is a valid completion of its givens.
    """
    if n_puzzles < 1:
        raise ValueError("n_puzzles must be >= 1")
    return [
        mask_puzzle(generate_solved(seed + k), difficulty, seed + k)
        for k in range(n_puzzles)
    ]


def save_dataset(dataset, path) -> None:
    """Write instances as JSON lines: puzzle/solution text, difficulty, seed."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in dataset:
            fh.write(json.dumps({
                "puzzle": format_grid(inst.puzzle),
                "solution": format_grid(inst.solution),
                "difficulty": inst.difficulty,
                "seed": inst.seed,
            }) + "\n")


class DatasetError(ValueError):
    """A dataset file holds a record that is not a valid puzzle instance."""


def _parse_record(line: str) -> PuzzleInstance:
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    missing = [key for key in ("puzzle", "solution", "difficulty", "seed") if key not in rec]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    return PuzzleInstance(
        puzzle=parse_grid(read_setting(rec, "puzzle", str, None)),
        solution=parse_grid(read_setting(rec, "solution", str, None)),
        difficulty=read_setting(rec, "difficulty", float, None),
        seed=read_setting(rec, "seed", int, None),
    ).validate()


def load_dataset(path):
    """Read a JSON-lines dataset; DatasetError names the file and line of
    the first bad record."""
    instances = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    instances.append(_parse_record(line))
            except (TypeError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
                raise DatasetError(f"{path}:{line_no}: bad dataset record: {exc}") from exc
    return instances


def train(dataset, config: TrainConfig, init_seed: int):
    """Train a fresh model on the dataset.

    Returns (final params, per-epoch mean combined loss).  Deterministic:
    parameter init comes from ``init_seed`` and the per-epoch shuffle from
    (init_seed, epoch).
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    params = init_params(init_seed)
    state = init_adam(config.lr)
    grads = zeros_params()  # backward writes every step's gradient here
    inputs = [encode_input(inst.puzzle) for inst in dataset]
    history = []
    for epoch in range(config.epochs):
        order = np.random.default_rng((init_seed, epoch)).permutation(len(dataset))
        epoch_losses = []
        for i in order:
            tensor, cache = forward(params, inputs[i])
            breakdown, d_tensor = combined_loss_grad(tensor, dataset[i], config.loss)
            adam_step(params, backward(params, cache, d_tensor, out=grads), state)
            epoch_losses.append(breakdown.combined)
        history.append(float(np.mean(epoch_losses)))
    return params, history


def solve_with_model(params: ModelParams, puzzle, mode: str = MODE_ARGMAX) -> np.ndarray:
    """Predict a completion of the puzzle: the network's forward pass, then
    ``postprocess`` in the given mode."""
    tensor, _ = forward(params, encode_input(puzzle))
    return postprocess(tensor, puzzle, mode)


def postprocess(tensor: np.ndarray, puzzle, mode: str) -> np.ndarray:
    """Turn a (9, 9, 9) prediction for the puzzle into a grid; given cells
    always pass through.

    argmax: per-cell most probable digit, givens overwritten last.
    greedy-constrained: empty cells filled in descending order of peak
    probability, each taking its most probable digit that does not clash
    with already-placed digits; unfillable cells stay 0.
    hybrid-complete: greedy; if that leaves an empty cell, the logic engine
    solves the puzzle from its givens alone (first solution) and the
    network's placements are dropped.  Greedy leaves a cell empty only
    when every digit is already placed among its peers, and later
    placements only remove candidates, so the greedy grid itself never has
    a completion.  A solvable puzzle therefore always yields a fully valid
    grid; only an unsolvable one returns the degraded greedy output.
    Raises only ValueError, for an unknown mode or a malformed puzzle.
    """
    puzzle = as_grid(puzzle)
    if _check_postprocess_mode(mode) == MODE_ARGMAX:
        grid = decode_prediction(tensor)
        given = puzzle != 0
        grid[given] = puzzle[given]
        return grid
    grid = puzzle.copy()
    cells = grid.reshape(-1)
    probs = tensor.reshape(N_CELLS, GRID_SIZE)
    # used[u, d]: digit d is placed in unit u (column 0, set by empty cells, is unused)
    used = np.zeros((len(UNITS), GRID_SIZE + 1), dtype=bool)
    used[np.arange(len(UNITS))[:, None], cells[UNITS]] = True
    empties = np.flatnonzero(cells == 0)
    # most confident cell first; stable sort keeps row-major order on ties
    for cell in empties[np.argsort(-probs[empties].max(axis=1), kind="stable")]:
        units = CELL_UNITS[cell]
        free = ~used[units, 1:].any(axis=0)
        if free.any():
            # most probable free digit; argmax takes the smallest on ties
            digit = int(np.argmax(np.where(free, probs[cell], -np.inf))) + 1
            cells[cell] = digit
            used[units, digit] = True
    if mode == MODE_HYBRID and (grid == 0).any():
        outcome = solve(puzzle, 1)
        if outcome.solutions:
            return outcome.solutions[0]
    return grid


def _canonical_key(inst: PuzzleInstance):
    return (format_grid(inst.puzzle), format_grid(inst.solution), inst.seed)


def kfold_evaluate(dataset, config: TrainConfig, train_fn=None, predict_fn=None) -> ExperimentResult:
    """K-fold cross-validation with a fresh model per fold.

    The dataset is put in canonical order and then shuffled by the config
    seed, so results do not depend on input order.  Each fold trains on the
    other folds only (init seed = config.seed + fold index) and validates
    on its own block; accuracies are reported in both scopes.

    One forward pass per validation puzzle gives both its validation loss
    and its prediction.  ``train_fn``/``predict_fn(tensor, inst)`` are
    injection points for tests: they default to ``train`` and
    ``postprocess`` with the configured mode.
    """
    n = len(dataset)
    if config.folds > n:
        raise ValueError(f"dataset has {n} puzzles, fewer than folds={config.folds}")
    if train_fn is None:
        train_fn = train
    if predict_fn is None:
        def predict_fn(tensor, inst):
            return postprocess(tensor, inst.puzzle, config.postprocess_mode)

    canon = sorted(dataset, key=_canonical_key)
    perm = np.random.default_rng(config.seed).permutation(n)
    blocks = np.array_split(perm, config.folds)
    fold_results = []
    for fold_idx in range(config.folds):
        val_idx = blocks[fold_idx]
        train_idx = [i for j, b in enumerate(blocks) if j != fold_idx for i in b]
        train_set = [canon[i] for i in train_idx]
        val_set = [canon[i] for i in val_idx]
        params, history = train_fn(train_set, config, config.seed + fold_idx)
        acc_all, acc_empty, parts = [], [], []
        for inst in val_set:
            tensor, _ = forward(params, encode_input(inst.puzzle))
            predicted = predict_fn(tensor, inst)
            acc_all.append(cell_accuracy(predicted, inst.solution, inst.mask, SCOPE_ALL))
            acc_empty.append(cell_accuracy(predicted, inst.solution, inst.mask, SCOPE_EMPTY))
            parts.append(combined_loss(tensor, inst, config.loss))
        val_loss = LossBreakdown(
            standard=float(np.mean([p.standard for p in parts])),
            constraints=float(np.mean([p.constraints for p in parts])),
            expert=float(np.mean([p.expert for p in parts])),
            combined=float(np.mean([p.combined for p in parts])),
        )
        fold_results.append(FoldResult(
            fold=fold_idx,
            accuracy_all=float(np.mean(acc_all)),
            accuracy_empty=float(np.mean(acc_empty)),
            val_loss=val_loss,
            history=history,
        ))
    alls = [fr.accuracy_all for fr in fold_results]
    empties = [fr.accuracy_empty for fr in fold_results]
    return ExperimentResult(
        folds=fold_results,
        mean_all=float(np.mean(alls)),
        std_all=float(np.std(alls)),
        mean_empty=float(np.mean(empties)),
        std_empty=float(np.std(empties)),
        config=config,
        fingerprint=dataset_fingerprint(dataset),
    )


CSV_COLUMNS = [
    "n_puzzles",
    "difficulty",
    "ablation",
    "fold",
    "acc_all",
    "acc_empty",
    "loss_standard",
    "loss_constraints",
    "loss_expert",
    "loss_combined",
    "epochs",
    "seed",
]


def result_rows(result: ExperimentResult, n_puzzles: int, difficulty: float):
    """Flatten an ExperimentResult into one CSV row dict per fold."""
    label = result.config.loss.ablation
    rows = []
    for fr in result.folds:
        rows.append({
            "n_puzzles": n_puzzles,
            "difficulty": difficulty,
            "ablation": label,
            "fold": fr.fold,
            "acc_all": f"{fr.accuracy_all:.6f}",
            "acc_empty": f"{fr.accuracy_empty:.6f}",
            "loss_standard": f"{fr.val_loss.standard:.6f}",
            "loss_constraints": f"{fr.val_loss.constraints:.6f}",
            "loss_expert": f"{fr.val_loss.expert:.6f}",
            "loss_combined": f"{fr.val_loss.combined:.6f}",
            "epochs": result.config.epochs,
            "seed": result.config.seed,
        })
    return rows


@dataclass(frozen=True)
class GridCell:
    """One (row, base seed, ablation) cell of the ablation grid: its config
    and either its k-fold result or the error that stopped it."""

    n_puzzles: int
    difficulty: float
    config: TrainConfig
    result: ExperimentResult | None
    error: str | None

    def csv_rows(self):
        """One CSV row per fold; a failed cell gets one row, fold=-1, metrics nan."""
        if self.result is not None:
            return result_rows(self.result, self.n_puzzles, self.difficulty)
        row = dict.fromkeys(CSV_COLUMNS, "nan")
        row.update(n_puzzles=self.n_puzzles, difficulty=self.difficulty, fold=-1,
                   ablation=self.config.loss.ablation,
                   epochs=self.config.epochs, seed=self.config.seed)
        return [row]


def run_grid(rows, seeds, ablations, run: TrainConfig):
    """Check the whole grid, then return an iterator of one GridCell per
    (row, base seed, ablation), nested in that order.

    ``rows`` are (n_puzzles, difficulty) pairs.  One dataset is built per
    (row, seed) and shared by its ablations; each cell's config is ``run``
    with that seed and the ablation's weights in ``run``'s constraint mode.
    ValueError before any work for no rows, seeds or ablations, an unknown
    label, a difficulty outside (0, 1) or a row with fewer puzzles than
    ``run.folds``.  A cell whose dataset build or k-fold run raises comes
    out with ``error`` set and no result, and the grid carries on.
    """
    loss_configs = [ablation_config(label, run.loss.constraint_mode) for label in ablations]
    if not (rows and seeds and loss_configs):
        raise ValueError("the grid needs at least one row, one seed and one ablation")
    for n, difficulty in rows:
        masked_cell_count(difficulty)
        if n < run.folds:
            raise ValueError(f"row {n}:{difficulty} has fewer puzzles than folds={run.folds}")
    return _grid_cells(rows, seeds, loss_configs, run)


def _pool_size(n_cells: int) -> int:
    """Worker processes for a grid of ``n_cells``: one per CPU this process
    may use (all of them where the OS cannot say, as on macOS), and no more
    than there are cells."""
    if hasattr(os, "sched_getaffinity"):
        return min(n_cells, len(os.sched_getaffinity(0)))
    return min(n_cells, os.cpu_count() or 1)


def _evaluate_cell(dataset, config: TrainConfig):
    """(result, None) or (None, error message) for one cell, run in a worker;
    the message travels back instead of an exception that might not pickle."""
    try:
        return kfold_evaluate(dataset, config), None
    except Exception as exc:
        return None, f"evaluate: {exc}"


def _grid_cells(rows, seeds, loss_configs, run: TrainConfig):
    # Datasets are built here, in nesting order; each cell's k-fold run is a
    # job in a worker, and the cells come back in submission order.  After
    # each (row, seed) is submitted, the finished cells at the head of the
    # queue are yielded, so output starts while later datasets are built.
    # Workers are forked (named, since Python 3.14 changes the Linux
    # default): they inherit the loaded modules as they are, numpy included,
    # and the pool forks them all before it starts its own thread.  Closing
    # the iterator early cancels the cells not yet handed to a worker and
    # builds no further dataset.  The pool modules are imported here, not at
    # the top: they add about 10 ms to every command's start, and only the
    # grid uses them.
    import multiprocessing
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor

    def cell(n, difficulty, config, job, dataset_error):
        result, error = (None, dataset_error) if job is None else job.result()
        return GridCell(n, difficulty, config, result, error)

    n_cells = len(rows) * len(seeds) * len(loss_configs)
    pool = ProcessPoolExecutor(_pool_size(n_cells), mp_context=multiprocessing.get_context("fork"))
    try:
        jobs = deque()
        for n, difficulty in rows:
            for seed in seeds:
                try:
                    dataset, dataset_error = build_dataset(n, difficulty, seed), None
                except Exception as exc:  # every ablation of this (row, seed) fails
                    dataset, dataset_error = None, f"dataset: {exc}"
                for loss in loss_configs:
                    config = replace(run, seed=seed, loss=loss)
                    job = None if dataset is None else pool.submit(_evaluate_cell, dataset, config)
                    jobs.append((n, difficulty, config, job, dataset_error))
                while jobs and (jobs[0][3] is None or jobs[0][3].done()):
                    yield cell(*jobs.popleft())
        while jobs:
            yield cell(*jobs.popleft())
    finally:
        pool.shutdown(cancel_futures=True)


def write_results_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)

"""End-to-end training: dataset construction through the logic engine,
per-puzzle gradient updates on the combined loss, K-fold cross-validation,
model-based puzzle solving with rule-aware post-processing, and
``run_grid``, the ablation grid of k-fold runs behind ``table1``.

The training loop mirrors the per-puzzle structure: each epoch visits every
puzzle (in a seeded shuffle), computes the combined loss of the network's
prediction against that puzzle's solution and mask, and applies one Adam
update per puzzle (batch size 1).

``run_grid`` runs each cell, a dataset build and its k-fold evaluation, as
one job in a forked worker process, one worker per CPU the process may use.
Every cell is deterministic and the cells come back in nesting order, so
the output does not depend on the worker count.  Each comes back as an
``ExperimentResult``, the one record of every k-fold run, failed or not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field, replace

import numpy as np

from .engine import (ALL_DIGITS, CELL_UNIT_IDS, SET_BITS, generate_solved, mask_puzzle, solve,
                     unit_masks)
from .grids import (
    GRID_SIZE,
    N_CELLS,
    PuzzleInstance,
    as_grid,
    cell_accuracy,
    check_seed,
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
    AdamState,
    ModelParams,
    NumericOverflowError,
    adam_step,
    backward,
    decode_prediction,
    encode_input,
    forward,
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
        check_seed(self.seed)
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
    """One k-fold run: its dataset, config and folds, or the error that stopped it."""

    n_puzzles: int
    difficulty: float
    config: TrainConfig
    folds: list = field(default_factory=list)
    fingerprint: str | None = None
    error: str | None = None

    @property
    def mean_all(self) -> float:
        return float(np.mean([fr.accuracy_all for fr in self.folds]))

    @property
    def std_all(self) -> float:
        return float(np.std([fr.accuracy_all for fr in self.folds]))

    @property
    def mean_empty(self) -> float:
        return float(np.mean([fr.accuracy_empty for fr in self.folds]))

    @property
    def std_empty(self) -> float:
        return float(np.std([fr.accuracy_empty for fr in self.folds]))

    def csv_rows(self):
        """One ``CSV_COLUMNS`` row dict per fold, metrics to 6 decimals; a
        failed run gets one row, fold=-1, every metric nan."""
        run = {"n_puzzles": self.n_puzzles, "difficulty": self.difficulty,
               "ablation": self.config.loss.ablation, "epochs": self.config.epochs,
               "seed": self.config.seed}
        if self.error is not None:
            return [{**dict.fromkeys(CSV_COLUMNS, "nan"), **run, "fold": -1}]
        return [{**run, "fold": fr.fold, "acc_all": f"{fr.accuracy_all:.6f}",
                 "acc_empty": f"{fr.accuracy_empty:.6f}",
                 **{f"loss_{part}": f"{value:.6f}" for part, value in asdict(fr.val_loss).items()}}
                for fr in self.folds]


def _canonical_line(inst: PuzzleInstance) -> str:
    return f"{format_grid(inst.puzzle)}:{format_grid(inst.solution)}"


def dataset_fingerprint(dataset) -> str:
    """Order-independent hash of the dataset's puzzle and solution texts."""
    lines = sorted(map(_canonical_line, dataset))
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


def dataset_difficulty(dataset) -> float:
    """The one difficulty that the dataset's instances were masked at, the
    label of its results; ValueError names those of an empty or mixed one."""
    difficulties = sorted({inst.difficulty for inst in dataset})
    if len(difficulties) != 1:
        raise ValueError(f"dataset needs one difficulty, has {difficulties}")
    return difficulties[0]


@np.errstate(over="ignore", invalid="ignore")  # adam_step raises on a non-finite gradient
def train(dataset, config: TrainConfig, init_seed: int):
    """Train a fresh model on the dataset.

    Returns (final params, per-epoch mean combined loss).  Deterministic:
    parameter init comes from ``init_seed`` and the per-epoch shuffle from
    (init_seed, epoch).
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    params = init_params(init_seed)
    state = AdamState(config.lr)
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
        if not math.isfinite(history[-1]):
            raise NumericOverflowError("numeric overflow: non-finite loss")
    return params, history


def solve_with_model(params: ModelParams, puzzle, mode: str) -> np.ndarray:
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
    with already-placed digits; unfillable cells stay 0.  Cells with equal
    peak probability are filled in row-major order, and a cell takes the
    smallest of its equally probable free digits.
    hybrid-complete: greedy; if that leaves an empty cell, the logic engine
    solves the puzzle from its givens alone (first solution) and the
    network's placements are dropped.  Greedy leaves a cell empty only
    when every digit is already placed among its peers, and later
    placements only remove candidates, so the greedy grid itself never has
    a completion.  So the engine is called at greedy's first stuck cell,
    without finishing a grid it would drop.  A solvable puzzle therefore
    always yields a fully valid grid; only an unsolvable one returns the
    degraded greedy output, finished from that cell on.
    Raises only ValueError, for an unknown mode, a malformed puzzle, or a
    tensor that is not (9, 9, 9) with finite entries.
    """
    puzzle = as_grid(puzzle)
    tensor = np.asarray(tensor, dtype=float)
    if tensor.shape != (GRID_SIZE, GRID_SIZE, GRID_SIZE):
        raise ValueError(f"prediction tensor must be 9x9x9, got shape {tensor.shape}")
    if not np.isfinite(tensor).all():
        raise ValueError("prediction tensor must have only finite entries")
    if _check_postprocess_mode(mode) == MODE_ARGMAX:
        grid = decode_prediction(tensor)
        given = puzzle != 0
        grid[given] = puzzle[given]
        return grid
    grid = puzzle.copy()
    cells = grid.reshape(-1)
    probs = tensor.reshape(N_CELLS, GRID_SIZE)
    used = unit_masks(puzzle)
    empties = np.flatnonzero(cells == 0)
    # most confident cell first; stable sort keeps row-major order on ties
    order = empties[np.argsort(-probs[empties].max(axis=1), kind="stable")]
    for cell, prob in zip(order.tolist(), probs[order].tolist()):
        row, col, box = CELL_UNIT_IDS[cell]
        free = ALL_DIGITS & ~(used[row] | used[col] | used[box])
        if free:
            # most probable free digit; max keeps the first, smallest, on ties
            bit = max(SET_BITS[free], key=prob.__getitem__)
            cells[cell] = bit + 1
            used[row] |= 1 << bit
            used[col] |= 1 << bit
            used[box] |= 1 << bit
        elif mode == MODE_HYBRID:  # the first stuck cell: greedy will leave it empty
            outcome = solve(puzzle, 1)
            if outcome.solutions:
                return outcome.solutions[0]
            mode = MODE_GREEDY  # no completion: finish the greedy grid
    return grid


def fold_splits(dataset, folds: int, seed: int):
    """The (train set, validation set) of each of ``folds`` folds.

    The dataset is put in canonical order, that of its fingerprint's lines,
    shuffled by ``seed`` and cut into ``folds`` blocks whose sizes differ by
    at most one, so the splits do not depend on input order.  Fold f
    validates on block f and trains on the other blocks, in block order.
    """
    canon = sorted(dataset, key=_canonical_line)
    blocks = np.array_split(np.random.default_rng(seed).permutation(len(canon)), folds)
    return [([canon[i] for j, other in enumerate(blocks) if j != fold for i in other],
             [canon[i] for i in block]) for fold, block in enumerate(blocks)]


def evaluate_fold(train_set, val_set, config: TrainConfig, fold: int) -> FoldResult:
    """Train a fresh model on ``train_set`` (init seed = config.seed + fold)
    and score it on ``val_set``, in both accuracy scopes.

    One forward pass per validation puzzle gives both its validation loss
    and, through ``postprocess`` in the configured mode, its prediction.
    """
    params, history = train(train_set, config, config.seed + fold)
    scores, parts = [], []
    for inst in val_set:
        tensor, _ = forward(params, encode_input(inst.puzzle))
        predicted = postprocess(tensor, inst.puzzle, config.postprocess_mode)
        scores.append(cell_accuracy(predicted, inst.solution, inst.mask))
        parts.append(combined_loss(tensor, inst, config.loss))
    acc_all, acc_empty = zip(*scores)
    val_loss = LossBreakdown(*(float(np.mean(column)) for column in zip(*map(astuple, parts))))
    return FoldResult(fold, float(np.mean(acc_all)), float(np.mean(acc_empty)), val_loss, history)


def kfold_evaluate(dataset, config: TrainConfig) -> ExperimentResult:
    """K-fold cross-validation: ``evaluate_fold`` on each of ``fold_splits``.
    ValueError before training for a dataset without one difficulty or with
    fewer puzzles than folds."""
    difficulty = dataset_difficulty(dataset)
    if config.folds > len(dataset):
        raise ValueError(f"dataset has {len(dataset)} puzzles, fewer than folds={config.folds}")
    folds = [evaluate_fold(train_set, val_set, config, fold) for fold, (train_set, val_set)
             in enumerate(fold_splits(dataset, config.folds, config.seed))]
    return ExperimentResult(len(dataset), difficulty, config, folds, dataset_fingerprint(dataset))


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


def run_grid(rows, seeds, ablations, run: TrainConfig):
    """Check the whole grid and every cell's config, then return an iterator
    of one ``ExperimentResult`` per (row, base seed, ablation), in that order.

    ``rows`` are (n_puzzles, difficulty) pairs.  A cell trains on
    ``build_dataset(n_puzzles, difficulty, seed)`` with ``run``'s config,
    that seed and the ablation's weights in ``run``'s constraint mode.
    ValueError before any work for no rows, seeds or ablations, a repeated
    one, a difficulty outside (0, 1), a row with fewer puzzles than
    ``run.folds``, an unknown label or a seed ``TrainConfig`` rejects.  A
    cell whose dataset build or k-fold run raises comes out with ``error``
    set and no folds, and the grid carries on.
    """
    if not (rows and seeds and ablations):
        raise ValueError("the grid needs at least one row, one seed and one ablation")
    for kind, values in (("row", rows), ("seed", seeds), ("ablation", ablations)):
        repeats = [value for i, value in enumerate(values) if value in values[:i]]
        if repeats:
            raise ValueError(f"the grid repeats {kind} {repeats[0]}")
    for n, difficulty in rows:
        masked_cell_count(difficulty)
        if n < run.folds:
            raise ValueError(f"row {n}:{difficulty} has fewer puzzles than folds={run.folds}")
    mode = run.loss.constraint_mode
    return _grid_cells([(n, d, replace(run, seed=seed, loss=ablation_config(label, mode)))
                        for n, d in rows for seed in seeds for label in ablations])


def _pool_size(n_cells: int) -> int:
    """Worker processes for a grid of ``n_cells``: one per CPU this process
    may use (all of them where the OS cannot say, as on macOS), and no more
    than there are cells."""
    if hasattr(os, "sched_getaffinity"):
        return min(n_cells, len(os.sched_getaffinity(0)))
    return min(n_cells, os.cpu_count() or 1)


def _evaluate_cell(n_puzzles: int, difficulty: float, config: TrainConfig) -> ExperimentResult:
    """One cell's record, run in a worker that builds the cell's dataset
    itself.  A cell that raises gets no folds and ``error``, a message that
    travels back instead of an exception that might not pickle."""
    stage = "dataset"
    try:
        dataset = build_dataset(n_puzzles, difficulty, config.seed)
        stage = "evaluate"
        return kfold_evaluate(dataset, config)
    except Exception as exc:
        return ExperimentResult(n_puzzles, difficulty, config, error=f"{stage}: {exc}")


def _grid_cells(cells):
    # One job per cell, submitted in nesting order; cells are yielded in that
    # order as their jobs finish, and closing the iterator early cancels the
    # jobs no worker has taken.  Workers are forked (named, since Python 3.14
    # changes the Linux default): they inherit the loaded modules, numpy
    # included, and the pool forks them all before it starts its own thread.
    # The pool modules are imported here, not at the top: they add about
    # 10 ms to every command's start, and only the grid uses them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(_pool_size(len(cells)),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        yield from pool.map(_evaluate_cell, *zip(*cells))


def write_results_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)

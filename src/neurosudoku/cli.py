"""Command-line entry point.

Subcommands: ``gen`` (dataset generation), ``train`` (fit a model and save a
checkpoint), ``eval`` (k-fold evaluation of a dataset), ``table1`` (the full
ablation grid with CSV and SVG outputs), ``solve`` (model-based solving with
optional comparison rendering), ``export-asp`` (logic-program export).

Each subcommand takes exactly the flags it reads.  Of the shared ones,
``--config <json>`` (experiment config file; a flag the user sets overrides
its key) is read by all but ``export-asp``, ``--out <dir>`` by all but
``solve``, ``--seed`` by ``gen``, ``train`` and ``eval``, and ``--profile
quick|full`` by ``table1`` only.  A ``--flag value`` or ``--flag=value``
before the subcommand is shorthand for the same flag after it.  Exit code 0
iff all requested work succeeded; a flag the subcommand does not read and
every ``ValueError`` (the library's type for bad input) exit 2, runtime
failures exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import charts, engine, grids, network, training
from .losses import ABLATIONS, CONSTRAINT_MODES

DEFAULT_TABLE1_ROWS = (
    (12, 0.1),
    (12, 0.3),
    (12, 0.6),
    (12, 0.8),
    (100, 0.1),
    (100, 0.3),
    (100, 0.6),
    (1000, 0.8),
)
DEFAULT_TABLE1_SEEDS = (0, 1, 2)
CONFIG_KEYS = (
    "n_puzzles", "difficulty", "ablation", "alpha", "beta", "gamma",
    "constraint_mode", "epochs", "folds", "seed", "lr", "postprocess_mode",
)
TABLE1_KEYS = ("epochs", "folds", "lr", "constraint_mode")


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config_file(path):
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # a missing or malformed file is a usage error
        raise ValueError(f"cannot load config: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(
            f"config file {path} has unknown keys {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(CONFIG_KEYS)}"
        )
    return data


def _difficulty(value) -> float:
    """A difficulty in (0, 1); ValueError otherwise."""
    difficulty = float(value)
    if not 0.0 < difficulty < 1.0:
        raise ValueError(f"difficulty must be in (0,1), got {value}")
    return difficulty


def cmd_gen(args, settings: dict) -> int:
    seed = training.read_setting(settings, "seed", int, training.TrainConfig.seed)
    n = training.read_setting(settings, "n_puzzles", int, 12)
    difficulty = _difficulty(training.read_setting(settings, "difficulty", float, 0.1))
    if n < 1:
        raise ValueError(f"--n must be >= 1, got {n}")
    out_path = args.data_out or os.path.join(args.out, "dataset.jsonl")
    dataset = training.build_dataset(n, difficulty, seed)
    try:
        training.save_dataset(dataset, out_path)
    except OSError as exc:
        return _fail(f"cannot write dataset to {out_path}: {exc}")
    print(f"wrote {len(dataset)} instances to {out_path}")
    return 0


def cmd_train(args, settings: dict) -> int:
    cfg = training.TrainConfig.from_dict(settings)
    try:
        dataset = training.load_dataset(args.data)
    except OSError as exc:
        return _fail(f"cannot read dataset {args.data}: {exc}")
    params, history = training.train(dataset, cfg, init_seed=cfg.seed)
    model_path = args.model_out or os.path.join(args.out, "model.json")
    try:
        network.save_params(params, model_path, seed=cfg.seed)
    except OSError as exc:
        return _fail(f"cannot write checkpoint to {model_path}: {exc}")
    print(f"trained {cfg.epochs} epochs on {len(dataset)} puzzles")
    print(f"first-epoch loss {history[0]:.6f}, final-epoch loss {history[-1]:.6f}")
    print(f"checkpoint: {model_path}")
    return 0


def cmd_eval(args, settings: dict) -> int:
    cfg = training.TrainConfig.from_dict(settings)
    try:
        dataset = training.load_dataset(args.data)
    except OSError as exc:
        return _fail(f"cannot read dataset {args.data}: {exc}")
    if len(dataset) < cfg.folds:
        raise ValueError(f"{args.data} has {len(dataset)} puzzles, fewer than folds={cfg.folds}")
    result = training.kfold_evaluate(dataset, cfg)
    difficulty = dataset[0].difficulty if dataset else 0.0
    rows = training.result_rows(result, len(dataset), difficulty)
    csv_path = args.csv_out or os.path.join(args.out, "results.csv")
    try:
        training.write_results_csv(rows, csv_path)
    except OSError as exc:
        return _fail(f"cannot write results to {csv_path}: {exc}")
    print(f"accuracy all-cells  : {result.mean_all:.4f} +/- {result.std_all:.4f}")
    print(f"accuracy empty-cells: {result.mean_empty:.4f} +/- {result.std_empty:.4f}")
    print(f"results: {csv_path}")
    return 0


def _parse_rows(text: str):
    """Parse ``n:difficulty,...``; ValueError on a malformed cell."""
    rows = []
    for part in text.split(","):
        n, sep, d = part.partition(":")
        if not sep:
            raise ValueError(f"row {part!r} is not of the form n:difficulty")
        rows.append((int(n), _difficulty(d)))
    return rows


def cmd_table1(args, settings: dict) -> int:
    unread = sorted(set(settings) - set(TABLE1_KEYS))
    if unread:  # from the config file or a flag: table1 runs its own seeds and ablations
        raise ValueError(f"table1 does not read config keys {', '.join(map(repr, unread))}; "
                         f"it reads {', '.join(TABLE1_KEYS)} (use --seeds and --ablations)")
    try:
        rows = _parse_rows(args.rows) if args.rows else list(DEFAULT_TABLE1_ROWS)
    except ValueError as exc:
        raise ValueError(f"bad --rows: {exc}") from None
    if args.profile == "quick":
        rows = [(n, d) for n, d in rows if n <= 12]
    ablations = args.ablations.split(",") if args.ablations else list(ABLATIONS)
    for label in ablations:
        if label not in ABLATIONS:
            raise ValueError(f"unknown ablation label: {label!r}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else list(DEFAULT_TABLE1_SEEDS)
    except ValueError:
        raise ValueError(f"bad --seeds: {args.seeds!r} is not a comma list of integers") from None
    run = training.TrainConfig.from_dict(settings)
    for n, difficulty in rows:
        if n < run.folds:
            raise ValueError(f"row {n}:{difficulty} has fewer puzzles than folds={run.folds}")
    os.makedirs(args.out, exist_ok=True)

    all_rows = []
    failed = 0
    for cell in training.run_grid(rows, seeds, ablations, run):
        all_rows.extend(cell.csv_rows())
        name = (f"n={cell.n_puzzles} difficulty={cell.difficulty} "
                f"seed={cell.config.seed} {cell.config.loss.ablation}")
        if cell.error is None:
            print(f"{name}: acc_all={cell.result.mean_all:.3f} "
                  f"acc_empty={cell.result.mean_empty:.3f}")
        else:
            failed += 1
            print(f"error: cell {name} failed: {cell.error}", file=sys.stderr)

    csv_path = os.path.join(args.out, "table1.csv")
    training.write_results_csv(all_rows, csv_path)
    print(f"results: {csv_path}")
    for n, svg in charts.grid_charts(all_rows, ablations, args.chart_style):
        svg_path = os.path.join(args.out, f"accuracy_{n}.svg")
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"chart: {svg_path}")
    return 1 if failed else 0


def cmd_solve(args, settings: dict) -> int:
    puzzle = grids.parse_grid(args.puzzle)
    if not grids.is_consistent_partial(puzzle):
        raise ValueError("puzzle givens are inconsistent (duplicate digit in a unit)")
    mode = training.read_setting(settings, "postprocess_mode", str,
                                 training.TrainConfig.postprocess_mode)
    if mode not in training.POSTPROCESS_MODES:
        raise ValueError(f"unknown postprocess mode: {mode!r}")
    solution = None
    if args.solution is not None:
        solution = grids.parse_grid(args.solution)
        if not grids.is_valid_complete(solution):
            raise ValueError("--solution is not a valid complete grid")
        given = puzzle != 0
        if not (solution[given] == puzzle[given]).all():
            raise ValueError("--solution disagrees with the puzzle's givens")
    elif args.render or args.render_svg:
        raise ValueError("--render and --render-svg need --solution to compare against")
    try:
        params, _ = network.load_params(args.model)
    except OSError as exc:
        return _fail(f"cannot read checkpoint {args.model}: {exc}")
    predicted = training.solve_with_model(params, puzzle, mode)
    print(grids.format_grid(predicted))
    if solution is None:
        return 0
    rendered = charts.render_prediction(predicted, solution, puzzle == 0)
    if args.render:
        print(charts.grid_to_text(rendered, color=not args.no_color))
        correct = sum(
            row.count(charts.STATUS_CORRECT) for row in rendered.status
        )
        predicted_cells = sum(
            1 for row in rendered.status for s in row if s != charts.STATUS_GIVEN
        )
        print(f"predicted cells correct: {correct}/{predicted_cells}")
    if args.render_svg:
        try:
            with open(args.render_svg, "w", encoding="utf-8") as fh:
                fh.write(charts.grid_to_svg(rendered))
        except OSError as exc:
            return _fail(f"cannot write SVG to {args.render_svg}: {exc}")
        print(f"rendering: {args.render_svg}")
    return 0


def cmd_export_asp(args, settings: dict) -> int:
    program = engine.emit_asp_program(grids.parse_grid(args.puzzle))
    out_path = args.asp_out or os.path.join(args.out, "puzzle.lp")
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(program)
    except OSError as exc:
        return _fail(f"cannot write program to {out_path}: {exc}")
    print(f"program: {out_path}")
    return 0


SHARED_FLAGS = {
    "--config": dict(help="experiment config JSON file"),
    "--out": dict(default=".", help="output directory (default .)"),
    "--seed": dict(type=int, help="base RNG seed"),
}


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: an abbreviation such as --ablation for
    # table1's --ablations would be read as that other flag without a word
    parser = argparse.ArgumentParser(
        prog="neurosudoku",
        description="neural-symbolic Sudoku: datasets, training, ablations, solving",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, shared, **kwargs):
        p = subparsers.add_parser(name, allow_abbrev=False, **kwargs)
        for flag in shared:
            p.add_argument(flag, **SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = subcommand("gen", cmd_gen, ("--config", "--out", "--seed"),
                   help="generate a puzzle dataset (JSON lines)")
    p.add_argument("--n", dest="n_puzzles", type=int, default=None,
                   help="number of puzzles (default 12)")
    p.add_argument("--difficulty", type=float, default=None,
                   help="fraction of cells masked, in (0,1); default 0.1")
    p.add_argument("--data-out", default=None, help="dataset path (default OUT/dataset.jsonl)")

    def add_run_flags(q):
        q.add_argument("--epochs", type=int, default=None)
        q.add_argument("--folds", type=int, default=None)
        q.add_argument("--lr", type=float, default=None)
        q.add_argument("--constraint-mode", choices=CONSTRAINT_MODES, default=None)

    def add_train_flags(q):
        add_run_flags(q)
        q.add_argument("--ablation", choices=ABLATIONS, default=None)
        q.add_argument("--alpha", type=float, default=None)
        q.add_argument("--beta", type=float, default=None)
        q.add_argument("--gamma", type=float, default=None)
        q.add_argument("--postprocess-mode", choices=training.POSTPROCESS_MODES, default=None)

    p = subcommand("train", cmd_train, ("--config", "--out", "--seed"),
                   help="train a model on a dataset, save a checkpoint")
    p.add_argument("--data", required=True, help="dataset JSON-lines file")
    p.add_argument("--model-out", default=None, help="checkpoint path (default OUT/model.json)")
    add_train_flags(p)

    p = subcommand("eval", cmd_eval, ("--config", "--out", "--seed"),
                   help="k-fold evaluation of a dataset")
    p.add_argument("--data", required=True, help="dataset JSON-lines file")
    p.add_argument("--csv-out", default=None, help="results path (default OUT/results.csv)")
    add_train_flags(p)

    p = subcommand("table1", cmd_table1, ("--config", "--out"),
                   help="run the ablation grid, write CSV and charts")
    p.add_argument("--profile", choices=("quick", "full"), default="full",
                   help="quick = 12-puzzle rows only")
    p.add_argument("--rows", default=None,
                   help="comma list of n:difficulty cells (default the full grid)")
    p.add_argument("--ablations", default=None, help="comma list of ablation labels")
    p.add_argument("--seeds", default=None, help="comma list of base seeds (default 0,1,2)")
    p.add_argument("--chart-style", choices=("bars", "lines"), default="bars")
    add_run_flags(p)

    p = subcommand("solve", cmd_solve, ("--config",),
                   help="solve a puzzle with a trained model")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("puzzle", help="81-character puzzle ('.' or '0' = empty)")
    p.add_argument("--postprocess-mode", choices=training.POSTPROCESS_MODES, default=None)
    p.add_argument("--solution", default=None,
                   help="the puzzle's complete solution, for comparison")
    p.add_argument("--render", action="store_true",
                   help="print a colored comparison grid (needs --solution)")
    p.add_argument("--render-svg", default=None,
                   help="write a comparison SVG (needs --solution)")
    p.add_argument("--no-color", action="store_true", help="disable ANSI colors")

    p = subcommand("export-asp", cmd_export_asp, ("--out",),
                   help="write the puzzle's logic program")
    p.add_argument("puzzle", help="81-character puzzle ('.' or '0' = empty)")
    p.add_argument("--asp-out", default=None, help="program path (default OUT/puzzle.lp)")

    return parser


def _subcommand_first(argv: list) -> list:
    """Move the ``--flag value`` and ``--flag=value`` arguments before the
    subcommand to just after it, where the subcommand's parser reads them."""
    lead = 0
    while lead < len(argv) and argv[lead].startswith("--"):
        lead += 1 if "=" in argv[lead] else 2
    return argv[lead:lead + 1] + argv[:lead] + argv[lead + 1:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_subcommand_first(argv))
    try:
        config = _load_config_file(getattr(args, "config", None))
        # the one merge of file and flags: a flag the user set overrides the file's key
        flags = {key: getattr(args, key, None) for key in CONFIG_KEYS}
        settings = {**config, **{key: value for key, value in flags.items() if value is not None}}
        out = getattr(args, "out", ".")
        if out != "." and args.command != "table1":
            try:
                os.makedirs(out, exist_ok=True)
            except OSError as exc:
                return _fail(f"cannot create output directory {out}: {exc}")
        return args.func(args, settings)
    except ValueError as exc:  # bad input, whichever layer found it
        return _fail(str(exc), 2)
    except Exception as exc:  # last-resort: report, nonzero exit
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())

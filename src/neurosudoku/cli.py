"""Command-line entry point.

Subcommands: ``gen`` (dataset generation), ``train`` (fit a model and save a
checkpoint), ``eval`` (k-fold evaluation of a dataset), ``table1`` (the full
ablation grid with CSV and SVG outputs), ``solve`` (model-based solving with
optional comparison rendering), ``export-asp`` (logic-program export).

Global flags: ``--seed``, ``--config <json>`` (experiment config file; a
flag the user sets overrides its key), ``--out <dir>``, ``--profile
quick|full``.  Exit code 0 iff all requested work succeeded; usage and
input-format errors exit 2, runtime failures exit 1.
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
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(
            f"config file {path} has unknown keys {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(CONFIG_KEYS)}"
        )
    return data


def _parse_puzzle_arg(text: str):
    try:
        return grids.parse_grid(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _difficulty(value) -> float:
    """A difficulty in (0, 1); ValueError otherwise."""
    difficulty = float(value)
    if not 0.0 < difficulty < 1.0:
        raise ValueError(f"difficulty must be in (0,1), got {value}")
    return difficulty


def cmd_gen(args, settings: dict) -> int:
    try:
        seed = training.read_setting(settings, "seed", int, training.TrainConfig.seed)
        n = training.read_setting(settings, "n_puzzles", int, 12)
        difficulty = _difficulty(training.read_setting(settings, "difficulty", float, 0.1))
    except ValueError as exc:
        return _fail(str(exc), 2)
    if n < 1:
        return _fail(f"--n must be >= 1, got {n}", 2)
    out_path = args.data_out or os.path.join(args.out, "dataset.jsonl")
    dataset = training.build_dataset(n, difficulty, seed)
    try:
        training.save_dataset(dataset, out_path)
    except OSError as exc:
        return _fail(f"cannot write dataset to {out_path}: {exc}")
    print(f"wrote {len(dataset)} instances to {out_path}")
    return 0


def cmd_train(args, settings: dict) -> int:
    try:
        cfg = training.TrainConfig.from_dict(settings)
    except ValueError as exc:
        return _fail(str(exc), 2)
    try:
        dataset = training.load_dataset(args.data)
    except training.DatasetError as exc:
        return _fail(str(exc), 2)
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
    try:
        cfg = training.TrainConfig.from_dict(settings)
    except ValueError as exc:
        return _fail(str(exc), 2)
    try:
        dataset = training.load_dataset(args.data)
    except training.DatasetError as exc:
        return _fail(str(exc), 2)
    except OSError as exc:
        return _fail(f"cannot read dataset {args.data}: {exc}")
    if len(dataset) < cfg.folds:
        return _fail(f"{args.data} has {len(dataset)} puzzles, fewer than folds={cfg.folds}", 2)
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
        return _fail(f"table1 does not read config keys {', '.join(map(repr, unread))}; "
                     f"it reads {', '.join(TABLE1_KEYS)} (use --seeds and --ablations)", 2)
    try:
        rows = _parse_rows(args.rows) if args.rows else list(DEFAULT_TABLE1_ROWS)
    except ValueError as exc:
        return _fail(f"bad --rows: {exc}", 2)
    if args.profile == "quick":
        rows = [(n, d) for n, d in rows if n <= 12]
    ablations = args.ablations.split(",") if args.ablations else list(ABLATIONS)
    for label in ablations:
        if label not in ABLATIONS:
            return _fail(f"unknown ablation label: {label!r}", 2)
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else list(DEFAULT_TABLE1_SEEDS)
    except ValueError:
        return _fail(f"bad --seeds: {args.seeds!r} is not a comma list of integers", 2)
    try:
        run = training.TrainConfig.from_dict(settings)
    except ValueError as exc:
        return _fail(str(exc), 2)
    for n, difficulty in rows:
        if n < run.folds:
            return _fail(f"row {n}:{difficulty} has fewer puzzles than folds={run.folds}", 2)
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
    puzzle = _parse_puzzle_arg(args.puzzle)
    if not grids.is_consistent_partial(puzzle):
        return _fail("puzzle givens are inconsistent (duplicate digit in a unit)", 2)
    try:
        mode = training.read_setting(settings, "postprocess_mode", str,
                                     training.TrainConfig.postprocess_mode)
    except ValueError as exc:
        return _fail(str(exc), 2)
    if mode not in training.POSTPROCESS_MODES:
        return _fail(f"unknown postprocess mode: {mode!r}", 2)
    try:
        params, _ = network.load_params(args.model)
    except network.CheckpointError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"cannot read checkpoint {args.model}: {exc}")
    predicted = training.solve_with_model(params, puzzle, mode)
    print(grids.format_grid(predicted))
    rendered = None
    if args.solution:
        solution = _parse_puzzle_arg(args.solution)
        rendered = charts.render_prediction(predicted, solution, puzzle == 0)
    if args.render:
        if rendered is None:
            return _fail("--render needs --solution to compare against", 2)
        print(charts.grid_to_text(rendered, color=not args.no_color))
        correct = sum(
            row.count(charts.STATUS_CORRECT) for row in rendered.status
        )
        predicted_cells = sum(
            1 for row in rendered.status for s in row if s != charts.STATUS_GIVEN
        )
        print(f"predicted cells correct: {correct}/{predicted_cells}")
    if args.render_svg:
        if rendered is None:
            return _fail("--render-svg needs --solution to compare against", 2)
        try:
            with open(args.render_svg, "w", encoding="utf-8") as fh:
                fh.write(charts.grid_to_svg(rendered))
        except OSError as exc:
            return _fail(f"cannot write SVG to {args.render_svg}: {exc}")
        print(f"rendering: {args.render_svg}")
    return 0


def cmd_export_asp(args, settings: dict) -> int:
    puzzle = _parse_puzzle_arg(args.puzzle)
    program = engine.emit_asp_program(puzzle)
    out_path = args.asp_out or os.path.join(args.out, "puzzle.lp")
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(program)
    except OSError as exc:
        return _fail(f"cannot write program to {out_path}: {exc}")
    print(f"program: {out_path}")
    return 0


GLOBAL_DEFAULTS = {"seed": None, "config": None, "out": ".", "profile": "full"}


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="base RNG seed")
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="experiment config JSON file")
    shared.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory (default .)")
    shared.add_argument("--profile", choices=("quick", "full"), default=argparse.SUPPRESS,
                        help="table1 scope: quick = 12-puzzle rows only")

    parser = argparse.ArgumentParser(
        prog="neurosudoku",
        description="neural-symbolic Sudoku: datasets, training, ablations, solving",
        parents=[shared],
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, **kwargs):
        return subparsers.add_parser(name, parents=[shared], **kwargs)

    p = subcommand("gen", help="generate a puzzle dataset (JSON lines)")
    p.add_argument("--n", dest="n_puzzles", type=int, default=None,
                   help="number of puzzles (default 12)")
    p.add_argument("--difficulty", type=float, default=None,
                   help="fraction of cells masked, in (0,1); default 0.1")
    p.add_argument("--data-out", default=None, help="dataset path (default OUT/dataset.jsonl)")
    p.set_defaults(func=cmd_gen)

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

    p = subcommand("train", help="train a model on a dataset, save a checkpoint")
    p.add_argument("--data", required=True, help="dataset JSON-lines file")
    p.add_argument("--model-out", default=None, help="checkpoint path (default OUT/model.json)")
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = subcommand("eval", help="k-fold evaluation of a dataset")
    p.add_argument("--data", required=True, help="dataset JSON-lines file")
    p.add_argument("--csv-out", default=None, help="results path (default OUT/results.csv)")
    add_train_flags(p)
    p.set_defaults(func=cmd_eval)

    p = subcommand("table1", help="run the ablation grid, write CSV and charts")
    p.add_argument("--rows", default=None,
                   help="comma list of n:difficulty cells (default the full grid)")
    p.add_argument("--ablations", default=None, help="comma list of ablation labels")
    p.add_argument("--seeds", default=None, help="comma list of base seeds (default 0,1,2)")
    p.add_argument("--chart-style", choices=("bars", "lines"), default="bars")
    add_run_flags(p)
    p.set_defaults(func=cmd_table1)

    p = subcommand("solve", help="solve a puzzle with a trained model")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("puzzle", help="81-character puzzle ('.' or '0' = empty)")
    p.add_argument("--postprocess-mode", choices=training.POSTPROCESS_MODES, default=None)
    p.add_argument("--solution", default=None, help="known solution for comparison")
    p.add_argument("--render", action="store_true",
                   help="print a colored comparison grid (needs --solution)")
    p.add_argument("--render-svg", default=None,
                   help="write a comparison SVG (needs --solution)")
    p.add_argument("--no-color", action="store_true", help="disable ANSI colors")
    p.set_defaults(func=cmd_solve)

    p = subcommand("export-asp", help="write the puzzle's logic program")
    p.add_argument("puzzle", help="81-character puzzle ('.' or '0' = empty)")
    p.add_argument("--asp-out", default=None, help="program path (default OUT/puzzle.lp)")
    p.set_defaults(func=cmd_export_asp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for key, default in GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, default)
    try:
        config = _load_config_file(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot load config: {exc}", 2)
    # the one merge of file and flags: a flag the user set overrides the file's key
    flags = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    settings = {**config, **{key: value for key, value in flags.items() if value is not None}}
    if args.out != "." and args.command != "table1":
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            return _fail(f"cannot create output directory {args.out}: {exc}")
    try:
        return args.func(args, settings)
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:  # last-resort: report, nonzero exit
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: ``gen`` (dataset generation), ``train`` (fit a model and save a
checkpoint), ``eval`` (k-fold evaluation of a dataset), ``table1`` (the full
ablation grid with CSV and SVG outputs), ``solve`` (model-based solving with
optional comparison rendering), ``export-asp`` (logic-program export).

Each subcommand takes exactly the flags it reads: ``SHARED_FLAGS`` declares
once each flag that several subcommands take, and ``build_parser`` lists each
subcommand's.  ``--config <json>`` names an experiment config file; a flag
the user sets overrides its key.  A ``--flag value``, ``--flag=value`` or
no-value ``--flag`` before the subcommand is shorthand for the same flag
after it.  The library function that consumes an input checks its rules;
this module parses text and checks only that a puzzle argument's givens do
not clash.  Exit code 0 iff all requested work
succeeded; a flag the subcommand does not read and every ``ValueError``
(the library's type for bad input) exit 2; a file that cannot be read or
written (``OSError``, whose message names the path), a numeric overflow
(``NumericOverflowError``) and other runtime failures exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import charts, engine, grids, network, training
from .losses import ABLATIONS, CONSTRAINT_MODES, CUSTOM

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
CONFIG_KEYS = ("n_puzzles", "difficulty", *training.TrainConfig().to_dict())


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


def cmd_gen(args, settings: dict) -> int:
    seed = training.read_setting(settings, "seed", int, training.TrainConfig.seed)
    n = training.read_setting(settings, "n_puzzles", int, 12)
    difficulty = training.read_setting(settings, "difficulty", float, 0.1)
    dataset = training.build_dataset(n, difficulty, seed)
    training.save_dataset(dataset, args.data_out)
    print(f"wrote {len(dataset)} instances to {args.data_out}")
    return 0


def cmd_train(args, settings: dict) -> int:
    cfg = training.TrainConfig.from_dict(settings)
    dataset = training.load_dataset(args.data)
    params, history = training.train(dataset, cfg, init_seed=cfg.seed)
    network.save_params(params, args.model_out, seed=cfg.seed)
    print(f"trained {cfg.epochs} epochs on {len(dataset)} puzzles")
    print(f"first-epoch loss {history[0]:.6f}, final-epoch loss {history[-1]:.6f}")
    print(f"checkpoint: {args.model_out}")
    return 0


def cmd_eval(args, settings: dict) -> int:
    cfg = training.TrainConfig.from_dict(settings)
    dataset = training.load_dataset(args.data)
    result = training.kfold_evaluate(dataset, cfg)
    training.write_results_csv(result.csv_rows(), args.csv_out)
    print(f"accuracy all-cells  : {result.mean_all:.4f} +/- {result.std_all:.4f}")
    print(f"accuracy empty-cells: {result.mean_empty:.4f} +/- {result.std_empty:.4f}")
    print(f"results: {args.csv_out}")
    return 0


def _parse_rows(text: str):
    """Parse ``n:difficulty,...``; ValueError on a malformed cell."""
    rows = []
    for part in text.split(","):
        n, sep, d = part.partition(":")
        if not sep:
            raise ValueError(f"row {part!r} is not of the form n:difficulty")
        rows.append((int(n), float(d)))
    return rows


def cmd_table1(args, settings: dict) -> int:
    try:
        rows = _parse_rows(args.rows)
    except ValueError as exc:
        raise ValueError(f"bad --rows: {exc}") from None
    ablations = args.ablations.split(",")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ValueError(f"bad --seeds: {args.seeds!r} is not a comma list of integers") from None
    # run_grid checks the whole grid here, before the output directory exists
    cells = training.run_grid(rows, seeds, ablations, training.TrainConfig.from_dict(settings))
    os.makedirs(args.out, exist_ok=True)

    all_rows = []
    failed = 0
    for cell in cells:
        all_rows.extend(cell.csv_rows())
        name = (f"n={cell.n_puzzles} difficulty={cell.difficulty} "
                f"seed={cell.config.seed} {cell.config.loss.ablation}")
        if cell.error is None:
            print(f"{name}: acc_all={cell.mean_all:.3f} acc_empty={cell.mean_empty:.3f}")
        else:
            failed += 1
            print(f"error: cell {name} failed: {cell.error}", file=sys.stderr)

    csv_path = os.path.join(args.out, "table1.csv")
    training.write_results_csv(all_rows, csv_path)
    print(f"results: {csv_path}")
    for n, svg in charts.grid_charts(all_rows):
        svg_path = os.path.join(args.out, f"accuracy_{n}.svg")
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"chart: {svg_path}")
    return 1 if failed else 0


def _read_puzzle(text: str):
    """The puzzle that ``text`` spells; ValueError when its givens clash."""
    puzzle = grids.parse_grid(text)
    if not grids.is_consistent_partial(puzzle):
        raise ValueError("puzzle givens are inconsistent (duplicate digit in a unit)")
    return puzzle


def cmd_solve(args, settings: dict) -> int:
    puzzle = _read_puzzle(args.puzzle)
    # checked before the model is read, so a bad mode exits 2 even without one
    mode = training._check_postprocess_mode(training.read_setting(
        settings, "postprocess_mode", str, training.TrainConfig.postprocess_mode))
    solution = None
    if args.solution is not None:
        try:
            _, solution = grids.as_completion(puzzle, grids.parse_grid(args.solution))
        except ValueError as exc:
            raise ValueError(f"bad --solution: {exc}") from None
    elif args.render or args.render_svg:
        raise ValueError("--render and --render-svg need --solution to compare against")
    if args.no_color and not args.render:
        raise ValueError("--no-color needs --render, whose colors it turns off")
    params, _ = network.load_params(args.model)
    predicted = training.solve_with_model(params, puzzle, mode)
    print(grids.format_grid(predicted))
    if solution is None:
        return 0
    mask = puzzle == 0
    if args.render:
        print(charts.grid_to_text(predicted, solution, mask, color=not args.no_color))
    correct = int((predicted == solution)[mask].sum())
    print(f"predicted cells correct: {correct}/{int(mask.sum())}")
    if args.render_svg:
        with open(args.render_svg, "w", encoding="utf-8") as fh:
            fh.write(charts.grid_to_svg(predicted, solution, mask))
        print(f"rendering: {args.render_svg}")
    return 0


def cmd_export_asp(args, settings: dict) -> int:
    program = engine.emit_asp_program(_read_puzzle(args.puzzle))
    with open(args.asp_out, "w", encoding="utf-8") as fh:
        fh.write(program)
    print(f"program: {args.asp_out}")
    return 0


SHARED_FLAGS = {
    "--config": dict(help="experiment config JSON file"),
    "--seed": dict(type=int, help="base RNG seed"),
    "--epochs": dict(type=int),
    "--folds": dict(type=int),
    "--lr": dict(type=float),
    "--constraint-mode": dict(help=f"one of {', '.join(CONSTRAINT_MODES)}"),
    "--ablation": dict(help=f"one of {', '.join(ABLATIONS)}, or {CUSTOM} with all three weights"),
    "--alpha": dict(type=float),
    "--beta": dict(type=float),
    "--gamma": dict(type=float),
    "--postprocess-mode": dict(help=f"one of {', '.join(training.POSTPROCESS_MODES)}"),
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
        p.set_defaults(func=func, parser=p)
        return p

    p = subcommand("gen", cmd_gen, ("--config", "--seed"),
                   help="generate a puzzle dataset (JSON lines)")
    p.add_argument("--n", dest="n_puzzles", type=int, default=None,
                   help="number of puzzles (default 12)")
    p.add_argument("--difficulty", type=float, default=None,
                   help="fraction of cells masked, in (0,1); default 0.1")
    p.add_argument("--data-out", default="dataset.jsonl",
                   help="dataset path (default dataset.jsonl)")

    train_flags = ("--config", "--seed", "--epochs", "--lr", "--constraint-mode",
                   "--ablation", "--alpha", "--beta", "--gamma")
    p = subcommand("train", cmd_train, train_flags,
                   help="train a model on a dataset, save a checkpoint")
    p.add_argument("--data", required=True, help="dataset JSON-lines file")
    p.add_argument("--model-out", default="model.json",
                   help="checkpoint path (default model.json)")

    p = subcommand("eval", cmd_eval, (*train_flags, "--folds", "--postprocess-mode"),
                   help="k-fold evaluation of a dataset")
    p.add_argument("--data", required=True, help="dataset JSON-lines file")
    p.add_argument("--csv-out", default="results.csv", help="results path (default results.csv)")

    p = subcommand("table1", cmd_table1, ("--epochs", "--folds", "--lr", "--constraint-mode"),
                   help="run the ablation grid, write CSV and charts")
    p.add_argument("--out", default=".", help="directory for table1.csv and the charts (default .)")
    p.add_argument("--rows", default=",".join(f"{n}:{d}" for n, d in DEFAULT_TABLE1_ROWS),
                   help="comma list of n:difficulty cells (default the full grid)")
    p.add_argument("--ablations", default=",".join(ABLATIONS),
                   help="comma list of ablation labels (default all four)")
    p.add_argument("--seeds", default=",".join(map(str, DEFAULT_TABLE1_SEEDS)),
                   help="comma list of base seeds (default 0,1,2)")

    p = subcommand("solve", cmd_solve, ("--config", "--postprocess-mode"),
                   help="solve a puzzle with a trained model")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("puzzle", help="81-character puzzle ('.' or '0' = empty)")
    p.add_argument("--solution", default=None,
                   help="the puzzle's complete solution, for comparison")
    p.add_argument("--render", action="store_true",
                   help="print a colored comparison grid (needs --solution)")
    p.add_argument("--render-svg", default=None,
                   help="write a comparison SVG (needs --solution)")
    p.add_argument("--no-color", action="store_true", help="disable --render's ANSI colors")

    p = subcommand("export-asp", cmd_export_asp, (),
                   help="write the puzzle's logic program")
    p.add_argument("puzzle", help="81-character puzzle ('.' or '0' = empty)")
    p.add_argument("--asp-out", default="puzzle.lp", help="program path (default puzzle.lp)")

    return parser


def _subcommand_first(argv: list, parser: argparse.ArgumentParser) -> list:
    """Move the ``--flag value``, ``--flag=value`` and no-value ``--flag``
    arguments before the subcommand to the end, where the subcommand's parser
    reads them and, for a flag it does not take, names the flag and its
    value, not a positional.  The no-value flags (``--render``) are those of
    ``parser``'s subcommands."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    no_value_flags = {flag for sub in commands.choices.values() for action in sub._actions
                      if action.nargs == 0 for flag in action.option_strings}
    lead = 0
    while lead < len(argv) and argv[lead].startswith("--"):
        lead += 1 if "=" in argv[lead] or argv[lead] in no_value_flags else 2
    return argv[lead:] + argv[:lead]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, unread = parser.parse_known_args(_subcommand_first(argv, parser))
    if unread:  # reported by the subcommand's parser, with its own usage line
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        config = _load_config_file(getattr(args, "config", None))
        # the one merge of file and flags: a flag the user set overrides the file's key
        flags = {key: getattr(args, key, None) for key in CONFIG_KEYS}
        settings = {**config, **{key: value for key, value in flags.items() if value is not None}}
        return args.func(args, settings)
    except ValueError as exc:  # bad input, whichever layer found it
        return _fail(str(exc), 2)
    except OSError as exc:  # a file that cannot be read or written; the message names it
        return _fail(str(exc))
    except Exception as exc:  # last-resort: report, nonzero exit
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())

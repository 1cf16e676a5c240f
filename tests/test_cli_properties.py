"""A property test of the CLI's exit contract.

Hypothesis mutates the argv of every subcommand, the records of a valid
dataset, the fields of a valid checkpoint and the values of a config file,
and runs ``cli.main`` on the result.  Whatever the input, the run exits 0,
1 or 2; a failure prints its error line or usage, never a traceback or a
warning; and only a listed type reaches the last-resort ``error: <Type>:``
branch.  The work stays small: 4 puzzles at 0.1, at most 4 epochs, folds
or puzzles, and ``table1`` runs only with argv that fails validation, so
no grid is trained.
"""

import contextlib
import copy
import io
import json
import os
import re
import tempfile
import warnings

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from neurosudoku.cli import CONFIG_KEYS, main
from neurosudoku.network import init_params, save_params
from neurosudoku.training import build_dataset, save_dataset

# the types that may reach "error: <Type>: ...": a diverging run
LAST_RESORT_TYPES = {"NumericOverflowError"}
ERROR_TYPE = re.compile(r"^error: ([A-Za-z_]\w*): ", re.MULTILINE)

NAN, INF = float("nan"), float("inf")
# JSON_VALUES may set an epoch, fold or puzzle count, so it holds no large
# number: read_setting takes the integral float 1e308 as an integer
SMALL_INTS = st.integers(-2, 4)
ODD_NUMBERS = st.sampled_from([0.5, 1.5, -1.0, 2.0, NAN, INF, -INF, 1e-3, 0.006])
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), SMALL_INTS, ODD_NUMBERS, st.text(max_size=4),
    st.sampled_from(["0.1", "2", "standard-only", "argmax", "hybrid-complete",
                     "fixed-target", "." * 81]),
    st.lists(SMALL_INTS, max_size=2), st.just({}),
)
# for the float settings, where a large value only makes training diverge
FLOAT_KEYS = st.sampled_from(["alpha", "beta", "gamma", "lr", "difficulty"])
FLOAT_VALUES = st.one_of(ODD_NUMBERS, st.sampled_from([0.0, 0.1, 0.8, 1e308, -1e308]))

DATA, MODEL, CONFIG = "data.jsonl", "model.json", "config.json"
ARGV = {
    "gen": ["gen", "--n", "4", "--difficulty", "0.1", "--seed", "0"],
    "train": ["train", "--data", DATA, "--epochs", "1", "--alpha", "{alpha}"],
    "eval": ["eval", "--data", DATA, "--epochs", "1", "--folds", "2", "--alpha", "{alpha}",
             "--postprocess-mode", "hybrid-complete"],
    "solve": ["solve", "--model", MODEL, "{puzzle}", "--solution", "{solution}", "--render"],
    "export-asp": ["export-asp", "{puzzle}"],
    "table1": ["table1", "--rows", "4:0.1", "--seeds", "0", "--epochs", "1", "--folds", "2",
               "--ablations", "standard-only"],
}
# appended to table1's argv after its mutations, so validation always fails
TABLE1_FAILURES = [("--folds", "1"), ("--rows", ""), ("--seeds", "a"), ("--epochs", "0"),
                   ("--lr", "nan"), ("--rows", "4:1.5"), ("--ablations", "nope"),
                   ("--rows", "4:0.1,4:0.1")]
TOKENS = st.sampled_from([
    "--config", "--out", "--seed", "--epochs", "--folds", "--lr", "--constraint-mode",
    "--ablation", "--alpha", "--beta", "--gamma", "--postprocess-mode", "--n", "--difficulty",
    "--data", "--data-out", "--model", "--model-out", "--csv-out", "--asp-out", "--rows",
    "--ablations", "--seeds", "--solution", "--render", "--render-svg", "--no-color",
    "--profile", "--epochs=2", "--n=3", "--lr=1e308", "--alpha=1e308",
    "0", "1", "2", "4", "-1", "0.5", "1.5", "nan", "inf", "1e308", "", "x", "4:0.1",
    "standard-only", "argmax", "greedy-constrained", "hybrid-complete", "fixed-target",
    DATA, MODEL, CONFIG, "missing.json", ".", "sub/dir/out.txt", "gen", "solve",
    "{puzzle}", "{solution}", "." * 81, "1" * 80, "55" + "." * 79,
])
# each list of edits is empty in about half the runs, so that runs reach
# training and solving
ARGV_EDITS = st.just([]) | st.lists(
    st.tuples(st.sampled_from(["delete", "insert", "replace"]), st.integers(0, 20), TOKENS),
    max_size=3)

RECORD_KEYS = st.sampled_from(["puzzle", "solution", "difficulty", "seed", "extra"])
RECORD_EDITS = st.just([]) | st.lists(st.one_of(
    st.tuples(st.just("set"), st.integers(0, 3), RECORD_KEYS, JSON_VALUES),
    st.tuples(st.just("set"), st.integers(0, 3), st.just("difficulty"), FLOAT_VALUES),
    st.tuples(st.just("delete"), st.integers(0, 3), RECORD_KEYS),
    st.tuples(st.just("raw"), st.integers(0, 3), st.sampled_from(["", "x", "[]", "null", "{"])),
    st.tuples(st.just("keep"), st.integers(0, 4)),
), max_size=2)

FIELDS = st.sampled_from(["format", "version", "seed", "W1", "b1", "W2", "b2", "extra"])
CHECKPOINT_EDITS = st.just([]) | st.lists(st.one_of(
    st.tuples(st.just("set"), FIELDS, JSON_VALUES),
    st.tuples(st.just("delete"), FIELDS),
    st.tuples(st.just("entry"), st.sampled_from(["W1", "b1", "W2", "b2"]),
              st.integers(0, 63), st.one_of(JSON_VALUES, FLOAT_VALUES)),
), max_size=2)

CONFIG_FILES = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from([*CONFIG_KEYS, "bogus"]), JSON_VALUES, max_size=3),
    st.dictionaries(FLOAT_KEYS, FLOAT_VALUES, max_size=2),
    st.sampled_from(["", "[]", "{", "null"]),
)


@pytest.fixture(scope="module")
def valid_inputs():
    """The lines of a valid 4-puzzle dataset and a valid checkpoint's fields."""
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(build_dataset(4, 0.1, 0), os.path.join(tmp, DATA))
        save_params(init_params(0), os.path.join(tmp, MODEL), seed=0)
        with open(os.path.join(tmp, DATA), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        with open(os.path.join(tmp, MODEL), encoding="utf-8") as fh:
            checkpoint = json.load(fh)
    return records, checkpoint


def edited_argv(command, edits, table1_failure, fields):
    argv = list(ARGV[command])
    for op, at, token in edits:
        at %= len(argv) + 1
        if op == "insert":
            argv.insert(at, token)
        elif at < len(argv):
            if op == "delete":
                del argv[at]
            else:
                argv[at] = token
    if command == "table1":
        argv.extend(table1_failure)
    return [arg.format(**fields) for arg in argv]


def edited_dataset(records, edits):
    lines = [dict(record) for record in records]
    for edit in edits:
        op, at = edit[0], edit[1] % len(lines) if lines else 0
        if op == "keep":
            lines = lines[:edit[1]]
        elif not lines:
            continue
        elif op == "set" and isinstance(lines[at], dict):
            lines[at][edit[2]] = edit[3]
        elif op == "delete" and isinstance(lines[at], dict):
            lines[at].pop(edit[2], None)
        elif op == "raw":
            lines[at] = edit[2]
    return "".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                   for line in lines)


def edited_checkpoint(checkpoint, edits):
    payload = dict(checkpoint)
    for edit in edits:
        if edit[0] == "set":
            payload[edit[1]] = edit[2]
        elif edit[0] == "delete":
            payload.pop(edit[1], None)
        elif isinstance(payload.get(edit[1]), list) and payload[edit[1]]:
            field = payload[edit[1]] = copy.deepcopy(payload[edit[1]])
            row = field[edit[2] % len(field)]
            if isinstance(row, list):
                row[edit[2] % len(row)] = edit[3]
            else:
                field[edit[2] % len(field)] = edit[3]
    return json.dumps(payload)


def run_main(argv):
    """(exit code, stderr, warnings) of ``main(argv)`` in the current directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, stderr.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=150)
@given(command=st.sampled_from(sorted(ARGV)), argv_edits=ARGV_EDITS,
       alpha=st.sampled_from(["1", "1e308"]), table1_failure=st.sampled_from(TABLE1_FAILURES),
       record_edits=RECORD_EDITS, checkpoint_edits=CHECKPOINT_EDITS, config=CONFIG_FILES,
       config_first=st.booleans())
def test_main_exits_0_1_or_2_with_no_traceback_or_warning(
        valid_inputs, command, argv_edits, alpha, table1_failure, record_edits,
        checkpoint_edits, config, config_first):
    records, checkpoint = valid_inputs
    # alpha=1e308 makes training diverge, the path where numpy would warn
    fields = {"puzzle": records[0]["puzzle"], "solution": records[0]["solution"], "alpha": alpha}
    argv = edited_argv(command, argv_edits, table1_failure, fields)
    if config is not None:
        argv = ["--config", CONFIG, *argv] if config_first else [*argv, "--config", CONFIG]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the default outputs land here
        try:
            with open(DATA, "w", encoding="utf-8") as fh:
                fh.write(edited_dataset(records, record_edits))
            if MODEL in argv:
                with open(MODEL, "w", encoding="utf-8") as fh:
                    fh.write(edited_checkpoint(checkpoint, checkpoint_edits))
            if config is not None:
                with open(CONFIG, "w", encoding="utf-8") as fh:
                    fh.write(config if isinstance(config, str) else json.dumps(config))
            code, err, caught = run_main(argv)
        finally:
            os.chdir(cwd)
    event(f"{command} exits {code}")
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err and not caught, (argv, err, caught)
    assert set(ERROR_TYPE.findall(err)) <= LAST_RESORT_TYPES, (argv, err)
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert err.startswith(("error: ", "usage: ")), (argv, err)
    if command == "table1":
        assert code == 2, (argv, err)

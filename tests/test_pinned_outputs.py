"""sha256 digests of the command-line outputs that a change must keep.

Each case runs one command through ``cli.main`` and hashes every file it
writes and its stdout, with the temporary directory's path replaced by
``TMP``.  The digests were recorded with numpy 2.4.6 and its bundled
OpenBLAS (scipy-openblas 0.3.31) on Python 3.11, on a CPU whose numpy
dispatches to AVX-512.  Training runs through BLAS and numpy's SIMD
loops, so another build or CPU may move bytes.  Under numpy's dispatch
limited to AVX2 (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"``), under ``OPENBLAS_CORETYPE=Haswell``, and under both, only
``train``'s ``model.json`` moved (19,477 of 52,633 parameters, by at most
3.9e-16); every other digest here held.  A mismatch fails and names the
output.  A change that moves an output on purpose updates its digest here
and says why in ``CHANGES.md``.

The ``table1`` case is the ``ablation-grid`` benchmark's argv.  ``solve``
and ``eval`` run all three post-processing modes on 0.6 puzzles, so
``hybrid-complete`` completes grids through the logic engine.  The
``solve-*-render`` cases pin the comparison grid without colors, and the
``solve-*-render-svg`` cases pin it with ANSI colors and as an SVG.

``test_solve_with_model_batch_is_pinned`` pins ``solve_with_model`` itself
on 60 held-out puzzles, 20 each at 0.3, 0.6 and 0.8, in every mode, with a
model trained for 5 epochs.  Greedy leaves empty cells in most of them, so
``hybrid-complete`` reaches the logic engine there.
"""

import contextlib
import hashlib
import io
import json

import pytest

from neurosudoku.cli import main
from neurosudoku.engine import generate_solved, mask_puzzle
from neurosudoku.grids import format_grid
from neurosudoku.training import (POSTPROCESS_MODES, TrainConfig, build_dataset,
                                  solve_with_model, train)

ABLATIONS = "standard-only,standard+expert,standard+constraints,all-combined"

# name -> argv; {out} is the command's own directory, and {data}, {model},
# {puzzle} and {solution} come from the shared gen and train runs
COMMANDS = {
    "gen": ["--seed", "5", "--data-out", "{out}/dataset.jsonl", "gen", "--n", "12",
            "--difficulty", "0.6"],
    "train": ["--seed", "3", "--model-out", "{out}/model.json", "train", "--data", "{data}",
              "--epochs", "5"],
    "table1": ["--out", "{out}", "table1", "--rows", "12:0.1,12:0.8", "--seeds", "0",
               "--ablations", ABLATIONS, "--epochs", "10", "--folds", "3"],
}
for _mode in POSTPROCESS_MODES:
    COMMANDS[f"eval-{_mode}"] = ["--csv-out", "{out}/results.csv", "eval", "--data", "{data}",
                                 "--epochs", "3", "--folds", "3", "--postprocess-mode", _mode]
    COMMANDS[f"solve-{_mode}"] = ["solve", "--model", "{model}", "{puzzle}",
                                  "--postprocess-mode", _mode]
    COMMANDS[f"solve-{_mode}-render"] = [*COMMANDS[f"solve-{_mode}"], "--solution", "{solution}",
                                         "--render", "--no-color"]
    COMMANDS[f"solve-{_mode}-render-svg"] = [*COMMANDS[f"solve-{_mode}"], "--solution",
                                             "{solution}", "--render", "--render-svg",
                                             "{out}/grid.svg"]

DIGESTS = {
    "eval-argmax": {
        "results.csv": "c95d965b32f296af1bec981010a8cad516c03e984284de13574193b7702161d4",
        "stdout": "e0940f4e17acf9d2c868c2174fc0d8f401b4656299040c1f93f7ccf0e03c97c5",
    },
    "eval-greedy-constrained": {
        "results.csv": "8b8ab325d3839e422ca61adcc21f8e2e12a47d2665cf82e099b5a91ddc7f84cb",
        "stdout": "101863b92a022f531b11c9f17c65f80dabb56259b52971aca657355107fb4ecf",
    },
    "eval-hybrid-complete": {
        "results.csv": "cf0134b836a1d0adfdf09842b7b1a41bc105eaae118a699072c5d72fa585258b",
        "stdout": "4a09c24a4598e3810030d539302d486ed8f229fb654a79381c6a0a642afa694f",
    },
    "gen": {
        "dataset.jsonl": "34f1c9408139ec679a484aed40a40b20d0bd6362c6d00e8bfffe90f28ecb5397",
        "stdout": "a00ab5d76ca8c607bca34a53e9f7522ce72ef1dc27e416265e5f11e6c256a0b5",
    },
    "solve-argmax": {
        "stdout": "36b16661b554a59cba067a235983bfba2e6ef565761e4d7236d1d44c197f2f05",
    },
    "solve-argmax-render": {
        "stdout": "d036cc0413ee3ba663795e646e997f90ee2f46b251c09757f2a5188c001dac6d",
    },
    "solve-argmax-render-svg": {
        "grid.svg": "46b4f35d3165a1debe7fc5f0367dce59c776b81fcb81feea37f2d04c85c3b8e9",
        "stdout": "2142f799b3f3ad0cf3e133ff4ad36a608b01192310dad748cf144b18654d5cf2",
    },
    "solve-greedy-constrained": {
        "stdout": "57e8d01db65ca1dbcb7c9edeefd753c68f5894540ea65978cf04a9347bd08839",
    },
    "solve-greedy-constrained-render": {
        "stdout": "815832c6577afaaf5a93c4bdbdf887a45b40698be6e7ef6151c487c06598af7f",
    },
    "solve-greedy-constrained-render-svg": {
        "grid.svg": "223ae75c94f6d036102a9a3df605753ef741c5747a9eaeae320ff208bd61f964",
        "stdout": "720c1d896423ddb3eddfe93c2c28b0545e057b553a20fddf425758621ddf4fa6",
    },
    "solve-hybrid-complete": {
        "stdout": "38f349e8404e1b097ccf86d43e405bf66839cbf19cb860bc9c432ca0570435f0",
    },
    "solve-hybrid-complete-render": {
        "stdout": "1072e69969f5f4080abda1a7ee185f1a1f62f33d9905b8265a1b1c5cfbb388d6",
    },
    "solve-hybrid-complete-render-svg": {
        "grid.svg": "b5689a7c1e887a24cfc2a6deeb98ae3725386c6df3637c0633d6c64322a07905",
        "stdout": "8b31621861f7a75555dac3bb6bd60c2e5a1dc2151525e7b6d93731b93fa196db",
    },
    "table1": {
        "accuracy_12.svg": "97978b3f6ec67949bb59d5b42f010fda7a9bffa4a0104c84eff51886f01d55ea",
        "stdout": "5cd94fef84ef2082fb98516f652079eb8a9b16c05b763822cb3c1749e7c38669",
        "table1.csv": "de1f1d5678ba3ea7d0d8b4924d56be81f939c3491b2055362ab25e850ce29ba0",
    },
    "train": {
        "model.json": "aac8572b31c6bf8f71931b34ae5d0f47df44137be87cce6bfd1dde11a85405e9",
        "stdout": "3d71e70a81d957fca32a691bb5ea88fa2b64c05e0099807cb51cc880ac25393f",
    },
}

# sha256 of the batch's predicted grids, one format_grid line each, mode by mode
BATCH_DIGEST = "143621622d02e9b026a587de7ab0cf35658036f3bebed5929deeac265a05da8a"


def run_command(name, fields):
    """Run one command; returns {output name: sha256} of its stdout and of
    each file in its directory."""
    tmp = fields["tmp"]
    out = tmp / name
    out.mkdir()
    argv = [arg.format(out=out, **fields) for arg in COMMANDS[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    outputs = {"stdout": stdout.getvalue().replace(str(tmp), "TMP").encode("utf-8")}
    for path in sorted(out.iterdir()):
        outputs[path.name] = path.read_bytes()
    return {output: hashlib.sha256(data).hexdigest() for output, data in outputs.items()}


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    """The gen dataset, the train checkpoint, the dataset's first puzzle and
    the digests of those two runs."""
    fields = {"tmp": tmp_path_factory.mktemp("pinned"), "digests": {}}
    fields["digests"]["gen"] = run_command("gen", fields)
    fields["data"] = fields["tmp"] / "gen" / "dataset.jsonl"
    with open(fields["data"], encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    fields["puzzle"], fields["solution"] = first["puzzle"], first["solution"]
    fields["digests"]["train"] = run_command("train", fields)
    fields["model"] = fields["tmp"] / "train" / "model.json"
    return fields


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_bytes_are_pinned(shared, name):
    digests = shared["digests"].get(name) or run_command(name, shared)
    expected = DIGESTS[name]
    assert sorted(digests) == sorted(expected), f"{name} wrote {sorted(digests)}"
    changed = [output for output in sorted(expected) if digests[output] != expected[output]]
    assert not changed, f"{name}: bytes changed in {', '.join(changed)}"


def test_solve_with_model_batch_is_pinned():
    params, _ = train(build_dataset(12, 0.3, 0), TrainConfig(epochs=5), init_seed=0)
    puzzles = [mask_puzzle(generate_solved(seed), difficulty, seed).puzzle
               for difficulty in (0.3, 0.6, 0.8) for seed in range(5000, 5020)]
    lines = [format_grid(solve_with_model(params, puzzle, mode))
             for mode in POSTPROCESS_MODES for puzzle in puzzles]
    assert hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest() == BATCH_DIGEST

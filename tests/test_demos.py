"""Each demo script runs to completion against the installed package, and
writes the pinned bytes where ``DIGESTS`` holds their sha256.

The digests were recorded with numpy 2.4.6 and its bundled OpenBLAS
(scipy-openblas 0.3.31) on Python 3.11; training runs through BLAS, so
another numpy or BLAS build may move demo 04's bytes.  A mismatch fails and
names the output.  A change that moves an output on purpose updates its
digest here and says why in ``CHANGES.md``.
"""

import contextlib
import glob
import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "0*.py")))
OUTPUT = os.path.join(ROOT, "demos", "output")

# demo name -> {output path under demos/output: sha256}
DIGESTS = {
    "04_ablation_mini_grid.py": {
        "mini_grid/table1.csv": "bb305bb0f5a2773243405a55b7f939ed51eb6d65eb9458c31135d0e05c795dce",
        "mini_grid/accuracy_12.svg":
            "fd30c9c194f6f6debda1ce480278cdc5524492397c894a59f0021b69c0b484be",
    },
}


def test_demos_found():
    assert len(DEMOS) == 4


def test_readme_demo_lines_name_each_demo_once():
    # split on whitespace, not with shlex: a shell keeps a "#" inside a word,
    # as in "tour.py#", while shlex would read it as a comment
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Demos", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    named = []
    for line in block.splitlines():
        words = line.split()
        assert words[0] == "python" and words[1].startswith("demos/"), line
        assert len(words) == 2 or words[2] == "#", f"no space before the comment: {line}"
        named.append(words[1].removeprefix("demos/"))
    assert sorted(named) == [os.path.basename(path) for path in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    expected = DIGESTS.get(os.path.basename(path), {})
    for output in expected:  # so that a stale file cannot pass for the demo's
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(OUTPUT, output))
    proc = subprocess.run([sys.executable, path], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    changed = []
    for output, digest in sorted(expected.items()):
        with open(os.path.join(OUTPUT, output), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                changed.append(output)
    assert not changed, f"{os.path.basename(path)}: bytes changed in {', '.join(changed)}"

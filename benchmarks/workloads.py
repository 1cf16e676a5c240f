"""The three benchmark workloads.

Each workload is a closed loop: one process, one caller, one operation at a
time.  ``prepare`` is the set-up (repeated by the runner to time it),
``run_round`` performs one round of the same operations and checks their
outputs with the tracer paused, and ``summary`` turns the rounds into the
workload's own end-to-end figures.

A round returns a dict with ``wall_s`` (the timed part of the round),
``op_s`` (the wall time of each of its timed operations, in the same order
every round), ``attempted``, ``failed`` and ``errors`` (failed output
checks), plus the workload's own figures.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import time

import numpy as np

import checks
from neurosudoku import cli, engine, losses, network, training

clock = time.perf_counter


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def held_out_seeds(seed: int, block: int, count: int):
    """Instance seeds drawn from the workload seed, far from the seeds the
    program's own examples use (0..~1000)."""
    base = 1_000_000 + 100_000 * seed + 10_000 * block
    return range(base, base + count)


def make_puzzle(instance_seed: int, difficulty: float):
    return engine.mask_puzzle(engine.generate_solved(instance_seed), difficulty, instance_seed).puzzle


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: str, untraced):
        self.seed = seed
        self.out_dir = out_dir
        self.untraced = untraced  # context manager that pauses the tracer

    def prepare(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> list:
        return []

    def run_round(self, index: int) -> dict:
        raise NotImplementedError

    def summary(self, rounds) -> dict:
        raise NotImplementedError


# --------------------------------------------------------------------------
# ablation-grid: `neurosudoku table1` in-process through cli.main

GRID_ROWS = ((12, 0.1), (12, 0.8))
GRID_ABLATIONS = ("standard-only", "standard+expert", "standard+constraints", "all-combined")
GRID_FOLDS = 3
GRID_EPOCHS = 10
GRID_BASE_SEED = 0
CSV_HEADER = [
    "n_puzzles", "difficulty", "ablation", "fold", "acc_all", "acc_empty",
    "loss_standard", "loss_constraints", "loss_expert", "loss_combined",
    "epochs", "seed",
]
FD_TOLERANCE = 1e-4  # acceptance criterion 2
FD_EPS = 1e-5
FD_SAMPLES_PER_BLOCK = 12


class AblationGrid(Workload):
    name = "ablation-grid"

    def prepare(self):
        self.grid_dir = os.path.join(self.out_dir, f"{self.name}-seed{self.seed}")
        os.makedirs(self.grid_dir, exist_ok=True)
        self.argv = [
            "--out", self.grid_dir, "table1",
            "--rows", ",".join(f"{n}:{d}" for n, d in GRID_ROWS),
            "--seeds", str(GRID_BASE_SEED),
            "--ablations", ",".join(GRID_ABLATIONS),
            "--epochs", str(GRID_EPOCHS),
            "--folds", str(GRID_FOLDS),
        ]
        self.first_csv = None

    def check_setup(self):
        """Central differences of the combined loss, through the network,
        against combined_loss_grad chained through backward, per ablation."""
        rng = np.random.default_rng(self.seed)
        (instance_seed,) = held_out_seeds(self.seed, 0, 1)
        inst = engine.mask_puzzle(engine.generate_solved(instance_seed), 0.3, instance_seed)
        params = network.init_params(instance_seed)
        x = network.encode_input(inst.puzzle)
        errors = []
        for label in GRID_ABLATIONS:
            config = losses.ablation_config(label)
            tensor, cache = network.forward(params, x)
            _, d_tensor = losses.combined_loss_grad(tensor, inst, config)
            analytic = network.backward(params, cache, d_tensor)
            for field in network.PARAM_FIELDS:
                block = getattr(params, field).reshape(-1)
                picks = rng.choice(block.size, FD_SAMPLES_PER_BLOCK, replace=False)
                a = getattr(analytic, field).reshape(-1)[picks]
                n = np.empty(len(picks))
                for k, i in enumerate(picks):
                    orig = block[i]
                    block[i] = orig + FD_EPS
                    up = losses.combined_loss(network.forward(params, x)[0], inst, config).combined
                    block[i] = orig - FD_EPS
                    down = losses.combined_loss(network.forward(params, x)[0], inst, config).combined
                    block[i] = orig
                    n[k] = (up - down) / (2 * FD_EPS)
                err = np.linalg.norm(a - n) / max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
                if not err <= FD_TOLERANCE:
                    errors.append(f"gradient check {label}/{field}: relative error {err:.2e}")
        return errors

    def run_round(self, index):
        for old in os.listdir(self.grid_dir):
            os.remove(os.path.join(self.grid_dir, old))
        start = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(self.argv))
        wall = clock() - start
        cells = len(GRID_ROWS) * len(GRID_ABLATIONS)
        with self.untraced():
            errors, failed = self._check_outputs(code)
        if code != 0 and failed == 0:
            failed = cells
        return {
            "wall_s": wall,
            "op_s": [wall],
            "attempted": cells,
            "failed": failed,
            "errors": errors,
        }

    def _check_outputs(self, code):
        errors = []
        if code != 0:
            errors.append(f"table1 exit code {code}")
        csv_path = os.path.join(self.grid_dir, "table1.csv")
        try:
            with open(csv_path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            return errors + [f"table1.csv unreadable: {exc}"], 0
        if self.first_csv is None:
            self.first_csv = raw
        elif raw != self.first_csv:
            errors.append("table1.csv differs from the first round's")
        reader = csv.reader(io.StringIO(raw.decode("utf-8")))
        header, *rows = list(reader)
        if header != CSV_HEADER:
            errors.append(f"table1.csv header {header}")
            return errors, 0
        failed = sum(1 for r in rows if r[3] == "-1")
        expected = len(GRID_ROWS) * len(GRID_ABLATIONS) * GRID_FOLDS
        if len(rows) != expected:
            errors.append(f"table1.csv has {len(rows)} rows, expected {expected}")
        for r in rows:
            rec = dict(zip(header, r))
            values = [float(rec[k]) for k in header if k not in ("ablation",)]
            if rec["fold"] == "-1" or not all(math.isfinite(v) for v in values):
                errors.append(f"failed or non-finite row {r}")
                continue
            g = checks.given_fraction(float(rec["difficulty"]))
            acc_all, acc_empty = float(rec["acc_all"]), float(rec["acc_empty"])
            if abs(acc_all - (g + (1 - g) * acc_empty)) > 1e-6:
                errors.append(f"acc_all {acc_all} != given share + rest * acc_empty in {r}")
            if min(float(rec[k]) for k in header if k.startswith("loss_")) < 0:
                errors.append(f"negative loss in {r}")
        svgs = sorted(f for f in os.listdir(self.grid_dir) if f.endswith(".svg"))
        wanted = sorted(f"accuracy_{n}.svg" for n in {n for n, _ in GRID_ROWS})
        if svgs != wanted:
            errors.append(f"charts {svgs}, expected {wanted}")
        return errors, failed

    def summary(self, rounds):
        return {"grid_wall_s": (statistics.median(r["wall_s"] for r in rounds), "s")}


# --------------------------------------------------------------------------
# engine-datasets: the logic engine alone

BUILD_N = 100  # instance seeds 0..99 include 82, the slowest first-solution search below 1000
BUILD_DIFFICULTY = 0.8
COUNT_CAP = 100
COUNT_06 = 200  # drawn from the workload seed
COUNT_08 = 50  # the first 50 build puzzles (seeds 0..49), the same every run
UNIQUE_N = 200
UNIQUE_DIFFICULTY = 0.6
ORACLE_SAMPLE = 8


class EngineDatasets(Workload):
    name = "engine-datasets"

    def prepare(self):
        self.count_puzzles = [make_puzzle(s, 0.6) for s in held_out_seeds(self.seed, 1, COUNT_06)]
        self.count_puzzles += [make_puzzle(s, 0.8) for s in range(COUNT_08)]
        self.unique_inputs = [
            (s, engine.generate_solved(s)) for s in held_out_seeds(self.seed, 2, UNIQUE_N)
        ]

    def run_round(self, index):
        failed = 0
        start = clock()
        try:
            dataset = training.build_dataset(BUILD_N, BUILD_DIFFICULTY, 0)
        except Exception:
            dataset = None
            failed += 1
        build_s = clock() - start
        op_s = [build_s]
        counts = []
        count_start = clock()
        for puzzle in self.count_puzzles:
            t = clock()
            try:
                counts.append(engine.count_solutions(puzzle, COUNT_CAP))
            except Exception:
                counts.append(None)
                failed += 1
            op_s.append(clock() - t)
        count_s = clock() - count_start
        unique = []
        unique_start = clock()
        for instance_seed, solved in self.unique_inputs:
            t = clock()
            try:
                unique.append(engine.mask_puzzle(solved, UNIQUE_DIFFICULTY, instance_seed,
                                                 require_unique=True))
            except Exception:  # engine.UniquenessError included
                unique.append(None)
                failed += 1
            op_s.append(clock() - t)
        unique_s = clock() - unique_start
        wall = clock() - start
        with self.untraced():
            errors = self._check(dataset, counts, unique, oracle=index == 0)
        return {
            "wall_s": wall,
            "op_s": op_s,
            "attempted": 1 + len(self.count_puzzles) + len(self.unique_inputs),
            "failed": failed,
            "errors": errors,
            "built": len(dataset) if dataset else 0,
            "build_s": build_s,
            "completions": sum(c for c in counts if c is not None),
            "count_s": count_s,
            "unique": sum(1 for u in unique if u is not None),
            "unique_s": unique_s,
        }

    def _check(self, dataset, counts, unique, oracle):
        errors = []
        if dataset is not None:
            if len(dataset) != BUILD_N:
                errors.append(f"built {len(dataset)} puzzles, expected {BUILD_N}")
            for inst in dataset:
                if not checks.valid_complete(inst.solution):
                    errors.append(f"seed {inst.seed}: invalid solution")
                if not checks.keeps_givens(inst.puzzle, inst.solution):
                    errors.append(f"seed {inst.seed}: solution disagrees with the givens")
                masked = checks.flat(inst.puzzle).count(0)
                if masked != checks.masked_count(BUILD_DIFFICULTY):
                    errors.append(f"seed {inst.seed}: {masked} masked cells")
        for k, (puzzle, n) in enumerate(zip(self.count_puzzles, counts)):
            if n is None:
                continue
            outcome = engine.solve(puzzle, COUNT_CAP)
            grids = [tuple(checks.flat(g)) for g in outcome.solutions]
            if len(grids) != n or len(set(grids)) != n:
                errors.append(f"count puzzle {k}: {n} counted, {len(set(grids))} distinct enumerated")
            if not all(checks.valid_complete(g) and checks.keeps_givens(puzzle, g) for g in grids):
                errors.append(f"count puzzle {k}: an enumerated completion is wrong")
            if outcome.exhausted != (n < COUNT_CAP):
                errors.append(f"count puzzle {k}: exhausted={outcome.exhausted} with {n} found")
            if oracle and k < ORACLE_SAMPLE and len(checks.enumerate_completions(puzzle, COUNT_CAP)) != n:
                errors.append(f"count puzzle {k}: independent enumerator disagrees")
        for k, ((_, solved), inst) in enumerate(zip(self.unique_inputs, unique)):
            if inst is None:
                continue
            if not (checks.keeps_givens(inst.puzzle, solved)
                    and checks.flat(inst.puzzle).count(0) == checks.masked_count(UNIQUE_DIFFICULTY)):
                errors.append(f"unique puzzle {k}: wrong givens or mask size")
            if oracle and k < ORACLE_SAMPLE and len(checks.enumerate_completions(inst.puzzle, 2)) != 1:
                errors.append(f"unique puzzle {k}: independent enumerator finds no unique completion")
        return errors

    def summary(self, rounds):
        total = lambda key: sum(r[key] for r in rounds)  # noqa: E731
        return {
            "puzzles_built_per_s": (total("built") / total("build_s"), "puzzles/s"),
            "completions_per_s": (total("completions") / total("count_s"), "completions/s"),
            "unique_puzzles_per_s": (total("unique") / total("unique_s"), "puzzles/s"),
        }


# --------------------------------------------------------------------------
# model-solve: a trained model solving held-out puzzles, forward pass only

TRAIN_N = 12
TRAIN_DIFFICULTY = 0.3
TRAIN_EPOCHS = 30
SOLVE_MODES = ("argmax", "greedy-constrained", "hybrid-complete")
HELD_OUT_PER_DIFFICULTY = 150  # at 0.3 and 0.6, drawn from the workload seed
HELD_OUT_08 = range(100, 160)  # fixed; seed 100 is a 74k-node first-solution search


class ModelSolve(Workload):
    name = "model-solve"

    def prepare(self):
        dataset = training.build_dataset(TRAIN_N, TRAIN_DIFFICULTY, 0)
        params, _ = training.train(dataset, training.TrainConfig(epochs=TRAIN_EPOCHS), init_seed=0)
        path = os.path.join(self.out_dir, f"{self.name}-seed{self.seed}-model.json")
        network.save_params(params, path, seed=0)
        self.params, _ = network.load_params(path)
        self.round_trip_ok = all(
            np.array_equal(getattr(params, f), getattr(self.params, f)) for f in network.PARAM_FIELDS
        )
        self.puzzles = [make_puzzle(s, 0.3) for s in held_out_seeds(self.seed, 3, HELD_OUT_PER_DIFFICULTY)]
        self.puzzles += [make_puzzle(s, 0.6) for s in held_out_seeds(self.seed, 4, HELD_OUT_PER_DIFFICULTY)]
        self.puzzles += [make_puzzle(s, 0.8) for s in HELD_OUT_08]

    def check_setup(self):
        return [] if self.round_trip_ok else ["checkpoint round trip changed the parameters"]

    def run_round(self, index):
        op_s = []
        outputs = {mode: [] for mode in SOLVE_MODES}
        failed = 0
        start = clock()
        for mode in SOLVE_MODES:
            for puzzle in self.puzzles:
                t = clock()
                try:
                    outputs[mode].append(training.solve_with_model(self.params, puzzle, mode))
                except Exception:
                    outputs[mode].append(None)
                    failed += 1
                op_s.append(clock() - t)
        wall = clock() - start
        with self.untraced():
            errors = self._check(outputs)
        return {
            "wall_s": wall,
            "op_s": op_s,
            "attempted": len(SOLVE_MODES) * len(self.puzzles),
            "failed": failed,
            "errors": errors,
            "hybrid": op_s[-len(self.puzzles):],  # hybrid-complete runs last
        }

    def _check(self, outputs):
        errors = []
        for mode, grids in outputs.items():
            for k, (puzzle, grid) in enumerate(zip(self.puzzles, grids)):
                if grid is None:
                    continue
                if not checks.keeps_givens(puzzle, grid):
                    errors.append(f"{mode} puzzle {k}: givens changed")
                if mode == "argmax" and 0 in checks.flat(grid):
                    errors.append(f"argmax puzzle {k}: empty cell left")
                if mode == "greedy-constrained" and not checks.no_repeats(grid):
                    errors.append(f"greedy puzzle {k}: repeated digit in a unit")
                if mode == "hybrid-complete" and not checks.valid_complete(grid):
                    errors.append(f"hybrid puzzle {k}: not a valid complete grid")
        return errors

    def summary(self, rounds):
        solves = sum(r["attempted"] - r["failed"] for r in rounds)
        hybrid = [t for r in rounds for t in r["hybrid"]]
        return {
            "solves_per_s": (solves / sum(r["wall_s"] for r in rounds), "solves/s"),
            "hybrid_solve_p50_ms": (statistics.median(hybrid) * 1e3, "ms"),
            "hybrid_solve_p95_ms": (percentile(hybrid, 95) * 1e3, "ms"),
        }


WORKLOADS = {w.name: w for w in (AblationGrid, EngineDatasets, ModelSolve)}

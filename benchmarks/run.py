"""Benchmark of the neurosudoku pipeline: one command, three workloads.

    python3 benchmarks/run.py --workload ablation-grid --seed 0 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 15

A run sets up its workload (repeated, to time the set-up), then runs whole
rounds of the workload's operations until ``--seconds`` have been measured,
checks every output, and prints one JSON object as its last line.  With
``--trace 0`` it holds the end-to-end metrics, measured with no tracing;
with ``--trace 1`` every public function of the program is wrapped in a
span and the JSON holds the per-layer metrics.  ``--workload all`` runs each
workload untraced and traced in child processes and prints a summary with
the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads are single-caller loops over small matrices,
# and a fixed thread count keeps runs comparable.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time

from tracer import ATTRS, NAME, PARENT, Hook, Tracer, aggregate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PACKAGE = "neurosudoku"
SETUP_REPEATS = 9
# An untraced run holds at least two rounds, so that every operation has a
# second sample for round_best_s even when one round outlasts --seconds.
MIN_ROUNDS = 2
WORKLOAD_NAMES = ("ablation-grid", "engine-datasets", "model-solve")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import neurosudoku.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_best_s", "s"),
)

# (metric, unit, traced function, field); field "busy_s", "self_s" or "calls"
PER_LAYER_SPANS = (
    ("engine.solve.calls", "count", "engine.solve", "calls"),
    ("engine.solve.busy_s", "s", "engine.solve", "busy_s"),
    ("engine.generate_solved.busy_s", "s", "engine.generate_solved", "busy_s"),
    ("engine.count_solutions.busy_s", "s", "engine.count_solutions", "busy_s"),
    ("engine.mask_puzzle.busy_s", "s", "engine.mask_puzzle", "busy_s"),
    ("network.forward.busy_s", "s", "network.forward", "busy_s"),
    ("network.backward.busy_s", "s", "network.backward", "busy_s"),
    ("network.adam_step.busy_s", "s", "network.adam_step", "busy_s"),
    ("losses.combined_loss_grad.busy_s", "s", "losses.combined_loss_grad", "busy_s"),
    ("losses.standard_loss_grad.busy_s", "s", "losses.standard_loss_grad", "busy_s"),
    ("losses.constraints_loss_grad.busy_s", "s", "losses.constraints_loss_grad", "busy_s"),
    ("losses.expert_loss_grad.busy_s", "s", "losses.expert_loss_grad", "busy_s"),
    ("losses.combined_loss.busy_s", "s", "losses.combined_loss", "busy_s"),
    ("training.train.self_s", "s", "training.train", "self_s"),
    ("training.kfold_evaluate.self_s", "s", "training.kfold_evaluate", "self_s"),
    ("training.build_dataset.self_s", "s", "training.build_dataset", "self_s"),
    ("training.solve_with_model.argmax.self_s", "s",
     "training.solve_with_model.argmax", "self_s"),
    ("training.solve_with_model.greedy-constrained.self_s", "s",
     "training.solve_with_model.greedy-constrained", "self_s"),
    ("training.solve_with_model.hybrid-complete.self_s", "s",
     "training.solve_with_model.hybrid-complete", "self_s"),
    ("training.write_results_csv.busy_s", "s", "training.write_results_csv", "busy_s"),
    ("grids.is_valid_complete.busy_s", "s", "grids.is_valid_complete", "busy_s"),
    ("grids.cell_accuracy.busy_s", "s", "grids.cell_accuracy", "busy_s"),
    ("charts.comparison_chart.busy_s", "s", "charts.comparison_chart", "busy_s"),
    ("cli.cmd_table1.self_s", "s", "cli.cmd_table1", "self_s"),
)
# Derived per-layer metrics, computed in per_layer_metrics below.
PER_LAYER_DERIVED = (
    ("engine.solve.nodes", "count"),
    ("engine.solve.propagations", "count"),
    ("engine.solve.solved_ratio", "ratio"),
    ("engine.mask_puzzle.draws_per_puzzle", "count"),
    ("network.load_params.busy_s", "s"),
    ("training.train_step_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def time_import() -> float:
    """Seconds to import the program in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def trace_hooks():
    def solve_attrs(args, kwargs, outcome):
        return {"nodes": outcome.stats.nodes, "propagations": outcome.stats.propagations,
                "solved": bool(outcome.solutions)}

    def mask_attrs(args, kwargs, instance):
        return {"unique": bool(kwargs.get("require_unique", args[3] if len(args) > 3 else False))}

    def solve_mode(args, kwargs):
        return kwargs.get("mode", args[2] if len(args) > 2 else "argmax")

    return {
        "engine.solve": Hook(describe=solve_attrs),
        "engine.mask_puzzle": Hook(describe=mask_attrs),
        "training.solve_with_model": Hook(label=solve_mode),
    }


def per_layer_metrics(spans, setup_end: int, rounds: int, overhead: float):
    """Per-layer values per traced round, from the spans recorded after
    set-up.  network.load_params runs only in set-up, so its busy time is
    taken from the set-up spans, per set-up."""
    run_spans = spans[setup_end:]
    base = setup_end
    stats = aggregate([[s[0], s[1], s[2], s[3] - base if s[3] >= base else -1, s[4]]
                       for s in run_spans])
    setup_stats = aggregate(spans[:setup_end])
    values = {}
    for metric, _, fn, field in PER_LAYER_SPANS:
        values[metric] = stats.get(fn, {}).get(field, 0) / rounds
    solves = [s[ATTRS] for s in run_spans if s[NAME] == "engine.solve" and s[ATTRS]]
    values["engine.solve.nodes"] = sum(a["nodes"] for a in solves) / rounds
    values["engine.solve.propagations"] = sum(a["propagations"] for a in solves) / rounds
    values["engine.solve.solved_ratio"] = (
        sum(a["solved"] for a in solves) / len(solves) if solves else 0.0
    )
    unique_spans = {
        base + i for i, s in enumerate(run_spans)
        if s[NAME] == "engine.mask_puzzle" and s[ATTRS] and s[ATTRS]["unique"]
    }
    draws = sum(1 for s in run_spans if s[NAME] == "engine.count_solutions" and s[PARENT] in unique_spans)
    values["engine.mask_puzzle.draws_per_puzzle"] = draws / len(unique_spans) if unique_spans else 0.0
    values["network.load_params.busy_s"] = (
        setup_stats.get("network.load_params", {}).get("busy_s", 0.0) / SETUP_REPEATS
    )
    steps = stats.get("network.adam_step", {}).get("calls", 0)
    values["training.train_step_ms"] = (
        stats["training.train"]["busy_s"] / steps * 1e3 if steps else 0.0
    )
    values["trace.spans"] = len(run_spans) / rounds
    values["trace.overhead_share"] = overhead
    units = {m: u for m, u, *_ in PER_LAYER_SPANS}
    units.update(PER_LAYER_DERIVED)
    return {m: (values[m], units[m]) for m in units}, stats


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    import_times = [time_import() for _ in range(SETUP_REPEATS)]

    import neurosudoku
    from neurosudoku import charts, cli, engine, grids, losses, network, training
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tracer = Tracer() if args.trace else None

    @contextlib.contextmanager
    def untraced():
        if tracer is None:
            yield
            return
        tracer.paused = True
        try:
            yield
        finally:
            tracer.paused = False

    modules = (grids, engine, network, losses, training, charts, cli, neurosudoku)
    hooks = trace_hooks()
    if tracer:
        tracer.install(modules, PACKAGE, hooks)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT, untraced)
    prep_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.prepare()
        prep_times.append(time.perf_counter() - t)
    setup_s = statistics.median(i + p for i, p in zip(import_times, prep_times))
    setup_end = len(tracer.spans) if tracer else 0
    with untraced():
        errors = workload.check_setup()

    # With tracing, every traced round is followed by the same round with the
    # wrappers removed, so the two see the same machine and their ratio is
    # the tracing overhead; both count towards the measured time.
    rounds, plain = [], []
    measured = 0.0
    min_rounds = 1 if tracer else MIN_ROUNDS
    while len(rounds) < min_rounds or measured < args.seconds:
        rounds.append(workload.run_round(len(rounds) + len(plain)))
        measured += rounds[-1]["wall_s"]
        if tracer:
            tracer.uninstall()
            plain.append(workload.run_round(len(rounds) + len(plain)))
            measured += plain[-1]["wall_s"]
            tracer.install(modules, PACKAGE, hooks)
    if tracer:
        tracer.uninstall()
    for r in rounds + plain:
        errors.extend(r["errors"])
    attempted = sum(r["attempted"] for r in rounds + plain)
    failed = sum(r["failed"] for r in rounds + plain)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "attempted": attempted, "failed": failed,
        "errors": errors[:50],
        "round_wall_s": [r["wall_s"] for r in rounds],
    }
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # A round at the machine's best speed: the sum, over the round's
        # operations, of each one's fastest time in the run.  This machine's
        # speed drifts by tens of percent over seconds to minutes and
        # contention only ever adds time, so these minima repeat from run to
        # run where a median round does not.
        "round_best_s": (sum(min(op) for op in zip(*(r["op_s"] for r in rounds))), "s"),
    }
    workload_metrics = workload.summary(rounds)
    report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    report["workload_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in workload_metrics.items()}
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer:
        overhead = statistics.median(t["wall_s"] / p["wall_s"] for t, p in zip(rounds, plain)) - 1
        per_layer, stats = per_layer_metrics(tracer.spans, setup_end, len(rounds), overhead)
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        report["functions"] = stats
        tracer.write(stem + "-spans.tsv")
        shown = per_layer
    else:
        shown = {**end_to_end, **workload_metrics}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations attempted, {failed} failed")
    for name, (value, unit) in shown.items():
        print(f"  {name:52s} {value:14.6g} {unit}")
    gated = END_TO_END if not tracer else [(m, u) for m, (_, u) in per_layer.items()]
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": shown[m][0], "unit": shown[m][1]} for m, _ in gated},
    }))
    return 0


def run_all(args) -> int:
    """Each workload untraced, then traced, in child processes."""
    all_correct = True
    for name in WORKLOAD_NAMES:
        reports = []
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return fail(f"{name} --trace {trace} exited with {proc.returncode}")
            path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{trace}.json")
            with open(path, encoding="utf-8") as fh:
                reports.append(json.load(fh))
        plain, traced = reports
        overhead = traced["per_layer"]["trace.overhead_share"]["value"]
        correct = not plain["errors"] and not traced["errors"]
        all_correct = all_correct and correct
        print(f"{name}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {correct}, tracing overhead {overhead:+.1%} per round")
        for section in ("end_to_end", "workload_metrics"):
            for metric, m in plain[section].items():
                print(f"  {metric:52s} {m['value']:14.6g} {m['unit']}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be nonnegative")
    if not os.path.isdir(os.path.join(SRC, PACKAGE)):
        return fail(f"program source not found at {os.path.join(SRC, PACKAGE)}")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

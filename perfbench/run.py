"""Solve benchmark for ``ast``: one fixed instance each of two paper objectives.

    python3 perfbench/run.py --workload cut-er200 --seed 0 --seconds 60 --trace 0

The instance of a workload is fixed (generator seed 0); ``--seed`` is the
solver seed, so the same seed repeats the same solve exactly.  A run builds
the instance ``SETUP_REPEATS`` times, then repeats whole rounds of the same
solve, each followed by ``SETUP_REPEATS`` more builds, while the next round
is expected to end within ``--seconds``; it always runs at least one round.
``setup_s`` is the median of all the builds, so that it samples the
machine's speed over the whole run.  An untraced round is a pair: one solve
by the program and the same solve by ``submodknap_baseline``, a frozen copy
of the program, in alternating order; ``solve_vs_baseline`` is the median
over the pairs of the program's time over the copy's.  A traced round
(``--trace 1``) is one untraced solve and then the same solve with every
layer traced; the spans go to ``perfbench/out/`` when the run ends.  Every
solve of the program is checked apart from the program (see ``checks.py``).
The last line of standard output is the result as one JSON object.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS.  On a machine with two
# shared cores the second thread waits on other work, and the one matrix
# product in the image_summ build then took 7 to 24 ms from run to run.
# Solves make no BLAS calls.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import program  # noqa: F401  (puts this checkout's src/ on sys.path)
import submodknap
import submodknap.harness
# A frozen copy of src/submodknap as it stood when the benchmark was written.
# It is never edited: every solve of the program is timed next to a solve of
# this copy, so that the machine's drift in speed cancels (README.md, Noise).
import submodknap_baseline
import submodknap_baseline.harness
from checks import Reference, check_solve
from spans import check_trace, layer_metrics, traced_solve
from submodknap.objectives import gen_erdos_renyi

GENERATOR_SEED = 0
SETUP_REPEATS = 5
FEATURE_DIM = 64  # the harness draws image_summ features as U[0,1)^64
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    objective: str
    n: int
    p: float  # edge probability; unused by image_summ
    budget_fraction: float


# Sized so that one solve takes about a second and a run holds about twenty
# pairs: a pair's ratio is only as steady as the machine over the pair (see
# README.md for why each was chosen, and why revenue has no workload).
WORKLOADS = {
    "cut-er200": Workload("cut", 200, 0.2, 0.1),
    "imsum-500": Workload("image_summ", 500, 0.0, 0.1),
}


def build(workload, package=submodknap):
    """The instance as ``package`` builds it: ``(objective, instance, build_objective_s)``."""
    harness = package.harness
    spec = harness.ExperimentSpec(
        "ast", workload.objective, harness.GenerateSource(workload.n, workload.p, GENERATOR_SEED)
    )
    start = time.perf_counter()
    objective, costs = harness.build_objective(spec)
    built = time.perf_counter()
    total = float(np.sort(costs).sum())
    instance = package.KnapsackInstance(costs, workload.budget_fraction * total)
    return objective, instance, built - start


def reference(workload, instance):
    """The workload's objective by formula, from freshly generated raw arrays."""
    if workload.objective == "image_summ":
        features = np.random.default_rng(GENERATOR_SEED).random((workload.n, FEATURE_DIM))
        return Reference("image_summ", workload.n, instance.costs, instance.budget,
                         features=features)
    graph = gen_erdos_renyi(workload.n, workload.p, GENERATOR_SEED)
    return Reference(workload.objective, workload.n, instance.costs, instance.budget,
                     edges=(graph.edge_u, graph.edge_v, graph.edge_w))


def solve(objective, instance, config, traced=False, package=submodknap):
    """One ``ast`` call: ``(result, oracle, seconds, tracer or None)``."""
    gc.collect()
    start = time.perf_counter()
    if traced:
        result, oracle, tracer = traced_solve(objective, instance, config)
        return result, oracle, tracer.spans[0].duration, tracer
    oracle = package.CountingOracle(objective)
    result = package.ast(oracle, instance, config)
    return result, oracle, time.perf_counter() - start, None


def outcome(result, oracle):
    ledger = oracle.ledger
    return (tuple(result.solution), result.value, ledger.total_queries, ledger.adaptive_rounds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    setups, builds = [], []

    def set_up():
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            built = build(workload)
            setups.append(time.perf_counter() - start)
            builds.append(built[2])
        return built[:2]

    objective, instance = set_up()
    ref = reference(workload, instance)
    config = submodknap.AstConfig(seed=args.seed)
    baseline = build(workload, submodknap_baseline)[:2]
    baseline_config = submodknap_baseline.AstConfig(seed=args.seed)

    attempted = failed = 0
    problems = []
    outcomes = set()
    times = {"program": [], "traced": [], "baseline": []}
    ratios = []
    layers = []
    tracers = []
    start = time.perf_counter()
    rounds_done = 0
    while True:
        if traced:
            order = ("program", "traced")
        else:  # the baseline goes first in every other round
            order = ("baseline", "program") if rounds_done % 2 else ("program", "baseline")
        pair = {}
        for kind in order:
            if kind == "baseline":
                seconds = solve(*baseline, baseline_config, package=submodknap_baseline)[2]
                times[kind].append(seconds)
                pair[kind] = seconds
                continue
            attempted += 1
            try:
                result, oracle, seconds, tracer = solve(objective, instance, config, kind == "traced")
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            times[kind].append(seconds)
            pair[kind] = seconds
            ledger = oracle.ledger
            found = check_solve(ref, result, ledger.total_queries, ledger.adaptive_rounds)
            outcomes.add(outcome(result, oracle))
            if tracer is not None:
                metrics = layer_metrics(tracer)
                found += check_trace(tracer, oracle, result, metrics)
                layers.append(metrics)
                tracers.append(tracer)
            problems += [f"solve {attempted}: {p}" for p in found]
            last = (result, oracle)
        if len(pair) == 2 and "baseline" in pair:
            ratios.append(pair["program"] / pair["baseline"])
        set_up()
        rounds_done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds_done > args.seconds:
            break
    if len(outcomes) > 1:
        problems.append(f"{len(outcomes)} different outcomes from one seed")
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    if not times["program"] or (traced and not times["traced"]) or (not traced and not ratios):
        raise SystemExit(f"perfbench: all {attempted} solves failed")

    if traced:
        metrics = {
            name: (statistics.median(m[name][0] for m in layers), unit)
            for name, (_, unit) in layers[0].items()
        }
        traced_s = statistics.median(times["traced"])
        metrics["harness.build_objective_s"] = (statistics.median(builds), "s")
        metrics["trace.solve_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - statistics.median(times["program"]), "s")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(out, "w", encoding="utf-8") as handle:
            for index, tracer in enumerate(tracers):
                tracer.write(handle, index)
    else:
        result, oracle = last
        metrics = {
            "solve_vs_baseline": (statistics.median(ratios), "ratio"),
            "value": (result.value, "objective"),
            "rounds": (oracle.ledger.adaptive_rounds, "rounds"),
            "queries": (oracle.ledger.total_queries, "queries"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    print(f"{args.workload} seed {args.seed}: {attempted} solves attempted, {failed} failed,"
          f" {len(problems)} check failures; median solve {statistics.median(times['program']):.4f} s"
          + (f", baseline {statistics.median(times['baseline']):.4f} s" if ratios else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

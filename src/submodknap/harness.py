"""Experiment harness: instance building, sweeps, CSV/SVG output, and CLI.

Subcommands
-----------
run          one algorithm/objective sweep over budget fractions
sweep        the same grid for several algorithms at once
verify       small-instance ratio suite against the brute-force optimum
bench-rounds adaptivity scaling suite over growing ground sets

``verify`` and ``bench-rounds`` exit nonzero when their checks fail so CI can
gate on them.  All runs are deterministic given the seed; per-trial generators
are derived from (seed, trial).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import get_type_hints
from xml.sax.saxutils import escape

import numpy as np

from .alternating import AstConfig, ast
from .baselines import brute_force_opt, density_greedy, random_feasible
from .core import CountingOracle, KnapsackInstance
from .estimator import ESTIMATORS
from .objectives import (
    CutObjective,
    ImageSummaryObjective,
    ModularObjective,
    RevenueObjective,
    SumObjective,
    _open_unit,
    gen_erdos_renyi,
    load_edge_list,
    load_features,
    revenue_costs,
    similarity_from_features,
)

ALGORITHMS = ("ast", "density_greedy", "random_feasible")
OBJECTIVES = ("revenue", "cut", "image_summ")

DEFAULT_BUDGET_FRACTIONS = tuple(np.linspace(0.125, 1.0, 8).round(6).tolist())


@dataclass(frozen=True)
class GenerateSource:
    """A generated instance: ``n`` elements, edge probability ``p`` (graph
    objectives only), generator ``seed``."""

    n: int
    p: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"a generated instance needs at least one element, got n = {self.n}")
        if self.seed < 0:
            raise ValueError(f"the generator seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class FileSource:
    path: str


@dataclass(frozen=True)
class ExperimentSpec:
    algorithm: str
    objective: str
    source: object
    budget_fractions: tuple = DEFAULT_BUDGET_FRACTIONS
    trials: int = 1
    config: AstConfig = AstConfig()

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {self.algorithm!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective: {self.objective!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if isinstance(self.source, GenerateSource) and self.objective != "image_summ":
            if self.source.n < 2:
                raise ValueError(
                    f"a generated {self.objective} graph needs at least two nodes, "
                    f"got n = {self.source.n}"
                )
            if not 0.0 <= self.source.p <= 1.0:
                raise ValueError(f"edge probability p must lie in [0, 1], got {self.source.p}")
        fractions = tuple(sorted(float(f) for f in self.budget_fractions))
        if not fractions or any(not 0.0 < f <= 1.0 for f in fractions):
            raise ValueError("budget fractions must lie in (0, 1]")
        # canonical ascending order so record layout never depends on input order
        object.__setattr__(self, "budget_fractions", fractions)


@dataclass(frozen=True)
class ExperimentRecord:
    algorithm: str
    objective: str
    n: int
    budget_fraction: float
    B: float
    epsilon: float
    delta: float
    seed: int
    trial: int
    f_value: float
    total_queries: int
    adaptive_rounds_ast: int
    adaptive_rounds_estimator: int
    wall_ms: float


# (name, type) of each record field, in CSV column order
_FIELD_TYPES = get_type_hints(ExperimentRecord)
_RECORD_FIELDS = tuple((f.name, _FIELD_TYPES[f.name]) for f in fields(ExperimentRecord))
CSV_HEADER = ",".join(name for name, _ in _RECORD_FIELDS)


def _trial_seed(base_seed, trial):
    """Canonical derivation of one trial's generator seed."""
    return int(np.random.SeedSequence([int(base_seed), int(trial)]).generate_state(1)[0])


def build_objective(spec):
    """Materialize the objective and element costs for a spec.

    Returns ``(objective, costs)``.  Generated cut instances carry the
    generator's node costs; revenue costs come from local edge mass; loaded
    graphs and feature sets without their own costs draw them uniformly from
    (0, 1) using the spec's seed.
    """
    source = spec.source
    rng = np.random.default_rng(
        np.random.SeedSequence([int(spec.config.seed), 0x5EED])
    )
    if spec.objective == "image_summ":
        if isinstance(source, FileSource):
            matrix = load_features(source.path)
        else:
            feats = np.random.default_rng(source.seed).random((source.n, 64))
            matrix = similarity_from_features(feats)
        costs = _open_unit(rng, matrix.n)
        return ImageSummaryObjective(matrix), costs

    if isinstance(source, FileSource):
        graph = load_edge_list(source.path)
    else:
        graph = gen_erdos_renyi(source.n, source.p, source.seed)

    if spec.objective == "revenue":
        return RevenueObjective(graph), revenue_costs(graph)
    costs = graph.node_costs
    if costs is None:
        costs = _open_unit(rng, graph.n)
    return CutObjective(graph), costs


def _run_single(spec, objective, instance, trial):
    """One (fraction, trial) cell: run the algorithm, return its counters."""
    derived = _trial_seed(spec.config.seed, trial)
    oracle = CountingOracle(objective)
    if spec.algorithm == "ast":
        result = ast(oracle, instance, replace(spec.config, seed=derived))
        return (
            result.value,
            oracle.ledger.total_queries,
            result.ast_rounds,
            result.estimator_rounds,
        )
    if spec.algorithm == "density_greedy":
        selected = density_greedy(oracle, instance)
        value = objective(np.asarray(selected, dtype=np.intp))
        return value, oracle.ledger.total_queries, oracle.ledger.adaptive_rounds, 0
    selected = random_feasible(instance, np.random.default_rng(derived))
    value = objective(np.asarray(selected, dtype=np.intp))
    return value, 0, 0, 0


def _build_instances(spec):
    """``(objective, instances)``: the spec's objective and one
    :class:`KnapsackInstance` per budget fraction, in the spec's order.
    A budget that ``KnapsackInstance`` rejects raises ``ValueError``."""
    objective, costs = build_objective(spec)
    total = float(np.sort(costs).sum())
    return objective, [KnapsackInstance(costs, f * total) for f in spec.budget_fractions]


def run_experiment(spec, clock=time.perf_counter):
    """Run a spec: one record per (budget fraction, trial).

    Deterministic given the spec (records are bit-identical across repeats,
    including wall time when a deterministic ``clock`` is injected).
    """
    objective, instances = _build_instances(spec)
    records = []
    for fraction, instance in zip(spec.budget_fractions, instances):
        for trial in range(spec.trials):
            t0 = clock()
            value, queries, rounds_alg, rounds_est = _run_single(
                spec, objective, instance, trial
            )
            t1 = clock()
            records.append(
                ExperimentRecord(
                    algorithm=spec.algorithm,
                    objective=spec.objective,
                    n=instance.n,
                    budget_fraction=float(fraction),
                    B=instance.budget,
                    epsilon=spec.config.epsilon,
                    delta=spec.config.delta,
                    seed=spec.config.seed,
                    trial=trial,
                    f_value=float(value),
                    total_queries=int(queries),
                    adaptive_rounds_ast=int(rounds_alg),
                    adaptive_rounds_estimator=int(rounds_est),
                    wall_ms=(t1 - t0) * 1000.0,
                )
            )
    return records


def write_csv(records, path):
    """Write records with the canonical header; floats use repr so a
    round-trip through :func:`read_csv` reproduces them exactly."""
    if not records:
        raise ValueError("no records to write")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(CSV_HEADER + "\n")
        for rec in records:
            row = (
                (repr if kind is float else str)(getattr(rec, name))
                for name, kind in _RECORD_FIELDS
            )
            handle.write(",".join(row) + "\n")


def read_csv(path):
    """Parse a CSV produced by :func:`write_csv` back into records."""
    records = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ValueError(f"{path}: unexpected CSV header")
        for row in reader:
            records.append(
                ExperimentRecord(**{name: kind(row[name]) for name, kind in _RECORD_FIELDS})
            )
    return records


_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def write_svg_plot(records, path, y_axis="value"):
    """Render a value-vs-budget or rounds-vs-budget line chart as SVG.

    One series per algorithm; points are trial means per budget fraction.
    Series with a single distinct fraction render as points only.
    """
    if not records:
        raise ValueError("no records to plot")
    if y_axis not in ("value", "rounds"):
        raise ValueError("y_axis must be 'value' or 'rounds'")

    def metric(rec):
        if y_axis == "value":
            return rec.f_value
        return float(rec.adaptive_rounds_ast + rec.adaptive_rounds_estimator)

    series = {}
    for rec in records:
        series.setdefault(rec.algorithm, {}).setdefault(rec.budget_fraction, []).append(
            metric(rec)
        )
    for alg, by_frac in series.items():
        series[alg] = sorted((f, float(np.mean(vs))) for f, vs in by_frac.items())

    width, height = 640, 440
    left, right, top, bottom = 70, 20, 30, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    xs = [f for pts in series.values() for f, _ in pts]
    ys = [v for pts in series.values() for _, v in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for tick in np.linspace(x_lo, x_hi, 5):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
            f'y2="{top + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 20}" font-size="11" '
            f'text-anchor="middle">{tick:.3g}</text>'
        )
    for tick in np.linspace(y_lo, y_hi, 5):
        y = py(tick)
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" font-size="11" '
            f'text-anchor="end">{tick:.4g}</text>'
        )
    y_label = "objective value" if y_axis == "value" else "adaptive rounds"
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">budget fraction</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.1f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{escape(y_label)}</text>'
    )
    for idx, (alg, pts) in enumerate(sorted(series.items())):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        if len(pts) > 1:
            coords = " ".join(f"{px(f):.1f},{py(v):.1f}" for f, v in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        for f, v in pts:
            parts.append(
                f'<circle cx="{px(f):.1f}" cy="{py(v):.1f}" r="3" fill="{color}"/>'
            )
        ly = top + 14 + idx * 16
        parts.append(
            f'<line x1="{left + plot_w - 110}" y1="{ly - 4}" x2="{left + plot_w - 90}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 84}" y="{ly}" font-size="11">{escape(alg)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

# (objective family, n, budget fraction) cells covering three ground-set
# sizes, three objective families, and three budget levels
RATIO_INSTANCES = (
    ("cut", 10, 0.2),
    ("cut", 12, 0.4),
    ("cut", 14, 0.6),
    ("cut", 12, 0.6),
    ("revenue", 10, 0.4),
    ("revenue", 12, 0.6),
    ("revenue", 14, 0.2),
    ("revenue", 14, 0.4),
    ("mixture", 10, 0.6),
    ("mixture", 12, 0.2),
    ("mixture", 14, 0.4),
    ("mixture", 10, 0.2),
)

RATIO_FLOOR = 1.0 / 7.0 - 0.1
CONFIDENCE_Z = 2.326  # one-sided 99%


def _ratio_objective(kind, n, index):
    if kind == "cut":
        graph = gen_erdos_renyi(n, 0.5, seed=40 + index)
        return CutObjective(graph), graph.node_costs
    if kind == "revenue":
        graph = gen_erdos_renyi(n, 0.5, seed=40 + index)
        return RevenueObjective(graph), revenue_costs(graph)
    graph = gen_erdos_renyi(n, 0.4, seed=40 + index)
    values = 0.5 + np.random.default_rng(70 + index).random(n)
    objective = SumObjective(ModularObjective(values), CutObjective(graph))
    return objective, graph.node_costs


def ratio_verification(trials=200, base_seed=0, instances=RATIO_INSTANCES):
    """Mean solution quality against the exact optimum on small instances.

    For each instance, runs the solver across seeded trials and checks that
    the mean of ``value / OPT`` clears ``1/7 - 0.1`` with one-sided 99%
    confidence.  Returns a list of per-instance report dicts.  The confidence
    slack uses the sample standard deviation, so ``trials`` must be at least 2.
    """
    if trials < 2:
        raise ValueError("trials must be at least 2: the slack needs a sample deviation")
    if base_seed < 0:
        raise ValueError(f"base_seed must be non-negative, got {base_seed}")
    reports = []
    for index, (kind, n, fraction) in enumerate(instances):
        objective, costs = _ratio_objective(kind, n, index)
        total = float(np.sort(costs).sum())
        instance = KnapsackInstance(costs, fraction * total)
        _, opt = brute_force_opt(objective, instance)
        ratios = np.empty(trials)
        for t in range(trials):
            oracle = CountingOracle(objective)
            config = AstConfig(seed=_trial_seed(base_seed + index, t))
            result = ast(oracle, instance, config)
            if not instance.feasible(result.solution):
                raise AssertionError("infeasible solution in ratio suite")
            ratios[t] = result.value / opt
        slack = CONFIDENCE_Z * ratios.std(ddof=1) / np.sqrt(trials)
        reports.append(
            {
                "objective": kind,
                "n": n,
                "budget_fraction": fraction,
                "opt": opt,
                "mean_ratio": float(ratios.mean()),
                "min_ratio": float(ratios.min()),
                "slack": float(slack),
                "floor": RATIO_FLOOR,
                "passed": bool(ratios.mean() - slack >= RATIO_FLOOR),
            }
        )
    return reports


def adaptivity_bench(
    sizes=(64, 256, 1024, 4096),
    budget=8.0,
    avg_degree=20.0,
    seeds=(0, 1, 2),
    base_seed=100,
):
    """Adaptive-round growth across ground-set sizes.

    Holds the budget constant while the ground set grows, so the measured
    depth reflects the algorithm's scheduling rather than the solution size.
    Fits mean rounds against ``ln n`` and reports the fit quality and the
    largest-to-smallest round ratio, inf (so a failed gate) when the
    smallest size averages no rounds.  The fit needs at least two distinct
    sizes and the seeds must be non-negative; otherwise ``ValueError`` is
    raised before any solve.
    """
    if len(set(sizes)) < 2:
        raise ValueError("sizes must hold at least two distinct values to fit rounds against ln n")
    if min(seeds, default=0) < 0:
        raise ValueError(f"seeds must be non-negative, got {min(seeds)}")
    mean_rounds = []
    detail = {}
    for n in sizes:
        p = min(1.0, avg_degree / n)
        rounds = []
        for s in seeds:
            graph = gen_erdos_renyi(n, p, seed=base_seed + s)
            instance = KnapsackInstance(graph.node_costs, budget)
            oracle = CountingOracle(CutObjective(graph))
            result = ast(oracle, instance, AstConfig(seed=s))
            rounds.append(result.ast_rounds)
        detail[n] = rounds
        mean_rounds.append(float(np.mean(rounds)))
    log_n = np.log(np.asarray(sizes, dtype=np.float64))
    ys = np.asarray(mean_rounds)
    slope, intercept = np.polyfit(log_n, ys, 1)
    predicted = slope * log_n + intercept
    ss_res = float(((ys - predicted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    ratio = mean_rounds[-1] / mean_rounds[0] if mean_rounds[0] > 0 else math.inf
    return {
        "sizes": tuple(sizes),
        "mean_rounds": tuple(mean_rounds),
        "rounds_detail": detail,
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": float(r_squared),
        "round_ratio": float(ratio),
        "passed": bool(r_squared >= 0.9 and ratio <= 4.0),
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def parse_config_file(path):
    """Flat ``key = value`` settings; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _comma_list(convert, noun, skip_blank=False):
    """An argparse ``type=`` for a comma list of ``convert`` values; a bad
    item is a usage error that names the flag and ``noun``."""

    def parse(text):
        items = [x for x in text.split(",") if x.strip() or not skip_blank]
        try:
            return tuple(convert(x) for x in items)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma list of {noun}, got {text!r}"
            ) from None

    return parse


def _non_negative_int(text):
    """An argparse ``type=`` for an integer of at least 0."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


_parse_fractions = _comma_list(float, "numbers", skip_blank=True)
_parse_ints = _comma_list(int, "integers")


def _add_common_options(sub):
    solver = AstConfig()
    sub.add_argument("--config", help="flat key = value settings file")
    sub.add_argument("--objective", choices=OBJECTIVES, default="cut")
    sub.add_argument("--graph", help="edge-list file (cut and revenue)")
    sub.add_argument("--features", help="feature CSV (image_summ)")
    sub.add_argument("--gen-n", type=int, default=200, help="generated instance size")
    sub.add_argument("--gen-p", type=float, default=0.2, help="generated edge probability")
    sub.add_argument(
        "--budget-fracs",
        type=_parse_fractions,
        default=DEFAULT_BUDGET_FRACTIONS,
        help="comma list of budget fractions",
    )
    sub.add_argument("--trials", type=int, default=1)
    sub.add_argument("--epsilon", type=float, default=solver.epsilon)
    sub.add_argument("--delta", type=float, default=solver.delta)
    sub.add_argument("--alpha", type=float, default=solver.alpha)
    sub.add_argument("--seed", type=int, default=solver.seed)
    sub.add_argument("--estimator", choices=sorted(ESTIMATORS), default=solver.estimator)
    sub.add_argument("--out-csv", help="write records here")
    sub.add_argument("--out-svg", help="write a value-vs-budget chart here")
    sub.add_argument(
        "--svg-y", choices=("value", "rounds"), default="value", help="metric for the SVG chart"
    )


def _source(args):
    """The data source the flags name; a data file must exist and suit the
    objective."""
    if args.graph and args.objective == "image_summ":
        raise ValueError("--graph is an edge list for cut or revenue; image_summ reads --features")
    if args.features and args.objective != "image_summ":
        raise ValueError(f"--features takes a feature CSV for image_summ, not {args.objective}")
    flag, path = ("--graph", args.graph) if args.graph else ("--features", args.features)
    if path:
        if not os.path.isfile(path):
            raise ValueError(f"argument {flag}: no such file: {path}")
        return FileSource(path)
    return GenerateSource(args.gen_n, args.gen_p, args.seed)


def _spec_from_args(args, algorithm):
    config = AstConfig(
        alpha=args.alpha,
        epsilon=args.epsilon,
        delta=args.delta,
        seed=args.seed,
        estimator=args.estimator,
    )
    return ExperimentSpec(
        algorithm=algorithm,
        objective=args.objective,
        source=_source(args),
        budget_fractions=args.budget_fracs,
        trials=args.trials,
        config=config,
    )


def _emit(records, args):
    for rec in records:
        print(
            f"{rec.algorithm:>15} {rec.objective:>10} frac={rec.budget_fraction:<8g} "
            f"trial={rec.trial} value={rec.f_value:.4f} queries={rec.total_queries} "
            f"rounds={rec.adaptive_rounds_ast}+{rec.adaptive_rounds_estimator}"
        )
    if args.out_csv:
        write_csv(records, args.out_csv)
        print(f"wrote {args.out_csv}")
    if args.out_svg:
        write_svg_plot(records, args.out_svg, y_axis=args.svg_y)
        print(f"wrote {args.out_svg}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="submodknap",
        description="Budgeted submodular maximization experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run one algorithm over a budget grid")
    run_p.add_argument("--algorithm", choices=ALGORITHMS, default="ast")
    _add_common_options(run_p)

    sweep_p = subs.add_parser("sweep", help="run several algorithms over one grid")
    sweep_p.add_argument(
        "--algorithms", default=",".join(ALGORITHMS), help="comma list (default: all)"
    )
    _add_common_options(sweep_p)

    verify_p = subs.add_parser(
        "verify", help="ratio suite against brute-force optima (exit 1 on failure)"
    )
    verify_p.add_argument("--trials", type=int, default=200)
    verify_p.add_argument("--seed", type=_non_negative_int, default=0)

    bench_p = subs.add_parser(
        "bench-rounds", help="adaptivity scaling suite (exit 1 on failure)"
    )
    bench = inspect.signature(adaptivity_bench).parameters
    bench_p.add_argument("--sizes", type=_parse_ints, default=bench["sizes"].default)
    bench_p.add_argument("--budget", type=float, default=bench["budget"].default)
    bench_p.add_argument("--avg-degree", type=float, default=bench["avg_degree"].default)
    bench_p.add_argument("--bench-seeds", type=_parse_ints, default=bench["seeds"].default)

    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)

    if getattr(args, "config", None):
        # file values are parsed as flags placed between the command and the
        # command line's own flags: argparse checks their types and choices,
        # and explicit flags still win
        command = subs.choices[args.command]
        try:
            file_values = parse_config_file(args.config)
        except (OSError, ValueError) as exc:  # no such file, not text, a malformed line
            reason = getattr(exc, "strerror", None) or exc
            command.error(f"argument --config: {args.config}: {reason}")
        unknown = set(file_values) - (set(vars(args)) - {"command", "config"})
        if unknown:
            command.error(
                f"argument --config: {args.config}: unknown keys: {', '.join(sorted(unknown))}"
            )
        tokens = [f"--{key.replace('_', '-')}={value}" for key, value in file_values.items()]
        args = parser.parse_args(argv[:1] + tokens + argv[1:])

    if args.command in ("run", "sweep"):
        # every spec is built, and so checked, before anything is solved;
        # the specs differ only in the algorithm, so the first one's
        # instances are every spec's
        names = args.algorithm if args.command == "run" else args.algorithms
        try:
            specs = [_spec_from_args(args, name.strip()) for name in names.split(",")]
            _build_instances(specs[0])
        except ValueError as exc:
            subs.choices[args.command].error(str(exc))
        _emit([rec for spec in specs for rec in run_experiment(spec)], args)
        return 0

    if args.command == "verify":
        try:
            reports = ratio_verification(trials=args.trials, base_seed=args.seed)
        except ValueError as exc:
            verify_p.error(f"argument --trials: {exc}")
        failed = False
        for rep in reports:
            status = "PASS" if rep["passed"] else "FAIL"
            failed |= not rep["passed"]
            print(
                f"[{status}] {rep['objective']:>8} n={rep['n']:<3} "
                f"frac={rep['budget_fraction']:<4} mean ratio="
                f"{rep['mean_ratio']:.4f} (floor {rep['floor']:.5f}, "
                f"slack {rep['slack']:.4f}, OPT {rep['opt']:.4f})"
            )
        print("verify:", "FAIL" if failed else "PASS")
        return 1 if failed else 0

    try:
        report = adaptivity_bench(
            sizes=args.sizes, budget=args.budget, avg_degree=args.avg_degree, seeds=args.bench_seeds
        )
    except ValueError as exc:
        bench_p.error(str(exc))
    for n, mean in zip(report["sizes"], report["mean_rounds"]):
        print(f"n={n:<6} mean rounds={mean:.1f} {report['rounds_detail'][n]}")
    print(
        f"fit rounds = {report['slope']:.2f} ln n + {report['intercept']:.2f}, "
        f"R^2 = {report['r_squared']:.4f}, ratio = {report['round_ratio']:.2f}"
    )
    print("bench-rounds:", "PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())

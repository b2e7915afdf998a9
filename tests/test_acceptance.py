"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical checks use one-sided 99% confidence: a mean bound passes when
``mean - 2.326 * sd / sqrt(trials)`` clears the target.
"""

import math
import time
from collections import defaultdict

import numpy as np
import pytest

from submodknap import (
    AstConfig,
    CountingOracle,
    CutObjective,
    ImageSummaryObjective,
    KnapsackInstance,
    ModularObjective,
    RandBatchParams,
    RevenueObjective,
    SimilarityMatrix,
    SumObjective,
    ast,
    brute_force_opt,
    gamma_and_guesses,
    gen_erdos_renyi,
    rand_batch,
    revenue_costs,
    unsub_max,
)
from submodknap.harness import (
    ExperimentSpec,
    GenerateSource,
    adaptivity_bench,
    ratio_verification,
    run_experiment,
)
from conftest import naive_cut, naive_image_summary, naive_revenue

Z99 = 2.326


def report(criterion, name, passed, detail):
    print(f"\nACCEPTANCE {criterion} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def random_similarity(n, dim, seed):
    feats = np.random.default_rng(seed).random((n, dim))
    unit = feats / np.linalg.norm(feats, axis=1)[:, None]
    sim = np.clip((unit @ unit.T + (unit @ unit.T).T) / 2, -1, 1)
    np.fill_diagonal(sim, 1.0)
    return SimilarityMatrix(sim)


# ---------------------------------------------------------------------------
# 1. mean solution quality against exact optima
# ---------------------------------------------------------------------------


def test_c01_mean_ratio_against_brute_force():
    t0 = time.perf_counter()
    reports = ratio_verification(trials=200, base_seed=0)
    elapsed = time.perf_counter() - t0
    assert len(reports) == 12
    worst = min(r["mean_ratio"] - r["slack"] for r in reports)
    passed = all(r["passed"] for r in reports)
    mean_of_means = np.mean([r["mean_ratio"] for r in reports])
    report(
        "C1",
        "mean-ratio-vs-optimum",
        passed,
        f"12 instances x 200 runs, floor {reports[0]['floor']:.5f}, "
        f"worst lower bound {worst:.4f}, grand mean {mean_of_means:.4f}, "
        f"{elapsed:.0f}s",
    )
    for r in reports:
        assert r["passed"], r
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 2 & 3. sampler selection-quality expectations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sampler_trials():
    graph = gen_erdos_renyi(30, 0.3, seed=7)
    objective = CutObjective(graph)
    instance = KnapsackInstance(graph.node_costs, 0.35 * float(graph.node_costs.sum()))
    densities = (
        np.array([objective(np.array([e])) for e in range(30)]) / graph.node_costs
    )
    top = float(densities.max())
    out = {}
    for level in (0.15, 0.35, 0.6):
        threshold = level * top
        params = RandBatchParams(threshold=threshold, accept_cap=50, epsilon=0.1)
        runs = []
        for seed in range(300):
            oracle = CountingOracle(objective)
            result = rand_batch(
                oracle, tuple(range(30)), params, instance, np.random.default_rng(seed)
            )
            runs.append(result.accepted)
        out[threshold] = runs
    return objective, instance, out


def test_c02_selected_batch_value_expectation(sampler_trials):
    t0 = time.perf_counter()
    objective, instance, by_threshold = sampler_trials
    epsilon = 0.1
    details = []
    for threshold, runs in by_threshold.items():
        diffs = []
        for accepted in runs:
            value = objective(np.asarray(accepted, dtype=np.intp))
            cost = instance.cost_of(accepted)
            diffs.append(value - (1 - epsilon) ** 2 * threshold * cost)
        diffs = np.asarray(diffs)
        slack = Z99 * diffs.std(ddof=1) / math.sqrt(len(diffs))
        details.append((threshold, float(diffs.mean()), float(slack)))
    passed = all(mean >= -slack for _, mean, slack in details)
    report(
        "C2",
        "batch-value-expectation",
        passed,
        "; ".join(f"t={t:.1f} margin={m + s:.2f}" for t, m, s in details)
        + f", {time.perf_counter() - t0:.0f}s",
    )
    for threshold, mean, slack in details:
        assert mean >= -slack, (threshold, mean, slack)


def test_c03_per_position_expectation(sampler_trials):
    objective, instance, by_threshold = sampler_trials
    epsilon = 0.1
    checked = 0
    failures = []
    for threshold, runs in by_threshold.items():
        by_position = defaultdict(list)
        for accepted in runs:
            for i, e in enumerate(accepted):
                prefix = np.asarray(accepted[:i], dtype=np.intp)
                gain = objective(np.append(prefix, e)) - objective(prefix)
                by_position[i].append((gain, float(instance.costs[e])))
        for position, samples in by_position.items():
            if len(samples) < 30:
                continue
            gains = np.array([g for g, _ in samples])
            costs = np.array([c for _, c in samples])
            diffs = gains - (1 - epsilon) ** 2 * threshold * costs
            slack = Z99 * diffs.std(ddof=1) / math.sqrt(len(diffs))
            checked += 1
            if diffs.mean() < -slack:
                failures.append((threshold, position, float(diffs.mean())))
    report(
        "C3",
        "per-position-expectation",
        not failures,
        f"{checked} positions with >=30 samples, failures: {failures}",
    )
    assert checked > 0
    assert not failures


# ---------------------------------------------------------------------------
# 4. adaptive rounds grow logarithmically with the ground set
# ---------------------------------------------------------------------------


def test_c04_adaptivity_scaling():
    t0 = time.perf_counter()
    result = adaptivity_bench(
        sizes=(64, 256, 1024, 4096), budget=8.0, avg_degree=20.0, seeds=(0, 1, 2)
    )
    elapsed = time.perf_counter() - t0
    report(
        "C4",
        "log-adaptivity-shape",
        result["passed"],
        f"mean rounds {tuple(round(m, 1) for m in result['mean_rounds'])}, "
        f"R^2={result['r_squared']:.3f} (>=0.9), "
        f"ratio={result['round_ratio']:.2f} (<=4), {elapsed:.0f}s",
    )
    assert result["r_squared"] >= 0.9
    assert result["round_ratio"] <= 4.0
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 5. the prefix-augmentation phase always costs exactly two rounds
# ---------------------------------------------------------------------------


def test_c05_augmentation_round_budget():
    cases = []
    graph = gen_erdos_renyi(40, 0.3, seed=21)
    cut = CutObjective(graph)
    cases += [
        (cut, KnapsackInstance(graph.node_costs, f * float(graph.node_costs.sum())))
        for f in (0.15, 0.5)
    ]
    rev_graph = gen_erdos_renyi(30, 0.4, seed=22)
    cases.append(
        (
            RevenueObjective(rev_graph),
            KnapsackInstance(
                revenue_costs(rev_graph), 0.3 * float(revenue_costs(rev_graph).sum())
            ),
        )
    )
    matrix = random_similarity(24, 8, seed=23)
    cases.append(
        (
            ImageSummaryObjective(matrix),
            KnapsackInstance(
                np.random.default_rng(24).random(24) + 0.01, 3.0
            ),
        )
    )
    runs = 0
    for objective, instance in cases:
        for seed in range(5):
            result = ast(CountingOracle(objective), instance, AstConfig(seed=seed))
            assert result.boost_rounds == 2, (seed, result.boost_rounds)
            runs += 1
    report("C5", "two-round-augmentation", True, f"{runs} runs, all exactly 2 rounds")


# ---------------------------------------------------------------------------
# 6. threshold-grid parameters at the benchmark configuration
# ---------------------------------------------------------------------------


def test_c06_grid_parameters():
    grid = gamma_and_guesses(1.0, 1.0, epsilon=0.1, delta=0.12)
    passed = grid.num_thresholds == 77 and grid.accept_cap == 3950
    report(
        "C6",
        "grid-parameters",
        passed,
        f"thresholds={grid.num_thresholds} (77), cap={grid.accept_cap} (3950)",
    )
    assert grid.num_thresholds == 77
    assert grid.accept_cap == 3950


# ---------------------------------------------------------------------------
# 7. structural invariants on live runs
# ---------------------------------------------------------------------------


def test_c07_structural_invariants():
    graph = gen_erdos_renyi(26, 0.4, seed=31)
    objectives = {
        "cut": CutObjective(graph),
        "revenue": RevenueObjective(graph),
        "mixture": SumObjective(
            ModularObjective(np.random.default_rng(32).random(26) + 0.5),
            CutObjective(graph),
        ),
    }
    checked = 0
    for name, objective in objectives.items():
        instance = KnapsackInstance(graph.node_costs, 0.4 * float(graph.node_costs.sum()))
        for seed in range(4):
            oracle = CountingOracle(objective)
            result = ast(oracle, instance, AstConfig(seed=seed))
            assert instance.feasible(result.solution)
            assert not set(result.x_order) & set(result.y_order)
            assert result.value == objective(np.asarray(result.solution, dtype=np.intp))
            compared = [v for k, (_, v) in result.candidates.items() if k != "S0"]
            assert result.value == max(compared)
            assert (
                result.estimator_rounds + result.ast_rounds
                == oracle.ledger.adaptive_rounds
            )
            assert (
                result.estimator_queries + result.ast_queries
                == oracle.ledger.total_queries
            )
            checked += 1

        # batch/sequential oracle equivalence on random batches
        rng = np.random.default_rng(33)
        sets = [
            rng.choice(26, size=rng.integers(0, 27), replace=False) for _ in range(50)
        ]
        batched = CountingOracle(objective).evaluate_batch(sets)
        sequential = [CountingOracle(objective).evaluate(s) for s in sets]
        assert batched == sequential

    # ledger arithmetic under a random batching pattern
    oracle = CountingOracle(objectives["cut"])
    rng = np.random.default_rng(34)
    sizes = []
    for _ in range(40):
        k = int(rng.integers(1, 7))
        oracle.evaluate_batch(
            [rng.choice(26, size=rng.integers(0, 5), replace=False) for _ in range(k)]
        )
        sizes.append(k)
    assert oracle.ledger.total_queries == sum(sizes)
    assert oracle.ledger.adaptive_rounds == len(sizes)
    report(
        "C7",
        "structural-invariants",
        True,
        f"{checked} solver runs + oracle equivalence + ledger arithmetic",
    )


# ---------------------------------------------------------------------------
# 8. objective correctness: diminishing returns and reference agreement
# ---------------------------------------------------------------------------


def _submodularity_check(objective, n, trials, seed):
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        perm = rng.permutation(n)
        b_size = int(rng.integers(1, n))
        small_size = int(rng.integers(0, b_size + 1))
        big = perm[:b_size]
        small = big[:small_size]
        e = int(perm[b_size])
        gain_small = objective(np.append(small, e)) - objective(small)
        gain_big = objective(np.append(big, e)) - objective(big)
        worst = min(worst, gain_small - gain_big)
        assert gain_small >= gain_big - 1e-9
    return worst


def test_c08_objective_correctness():
    graph = gen_erdos_renyi(30, 0.3, seed=41)
    matrix = random_similarity(24, 8, seed=42)
    cut = CutObjective(graph)
    revenue = RevenueObjective(graph)
    image = ImageSummaryObjective(matrix)

    worst_margins = {
        "cut": _submodularity_check(cut, 30, 500, 43),
        "revenue": _submodularity_check(revenue, 30, 500, 44),
        "image_summ": _submodularity_check(image, 24, 500, 45),
    }

    # agreement with direct formula transcriptions on 1000 random sets each
    rng = np.random.default_rng(46)
    for _ in range(1000):
        ids = rng.choice(30, size=rng.integers(0, 31), replace=False)
        assert cut(ids) == pytest.approx(naive_cut(graph, ids), rel=1e-9, abs=1e-9)
        assert revenue(ids) == pytest.approx(
            naive_revenue(graph, ids), rel=1e-9, abs=1e-9
        )
    for _ in range(1000):
        ids = rng.choice(24, size=rng.integers(0, 25), replace=False)
        assert image(ids) == pytest.approx(
            naive_image_summary(matrix, ids), rel=1e-9, abs=1e-9
        )

    # normalization and the hand-computed reference values
    from submodknap import WeightedGraph

    star = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 4.0), (0, 3, 9.0)])
    triangle = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    path = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert RevenueObjective(star)(()) == 0.0
    assert RevenueObjective(star)((0,)) == pytest.approx(6.0)
    assert CutObjective(triangle)((0,)) == 2.0
    assert CutObjective(path)((1,)) == 2.0
    assert ImageSummaryObjective(SimilarityMatrix(np.ones((2, 2))))((0,)) == pytest.approx(1.0)
    assert ImageSummaryObjective(SimilarityMatrix(np.ones((1, 1))))((0,)) == pytest.approx(0.0)
    two = WeightedGraph(2, [(0, 1, 1.0)])
    assert revenue_costs(two)[0] == pytest.approx(1.0 - math.exp(-1.0))
    for objective in (cut, revenue, image):
        assert objective(np.empty(0, dtype=np.intp)) == 0.0

    report(
        "C8",
        "objective-correctness",
        True,
        "500 diminishing-return triples each (worst margins "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst_margins.items())
        + "), 1000-set reference agreement, hand values",
    )


# ---------------------------------------------------------------------------
# 9. one-round unconstrained maximization reaches a quarter of the optimum
# ---------------------------------------------------------------------------


def test_c09_unconstrained_quarter_bound():
    t0 = time.perf_counter()
    graph = gen_erdos_renyi(12, 0.5, seed=51)
    matrix = random_similarity(12, 6, seed=52)
    instances = (
        ("cut", CutObjective(graph)),
        ("image_summ", ImageSummaryObjective(matrix)),
    )
    details = []
    for name, objective in instances:
        everything = KnapsackInstance(np.ones(12), 13.0)
        _, opt = brute_force_opt(objective, everything)
        assert opt > 0
        values = []
        for seed in range(200):
            oracle = CountingOracle(objective)
            _, value = unsub_max(oracle, tuple(range(12)), 16, np.random.default_rng(seed))
            assert oracle.ledger.adaptive_rounds == 1
            assert oracle.ledger.total_queries == 18
            values.append(value)
        values = np.asarray(values)
        slack = Z99 * values.std(ddof=1) / math.sqrt(len(values))
        details.append((name, float(values.mean()), opt / 4.0, float(slack)))
    passed = all(mean >= target - slack for _, mean, target, slack in details)
    report(
        "C9",
        "one-round-quarter-bound",
        passed,
        "; ".join(
            f"{n}: mean {m:.3f} vs quarter-opt {t:.3f}" for n, m, t, _ in details
        )
        + f", {time.perf_counter() - t0:.0f}s",
    )
    for name, mean, target, slack in details:
        assert mean >= target - slack, (name, mean, target)


# ---------------------------------------------------------------------------
# 10. desk-scale sweep against the greedy baseline
# ---------------------------------------------------------------------------


def test_c10_desk_scale_sweep_vs_greedy():
    """Value on at least half the grid and rounds at the largest budget.

    Kept exactly as stated even though the solver's fixed 77-step threshold
    schedule cannot undercut greedy's round count at this ground-set size;
    see the test output for the measured gap.
    """
    t0 = time.perf_counter()
    fractions = tuple(np.linspace(0.02, 0.20, 8).round(6).tolist())
    base = dict(
        objective="cut",
        source=GenerateSource(n=500, p=0.2, seed=0),
        budget_fractions=fractions,
        trials=2,
        config=AstConfig(seed=0),
    )
    solver_records = run_experiment(ExperimentSpec(algorithm="ast", **base))
    greedy_records = run_experiment(
        ExperimentSpec(algorithm="density_greedy", **base)
    )

    def mean_by_fraction(records, field):
        table = defaultdict(list)
        for rec in records:
            table[rec.budget_fraction].append(getattr(rec, field))
        return {f: float(np.mean(v)) for f, v in table.items()}

    solver_value = mean_by_fraction(solver_records, "f_value")
    greedy_value = mean_by_fraction(greedy_records, "f_value")
    wins = sum(1 for f in fractions if solver_value[f] >= greedy_value[f])

    solver_rounds = mean_by_fraction(solver_records, "adaptive_rounds_ast")
    greedy_rounds = mean_by_fraction(greedy_records, "adaptive_rounds_ast")
    largest = max(fractions)
    rounds_ok = solver_rounds[largest] <= greedy_rounds[largest]

    passed = wins >= len(fractions) / 2 and rounds_ok
    report(
        "C10",
        "desk-scale-sweep-vs-greedy",
        passed,
        f"value wins {wins}/{len(fractions)} (need >= {len(fractions) // 2}), "
        f"rounds at frac {largest}: solver {solver_rounds[largest]:.0f} vs "
        f"greedy {greedy_rounds[largest]:.0f}, {time.perf_counter() - t0:.0f}s",
    )
    assert wins >= len(fractions) / 2, (solver_value, greedy_value)
    assert rounds_ok, (solver_rounds[largest], greedy_rounds[largest])

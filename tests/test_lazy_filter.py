"""The gain-bound filter against the frozen copy of the solver.

``perfbench/submodknap_baseline`` is the solver as it stood before the
threshold loop kept gain bounds: every grid step filtered its whole pool.
The same seeded solves through both must return the same solution, orders,
snapshots and candidates bit for bit, while the solver here charges no more
queries and exactly one round fewer per skipped grid step.  The copy also
predates the objectives' gains: it evaluates every base and extension from
scratch and takes differences, where the solver here reads each gain from a
cached gain state.  So the mid-size cases (one of them revenue, whose gains
are square-root differences) also check that reading gains leaves every
output as it was, bit for bit.  The copy is imported with bytecode writing off, so this test leaves
``perfbench/`` as it found it.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import submodknap
import submodknap.harness  # noqa: F401  (``_build`` reads ``package.harness``)
from conftest import best_singleton_estimate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_baseline():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        package = importlib.import_module("submodknap_baseline")
        importlib.import_module("submodknap_baseline.harness")
        return package
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


baseline = _import_baseline()

KINDS = ("cut", "revenue", "image_summ", "modular+cut")
# the estimate that seeds both solvers' grids: density greedy's, or a low
# one from the best feasible singleton, each package's own put in place of
# its greedy estimator
ESTIMATORS = ("greedy", "singleton")
FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def _build(package, kind, config, n=30):
    """Objective and costs of one generated instance of ``n`` elements,
    built by ``package`` alone."""
    if kind == "modular+cut":
        graph = package.gen_erdos_renyi(30, 0.3, 11)
        values = np.random.default_rng(11).random(30)
        objective = package.SumObjective(
            package.ModularObjective(values), package.CutObjective(graph)
        )
        return objective, graph.node_costs
    spec = package.harness.ExperimentSpec(
        "ast", kind, package.harness.GenerateSource(n, 0.3, 11), config=config
    )
    return package.harness.build_objective(spec)


def _solve(package, kind, fraction, seed, n=30):
    config = package.AstConfig(seed=seed)
    objective, costs = _build(package, kind, config, n)
    instance = package.KnapsackInstance(costs, fraction * float(np.sort(costs).sum()))
    oracle = package.CountingOracle(objective)
    return package.ast(oracle, instance, config), oracle.ledger.snapshot(), costs


def _outputs(result):
    candidates = {
        name: (tuple(int(e) for e in ids), float(value).hex())
        for name, (ids, value) in result.candidates.items()
    }
    return (
        tuple(result.solution),
        float(result.value).hex(),
        tuple(result.x_order),
        tuple(result.y_order),
        tuple(result.x_after_first),
        tuple(result.y_after_second),
        candidates,
    )


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("kind", KINDS)
def test_same_outputs_fewer_queries(monkeypatch, kind, estimator, fraction):
    if estimator == "singleton":
        monkeypatch.setitem(submodknap.ESTIMATORS, "greedy", best_singleton_estimate)
        monkeypatch.setitem(baseline.ESTIMATORS, "greedy", baseline.estimate_best_singleton)
    seed = FRACTIONS.index(fraction)
    result, (queries, rounds), costs = _solve(submodknap, kind, fraction, seed)
    old, (old_queries, old_rounds), old_costs = _solve(baseline, kind, fraction, seed)
    assert np.array_equal(costs, old_costs)
    assert result.num_thresholds > 0  # a non-trivial solve
    assert _outputs(result) == _outputs(old)
    assert queries <= old_queries
    assert old_rounds - rounds == result.skipped_steps


@pytest.mark.parametrize(
    "kind, n, fraction", [("cut", 200, 0.2), ("image_summ", 300, 0.3), ("revenue", 200, 0.1)]
)
def test_mid_size_same_outputs_fewer_queries(kind, n, fraction):
    # long sweeps; the cut solve uses 417 distinct bases, more than the
    # oracle's cache holds, so it also runs past evictions
    result, (queries, rounds), costs = _solve(submodknap, kind, fraction, 0, n)
    old, (old_queries, old_rounds), old_costs = _solve(baseline, kind, fraction, 0, n)
    assert np.array_equal(costs, old_costs)
    assert result.num_thresholds > 0
    assert _outputs(result) == _outputs(old)
    assert queries <= old_queries
    assert old_rounds - rounds == result.skipped_steps


def test_the_copy_is_the_frozen_one():
    assert Path(baseline.__file__).parent == PERFBENCH / "submodknap_baseline"
    assert not hasattr(baseline.AstResult, "skipped_steps")

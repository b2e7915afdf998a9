import itertools

import numpy as np
import pytest

from submodknap import (
    CountingOracle,
    CutObjective,
    KnapsackInstance,
    ModularObjective,
    brute_force_opt,
    density_greedy,
    density_greedy_trace,
    gen_erdos_renyi,
    random_feasible,
)
from submodknap.harness import ExperimentSpec, GenerateSource, build_objective
from conftest import GainsLog, naive_density_greedy
from test_alternating import DIFFERENTIAL_KINDS, _differential_case


def exhaustive_opt(objective, instance):
    """Unpruned reference enumeration over all subsets."""
    best_set, best_value = (), objective(np.empty(0, dtype=np.intp))
    for size in range(1, instance.n + 1):
        for combo in itertools.combinations(range(instance.n), size):
            if instance.cost_of(combo) > instance.budget:
                continue
            value = objective(np.asarray(combo, dtype=np.intp))
            if value > best_value or (value == best_value and combo < best_set):
                best_set, best_value = combo, value
    return best_set, best_value


class TestBruteForce:
    def test_modular_example(self, unit_instance_3):
        objective = ModularObjective([3.0, 2.0, 1.0])
        assert brute_force_opt(objective, unit_instance_3) == ((0, 1), 5.0)

    def test_budget_below_min_cost(self):
        objective = ModularObjective([3.0, 2.0])
        instance = KnapsackInstance(np.array([2.0, 2.0]), 1.0)
        assert brute_force_opt(objective, instance) == ((), 0.0)

    def test_triangle_cut_optimum(self, unit_triangle):
        objective = CutObjective(unit_triangle)
        instance = KnapsackInstance(np.ones(3), 3.0)
        best, value = brute_force_opt(objective, instance)
        assert value == 2.0  # any single vertex or any pair cuts two edges

    def test_matches_unpruned_enumeration(self):
        for seed in range(4):
            graph = gen_erdos_renyi(9, 0.5, seed=seed)
            objective = CutObjective(graph)
            instance = KnapsackInstance(graph.node_costs, 0.5 * float(graph.node_costs.sum()))
            assert brute_force_opt(objective, instance) == exhaustive_opt(objective, instance)

    def test_lexicographic_tie_break(self):
        # elements 0 and 1 are interchangeable; {0} must win over {1}
        objective = ModularObjective([2.0, 2.0, 0.0])
        instance = KnapsackInstance(np.ones(3), 1.0)
        assert brute_force_opt(objective, instance) == ((0,), 2.0)

    def test_size_cap(self):
        objective = ModularObjective(np.ones(30))
        instance = KnapsackInstance(np.ones(30), 5.0)
        with pytest.raises(ValueError, match="capped"):
            brute_force_opt(objective, instance)


class TestDensityGreedy:
    def test_modular_example(self, unit_instance_3):
        oracle = CountingOracle(ModularObjective([3.0, 2.0, 1.0]))
        assert density_greedy(oracle, unit_instance_3) == (0, 1)

    def test_stops_without_positive_marginal(self):
        oracle = CountingOracle(ModularObjective([-1.0, -2.0]))
        instance = KnapsackInstance(np.ones(2), 2.0)
        assert density_greedy(oracle, instance) == ()

    def test_never_violates_budget(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            values = rng.random(n) * 4 - 1
            costs = rng.random(n) + 0.05
            budget = float(rng.random() * costs.sum() + 0.01)
            instance = KnapsackInstance(costs, budget)
            oracle = CountingOracle(ModularObjective(values))
            selected = density_greedy(oracle, instance)
            assert instance.feasible(selected)

    def test_one_round_per_pick_plus_final(self):
        oracle = CountingOracle(ModularObjective([3.0, 2.0, 1.0]))
        instance = KnapsackInstance(np.ones(3), 2.0)
        selected = density_greedy(oracle, instance)
        # two picks plus the round that finds nothing affordable is absent
        # here (budget exactly exhausted), so rounds == picks
        assert oracle.ledger.adaptive_rounds == len(selected)


def _assert_greedy_matches_naive(objective, instance):
    """``density_greedy_trace`` against ``naive_density_greedy`` on fresh
    oracles: order, value and singleton gains bit for bit, the same ledger.
    Returns the trace, the number of gains it computed and the number of
    candidates it was charged for."""
    naive_oracle = CountingOracle(objective)
    order, value, singles = naive_density_greedy(naive_oracle, instance)
    log = GainsLog(objective)
    oracle = CountingOracle(log)
    trace = density_greedy_trace(oracle, instance)
    assert trace.order == order
    assert trace.value.hex() == value.hex()
    assert np.array_equal(trace.singleton_gains, singles)
    assert oracle.ledger.snapshot() == naive_oracle.ledger.snapshot()
    queries, rounds = oracle.ledger.snapshot()  # one query per round is the base's
    return trace, sum(map(len, log.candidates)), queries - rounds


class TestDensityGreedyMatchesNaive:
    @pytest.mark.parametrize("budget_fraction", [0.1, 0.3])
    @pytest.mark.parametrize("kind", DIFFERENTIAL_KINDS)
    def test_generated_instances(self, kind, budget_fraction):
        # a submodular objective computes fewer gains than it is charged
        # for; signed image_summ computes every one
        rng = np.random.default_rng([DIFFERENTIAL_KINDS.index(kind), int(10 * budget_fraction)])
        computed = charged = 0
        for _ in range(3):
            objective, costs = _differential_case(kind, rng)
            instance = KnapsackInstance(costs, budget_fraction * float(np.sort(costs).sum()))
            _, read, paid = _assert_greedy_matches_naive(objective, instance)
            computed += read
            charged += paid
        if kind == "signed_image_summ":
            assert computed == charged
        else:
            assert computed < charged

    @pytest.mark.parametrize(
        "values, costs", [([1.0, 2.0, 0.5], [0.5, 1.0, 0.25]), ([1.0, 2.0, 0.8], [2.0, 4.0, 1.6])]
    )
    def test_equal_densities_go_to_the_lowest_id(self, values, costs):
        # all three densities are equal; past {0}, element 2's bound is
        # below 1, so its slackened bound density tops element 1's, and 2
        # is read first, but 1 ties it and wins.  In the second case 2's
        # gain, 0.8, is above the density 0.5 that 1 must reach
        objective = ModularObjective(values)
        instance = KnapsackInstance(np.array(costs), 2.0 * sum(costs))
        trace, _, _ = _assert_greedy_matches_naive(objective, instance)
        assert trace.order == (0, 1, 2)

    def test_a_top_bound_with_a_non_positive_gain(self):
        # element 2 gains -1e-10 at a cost of 1e-12: its slackened bound,
        # 9e-10, gives it the top bound density, so it is read first, and
        # element 1, whose bound is positive, must be read after it
        objective = ModularObjective([1.0, 1.0, -1e-10])
        instance = KnapsackInstance(np.array([1.0, 1.0, 1e-12]), 3.0)
        trace, _, _ = _assert_greedy_matches_naive(objective, instance)
        assert trace.order == (0, 1)

    def test_stops_when_every_gain_turns_non_positive(self):
        # everything fits, but past {0, 2} only negative gains are left
        objective = ModularObjective([3.0, -1.0, 2.0, -2.0])
        instance = KnapsackInstance(np.ones(4), 4.0)
        trace, _, _ = _assert_greedy_matches_naive(objective, instance)
        assert trace.order == (0, 2) and trace.value == 5.0


# (objective, order, value, (queries, rounds)) of density greedy on the
# n = 30 harness instances that tests/test_seeded_outputs.py solves
# (generator seed 7, edge probability 0.3, budget a quarter of the total
# cost); the estimator, C10 and the ``density_greedy`` rows of ``sweep``
# are these runs
GREEDY_PINNED = [
    ("cut", (0, 23, 14, 10, 2, 21, 7, 1, 3, 22, 16, 5, 19), 42.154760788583644, (327, 14)),
    ("revenue", (7, 10, 21, 19, 2, 1, 16), 27.070912950241564, (196, 7)),
    ("image_summ", (1, 4, 7), 22.408153108342322, (118, 4)),
]


@pytest.mark.parametrize(
    "objective, order, value, snapshot", GREEDY_PINNED, ids=[case[0] for case in GREEDY_PINNED]
)
def test_greedy_output_is_pinned(objective, order, value, snapshot):
    built, costs = build_objective(ExperimentSpec("ast", objective, GenerateSource(30, 0.3, 7)))
    instance = KnapsackInstance(costs, 0.25 * float(np.sort(costs).sum()))
    oracle = CountingOracle(built)
    trace = density_greedy_trace(oracle, instance)
    assert trace.order == order
    assert trace.value == pytest.approx(value, rel=1e-12)
    assert oracle.ledger.snapshot() == snapshot


class TestRandomFeasible:
    def test_everything_fits(self):
        instance = KnapsackInstance(np.ones(5), 10.0)
        kept = random_feasible(instance, np.random.default_rng(0))
        assert sorted(kept) == [0, 1, 2, 3, 4]

    def test_nothing_fits(self):
        instance = KnapsackInstance(np.full(4, 2.0), 1.0)
        assert random_feasible(instance, np.random.default_rng(0)) == ()

    def test_budget_respected_on_random_instances(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            costs = rng.random(n) + 0.01
            instance = KnapsackInstance(costs, float(rng.random() * costs.sum() + 0.01))
            assert instance.feasible(random_feasible(instance, rng))


class TestOracleDominance:
    def test_brute_force_dominates_heuristics(self):
        for seed in range(3):
            graph = gen_erdos_renyi(10, 0.4, seed=seed)
            objective = CutObjective(graph)
            instance = KnapsackInstance(
                graph.node_costs, 0.4 * float(graph.node_costs.sum())
            )
            _, opt = brute_force_opt(objective, instance)
            greedy_set = density_greedy(CountingOracle(objective), instance)
            random_set = random_feasible(instance, np.random.default_rng(seed))
            for chosen in (greedy_set, random_set):
                value = objective(np.asarray(chosen, dtype=np.intp))
                assert value <= opt + 1e-12

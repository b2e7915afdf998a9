import numpy as np
import pytest

from submodknap import (
    AstConfig,
    CountingOracle,
    CutObjective,
    KnapsackInstance,
    ModularObjective,
    ast,
    augment_prefixes,
    brute_force_opt,
    gen_erdos_renyi,
    split_ground,
)


class TestSplitGround:
    def test_everything_expensive(self):
        instance = KnapsackInstance(np.array([1.0, 2.0]), 1.0)
        tiny, rest = split_ground(instance, 0.1)
        assert tiny == ()
        assert rest == (0, 1)

    def test_inclusive_cutoff(self):
        instance = KnapsackInstance(np.array([0.05, 0.1, 0.2, 1.0]), 4.0)
        tiny, rest = split_ground(instance, 0.1)  # cutoff 0.1 * 4 / 4 = 0.1
        assert tiny == (0, 1)
        assert rest == (2, 3)

    def test_partition_and_cheapness(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            costs = rng.random(n) + 0.001
            instance = KnapsackInstance(costs, float(rng.random() * 5 + 0.1))
            tiny, rest = split_ground(instance, 0.1)
            assert sorted(tiny + rest) == list(range(n))
            assert not set(tiny) & set(rest)
            # the tiny side as a whole always fits within epsilon * budget
            assert instance.cost_of(tiny) <= 0.1 * instance.budget + 1e-12


class TestAugmentPrefixes:
    def test_empty_order_yields_no_prefixes(self):
        oracle = CountingOracle(ModularObjective([1.0, 2.0]))
        instance = KnapsackInstance(np.ones(2), 1.0)
        full_value, augmented = augment_prefixes(oracle, instance, ())
        assert full_value == 0.0
        assert augmented == []
        assert oracle.ledger.adaptive_rounds == 1

    def test_budget_saturated_prefix_stays_put(self):
        # the single prefix uses the whole budget, so only its own elements
        # are feasible extensions and the prefix survives unchanged
        oracle = CountingOracle(ModularObjective([5.0, 9.0]))
        instance = KnapsackInstance(np.array([1.0, 1.0]), 1.0)
        _, augmented = augment_prefixes(oracle, instance, (0,))
        assert augmented == [((0,), 5.0)]

    def test_picks_best_feasible_extension(self):
        oracle = CountingOracle(ModularObjective([1.0, 9.0, 4.0]))
        instance = KnapsackInstance(np.ones(3), 2.0)
        _, augmented = augment_prefixes(oracle, instance, (0,))
        assert augmented == [((0, 1), 10.0)]

    def test_single_round_regardless_of_prefix_count(self):
        oracle = CountingOracle(ModularObjective(np.arange(1.0, 7.0)))
        instance = KnapsackInstance(np.ones(6), 4.0)
        augment_prefixes(oracle, instance, (0, 1, 2, 3))
        assert oracle.ledger.adaptive_rounds == 1


class TestConfigValidation:
    def test_benchmark_defaults(self):
        config = AstConfig()
        assert config.alpha == pytest.approx(1.0 / 7.0)
        assert config.epsilon == 0.1
        assert config.delta == 0.12

    def test_ranges(self):
        with pytest.raises(ValueError):
            AstConfig(epsilon=0.2)
        with pytest.raises(ValueError):
            AstConfig(delta=0.2)
        with pytest.raises(ValueError):
            AstConfig(alpha=0.0)
        with pytest.raises(ValueError):
            AstConfig(estimator="nope")


def run_small(objective, instance, seed=0, **kwargs):
    oracle = CountingOracle(objective)
    result = ast(oracle, instance, AstConfig(seed=seed, **kwargs))
    return oracle, result


class TestEndToEnd:
    def test_tiny_modular_recovers_optimum(self, unit_instance_3):
        objective = ModularObjective([3.0, 2.0, 1.0])
        _, opt = brute_force_opt(objective, unit_instance_3)
        oracle, result = run_small(objective, unit_instance_3)
        assert unit_instance_3.feasible(result.solution)
        assert result.value >= (1.0 / 7.0 - 0.1) * opt
        assert result.value == 5.0

    def test_nothing_affordable(self):
        objective = ModularObjective([3.0, 2.0])
        instance = KnapsackInstance(np.array([5.0, 6.0]), 1.0)
        _, result = run_small(objective, instance)
        assert result.solution == ()
        assert result.value == 0.0

    def test_zero_function_trivial_path(self):
        objective = ModularObjective([0.0, 0.0, 0.0])
        instance = KnapsackInstance(np.ones(3), 2.0)
        _, result = run_small(objective, instance)
        assert result.solution == ()
        assert result.value == 0.0
        assert result.compared_candidates == 1

    def test_deterministic_given_seed(self):
        graph = gen_erdos_renyi(20, 0.4, seed=1)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.4 * float(graph.node_costs.sum()))
        oracle_a, a = run_small(objective, instance, seed=7)
        oracle_b, b = run_small(objective, instance, seed=7)
        assert a.solution == b.solution
        assert a.value == b.value
        assert a.x_order == b.x_order and a.y_order == b.y_order
        assert oracle_a.ledger.snapshot() == oracle_b.ledger.snapshot()

    def test_structural_invariants_across_seeds(self):
        graph = gen_erdos_renyi(18, 0.4, seed=2)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.5 * float(graph.node_costs.sum()))
        for seed in range(8):
            oracle, result = run_small(objective, instance, seed=seed)
            assert instance.feasible(result.solution)
            assert not set(result.x_order) & set(result.y_order)
            # the reported value is the oracle's own number for the solution
            assert result.value == objective(np.asarray(result.solution, dtype=np.intp))
            # argmax over the recorded candidates (excluding the estimate)
            compared = [v for k, (_, v) in result.candidates.items() if k != "S0"]
            assert result.value == max(compared)
            assert result.boost_rounds == 2
            expected = len(result.x_order) + len(result.y_order) + 2 + (
                1 if "S1" in result.candidates else 0
            )
            assert result.compared_candidates == expected
            assert result.ast_rounds == (
                result.main_loop_rounds + result.unsubmax_rounds + result.boost_rounds
            )

    def test_prefix_snapshots_are_prefixes(self):
        graph = gen_erdos_renyi(16, 0.5, seed=3)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.5 * float(graph.node_costs.sum()))
        _, result = run_small(objective, instance, seed=4)
        assert result.x_order[: len(result.x_after_first)] == result.x_after_first
        assert result.y_order[: len(result.y_after_second)] == result.y_after_second

    def test_candidates_are_feasible(self):
        graph = gen_erdos_renyi(15, 0.5, seed=5)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.3 * float(graph.node_costs.sum()))
        _, result = run_small(objective, instance, seed=6)
        for name, (ids, _) in result.candidates.items():
            assert instance.feasible(ids), name

    def test_modular_absorbs_everything_in_first_step(self):
        # uniform density 4 with a singleton estimate of 4 puts the top of
        # the threshold grid at 8a*4*(1-eps)/((1-8d)*eps*B) ~ 3.99, just
        # under every density, so the first step takes the whole pool and the
        # second candidate never sees an element
        values = np.full(30, 4.0)
        objective = ModularObjective(values)
        instance = KnapsackInstance(np.ones(30), 258.0)
        _, result = run_small(objective, instance, seed=8, estimator="singleton")
        assert sorted(result.x_after_first) == list(range(30))
        assert result.y_order == ()
        assert result.value == 120.0

    def test_estimator_rounds_reported_separately(self):
        graph = gen_erdos_renyi(14, 0.5, seed=9)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.4 * float(graph.node_costs.sum()))
        oracle, result = run_small(objective, instance, seed=10)
        assert (
            result.estimator_rounds + result.ast_rounds
            == oracle.ledger.adaptive_rounds
        )
        assert (
            result.estimator_queries + result.ast_queries
            == oracle.ledger.total_queries
        )

    def test_mismatched_oracle_rejected(self):
        oracle = CountingOracle(ModularObjective([1.0, 2.0]))
        instance = KnapsackInstance(np.ones(3), 2.0)
        with pytest.raises(ValueError, match="ground-set size"):
            ast(oracle, instance, AstConfig())

import numpy as np
import pytest

from submodknap import (
    CountingOracle,
    CutObjective,
    KnapsackInstance,
    ModularObjective,
    OptEstimate,
    brute_force_opt,
    estimate_greedy,
    gamma_and_guesses,
    ast,
    gen_erdos_renyi,
)
from submodknap.estimator import best_singleton


class LookupObjective:
    """Set function given by an explicit table over frozensets."""

    def __init__(self, n, table):
        self.n = n
        self.table = table

    def __call__(self, ids):
        return self.table[frozenset(int(e) for e in ids)]

    def state(self):
        return frozenset()

    def extend(self, base, e):
        return base | {int(e)}

    def gains(self, base, candidates):
        return np.array([self(base | {int(u)}) - self(base) for u in candidates])


class TestEstimateGreedy:
    def test_modular_example(self, unit_instance_3):
        oracle = CountingOracle(ModularObjective([3.0, 2.0, 1.0]))
        est = estimate_greedy(oracle, unit_instance_3)
        assert est.solution == (0, 1)
        assert est.value == 5.0

    def test_budget_below_every_cost(self):
        oracle = CountingOracle(ModularObjective([3.0, 2.0]))
        instance = KnapsackInstance(np.array([2.0, 2.0]), 1.0)
        est = estimate_greedy(oracle, instance)
        assert est.solution == () and est.value == 0.0

    def test_best_singleton_fallback(self):
        # the density-greedy path gets stuck at value 1; the best feasible
        # singleton is worth 10 and must win
        table = {
            frozenset(): 0.0,
            frozenset({0}): 1.0,
            frozenset({1}): 10.0,
            frozenset({0, 1}): 1.0,
        }
        objective = LookupObjective(2, table)
        instance = KnapsackInstance(np.array([0.01, 1.0]), 1.0)
        est = estimate_greedy(CountingOracle(objective), instance)
        assert est.value >= 10.0
        assert est.solution == (1,)

    def test_singleton_gains_cover_the_first_round(self):
        oracle = CountingOracle(ModularObjective([3.0, 9.0, 5.0]))
        instance = KnapsackInstance(np.array([1.0, 5.0, 1.0]), 2.0)
        est = estimate_greedy(oracle, instance)
        assert est.singleton_gains.tolist() == [3.0, np.inf, 5.0]

    def test_value_is_oracle_exact(self):
        graph = gen_erdos_renyi(12, 0.5, seed=1)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.5 * float(graph.node_costs.sum()))
        est = estimate_greedy(CountingOracle(objective), instance)
        assert est.value == objective(np.asarray(est.solution, dtype=np.intp))


class TestBestSingleton:
    def test_positive_gain_lowest_id_unqueried_skipped(self):
        inf = np.inf
        assert best_singleton(np.array([inf, 2.0, 3.0, 3.0, -1.0])) == ((2,), 3.0)
        assert best_singleton(np.array([inf, 0.0, -1.0])) == ((), 0.0)
        assert best_singleton(np.full(3, inf)) == ((), 0.0)


class TestOptEstimateValidation:
    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            OptEstimate((), -1.0)


class TestGuessGrid:
    def test_reference_parameters(self):
        grid = gamma_and_guesses(5.0, 2.0, alpha=1.0 / 7.0, epsilon=0.1, delta=0.12)
        assert grid.num_thresholds == 77
        assert grid.accept_cap == 3950

    def test_gamma_inverts_to_estimate(self):
        alpha, epsilon, delta, budget = 1.0 / 7.0, 0.1, 0.12, 3.7
        for value in (0.5, 12.0, 400.0):
            grid = gamma_and_guesses(value, budget, alpha=alpha, epsilon=epsilon, delta=delta)
            recovered = grid.gamma * epsilon * budget * (1 - 8 * delta) / (8 * alpha)
            assert recovered == pytest.approx(value, rel=1e-12)
            assert grid.gamma > 0

    def test_grid_shape_is_instance_independent(self):
        shapes = {
            (
                gamma_and_guesses(v, b).num_thresholds,
                gamma_and_guesses(v, b).accept_cap,
            )
            for v in (0.1, 3.0, 99.0)
            for b in (0.5, 10.0)
        }
        assert shapes == {(77, 3950)}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gamma_and_guesses(1.0, 1.0, epsilon=0.2)
        with pytest.raises(ValueError, match="too small"):
            gamma_and_guesses(1.0, 1.0, epsilon=1e-17)  # 1 - epsilon == 1.0
        with pytest.raises(ValueError):
            gamma_and_guesses(1.0, 1.0, delta=0.2)
        with pytest.raises(ValueError, match="trivial"):
            gamma_and_guesses(0.0, 1.0)

    def test_grid_out_of_float_range_is_rejected(self):
        # normal but tiny costs and budget make gamma inf, and a subnormal
        # estimate over a large budget puts the last threshold at 0; either
        # way the solve fails in gamma_and_guesses, before any sampling
        cases = (
            ([5e-308] * 3, 1e-307, [1.0, 2.0, 3.0], "gamma overflows"),
            ([1.0] * 3, 1e10, [1e-320] * 3, "underflows to 0"),
        )
        for costs, budget, values, message in cases:
            instance = KnapsackInstance(np.array(costs), budget)
            with pytest.raises(ValueError, match=message):
                ast(CountingOracle(ModularObjective(values)), instance)
        with pytest.raises(ValueError, match="gamma overflows"):
            gamma_and_guesses(6.0, 1e-307)
        grid = gamma_and_guesses(6.0, 1e-300)  # gamma about 1.7e303
        assert np.isfinite(grid.gamma)

    def test_threshold_window_bracketed_when_estimate_brackets_opt(self):
        """Whenever the estimate lies in [factor * OPT, OPT], some grid
        density lands inside the window the selection analysis targets."""
        alpha, epsilon, delta = 1.0 / 7.0, 0.1, 0.12
        factor = 1.0 / 8.0 - delta
        rng = np.random.default_rng(2)
        for seed in range(4):
            graph = gen_erdos_renyi(12, 0.5, seed=seed)
            objective = CutObjective(graph)
            budget = 0.4 * float(graph.node_costs.sum())
            instance = KnapsackInstance(graph.node_costs, budget)
            _, opt = brute_force_opt(objective, instance)
            for estimate in (factor * opt, opt, *(factor * opt + rng.random(3) * (1 - factor) * opt)):
                grid = gamma_and_guesses(estimate, budget, alpha=alpha, epsilon=epsilon, delta=delta)
                thetas = grid.gamma * (1 - epsilon) ** np.arange(1, grid.num_thresholds + 1)
                window_lo = (1 - epsilon) * alpha * opt / budget
                window_hi = alpha * opt / budget
                assert thetas[0] >= window_hi
                assert thetas[-1] < window_lo
                assert np.any((thetas >= window_lo) & (thetas <= window_hi))

import math

import numpy as np
import pytest

from submodknap import (
    CountingOracle,
    CutObjective,
    KnapsackInstance,
    ModularObjective,
    RandBatchParams,
    gen_erdos_renyi,
    get_seq,
    rand_batch,
)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandBatchParams(threshold=0.0, accept_cap=5)
        with pytest.raises(ValueError):
            RandBatchParams(threshold=1.0, accept_cap=0)
        with pytest.raises(ValueError):
            RandBatchParams(threshold=1.0, accept_cap=5, epsilon=1.0)


class TestGetSeq:
    def test_empty_pool(self):
        instance = KnapsackInstance(np.ones(3), 2.0)
        assert get_seq((), (), instance, 0.0, np.random.default_rng(0)) == []

    def test_single_feasible_element(self):
        instance = KnapsackInstance(np.ones(3), 2.0)
        assert get_seq((), (1,), instance, 0.0, np.random.default_rng(0)) == [1]

    def test_unit_costs_room_for_exactly_two(self):
        instance = KnapsackInstance(np.ones(5), 2.0)
        seq = get_seq((), (0, 1, 2, 3, 4), instance, 0.0, np.random.default_rng(1))
        assert len(seq) == 2

    def test_external_cost_shrinks_room(self):
        instance = KnapsackInstance(np.ones(5), 3.0)
        seq = get_seq((), (0, 1, 2, 3, 4), instance, 2.0, np.random.default_rng(2))
        assert len(seq) == 1

    def test_prefixes_always_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            costs = rng.random(n) + 0.05
            budget = float(rng.random() * costs.sum() + 0.05)
            instance = KnapsackInstance(costs, budget)
            external = float(rng.random() * budget * 0.5)
            pool = tuple(
                e for e in range(n) if costs[e] + external <= budget
            )
            seq = get_seq((), pool, instance, external, rng)
            running = external
            for e in seq:
                running += costs[e]
                assert running <= budget + 1e-12
            assert len(set(seq)) == len(seq)

    def test_deterministic_given_rng_state(self):
        instance = KnapsackInstance(np.random.default_rng(4).random(8) + 0.1, 2.0)
        pool = tuple(range(8))
        a = get_seq((), pool, instance, 0.0, np.random.default_rng(5))
        b = get_seq((), pool, instance, 0.0, np.random.default_rng(5))
        assert a == b


def modular_setup(values, costs, budget):
    objective = ModularObjective(values)
    instance = KnapsackInstance(np.asarray(costs, dtype=float), budget)
    return CountingOracle(objective), instance


class TestRandBatch:
    def test_empty_pool_returns_empty_without_queries(self):
        oracle, instance = modular_setup([1.0, 1.0], [1.0, 1.0], 2.0)
        out = rand_batch(
            oracle, (), RandBatchParams(1.0, 5), instance, np.random.default_rng(0)
        )
        assert out.accepted == out.surviving == ()
        assert oracle.ledger.snapshot() == (0, 0)

    def test_modular_all_dense_all_accepted(self):
        # every density clears the floor and everything fits: the whole pool
        # must be accepted and nothing survives
        values = [5.0, 4.0, 6.0, 3.0]
        oracle, instance = modular_setup(values, [1.0, 1.0, 1.0, 1.0], 10.0)
        out = rand_batch(
            oracle,
            (0, 1, 2, 3),
            RandBatchParams(threshold=2.0, accept_cap=50),
            instance,
            np.random.default_rng(1),
        )
        assert sorted(out.accepted) == [0, 1, 2, 3]
        assert out.surviving == ()

    def test_low_density_element_never_accepted(self):
        values = [5.0, -1.0, 4.0]
        oracle, instance = modular_setup(values, [1.0, 1.0, 1.0], 10.0)
        out = rand_batch(
            oracle,
            (0, 1, 2),
            RandBatchParams(threshold=1.0, accept_cap=50),
            instance,
            np.random.default_rng(2),
        )
        assert 1 not in out.accepted
        assert sorted(out.accepted) == [0, 2]

    def test_budget_filter_respected(self):
        values = [5.0, 5.0, 5.0]
        oracle, instance = modular_setup(values, [1.0, 1.0, 1.0], 2.0)
        out = rand_batch(
            oracle,
            (0, 1, 2),
            RandBatchParams(threshold=1.0, accept_cap=50),
            instance,
            np.random.default_rng(3),
        )
        assert len(out.accepted) == 2
        assert instance.feasible(out.accepted)

    def test_conditioning_set_consumes_budget(self):
        values = [5.0, 5.0, 5.0, 5.0]
        oracle, instance = modular_setup(values, [1.0, 1.0, 1.0, 1.0], 3.0)
        out = rand_batch(
            oracle,
            (1, 2, 3),
            RandBatchParams(threshold=1.0, accept_cap=50),
            instance,
            np.random.default_rng(4),
            base=(0,),
        )
        # only two more unit-cost elements fit beside the conditioning set
        assert len(out.accepted) == 2
        assert instance.cost_of(out.accepted + (0,)) <= instance.budget

    def test_exit_condition(self):
        rng = np.random.default_rng(5)
        graph = gen_erdos_renyi(20, 0.4, seed=6)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.5 * float(graph.node_costs.sum()))
        dens = np.array([objective(np.array([e])) for e in range(20)]) / graph.node_costs
        for cap in (1, 2, 50):
            oracle = CountingOracle(objective)
            out = rand_batch(
                oracle,
                tuple(range(20)),
                RandBatchParams(threshold=0.3 * float(dens.max()), accept_cap=cap),
                instance,
                rng,
            )
            assert out.surviving == () or out.damage_count == cap

    def test_membership_structure(self):
        # accepted is drawn from the pool and fits the budget
        graph = gen_erdos_renyi(15, 0.5, seed=7)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.4 * float(graph.node_costs.sum()))
        pool = tuple(range(15))
        for seed in range(10):
            oracle = CountingOracle(objective)
            out = rand_batch(
                oracle,
                pool,
                RandBatchParams(threshold=1.0, accept_cap=30),
                instance,
                np.random.default_rng(seed),
            )
            assert set(out.accepted) <= set(pool)
            assert instance.feasible(out.accepted)

    def test_accepted_density_cleared_floor_for_modular(self):
        # with a modular function marginals never move, so acceptance
        # certifies the density floor exactly
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = 8
            values = rng.random(n) * 4
            costs = rng.random(n) + 0.1
            # budget comfortably above the total so feasibility never sits
            # on a floating-point boundary
            oracle, instance = modular_setup(values, costs, float(costs.sum()) + 0.5)
            threshold = float(rng.random() * 3 + 0.2)
            out = rand_batch(
                oracle,
                tuple(range(n)),
                RandBatchParams(threshold=threshold, accept_cap=50),
                instance,
                rng,
            )
            for e in out.accepted:
                assert values[e] / costs[e] >= threshold
            for e in range(n):
                if values[e] / costs[e] >= threshold and e not in out.accepted:
                    pytest.fail("dense feasible element left unselected")

    def test_round_accounting_shape(self):
        # rounds per call stay within a generous multiple of log(pool) + cap
        graph = gen_erdos_renyi(60, 0.3, seed=10)
        objective = CutObjective(graph)
        instance = KnapsackInstance(graph.node_costs, 0.4 * float(graph.node_costs.sum()))
        dens = np.array([objective(np.array([e])) for e in range(60)]) / graph.node_costs
        params = RandBatchParams(threshold=0.2 * float(dens.max()), accept_cap=40)
        rounds = []
        for seed in range(10):
            oracle = CountingOracle(objective)
            rand_batch(oracle, tuple(range(60)), params, instance, np.random.default_rng(seed))
            rounds.append(oracle.ledger.adaptive_rounds)
        beta = float(graph.node_costs.max() / graph.node_costs.min())
        bound = (1.0 / params.epsilon) * (math.log(60 * beta) + params.accept_cap)
        assert np.mean(rounds) <= bound

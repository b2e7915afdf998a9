import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodknap import (
    BatchContractError,
    CountingOracle,
    CutObjective,
    KnapsackInstance,
    ModularObjective,
    as_id_array,
)


def make_modular_oracle(values=(3.0, 2.0, 1.0)):
    return CountingOracle(ModularObjective(values))


class TestAsIdArray:
    def test_integer_collections(self):
        for ids in ([2, 0], (2, 0), np.array([2, 0], dtype=np.int32), range(2, -1, -2)):
            arr = as_id_array(ids)
            assert arr.dtype == np.intp
            assert arr.tolist() == [2, 0]

    def test_empty_collections_are_valid(self):
        for ids in ((), [], np.array([]), np.empty(0, dtype=bool), set()):
            arr = as_id_array(ids)
            assert arr.dtype == np.intp
            assert arr.size == 0

    def test_float_ids_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            as_id_array([1.7])
        with pytest.raises(ValueError, match="integers"):
            as_id_array(np.array([0.0, 1.0]))

    def test_boolean_mask_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            as_id_array([True, False])
        with pytest.raises(ValueError, match="integers"):
            as_id_array(np.array([True, False, True]))

    def test_not_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            as_id_array(np.zeros((2, 2), dtype=np.intp))

    def test_oracle_rejects_float_ids(self):
        oracle = make_modular_oracle()
        with pytest.raises(ValueError, match="integers"):
            oracle.evaluate(np.array([0.9, 1.2]))
        assert oracle.ledger.snapshot() == (0, 0)


class TestEvaluate:
    def test_empty_set_is_zero_on_cut(self, unit_triangle):
        oracle = CountingOracle(CutObjective(unit_triangle))
        assert oracle.evaluate(()) == 0.0

    def test_modular_pair(self):
        oracle = make_modular_oracle()
        assert oracle.evaluate([0, 1]) == 5.0

    def test_triangle_singleton_cuts_two_edges(self, unit_triangle):
        oracle = CountingOracle(CutObjective(unit_triangle))
        assert oracle.evaluate([0]) == 2.0

    def test_counts_one_query_one_round(self):
        oracle = make_modular_oracle()
        oracle.evaluate([0])
        assert oracle.ledger.total_queries == 1
        assert oracle.ledger.adaptive_rounds == 1

    def test_out_of_range_id_rejected(self):
        oracle = make_modular_oracle()
        with pytest.raises(ValueError, match="out of range"):
            oracle.evaluate([3])
        with pytest.raises(ValueError, match="out of range"):
            oracle.evaluate([-1])


class TestEvaluateBatch:
    def test_seven_singletons_one_round(self):
        oracle = CountingOracle(ModularObjective(np.arange(1.0, 8.0)))
        values = oracle.evaluate_batch([[i] for i in range(7)])
        assert values == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        assert oracle.ledger.adaptive_rounds == 1
        assert oracle.ledger.total_queries == 7

    def test_batch_of_empty_set(self):
        oracle = make_modular_oracle()
        assert oracle.evaluate_batch([()]) == [0.0]
        assert oracle.ledger.snapshot() == (1, 1)

    def test_all_subsets_of_three_modular(self):
        oracle = make_modular_oracle()
        subsets = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        values = oracle.evaluate_batch(subsets)
        assert values == [0.0, 3.0, 2.0, 1.0, 5.0, 4.0, 3.0, 6.0]
        assert oracle.ledger.snapshot() == (8, 1)

    def test_empty_batch_rejected(self):
        oracle = make_modular_oracle()
        with pytest.raises(BatchContractError):
            oracle.evaluate_batch([])

    def test_matches_sequential_evaluate_exactly(self, unit_triangle):
        objective = CutObjective(unit_triangle)
        batch_oracle = CountingOracle(objective)
        seq_oracle = CountingOracle(objective)
        sets = [(), (0,), (1, 2), (0, 1, 2), (2, 0)]
        batched = batch_oracle.evaluate_batch(sets)
        singles = [seq_oracle.evaluate(s) for s in sets]
        assert batched == singles


class TestMarginalBatch:
    def test_marginals_from_empty_equal_values(self):
        oracle = make_modular_oracle()
        assert oracle.marginal_batch((), [0, 1, 2]) == [3.0, 2.0, 1.0]

    def test_candidate_inside_base_has_zero_marginal(self):
        oracle = make_modular_oracle()
        assert oracle.marginal_batch((0,), [0]) == [0.0]

    def test_triangle_neighbor_marginal_vanishes(self, unit_triangle):
        # f({0,1}) = 2 = f({0}) on the unit triangle
        oracle = CountingOracle(CutObjective(unit_triangle))
        assert oracle.marginal_batch((0,), [1]) == [0.0]

    def test_query_accounting(self):
        oracle = make_modular_oracle()
        oracle.marginal_batch((0,), [1, 2])
        assert oracle.ledger.snapshot() == (3, 1)  # base + two extensions


class TestEvaluateExtensions:
    def test_values_match_direct_evaluation(self, unit_triangle):
        objective = CutObjective(unit_triangle)
        oracle = CountingOracle(objective)
        groups = [((0,), (1, 2)), ((), (0, 1, 2)), ((0, 1, 2), (0,))]
        out = oracle.evaluate_extensions(groups)
        reference = CountingOracle(objective)
        for (base, cands), (base_value, ext) in zip(groups, out):
            assert base_value == reference.evaluate(base)
            for u, value in zip(cands, ext):
                expected = reference.evaluate(tuple(base) + ((u,) if u not in base else ()))
                assert value == expected

    def test_charges_base_plus_extensions(self):
        oracle = make_modular_oracle()
        oracle.evaluate_extensions([((0,), (1, 2)), ((), ())])
        assert oracle.ledger.snapshot() == (4, 1)  # (1+2) + (1+0)

    def test_empty_group_list_rejected(self):
        oracle = make_modular_oracle()
        with pytest.raises(BatchContractError):
            oracle.evaluate_extensions([])


class TestFeasibility:
    def test_empty_always_feasible(self, unit_instance_3):
        assert unit_instance_3.feasible(())

    def test_over_budget(self, unit_instance_3):
        assert not unit_instance_3.feasible((0, 1, 2))

    def test_boundary_is_inclusive(self):
        instance = KnapsackInstance(np.array([0.5, 0.6]), 1.1)
        assert instance.feasible((0, 1))

    def test_cost_uses_ascending_id_order(self):
        instance = KnapsackInstance(np.array([0.1, 0.7, 0.3]), 1.0)
        assert instance.cost_of((2, 0, 1)) == instance.cost_of((0, 1, 2))

    def test_max_feasible_cardinality(self):
        instance = KnapsackInstance(np.array([0.5, 0.2, 0.9, 0.1]), 0.85)
        # cheapest prefix sums: 0.1, 0.3, 0.8, 1.7
        assert instance.max_feasible_cardinality == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            KnapsackInstance(np.array([1.0, -0.5]), 1.0)
        with pytest.raises(ValueError):
            KnapsackInstance(np.array([1.0]), 0.0)


class TestLedger:
    def test_arithmetic_over_many_batches(self):
        oracle = make_modular_oracle()
        rng = np.random.default_rng(0)
        batch_sizes = []
        for _ in range(30):
            k = int(rng.integers(1, 6))
            sets = [rng.choice(3, size=rng.integers(0, 4), replace=False) for _ in range(k)]
            oracle.evaluate_batch(sets)
            batch_sizes.append(k)
        assert oracle.ledger.total_queries == sum(batch_sizes)
        assert oracle.ledger.adaptive_rounds == len(batch_sizes)

    def test_purity_bit_identical(self, unit_triangle):
        oracle = CountingOracle(CutObjective(unit_triangle))
        first = oracle.evaluate((2, 0))
        again = oracle.evaluate((0, 2))
        assert first == again


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_sequential_equivalence_property(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    values = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    objective = ModularObjective(np.asarray(values))
    sets = data.draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=n, unique=True),
            min_size=1,
            max_size=6,
        )
    )
    batched = CountingOracle(objective).evaluate_batch(sets)
    sequential = [CountingOracle(objective).evaluate(s) for s in sets]
    assert batched == sequential

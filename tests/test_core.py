import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodknap import (
    AstConfig,
    BatchContractError,
    CountingOracle,
    CutObjective,
    ImageSummaryObjective,
    KnapsackInstance,
    ModularObjective,
    RevenueObjective,
    SumObjective,
    as_id_array,
    ast,
    density_greedy,
    gen_erdos_renyi,
    similarity_from_features,
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
        # among ints numpy would cast these to the ints 1 and 0
        for ids in ([3, True, 5], (3, np.True_), [np.False_, 2]):
            with pytest.raises(ValueError, match="integers"):
                as_id_array(ids)

    def test_ints_past_int64_rejected(self):
        for ids in ([2**70], (1, 2**70), [-(2**70)]):
            with pytest.raises(ValueError, match="integers"):
                as_id_array(ids)

    def test_python_int_lists(self):
        for ids, message in (([1, True], "bool"), ([1, 2.0], "float"), ((1, np.True_), "bool")):
            with pytest.raises(ValueError, match=message):
                as_id_array(ids)
        empty = as_id_array([])
        assert empty.dtype == np.intp and empty.shape == (0,)
        arr = as_id_array([5, 0, 2**62])
        assert arr.dtype == np.intp and arr.tolist() == [5, 0, 2**62]

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
        assert oracle.marginal_batch((), [0, 1, 2]).tolist() == [3.0, 2.0, 1.0]

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
        for (base, cands), gains in zip(groups, out):
            assert oracle.evaluate_batch([base]) == [objective(base)]
            for u, gain in zip(cands, gains):
                extended = tuple(base) + ((u,) if u not in base else ())
                assert gain == objective(extended) - objective(base)

    def test_charges_base_plus_extensions(self):
        oracle = make_modular_oracle()
        oracle.evaluate_extensions([((0,), (1, 2)), ((), ())])
        assert oracle.ledger.snapshot() == (4, 1)  # (1+2) + (1+0)

    def test_exact_value_charges_nothing(self):
        objective = CutObjective(gen_erdos_renyi(20, 0.3, seed=2))
        oracle = CountingOracle(objective)
        (gains,) = oracle.evaluate_extensions([((3, 9), (4, 11))])
        assert oracle.exact_value((3, 9, 11)) == objective((3, 9, 11))
        expected = objective((3, 9)) + gains[1]
        assert oracle.exact_value((3, 9, 11)) == pytest.approx(expected, rel=1e-12)
        assert oracle.ledger.snapshot() == (3, 1)

    def test_empty_group_list_rejected(self):
        oracle = make_modular_oracle()
        with pytest.raises(BatchContractError):
            oracle.evaluate_extensions([])


class TestRepeatedIds:
    """A queried set is a set: a base that repeats an id is rejected, not
    evaluated as a multiset."""

    def test_every_method_rejects_repeated_base_ids(self):
        oracle = CountingOracle(CutObjective(gen_erdos_renyi(20, 0.3, seed=1)))
        single = oracle.evaluate([3])
        calls = [
            lambda: oracle.evaluate([3, 3]),
            lambda: oracle.evaluate_batch([[3], [3, 5, 3]]),
            lambda: oracle.evaluate_extensions([((3,), (4,)), ((4, 4), (3,))]),
            lambda: oracle.marginal_batch((3, 3), (4,)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="repeats"):
                call()
            assert oracle.ledger.snapshot() == (1, 1)  # nothing charged
        assert oracle.evaluate([3]) == single

    def test_extending_a_cached_base_checks_the_new_id(self):
        # the oracle checks only the last id of a base whose parent it has
        # cached or checked in the same call; that id must still be new and
        # in range, and a rejected call charges nothing
        oracle = CountingOracle(CutObjective(gen_erdos_renyi(20, 0.3, seed=1)))
        oracle.evaluate([3])
        with pytest.raises(ValueError, match="repeats"):
            oracle.evaluate([3, 3])
        assert oracle.ledger.snapshot() == (1, 1)
        oracle.marginal_batch([3], [1])  # caches the gain state of (3,)
        with pytest.raises(ValueError, match="repeats"):
            oracle.evaluate([3, 3])
        with pytest.raises(ValueError, match="range"):
            oracle.evaluate([3, 20])
        with pytest.raises(ValueError, match="range"):
            oracle.evaluate([3, -1])
        with pytest.raises(ValueError, match="integers"):
            oracle.evaluate([3.0])
        with pytest.raises(ValueError, match="repeats"):
            oracle.evaluate_extensions([((5,), (1,)), ((5, 5), (1,))])
        assert oracle.ledger.snapshot() == (3, 2)

    def test_rejected_batch_evaluates_nothing(self):
        seen = []

        class Recording(ModularObjective):
            def __call__(self, ids):
                seen.append(tuple(ids))
                return super().__call__(ids)

        oracle = CountingOracle(Recording([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            oracle.evaluate_batch([(0,), (1, 2), (2, 2)])
        assert seen == [] and oracle.ledger.snapshot() == (0, 0)

    @pytest.mark.parametrize("kind", ["cut", "revenue", "image_summ", "modular", "sum"])
    @pytest.mark.parametrize(
        "ids, message",
        [
            ((3, 5, 3), "a queried set repeats an element id"),
            (np.array([5, 3, 5]), "a queried set repeats an element id"),
            ((3, -1), "element id out of range for this ground set"),
            ((3, 20), "element id out of range for this ground set"),
        ],
        ids=["repeat", "repeat-array", "negative", "past-n"],
    )
    def test_objectives_and_exact_value_raise_what_evaluate_raises(self, kind, ids, message):
        graph = gen_erdos_renyi(20, 0.3, seed=1)
        objective = {
            "cut": lambda: CutObjective(graph),
            "revenue": lambda: RevenueObjective(graph),
            "image_summ": lambda: ImageSummaryObjective(
                similarity_from_features(np.random.default_rng(0).random((20, 8)))
            ),
            "modular": lambda: ModularObjective(np.arange(1.0, 21.0)),
            "sum": lambda: SumObjective(CutObjective(graph), ModularObjective(np.ones(20))),
        }[kind]()
        oracle = CountingOracle(objective)
        for call in (oracle.evaluate, objective, oracle.exact_value):
            with pytest.raises(ValueError) as info:
                call(ids)
            assert str(info.value) == message
        assert oracle.ledger.snapshot() == (0, 0)

    def test_repeated_candidates_are_separate_queries(self):
        oracle = make_modular_oracle()
        assert oracle.marginal_batch((0,), [1, 1, 0]).tolist() == [2.0, 2.0, 0.0]
        assert oracle.ledger.snapshot() == (4, 1)


class TestTupleBases:
    """A tuple of Python ints is its own cache key, with no conversion;
    every other base goes through ``as_id_array``.  Either way the ids are
    checked the same, and a rejected call charges nothing."""

    @staticmethod
    def _cached_oracle():
        # caches the gain state of (3, 1, 5): its gains are read
        oracle = CountingOracle(CutObjective(gen_erdos_renyi(20, 0.3, seed=1)))
        oracle.marginal_batch((3, 1, 5), [0])
        assert (3, 1, 5) in oracle._states
        return oracle

    @pytest.mark.parametrize(
        "base, message",
        [
            # a non-int id compares equal to an int one, so the tuple's
            # parent matches the cached (3, 1, 5) as a dict key
            ((3.0, 1, 5, 7), "integers"),
            ((3, 1.0, 5, 7), "integers"),
            ((3, 1, 5, 7.0), "integers"),
            ((3, np.float64(1.0), 5, 7), "integers"),
            ((3, 1, np.float64(5.0), 7), "integers"),
            ((3, True, 5, 7), "integers"),
            ((3, np.True_, 5, 7), "integers"),
            ((3, 1, 5, True), "integers"),
            ((3, 1, 5, 20), "range"),
            ((3, 1, 5, -1), "range"),
            ((3, 1, 5, 1), "repeats"),
            ((3, 1, 5, 3), "repeats"),
        ],
    )
    def test_ids_are_checked_when_the_parent_is_cached(self, base, message):
        oracle = self._cached_oracle()
        before = oracle.ledger.snapshot()
        for call in (
            lambda: oracle.evaluate_extensions([(base, [0, 2])]),
            lambda: oracle.marginal_batch(base, [0]),
            lambda: oracle.evaluate(base),
        ):
            with pytest.raises(ValueError, match=message):
                call()
            assert oracle.ledger.snapshot() == before
        # the parent checked earlier in the same call, not cached
        fresh = CountingOracle(oracle.objective)
        with pytest.raises(ValueError, match=message):
            fresh.evaluate_extensions([((3, 1, 5), [0]), (base, [0])])
        assert fresh.ledger.snapshot() == (0, 0)

    def test_numpy_ints_give_the_same_answers(self):
        oracle, reference = self._cached_oracle(), self._cached_oracle()
        cands = [0, 2, 7, 3]
        for base in ((3, 1, 5, 7), (3, 1, 5), (3, 1), (8, 9, 2, 4)):
            for pos in range(len(base)):
                mixed = base[:pos] + (np.int64(base[pos]),) + base[pos + 1:]
                got = oracle.marginal_batch(mixed, cands)
                assert got.tobytes() == reference.marginal_batch(base, cands).tobytes()
            assert oracle.evaluate(tuple(np.array(base))) == reference.evaluate(base)
        assert oracle.ledger.snapshot() == reference.ledger.snapshot()

    # Sweep-shaped calls as a plain list: every group takes the full check,
    # so a fault anywhere in a nested base is found, siblings and shorter
    # bases are checked alike, and equal ids that are other objects give
    # the same answers and charges.

    @staticmethod
    def _sweep(base=(3, 1, 5), seq=(7, 9, 11)):
        """The nested bases of a sweep: ``base``, then ``base`` plus each
        prefix of ``seq``."""
        keys = [base]
        for e in seq:
            keys.append(keys[-1] + (e,))
        return keys

    def _assert_rejected(self, keys, message):
        """The sweep over ``keys`` raises and charges nothing, on a fresh
        oracle and on one that caches the first base."""
        cands = np.array([0, 2])
        for oracle in (CountingOracle(self._cached_oracle().objective), self._cached_oracle()):
            before = oracle.ledger.snapshot()
            with pytest.raises(ValueError, match=message):
                oracle.evaluate_extensions([(key, cands) for key in keys])
            assert oracle.ledger.snapshot() == before

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("kind", ["float", "numpy float", "bool", "numpy bool"])
    def test_a_nested_group_checks_every_type(self, kind, position):
        keys = self._sweep()
        e = keys[2][position]
        bad = {"float": float(e), "numpy float": np.float64(e), "bool": True, "numpy bool": np.True_}
        keys[2] = keys[2][:position] + (bad[kind],) + keys[2][position + 1:]
        self._assert_rejected(keys, "integers")

    @pytest.mark.parametrize(
        "position, value, message",
        [
            (4, 3, "repeats"),  # the last id repeats the shared prefix's first
            (4, 5, "repeats"),
            (4, 7, "repeats"),  # ... or its last
            (4, 20, "range"),
            (4, -1, "range"),
            (0, 20, "range"),
            (2, 20, "range"),
            (2, 3, "repeats"),
        ],
    )
    def test_a_nested_group_checks_its_ids(self, position, value, message):
        keys = self._sweep()
        keys[2] = keys[2][:position] + (value,) + keys[2][position + 1:]
        self._assert_rejected(keys, message)

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_equal_ids_that_are_other_objects_give_the_same_answers(self, position):
        # ids past 256 are distinct objects when built afresh, so these
        # groups take the full check; the answers and charges stay the same
        objective = CutObjective(gen_erdos_renyi(600, 0.05, seed=2))
        keys = self._sweep((300, 280, 500), (307, 409, 511))
        cands = np.array([0, 2, 299, 599])
        reference = CountingOracle(objective)
        want = list(reference.evaluate_extensions([(key, cands) for key in keys]))
        for convert in (np.int64, lambda e: int(str(e))):
            mixed = list(keys)
            mixed[2] = keys[2][:position] + (convert(keys[2][position]),) + keys[2][position + 1:]
            oracle = CountingOracle(objective)
            got = list(oracle.evaluate_extensions([(key, cands) for key in mixed]))
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            assert oracle.ledger.snapshot() == reference.ledger.snapshot()

    @pytest.mark.parametrize(
        "sibling, message",
        [
            ((3, 1, 5, 3), "repeats"),
            ((3, 1, 5, 20), "range"),
            ((3, 1, 5, 9.0), "integers"),
            ((3, 1, 5, True), "integers"),
            ((3, 1, 9, 7, 9), "repeats"),  # one id longer, not an extension
            ((3, 1, 5, 9, 3), "repeats"),
        ],
    )
    def test_a_sibling_group_takes_the_full_check(self, sibling, message):
        self._assert_rejected([(3, 1, 5, 7), sibling], message)

    def test_siblings_give_the_same_answers(self):
        objective = self._cached_oracle().objective
        groups = [(3, 1, 5, 7), (3, 1, 5, 9), (3, 1, 5, 9, 2), (3, 1), (3, 1, 4)]
        cands = np.array([0, 2, 8])
        oracle = CountingOracle(objective)
        got = list(oracle.evaluate_extensions([(key, cands) for key in groups]))
        for key, gains in zip(groups, got):
            assert gains.tobytes() == CountingOracle(objective).marginal_batch(key, cands).tobytes()
        assert oracle.ledger.snapshot() == (len(groups) * 4, 1)


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

    def test_cost_of_an_array_leaves_it_unsorted(self):
        instance = KnapsackInstance(np.array([0.1, 0.7, 0.3]), 1.0)
        ids = np.array([2, 0, 1], dtype=np.intp)
        assert instance.cost_of(ids) == instance.cost_of((0, 1, 2))
        assert ids.tolist() == [2, 0, 1]

    @pytest.mark.parametrize("ids", [[-1], [3], [0, -1], [2, 3, 1], np.array([1, -2])])
    def test_ids_outside_the_ground_set_are_rejected(self, unit_instance_3, ids):
        # a negative id must not wrap to a cost from the end of the array
        with pytest.raises(ValueError, match="range"):
            unit_instance_3.cost_of(ids)
        with pytest.raises(ValueError, match="range"):
            unit_instance_3.feasible(ids)

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


class _MinimalModular:
    """A modular objective that offers only what the objective contract
    asks for: ``n``, ``__call__``, ``state()``, ``extend`` and ``gains``."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.n = self.values.size

    def __call__(self, ids):
        return float(self.values[np.sort(as_id_array(ids))].sum())

    def state(self):
        return frozenset()

    def extend(self, base, e):
        return base | {int(e)}

    def gains(self, base, candidates):
        return np.array([0.0 if int(u) in base else self.values[u] for u in candidates])


@pytest.mark.parametrize("seed", range(4))
def test_a_minimal_objective_solves_like_a_modular_one(seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=30)
    instance = KnapsackInstance(0.1 + rng.random(30), 4.0)
    sets = [(), (3,), (7, 1, 20), tuple(range(30))]
    answers = []
    for objective in (_MinimalModular(values), ModularObjective(values)):
        result = ast(CountingOracle(objective), instance, AstConfig(seed=seed))
        answers.append((
            result.solution,
            result.value,
            density_greedy(CountingOracle(objective), instance),
            CountingOracle(objective).evaluate_batch(sets),
        ))
    assert answers[0] == answers[1]
